"""Machine-checkable acceptance criteria.

Each criterion is declared once: @criterion(id, label, runtime_limit) on a
body that yields its Checks at pinned sizes and tolerances.  The declared
criterion_* function returns a CriterionResult and is the ALL_CRITERIA
entry of its id; the declarations run in id order, and run_all() drives
them.  The same functions back both the `adiatherm verify` subcommand and
the pytest acceptance suite, so the CLI report and the tests can never
drift apart.

The dense criteria (AC01-AC03) take each model's whole beta grid from one
dense_sums_sweep, so V is rotated into H0's eigenbasis once per model,
and AC14 takes each model's beta ladder from one sweep per exact route.
AC11 takes its lambda = h, 0, -h states from one quasi_gibbs_states sweep
per model.
Criterion 13 compares fixed-N and thermodynamic low-temperature expansions
at a scale (1e-18) below double resolution, so that single check evaluates
both sides with 50-digit arithmetic (the standard library's decimal, whose
exp and sqrt are correctly rounded) and separately certifies the
double-precision implementation against the high-precision value.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import closed_forms as cf
from .dynamics import evolve
from .models import SpinChainModel, build_h0, build_v
from .operators import eigh, hs_norm
from .susceptibility import (
    chi_f_thermal,
    dense_sums,
    dense_sums_sweep,
    flip_sums,
    flip_sums_sweep,
    low_temp_coefficients,
)
from .thermal import escort_state, gibbs_state, quasi_gibbs_states


@dataclass(frozen=True)
class Check:
    """One measured value against its tolerance.

    ok defaults to measured <= tolerance; a check with another rule (a
    strict or two-sided bound, or a comparison made at higher precision)
    passes its own ok.
    """

    name: str
    measured: float
    tolerance: float
    ok: bool | None = None

    def __post_init__(self):
        # numpy scalars would poison the JSON report
        object.__setattr__(self, "measured", float(self.measured))
        object.__setattr__(self, "tolerance", float(self.tolerance))
        ok = self.measured <= self.tolerance if self.ok is None else self.ok
        object.__setattr__(self, "ok", bool(ok))


@dataclass(frozen=True)
class CriterionResult:
    id: str
    label: str
    passed: bool
    elapsed_s: float
    checks: list[Check] = field(default_factory=list)

    def as_dict(self):
        """The JSON record of the result: dataclasses.asdict without its deep copy."""
        checks = [
            {"name": c.name, "measured": c.measured, "tolerance": c.tolerance, "ok": c.ok}
            for c in self.checks
        ]
        return {
            "id": self.id,
            "label": self.label,
            "passed": self.passed,
            "elapsed_s": self.elapsed_s,
            "checks": checks,
        }


ALL_CRITERIA = {}


def criterion(cid, label, runtime_limit=None):
    """Declare a criterion whose body yields its Checks.

    The declared function times the body and returns its CriterionResult;
    with a runtime_limit it adds a strict runtime_s check.  It is also the
    ALL_CRITERIA entry of cid, one object under both names.
    """

    def declare(body):
        @functools.wraps(body)
        def run():
            started = time.perf_counter()
            checks = list(body())
            elapsed = time.perf_counter() - started
            if runtime_limit is not None:
                checks.append(Check("runtime_s", elapsed, runtime_limit, elapsed < runtime_limit))
            return CriterionResult(cid, label, all(c.ok for c in checks), elapsed, checks)

        ALL_CRITERIA[cid] = run
        return run

    return declare


def _rel(a, b):
    return abs(a / b - 1.0)


def _dense(model):
    """H0's eigendecomposition and the dense V, prepared once per model."""
    return eigh(build_h0(model)), build_v(model)


@criterion("AC01", "ED vs closed-form equivalence (TFIC)", runtime_limit=30.0)
def criterion_01():
    """TFIC: exact diagonalization matches the transfer-matrix closed forms."""
    betas = (0.1, 0.3, 1.0, 3.0)
    for n in (3, 4, 6, 8):
        sweep = dense_sums_sweep(*_dense(SpinChainModel("tfic", n)), betas)
        for beta, sums in zip(betas, sweep):
            rel_dv = _rel(sums.delta_v, cf.delta_v_tfic_closed(n, beta, 1.0))
            rel_chi = _rel(sums.chi_f, cf.chi_f_tfic_closed(n, beta, 1.0))
            yield Check(f"delta_v N={n} betaJ={beta}", rel_dv, 1e-9)
            yield Check(f"chi_f N={n} betaJ={beta}", rel_chi, 1e-8)


@criterion("AC02", "QXYC == TFIC for deltaV and chi_F")
def criterion_02():
    """QXYC and TFIC give identical deltaV and chi_F at matched (N, beta)."""
    betas = (0.3, 1.0)
    for n in (3, 4, 6):
        tfic = dense_sums_sweep(*_dense(SpinChainModel("tfic", n)), betas)
        qxyc = dense_sums_sweep(*_dense(SpinChainModel("qxyc", n)), betas)
        for beta, t, q in zip(betas, tfic, qxyc):
            yield Check(f"delta_v N={n} betaJ={beta}", _rel(q.delta_v, t.delta_v), 1e-9)
            yield Check(f"chi_f N={n} betaJ={beta}", _rel(q.chi_f, t.chi_f), 1e-9)


@criterion("AC03", "ED vs closed-form equivalence (MFIC)", runtime_limit=60.0)
def criterion_03():
    """MFIC: exact diagonalization matches the transfer-matrix closed forms."""
    betas = (0.2, 1.0, 3.0)
    for n in (3, 4, 6):
        for b in (0.3, 0.7, 1.3):
            sweep = dense_sums_sweep(*_dense(SpinChainModel("mfic", n, B=b)), betas)
            for beta, sums in zip(betas, sweep):
                rel_dv = _rel(sums.delta_v, cf.delta_v_mfic_closed(n, beta, 1.0, b))
                rel_chi = _rel(sums.chi_f, cf.chi_f_mfic_closed(n, beta, 1.0, b))
                yield Check(f"delta_v N={n} B={b} betaJ={beta}", rel_dv, 1e-8)
                yield Check(f"chi_f N={n} B={b} betaJ={beta}", rel_chi, 1e-8)


@criterion("AC04", "thermodynamic limit of f (TFIC, N=64)")
def criterion_04():
    """f_N approaches coth(2 beta J) inside the finite-N correction envelope."""
    n = 64
    for beta in (0.5, 1.0, 2.0):
        t = math.tanh(2.0 * beta)
        yield Check(f"betaJ={beta}", abs(cf.f_n_tfic(n, beta, 1.0) - 1.0 / t), 2.0 * t ** (n - 2))


@criterion("AC05", "temperature-factor asymptotics via closed forms")
def criterion_05():
    """Low- and high-temperature asymptotics of the temperature factor."""
    for beta in (1.5, 2.0, 3.0):
        f = 1.0 / math.tanh(2.0 * beta)
        diff = abs(f - cf.f_tfic_asymptotics(beta, 1.0, "low"))
        yield Check(f"tfic low betaJ={beta}", diff, 3.0 * math.exp(-8.0 * beta))
    for beta in (0.01, 0.05):
        f = 1.0 / math.tanh(2.0 * beta)
        diff = abs(f - cf.f_tfic_asymptotics(beta, 1.0, "high"))
        yield Check(f"tfic high betaJ={beta}", diff, beta)
    b = 0.7
    for beta in (2.0, 3.0):
        f = cf.f_mfic(None, beta, 1.0, b)
        diff = abs(f - cf.f_mfic_asymptotics(beta, 1.0, b, "low"))
        yield Check(f"mfic low betaJ={beta}", diff, 50.0 * math.exp(-4.0 * beta * (2.0 + b)))
    beta = 0.01
    rel = _rel(cf.f_mfic(None, beta, 1.0, b), cf.f_mfic_asymptotics(beta, 1.0, b, "high"))
    yield Check("mfic high betaJ=0.01", rel, 0.05)


@functools.lru_cache(maxsize=1)
def _bound_suite_traces():
    model = SpinChainModel("tfic", 8)
    traces = []
    for beta in (0.5, 5.0):
        for gamma in (0.5, 2.0):
            traces.append(evolve(model, beta, gamma, 0.2, 200))
    return tuple(traces)


@criterion("AC06", "fidelity-bound suite end-to-end (TFIC N=8)", runtime_limit=600.0)
def criterion_06():
    """QSL and both fidelity bounds hold at every record of every trajectory."""
    for trace in _bound_suite_traces():
        tag = f"betaJ={trace.beta} gamma={trace.gamma}"
        theta_excess = np.max(trace.hs_angle - trace.qsl_radius)
        fc_excess = np.max(
            np.abs(trace.adiabatic_fidelity - trace.thermal_overlap) - trace.bound_strong
        )
        g_excess = np.max(trace.bound_strong - trace.bound_weak)
        yield Check(f"theta<=R {tag}", theta_excess, 1e-9)
        yield Check(f"|F-C|<=g {tag}", fc_excess, 1e-9)
        yield Check(f"g<=sinR {tag}", g_excess, 1e-9)


@criterion("AC07", "conservation laws along evolution")
def criterion_07():
    """Purity and trace are conserved along every bound-suite trajectory."""
    for trace in _bound_suite_traces():
        tag = f"betaJ={trace.beta} gamma={trace.gamma}"
        yield Check(f"purity {tag}", np.max(np.abs(trace.purity - trace.purity[0])), 1e-9)
        yield Check(f"trace {tag}", np.max(trace.trace_defect), 1e-9)


@criterion("AC08", "escort identity")
def criterion_08():
    """Order-2 escort of Gibbs(beta) equals Gibbs(2 beta) to 1e-12."""
    models = [
        SpinChainModel("tfic", 4),
        SpinChainModel("qxyc", 4),
        SpinChainModel("mfic", 4, B=0.7),
    ]
    for model in models:
        spec = eigh(build_h0(model))
        for beta in (0.3, 1.0, 5.0):
            diff = hs_norm(
                escort_state(gibbs_state(spec, beta)).mat - gibbs_state(spec, 2.0 * beta).mat
            )
            yield Check(f"{model.kind} betaJ={beta}", diff, 1e-12)


@criterion("AC09", "spectral-inequality suite")
def criterion_09():
    """Spectral inequalities 0 <= a <= 2b <= 1/2 and 0 < W <= 1 (MFIC)."""
    for n in (4, 6, 8):
        for b in (0.3, 0.7, 1.3):
            co = low_temp_coefficients(SpinChainModel("mfic", n, B=b))
            tag = f"N={n} B={b}"
            yield Check(f"a>=0 {tag}", co.a, 0.0, co.a >= 0.0)
            yield Check(f"a<=2b {tag}", co.a - 2 * co.b, 1e-12)
            yield Check(f"2b<=1/2 {tag}", 2 * co.b, 0.5 + 1e-12)
            yield Check(f"0<W<=1 {tag}", co.W, 1.0 + 1e-12, 0.0 < co.W <= 1.0 + 1e-12)
            yield Check(f"c1 in (0,2] {tag}", co.c1, 2.0 + 1e-12, 0.0 < co.c1 <= 2.0 + 1e-12)


@criterion("AC10", "high-temperature expansion oracles")
def criterion_10():
    """High-temperature laws for chi_F and deltaV at beta J = 0.01, N = 6."""
    beta = 0.01
    for kind, b in (("tfic", None), ("qxyc", None), ("mfic", 0.7)):
        model = SpinChainModel(kind, 6, B=b)
        d = model.dim
        dense = dense_sums(*_dense(model), beta)
        sums = flip_sums(model, beta)
        chi_law = beta**2 * (2.0 / d) * sums.offdiag_square_sum
        dv_law = beta / math.sqrt(d) * sums.commutator_norm
        yield Check(f"chi {kind}", _rel(dense.chi_f, chi_law), 1e-3)
        yield Check(f"delta_v {kind}", _rel(dense.delta_v, dv_law), 1e-3)


@criterion("AC11", "chi_F definition consistency (finite difference)")
def criterion_11():
    """chi_f_thermal equals -2 d^2/dlambda^2 ln S via symmetric differences."""
    h = 1e-3
    cases = [
        SpinChainModel("tfic", 4),
        SpinChainModel("mfic", 4, B=0.7),
    ]
    for model in cases:
        beta = 1.0
        spec, v = _dense(model)
        rho0 = gibbs_state(spec, beta).mat
        log_plus, log_zero, log_minus = (
            math.log(float(np.real(np.vdot(rho0, sigma.mat))))
            for sigma in quasi_gibbs_states(model, beta, (h, 0.0, -h))
        )
        chi_fd = -2.0 * (log_plus - 2.0 * log_zero + log_minus) / h**2
        chi = chi_f_thermal(spec, v, beta)
        yield Check(f"{model.kind} N=4 betaJ=1", _rel(chi_fd, chi), 1e-3)


@criterion("AC12", "zero-temperature reference rates")
def criterion_12():
    """Zero-temperature reference rates from beta J = 40 proxies.

    The mixed-field constant follows the definition Gamma_N = alpha
    deltaV0 / chi_F0, i.e. sqrt(2) alpha (2J + |B|)^2 / (sqrt(N) J).
    """
    beta_proxy = 40.0
    for n in (4, 6):
        for tag, model, gamma_n in (
            (f"tfic N={n}", SpinChainModel("tfic", n), cf.gamma_n_tfic(n, 1.0)),
            (f"qxyc N={n}", SpinChainModel("qxyc", n), cf.gamma_n_tfic(n, 1.0)),
            (f"mfic N={n} B=0.7", SpinChainModel("mfic", n, B=0.7), cf.gamma_n_mfic(n, 1.0, 0.7)),
        ):
            sums = dense_sums(*_dense(model), beta_proxy)
            yield Check(tag, _rel(sums.delta_v / sums.chi_f, gamma_n), 1e-6)


@criterion("AC13", "non-commuting limits of f_N (TFIC)")
def criterion_13():
    """Fixed-N low-temperature series of f_N, checked in 50-digit arithmetic.

    The fixed-N expansion carries coefficient 1 (not 2) at e^{-4 beta J} and
    an extra (N - 1/2) e^{-12 beta J} term, so it demonstrably differs from
    the thermodynamic expansion; the remainder is bounded by
    10 N^3 e^{-16 beta J}.
    """
    # only this criterion needs decimal, so only it pays the import
    from decimal import Decimal, localcontext

    n, beta = 6, 3.0
    with localcontext() as ctx:
        ctx.prec = 50
        q = (-4 * Decimal(beta)).exp()
        # tanh(2 beta) and coth(2 beta) from q = e^{-4 beta}
        t, coth = (1 - q) / (1 + q), (1 + q) / (1 - q)
        f_hp = coth * ((1 + t**n) / (1 + t ** (n - 2))).sqrt()
        half = Decimal(1) / 2
        series = 1 + q + (n - half) * q**2 + (n - half) * q**3
        diff = abs(f_hp - series)
        tol = 10 * n**3 * q**4
        impl_rel = abs(Decimal(cf.f_n_tfic(n, beta, 1.0)) / f_hp - 1)
    # Decimal(float) is exact, so the 50-digit values compare exactly
    yield Check("series remainder (50-digit)", float(diff), float(tol), diff <= tol)
    yield Check("float impl vs 50-digit", float(impl_rel), 1e-13, impl_rel <= Decimal(1e-13))


def _closed_sums(n, beta, b):
    """Closed-form deltaV and chi_F at J = 1: mfic at field b, or the tfic
    forms, which qxyc shares, for b None."""
    if b is None:
        return cf.delta_v_tfic_closed(n, beta, 1.0), cf.chi_f_tfic_closed(n, beta, 1.0)
    return cf.delta_v_mfic_closed(n, beta, 1.0, b), cf.chi_f_mfic_closed(n, beta, 1.0, b)


@criterion("AC14", "both exact routes vs closed forms on a beta ladder")
def criterion_14():
    """The flip route (N = 3..12) and the dense oracle (N = 3..8) match the
    closed forms from beta J = 1e-12 to 1e308, each check the worst N.

    At small beta every Boltzmann weight is near 1, so a weight difference
    formed as a plain difference would lose digits as eps / (beta dE).
    """
    betas = (1e-12, 1e-8, 1e-4, 1e-2, 1.0, 40.0, 1e308)
    routes = (
        ("flip", 12, lambda model: flip_sums_sweep(model, betas)),
        ("dense", 8, lambda model: dense_sums_sweep(*_dense(model), betas)),
    )
    for kind, b in (("tfic", None), ("qxyc", None), ("mfic", 0.3), ("mfic", 0.7), ("mfic", 1.3)):
        tag = kind if b is None else f"{kind} B={b}"
        for route, n_max, sweep in routes:
            worst = np.zeros((len(betas), 2))  # np.maximum keeps a nan
            for n in range(3, n_max + 1):
                for row, beta, sums in zip(worst, betas, sweep(SpinChainModel(kind, n, B=b))):
                    dv, chi = _closed_sums(n, beta, b)
                    np.maximum(row, (_rel(sums.delta_v, dv), _rel(sums.chi_f, chi)), out=row)
            for beta, (rel_dv, rel_chi) in zip(betas, worst):
                yield Check(f"{route} delta_v {tag} betaJ={beta}", rel_dv, 1e-13)
                yield Check(f"{route} chi_f {tag} betaJ={beta}", rel_chi, 1e-13)


def run_all(ids=None):
    """Run the requested criteria (default: all) in id order, after checking every id."""
    selected = sorted(ALL_CRITERIA) if ids is None else list(ids)
    for cid in selected:
        if cid not in ALL_CRITERIA:
            raise ValueError(f"unknown criterion id {cid!r}")
    return [ALL_CRITERIA[cid]() for cid in selected]
