"""Machine-checkable acceptance criteria.

Each criterion_* function runs one end-to-end check at its pinned sizes and
tolerances and returns a CriterionResult; run_all() drives them all.  The
same functions back both the `adiatherm verify` subcommand and the pytest
acceptance suite, so the CLI report and the tests can never drift apart.

Criterion 13 compares fixed-N and thermodynamic low-temperature expansions
at a scale (1e-18) below double resolution, so that single check evaluates
both sides with 50-digit arithmetic and separately certifies the
double-precision implementation against the high-precision value.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field
from functools import lru_cache

import mpmath as mp
import numpy as np

from . import closed_forms as cf
from .dynamics import evolve
from .models import SpinChainModel, build_h0, build_v
from .operators import HermitianOperator, commutator_hs_norm, eigh, hs_norm
from .susceptibility import (
    chi_f_thermal,
    delta_v_thermal,
    low_temp_coefficients,
    offdiag_square_sum,
)
from .thermal import escort_state, gibbs_state, quasi_gibbs_at


@dataclass(frozen=True)
class Check:
    name: str
    measured: float
    tolerance: float
    ok: bool

    def __post_init__(self):
        # numpy scalars would poison the JSON report
        object.__setattr__(self, "measured", float(self.measured))
        object.__setattr__(self, "tolerance", float(self.tolerance))
        object.__setattr__(self, "ok", bool(self.ok))


@dataclass(frozen=True)
class CriterionResult:
    id: str
    label: str
    passed: bool
    elapsed_s: float
    checks: list[Check] = field(default_factory=list)

    def as_dict(self):
        return asdict(self)


def _result(cid, label, checks, started, runtime_limit=None):
    elapsed = time.perf_counter() - started
    checks = list(checks)
    if runtime_limit is not None:
        checks.append(
            Check("runtime_s", elapsed, runtime_limit, elapsed < runtime_limit)
        )
    return CriterionResult(
        id=cid,
        label=label,
        passed=all(c.ok for c in checks),
        elapsed_s=elapsed,
        checks=checks,
    )


def _rel(a, b):
    return abs(a / b - 1.0)


def _ed_pair(model, beta):
    spec = eigh(build_h0(model))
    v = build_v(model)
    dv = delta_v_thermal(spec, v, beta)
    chi = chi_f_thermal(spec, v, beta)
    return dv, chi


def criterion_01():
    """TFIC: exact diagonalization matches the transfer-matrix closed forms."""
    started = time.perf_counter()
    checks = []
    for n in (3, 4, 6, 8):
        model = SpinChainModel("tfic", n)
        for beta in (0.1, 0.3, 1.0, 3.0):
            dv, chi = _ed_pair(model, beta)
            checks.append(
                Check(
                    f"delta_v N={n} betaJ={beta}",
                    _rel(dv, cf.delta_v_tfic_closed(n, beta, 1.0)),
                    1e-9,
                    _rel(dv, cf.delta_v_tfic_closed(n, beta, 1.0)) <= 1e-9,
                )
            )
            checks.append(
                Check(
                    f"chi_f N={n} betaJ={beta}",
                    _rel(chi, cf.chi_f_tfic_closed(n, beta, 1.0)),
                    1e-8,
                    _rel(chi, cf.chi_f_tfic_closed(n, beta, 1.0)) <= 1e-8,
                )
            )
    return _result(
        "AC01", "ED vs closed-form equivalence (TFIC)", checks, started, runtime_limit=30.0
    )


def criterion_02():
    """QXYC and TFIC give identical deltaV and chi_F at matched (N, beta)."""
    started = time.perf_counter()
    checks = []
    for n in (3, 4, 6):
        for beta in (0.3, 1.0):
            dv_t, chi_t = _ed_pair(SpinChainModel("tfic", n), beta)
            dv_q, chi_q = _ed_pair(SpinChainModel("qxyc", n), beta)
            checks.append(
                Check(f"delta_v N={n} betaJ={beta}", _rel(dv_q, dv_t), 1e-9, _rel(dv_q, dv_t) <= 1e-9)
            )
            checks.append(
                Check(f"chi_f N={n} betaJ={beta}", _rel(chi_q, chi_t), 1e-9, _rel(chi_q, chi_t) <= 1e-9)
            )
    return _result("AC02", "QXYC == TFIC for deltaV and chi_F", checks, started)


def criterion_03():
    """MFIC: exact diagonalization matches the transfer-matrix closed forms."""
    started = time.perf_counter()
    checks = []
    for n in (3, 4, 6):
        for b in (0.3, 0.7, 1.3):
            model = SpinChainModel("mfic", n, B=b)
            for beta in (0.2, 1.0, 3.0):
                dv, chi = _ed_pair(model, beta)
                rel_dv = _rel(dv, cf.delta_v_mfic_closed(n, beta, 1.0, b))
                rel_chi = _rel(chi, cf.chi_f_mfic_closed(n, beta, 1.0, b))
                checks.append(
                    Check(f"delta_v N={n} B={b} betaJ={beta}", rel_dv, 1e-8, rel_dv <= 1e-8)
                )
                checks.append(
                    Check(f"chi_f N={n} B={b} betaJ={beta}", rel_chi, 1e-8, rel_chi <= 1e-8)
                )
    return _result(
        "AC03", "ED vs closed-form equivalence (MFIC)", checks, started, runtime_limit=60.0
    )


def criterion_04():
    """f_N approaches coth(2 beta J) inside the finite-N correction envelope."""
    started = time.perf_counter()
    checks = []
    n = 64
    for beta in (0.5, 1.0, 2.0):
        t = math.tanh(2.0 * beta)
        diff = abs(cf.f_n_tfic(n, beta, 1.0) - 1.0 / t)
        tol = 2.0 * t ** (n - 2)
        checks.append(Check(f"betaJ={beta}", diff, tol, diff <= tol))
    return _result("AC04", "thermodynamic limit of f (TFIC, N=64)", checks, started)


def criterion_05():
    """Low- and high-temperature asymptotics of the temperature factor."""
    started = time.perf_counter()
    checks = []
    for beta in (1.5, 2.0, 3.0):
        f = 1.0 / math.tanh(2.0 * beta)
        diff = abs(f - cf.f_tfic_asymptotics(beta, 1.0, "low"))
        tol = 3.0 * math.exp(-8.0 * beta)
        checks.append(Check(f"tfic low betaJ={beta}", diff, tol, diff <= tol))
    for beta in (0.01, 0.05):
        f = 1.0 / math.tanh(2.0 * beta)
        diff = abs(f - cf.f_tfic_asymptotics(beta, 1.0, "high"))
        checks.append(Check(f"tfic high betaJ={beta}", diff, beta, diff <= beta))
    b = 0.7
    for beta in (2.0, 3.0):
        f = cf.f_mfic(None, beta, 1.0, b)
        diff = abs(f - cf.f_mfic_asymptotics(beta, 1.0, b, "low"))
        tol = 50.0 * math.exp(-4.0 * beta * (2.0 + b))
        checks.append(Check(f"mfic low betaJ={beta}", diff, tol, diff <= tol))
    beta = 0.01
    rel = _rel(cf.f_mfic(None, beta, 1.0, b), cf.f_mfic_asymptotics(beta, 1.0, b, "high"))
    checks.append(Check("mfic high betaJ=0.01", rel, 0.05, rel <= 0.05))
    return _result("AC05", "temperature-factor asymptotics via closed forms", checks, started)


@lru_cache(maxsize=1)
def _bound_suite_traces():
    model = SpinChainModel("tfic", 8)
    traces = []
    for beta in (0.5, 5.0):
        for gamma in (0.5, 2.0):
            traces.append(evolve(model, beta, gamma, 0.2, 200))
    return tuple(traces)


def criterion_06():
    """QSL and both fidelity bounds hold at every record of every trajectory."""
    started = time.perf_counter()
    checks = []
    for trace in _bound_suite_traces():
        tag = f"betaJ={trace.beta} gamma={trace.gamma}"
        theta_excess = float(np.max(trace.hs_angle - trace.qsl_radius))
        fc_excess = float(
            np.max(np.abs(trace.adiabatic_fidelity - trace.thermal_overlap) - trace.bound_strong)
        )
        g_excess = float(np.max(trace.bound_strong - trace.bound_weak))
        checks.append(Check(f"theta<=R {tag}", theta_excess, 1e-9, theta_excess <= 1e-9))
        checks.append(Check(f"|F-C|<=g {tag}", fc_excess, 1e-9, fc_excess <= 1e-9))
        checks.append(Check(f"g<=sinR {tag}", g_excess, 1e-9, g_excess <= 1e-9))
    return _result(
        "AC06", "fidelity-bound suite end-to-end (TFIC N=8)", checks, started, runtime_limit=600.0
    )


def criterion_07():
    """Purity and trace are conserved along every bound-suite trajectory."""
    started = time.perf_counter()
    checks = []
    for trace in _bound_suite_traces():
        tag = f"betaJ={trace.beta} gamma={trace.gamma}"
        purity_drift = float(np.max(np.abs(trace.purity - trace.purity[0])))
        trace_drift = float(np.max(trace.trace_defect))
        checks.append(Check(f"purity {tag}", purity_drift, 1e-9, purity_drift <= 1e-9))
        checks.append(Check(f"trace {tag}", trace_drift, 1e-9, trace_drift <= 1e-9))
    return _result("AC07", "conservation laws along evolution", checks, started)


def criterion_08():
    """Order-2 escort of Gibbs(beta) equals Gibbs(2 beta) to 1e-12."""
    started = time.perf_counter()
    checks = []
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
            checks.append(
                Check(f"{model.kind} betaJ={beta}", diff, 1e-12, diff <= 1e-12)
            )
    return _result("AC08", "escort identity", checks, started)


def criterion_09():
    """Spectral inequalities 0 <= a <= 2b <= 1/2 and 0 < W <= 1 (MFIC)."""
    started = time.perf_counter()
    checks = []
    for n in (4, 6, 8):
        for b in (0.3, 0.7, 1.3):
            model = SpinChainModel("mfic", n, B=b)
            co = low_temp_coefficients(eigh(build_h0(model)), build_v(model))
            tag = f"N={n} B={b}"
            checks.append(Check(f"a>=0 {tag}", co.a, 0.0, co.a >= 0.0))
            checks.append(Check(f"a<=2b {tag}", co.a - 2 * co.b, 1e-12, co.a <= 2 * co.b + 1e-12))
            checks.append(Check(f"2b<=1/2 {tag}", 2 * co.b, 0.5 + 1e-12, 2 * co.b <= 0.5 + 1e-12))
            checks.append(
                Check(f"0<W<=1 {tag}", co.W, 1.0 + 1e-12, 0.0 < co.W <= 1.0 + 1e-12)
            )
            checks.append(
                Check(f"c1 in (0,2] {tag}", co.c1, 2.0 + 1e-12, 0.0 < co.c1 <= 2.0 + 1e-12)
            )
    return _result("AC09", "spectral-inequality suite", checks, started)


def criterion_10():
    """High-temperature laws for chi_F and deltaV at beta J = 0.01, N = 6."""
    started = time.perf_counter()
    checks = []
    beta = 0.01
    for kind, b in (("tfic", None), ("qxyc", None), ("mfic", 0.7)):
        model = SpinChainModel(kind, 6, B=b)
        h0 = build_h0(model)
        v = build_v(model)
        spec = eigh(h0)
        d = model.dim
        dv, chi = _ed_pair(model, beta)
        chi_law = beta**2 * (2.0 / d) * offdiag_square_sum(spec, v)
        traceless = h0.mat - (np.trace(h0.mat) / d) * np.eye(d)
        dv_law = beta / math.sqrt(d) * commutator_hs_norm(
            HermitianOperator(model.n_sites, traceless), v
        )
        checks.append(Check(f"chi {kind}", _rel(chi, chi_law), 1e-3, _rel(chi, chi_law) <= 1e-3))
        checks.append(Check(f"delta_v {kind}", _rel(dv, dv_law), 1e-3, _rel(dv, dv_law) <= 1e-3))
    return _result("AC10", "high-temperature expansion oracles", checks, started)


def criterion_11():
    """chi_f_thermal equals -2 d^2/dlambda^2 ln S via symmetric differences."""
    started = time.perf_counter()
    checks = []
    h = 1e-3
    cases = [
        SpinChainModel("tfic", 4),
        SpinChainModel("mfic", 4, B=0.7),
    ]
    for model in cases:
        beta = 1.0
        spec = eigh(build_h0(model))
        v = build_v(model)
        rho0 = gibbs_state(spec, beta).mat

        def log_s(lam):
            sigma = quasi_gibbs_at(model, beta, lam).mat
            return math.log(float(np.real(np.vdot(rho0, sigma))))

        chi_fd = -2.0 * (log_s(h) - 2.0 * log_s(0.0) + log_s(-h)) / h**2
        chi = chi_f_thermal(spec, v, beta)
        rel = _rel(chi_fd, chi)
        checks.append(Check(f"{model.kind} N=4 betaJ=1", rel, 1e-3, rel <= 1e-3))
    return _result("AC11", "chi_F definition consistency (finite difference)", checks, started)


def criterion_12():
    """Zero-temperature reference rates from beta J = 40 proxies.

    The mixed-field constant follows the definition Gamma_N = alpha
    deltaV0 / chi_F0, i.e. sqrt(2) alpha (2J + |B|)^2 / (sqrt(N) J).
    """
    started = time.perf_counter()
    checks = []
    beta_proxy = 40.0
    for n in (4, 6):
        dv, chi = _ed_pair(SpinChainModel("tfic", n), beta_proxy)
        rel = _rel(dv / chi, cf.gamma_n_tfic(n, 1.0))
        checks.append(Check(f"tfic N={n}", rel, 1e-6, rel <= 1e-6))
        dv, chi = _ed_pair(SpinChainModel("qxyc", n), beta_proxy)
        rel = _rel(dv / chi, cf.gamma_n_tfic(n, 1.0))
        checks.append(Check(f"qxyc N={n}", rel, 1e-6, rel <= 1e-6))
        dv, chi = _ed_pair(SpinChainModel("mfic", n, B=0.7), beta_proxy)
        rel = _rel(dv / chi, cf.gamma_n_mfic(n, 1.0, 0.7))
        checks.append(Check(f"mfic N={n} B=0.7", rel, 1e-6, rel <= 1e-6))
    return _result("AC12", "zero-temperature reference rates", checks, started)


def criterion_13():
    """Fixed-N low-temperature series of f_N, checked in 50-digit arithmetic.

    The fixed-N expansion carries coefficient 1 (not 2) at e^{-4 beta J} and
    an extra (N - 1/2) e^{-12 beta J} term, so it demonstrably differs from
    the thermodynamic expansion; the remainder is bounded by
    10 N^3 e^{-16 beta J}.
    """
    started = time.perf_counter()
    n, beta = 6, 3.0
    with mp.workdps(50):
        t = mp.tanh(2 * mp.mpf(beta))
        f_hp = mp.coth(2 * mp.mpf(beta)) * mp.sqrt((1 + t**n) / (1 + t ** (n - 2)))
        q = mp.e ** (-4 * mp.mpf(beta))
        series = 1 + q + (n - mp.mpf(1) / 2) * q**2 + (n - mp.mpf(1) / 2) * q**3
        diff = abs(f_hp - series)
        tol = 10 * n**3 * q**4
        impl_rel = abs(mp.mpf(cf.f_n_tfic(n, beta, 1.0)) / f_hp - 1)
        checks = [
            Check("series remainder (50-digit)", float(diff), float(tol), diff <= tol),
            Check("float impl vs 50-digit", float(impl_rel), 1e-13, impl_rel <= 1e-13),
        ]
    return _result("AC13", "non-commuting limits of f_N (TFIC)", checks, started)


ALL_CRITERIA = {
    "AC01": criterion_01,
    "AC02": criterion_02,
    "AC03": criterion_03,
    "AC04": criterion_04,
    "AC05": criterion_05,
    "AC06": criterion_06,
    "AC07": criterion_07,
    "AC08": criterion_08,
    "AC09": criterion_09,
    "AC10": criterion_10,
    "AC11": criterion_11,
    "AC12": criterion_12,
    "AC13": criterion_13,
}


def run_all(ids=None):
    """Run the requested criteria (default: all) in id order."""
    selected = sorted(ALL_CRITERIA) if ids is None else list(ids)
    results = []
    for cid in selected:
        if cid not in ALL_CRITERIA:
            raise ValueError(f"unknown criterion id {cid!r}")
        results.append(ALL_CRITERIA[cid]())
    return results
