"""Unitary evolution of the Gibbs state under a constant-rate linear ramp,
with per-record fidelity-bound bookkeeping.

The stepper is the fourth-order commutator-free Magnus scheme CFM4
(Alvermann & Fehske, J. Comput. Phys. 230, 5930 (2011)).  H is linear in
lambda, so a step is two exponentials exp(-i H(lambda_eff) dt / 2), each
built by eigendecomposition: every step is exactly unitary and purity
conservation is structural rather than an accuracy accident.  The step is
halved until F is stable to 1e-8 at every record.  The quasi-Gibbs targets
come from one thermal.QuasiGibbsSweep, stable to 1e-8 at every record; its
lambda = 0 record is the initial Gibbs state, so H0 is diagonalized once.
Each halving level reads the sweep's records once and fills every column
that needs sigma or rho, C included: C does not depend on the CFM4 step, so
every level gives it bit for bit.  R and both bounds need only C, so they
are computed once, from the accepted level.

Everything runs in the real symmetry-adapted basis of
models.symmetry_sectors, where H0 is diagonal and V block-diagonal, so every
CFM4 factor, propagator, rho and sigma is block-diagonal too and is kept as
one (..., g, m, m) stack per group of equal-size blocks (see
thermal.BlockEigensolver), never as a d x d matrix.  The factors of a chunk
of CFM4 nodes come from one stacked eigh and two stacked real products per
group, and the propagators of a chunk of record intervals from one stacked
product per factor.  The accumulated propagator W_k of record k is
U_k W_(k-1), and rho_k = W_k rho0 W_k^dag is formed for a chunk of records
at once.  F, C, Theta, the purity, the trace and the Hermiticity defect are
sums over blocks of per-block traces, which the orthogonal change of basis
leaves unchanged.
"""

from __future__ import annotations

import itertools
import logging
import math
import operator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .models import SpinChainModel, require_finite, require_sectors_fit, symmetry_sectors
from .operators import adjoint, hs_angle_from_distance, hs_fidelity_from_overlap
from .qsl import bound_strong, bound_weak, qsl_radius_constant_rate
from .susceptibility import flip_sums
from .thermal import QuasiGibbsSweep, block_inner

logger = logging.getLogger(__name__)

FINAL_FIDELITY_TOL = 1e-8
_MAX_HALVINGS = 12
_INITIAL_DELTA_LAMBDA = 1e-2


@dataclass(frozen=True)
class BoundTrace:
    """Per-record dynamics trace: fidelities, QSL radius, bounds, purity.

    Records are sorted by lambda and start at lambda = 0 with F = C = 1 and
    R = Theta = 0.  trace_defect and herm_defect track |Tr rho - 1| and the
    Hermiticity defect of the evolved state at each record.
    n_substeps_per_interval is the number of CFM4 steps per record interval
    at the final halving level; fidelity_history holds the final-record F of
    every level, one entry per pass over the quasi-Gibbs records.  A
    one-record trace (lambda_max = 0 or n_records = 1) has no interval: it
    runs the levels of 1 and 2 steps, so it reads 2 and (1.0, 1.0).
    sweep_steps_per_interval and n_ambiguous_steps are the continuation
    steps per record interval and the ambiguous steps of the accepted
    quasi-Gibbs march.
    """

    lambdas: np.ndarray
    adiabatic_fidelity: np.ndarray
    thermal_overlap: np.ndarray
    qsl_radius: np.ndarray
    hs_angle: np.ndarray
    bound_weak: np.ndarray
    bound_strong: np.ndarray
    purity: np.ndarray
    trace_defect: np.ndarray
    herm_defect: np.ndarray
    beta: float
    gamma: float
    delta_v_value: float
    n_substeps_per_interval: int = 1
    fidelity_history: tuple = field(default_factory=tuple)
    sweep_steps_per_interval: int = 1
    n_ambiguous_steps: int = 0

    @property
    def n_records(self):
        return len(self.lambdas)

    @property
    def max_abs_f_minus_c(self):
        """Near-coincidence diagnostic max_k |F_k - C_k|."""
        return float(np.max(np.abs(self.adiabatic_fidelity - self.thermal_overlap)))

    def counters(self):
        """The run's deterministic counters, by name, in output order."""
        return {
            "n_substeps_per_interval": self.n_substeps_per_interval,
            "halving_levels": len(self.fidelity_history),
            "sweep_steps_per_interval": self.sweep_steps_per_interval,
            "n_ambiguous_steps": self.n_ambiguous_steps,
        }

    def rows(self):
        """Record tuples in CSV column order."""
        for k in range(self.n_records):
            yield (
                self.lambdas[k],
                self.adiabatic_fidelity[k],
                self.thermal_overlap[k],
                self.qsl_radius[k],
                self.hs_angle[k],
                self.bound_weak[k],
                self.bound_strong[k],
                self.purity[k],
            )


class MeanFreePath(NamedTuple):
    """Largest lambda with F >= 1/e throughout; censored when F never drops."""

    value: float
    censored: bool


def _interval_propagators(solver, lambdas, gamma, steps):
    """Yield the CFM4 propagator over each interval of the grid lambdas, in order.

    A step of width h from lambda0 applies exp(-i (h / 2 Gamma) H(lambda0 + h/6)),
    then exp(-i (h / 2 Gamma) H(lambda0 + 5h/6)); in the other order the scheme
    drops to second order.  Each propagator is one (g, m, m) stack per group
    of the BlockEigensolver solver.  The nodes go through the solver in
    stacks of whole intervals, or of one interval's consecutive factors when
    an interval does not fit one stack, and a stack's intervals multiply
    their factors in one stacked product per factor.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    widths = (lambdas[1:] - lambdas[:-1]) / steps
    h = widths[:, None]
    lam0 = lambdas[:-1, None] + np.arange(steps) * h  # the start of every step
    nodes = np.stack([lam0 + h / 6.0, lam0 + 5.0 * h / 6.0], axis=-1).reshape(widths.size, -1)
    n_factors = nodes.shape[1]
    per_chunk = solver.per_chunk(np.dtype(complex).itemsize)
    intervals, span = max(1, per_chunk // n_factors), min(n_factors, per_chunk)
    for first in range(0, widths.size, intervals):
        chunk = slice(first, first + intervals)
        u = None
        for start in range(0, n_factors, span):
            stack = nodes[chunk, start : start + span]  # (intervals, factors) nodes
            pairs = solver.solve(stack)
            dt = np.repeat(widths[chunk] / (2.0 * gamma), stack.shape[1])[:, None, None]
            factors = []
            for e, vecs in zip(solver.split(pairs.values), pairs.vectors):
                phases = np.exp(-1j * dt * e)[..., None, :]
                # for real eigenvectors two real products cost half of one complex product
                vecs_adjoint = adjoint(vecs)
                cos_part = (vecs * phases.real) @ vecs_adjoint
                sin_part = (vecs * phases.imag) @ vecs_adjoint
                factors.append((cos_part + 1j * sin_part).reshape(*stack.shape, *vecs.shape[1:]))
            for j in range(stack.shape[1]):
                u = [f[:, j] for f in factors] if u is None else [
                    f[:, j] @ v for f, v in zip(factors, u)
                ]
        for i in range(u[0].shape[0]):
            yield [v[i] for v in u]


def evolve(
    model: SpinChainModel,
    beta,
    gamma,
    lambda_max,
    n_records: int,
) -> BoundTrace:
    """Integrate i d(rho)/dt = [H_{lambda(t)}, rho] with lambda = Gamma t.

    Emits n_records equally spaced records over [0, lambda_max], each
    carrying the adiabatic fidelity F, thermal-state overlap C, QSL radius R,
    Hilbert-Schmidt angle Theta, both fidelity bounds, and the purity.
    Refuses, before allocating, a run whose sectors and records would not
    fit in physical memory (require_sectors_fit).
    """
    for name, value in (("beta", beta), ("gamma", gamma), ("lambda_max", lambda_max)):
        require_finite(name, value)
    if gamma <= 0:
        raise ValueError("drive rate Gamma must be positive")
    if lambda_max < 0:
        raise ValueError("lambda_max must be >= 0")
    try:
        n_records = operator.index(n_records)
    except TypeError:
        raise ValueError(f"n_records must be an integer, got {n_records!r}") from None
    if n_records < 1:
        raise ValueError("n_records must be >= 1")

    n = n_records if lambda_max > 0 else 1
    require_sectors_fit(model, n)
    blocks = symmetry_sectors(model).blocks
    dv = flip_sums(model, beta).delta_v
    lambdas = np.linspace(0.0, lambda_max, n)
    # the lambda = 0 record is the Gibbs state, and every target has its purity
    sweep = QuasiGibbsSweep(blocks, lambdas, beta)

    def run_level(steps):
        """Every column that needs sigma or rho, in one pass over the sweep."""
        rec = {name: np.zeros(n) for name in ("F", "C", "theta", "purity", "trace", "herm")}
        rec["F"][0] = rec["C"][0] = 1.0
        rec["purity"][0] = sweep.purity
        propagators = _interval_propagators(sweep.solver, lambdas, gamma, steps)
        rho0 = w = None
        done = 0
        for sigma in sweep.records():
            records = slice(done, done + sigma[0].shape[0])
            done = records.stop
            if rho0 is None:
                rho0 = [s[0] for s in sigma]
                rho0_norm = math.sqrt(block_inner(rho0, rho0))
                sigma = [s[1:] for s in sigma]
                records = slice(1, records.stop)
            if records.start == records.stop:
                continue
            # rho_k = W_k rho0 W_k^dag, with W_k the propagator accumulated up to record k
            rho = [np.empty(s.shape, dtype=complex) for s in sigma]
            for k, u in enumerate(itertools.islice(propagators, records.stop - records.start)):
                w = u if w is None else [a @ b for a, b in zip(u, w)]
                for r, a in zip(rho, w):
                    r[k] = a
            rho = [(a @ r0) @ adjoint(a) for a, r0 in zip(rho, rho0)]
            rho_purity = block_inner(rho, rho)
            rec["F"][records] = hs_fidelity_from_overlap(
                block_inner(sigma, rho), sweep.purity, rho_purity
            )
            rec["C"][records] = hs_fidelity_from_overlap(
                block_inner(sigma, rho0), sweep.purity, sweep.purity
            )
            rho_norm = np.sqrt(rho_purity)[:, None, None, None]
            unit_gap = [r0 / rho0_norm - r / rho_norm for r0, r in zip(rho0, rho)]
            rec["theta"][records] = hs_angle_from_distance(np.sqrt(block_inner(unit_gap, unit_gap)))
            del unit_gap
            rec["purity"][records] = rho_purity
            tr = sum(np.trace(r, axis1=-2, axis2=-1).sum(axis=-1) for r in rho)
            rec["trace"][records] = np.abs(tr.real - 1.0) + np.abs(tr.imag)
            rec["herm"][records] = np.max(
                [np.abs(r - adjoint(r)).max(axis=(-3, -2, -1)) for r in rho], axis=0
            )
        return rec

    # a one-record run has no interval and starts at one step
    steps = max(1, math.ceil(lambdas[-1] / max(n - 1, 1) / _INITIAL_DELTA_LAMBDA))
    rec = run_level(steps)
    history = [rec["F"][-1]]
    for _ in range(_MAX_HALVINGS):
        steps *= 2
        finer = run_level(steps)
        history.append(finer["F"][-1])
        change = float(np.max(np.abs(finer["F"] - rec["F"])))
        rec = finer
        if change < FINAL_FIDELITY_TOL:
            break
    else:
        raise RuntimeError(
            "fidelities did not stabilize to "
            f"{FINAL_FIDELITY_TOL} at every record after {_MAX_HALVINGS} halvings; "
            f"final-record history={history}"
        )

    # R and both bounds need only the accepted level's C
    radius, weak, strong = np.zeros((3, n))
    for k, lam in enumerate(lambdas):
        qsl = qsl_radius_constant_rate(dv, lam, gamma)
        radius[k] = qsl.value
        weak[k] = bound_weak(qsl)
        strong[k] = bound_strong(qsl, rec["C"][k])

    trace = BoundTrace(
        lambdas=lambdas,
        adiabatic_fidelity=rec["F"],
        thermal_overlap=rec["C"],
        qsl_radius=radius,
        hs_angle=rec["theta"],
        bound_weak=weak,
        bound_strong=strong,
        purity=rec["purity"],
        trace_defect=rec["trace"],
        herm_defect=rec["herm"],
        beta=float(beta),
        gamma=float(gamma),
        delta_v_value=dv,
        n_substeps_per_interval=steps,
        fidelity_history=tuple(history),
        sweep_steps_per_interval=sweep.per_interval,
        n_ambiguous_steps=len(sweep.ambiguous_steps),
    )
    logger.info(
        "evolve beta=%g gamma=%g: max |F - C| = %.3e over %d records; %d CFM4 steps "
        "per interval at the last of %d halving levels, %d sweep steps per interval, "
        "%d ambiguous steps",
        beta, gamma, trace.max_abs_f_minus_c, n,
        steps, len(history), trace.sweep_steps_per_interval, trace.n_ambiguous_steps,
    )
    return trace


def adiabatic_mean_free_path(trace: BoundTrace) -> MeanFreePath:
    """Largest lambda* with F(lambda) >= 1/e for all records up to lambda*.

    The crossing is located by linear interpolation between the bracketing
    records; when F never drops below 1/e the result is the final lambda,
    tagged censored.
    """
    threshold = math.exp(-1.0)
    f = trace.adiabatic_fidelity
    below = np.where(f < threshold)[0]
    if below.size == 0:
        return MeanFreePath(value=float(trace.lambdas[-1]), censored=True)
    k = int(below[0])
    if k == 0:
        return MeanFreePath(value=0.0, censored=False)
    lam0, lam1 = trace.lambdas[k - 1], trace.lambdas[k]
    f0, f1 = f[k - 1], f[k]
    crossing = lam0 + (f0 - threshold) * (lam1 - lam0) / (f0 - f1)
    return MeanFreePath(value=float(crossing), censored=False)
