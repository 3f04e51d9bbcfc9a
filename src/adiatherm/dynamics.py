"""Unitary evolution of the Gibbs state under a constant-rate linear ramp,
with per-record fidelity-bound bookkeeping.

The stepper is the fourth-order commutator-free Magnus scheme CFM4
(Alvermann & Fehske, J. Comput. Phys. 230, 5930 (2011)).  H is linear in
lambda, so a step is two exponentials exp(-i H(lambda_eff) dt / 2), each
cos A - i sin A from the scaled Taylor series of cos and sin
(_exp_minus_i), with a truncation error below 3e-20: every step is unitary
to rounding, and purity conservation is structural rather than an accuracy
accident.  The step is halved until F is stable to 1e-8 at every record.
The quasi-Gibbs targets come from one thermal.QuasiGibbsSweep, stable to
1e-8 at every record; its lambda = 0 record is the initial Gibbs state, so
H0 is diagonalized once.  The first two halving levels always both run, so
they share one pass over the sweep's records (_run_levels), and each later
level reads them once.  Only the finest level of a pass can be accepted, so
the coarse level keeps F alone; the finest fills every column that needs
sigma or rho, C included, which does not depend on the CFM4 step.  R and
both bounds need only C, so they are computed once, from the accepted
level, with one elementwise call each over every record.

Everything runs in the real symmetry-adapted basis of
models.symmetry_sectors, where H0 is diagonal and V block-diagonal, so every
CFM4 factor, propagator, rho and sigma is block-diagonal too and is kept as
one (..., g, m, m) stack per group of equal-size blocks (see
thermal.BlockEigensolver), never as a d x d matrix.  The factors of a chunk
of CFM4 nodes come from five stacked real products per group, two more per
squaring when a factor's 1-norm exceeds 0.05, and the propagators of a
chunk of record intervals from one stacked product per factor.  The
accumulated propagator W_k of record k is U_k W_(k-1), and
rho_k = W_k rho0 W_k^dag is formed for a chunk of records at once.  A
reflection twin (models.SymmetrySectors) is an orthogonal copy of its
partner block at every lambda, and so are its rho0, propagators and
targets, so the one block list of SymmetrySectors holds no twin and
evolve runs each partner once.  F, C, Theta, the purity and the trace are
sums of per-block traces counted by the sectors' multiplicity
(BlockEigensolver.inner and total), which the orthogonal change of basis
leaves unchanged; the Hermiticity defect is a maximum over blocks.
models.stack_slices cuts every chunk.
"""

from __future__ import annotations

import itertools
import logging
import math
import operator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .models import SpinChainModel, require_beta, require_finite, require_sectors_fit
from .models import stack_slices, symmetry_sectors
from .operators import adjoint, hs_angle_from_distance, hs_fidelity_from_overlap
from .qsl import bound_strong, bound_weak, qsl_radius_constant_rate
from .susceptibility import flip_sums
from .thermal import QuasiGibbsSweep

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
    every level, one entry per level, where the first two levels share one
    pass over the quasi-Gibbs records and each later level takes one.  A
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
        """Record tuples of Python floats in CSV column order."""
        columns = (
            self.lambdas,
            self.adiabatic_fidelity,
            self.thermal_overlap,
            self.qsl_radius,
            self.hs_angle,
            self.bound_weak,
            self.bound_strong,
            self.purity,
        )
        yield from zip(*(column.tolist() for column in columns))


class MeanFreePath(NamedTuple):
    """Largest lambda with F >= 1/e throughout; censored when F never drops."""

    value: float
    censored: bool


# the Taylor coefficients of B to B^4, in B = A^2, of cos A - I and of sin A / A - I
_COS_TAYLOR = (-1 / 2, 1 / 24, -1 / 720, 1 / 40320)
_SIN_TAYLOR = (-1 / 6, 1 / 120, -1 / 5040, 1 / 362880)
# the largest 1-norm the Taylor series take before scaling and squaring
_TAYLOR_NORM = 0.05


def _add_identity(mats, c):
    """mats += c I on a (..., m, m) stack, through a view of its diagonals."""
    np.einsum("...ii->...i", mats)[...] += c
    return mats


def _taylor(b, b2, coeffs):
    """c1 B + c2 B^2 + c3 B^3 + c4 B^4, given B^2, in one product
    (Paterson-Stockmeyer): c1 B + B^2 (c2 I + c3 B + c4 B^2)."""
    c1, c2, c3, c4 = coeffs
    return c1 * b + b2 @ _add_identity(c3 * b + c4 * b2, c2)


def _exp_minus_i(a):
    """exp(-iA) = cos A - i sin A of a (..., m, m) stack of real symmetric A, without eigh.

    cos A and sin A are their Taylor series to A^8 and A^9, evaluated
    Paterson-Stockmeyer style in B = A^2 in five stacked real products: B,
    B^2, one tail product each and A times the series of sin A / A - I.
    The whole stack is first scaled by 2^-s, with s the smallest integer
    for which the largest 1-norm in the stack is at most _TAYLOR_NORM = 0.05,
    which bounds the truncation error in 1-norm by the first dropped term,
    0.05^10 / 10! < 3e-20, before squaring.  The s squarings
    (C, S) -> (C^2 - S^2, 2 C S), exact because C and S commute, then double
    the angle back.  They are carried on C - I, so the rounding of the
    identity is not doubled s times: C - I -> 2 (C - I) + (C - I + S)(C - I - S)
    and S -> 2 (S + (C - I) S), two products per squaring.  A = 0 gives
    exactly I.
    """
    norm = float(np.abs(a).sum(axis=-2).max())
    s = math.ceil(math.log2(norm / _TAYLOR_NORM)) if norm > _TAYLOR_NORM else 0
    if s:
        a = a * 0.5**s
    b = a @ a
    b2 = b @ b
    cos_m1 = _taylor(b, b2, _COS_TAYLOR)
    sin = a + a @ _taylor(b, b2, _SIN_TAYLOR)
    for _ in range(s):
        cos_m1, sin = 2.0 * cos_m1 + (cos_m1 + sin) @ (cos_m1 - sin), 2.0 * (sin + cos_m1 @ sin)
    return _add_identity(cos_m1, 1.0) - 1j * sin


def _interval_propagators(solver, lambdas, gamma, steps):
    """Yield the CFM4 propagator over each interval of the grid lambdas, in order.

    A step of width h from lambda0 applies exp(-i (h / 2 Gamma) H(lambda0 + h/6)),
    then exp(-i (h / 2 Gamma) H(lambda0 + 5h/6)); in the other order the scheme
    drops to second order.  Each factor comes from _exp_minus_i of the blocks
    of the BlockEigensolver solver, and each propagator is one (g, m, m)
    stack per group.  The nodes go in stacks of whole intervals, or of one
    interval's consecutive factors when an interval does not fit one stack,
    and a stack's intervals multiply their factors in one stacked product
    per factor.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    widths = (lambdas[1:] - lambdas[:-1]) / steps
    h = widths[:, None]
    lam0 = lambdas[:-1, None] + np.arange(steps) * h  # the start of every step
    nodes = np.stack([lam0 + h / 6.0, lam0 + 5.0 * h / 6.0], axis=-1).reshape(widths.size, -1)
    n_factors = nodes.shape[1]
    node_bytes = np.dtype(complex).itemsize * solver.entries
    for chunk in stack_slices(widths.size, n_factors * node_bytes):
        u = None
        for at in stack_slices(n_factors, node_bytes):
            stack = nodes[chunk, at]  # (intervals, factors) nodes
            dt = np.repeat(widths[chunk] / (2.0 * gamma), stack.shape[1])[:, None, None, None]
            factors = [
                _exp_minus_i(dt * ham).reshape(*stack.shape, *ham.shape[1:])
                for ham in solver.hamiltonians(stack)
            ]
            for j in range(stack.shape[1]):
                u = [f[:, j] for f in factors] if u is None else [
                    f[:, j] @ v for f, v in zip(factors, u)
                ]
        for i in range(u[0].shape[0]):
            yield [v[i] for v in u]


def _run_levels(sweep, gamma, *level_steps):
    """One record dict per CFM4 step count of level_steps, from one pass over
    the QuasiGibbsSweep sweep's records at drive rate gamma.

    evolve accepts only the finest (last) level of a pass, so every other
    level keeps F alone, from rho and its purity.  The finest level also
    keeps C, theta, the purity column, and the trace and Hermiticity
    defects; C does not depend on the step count.
    """
    lambdas, purity, solver = sweep.lambdas, sweep.purity, sweep.solver
    n, finest = lambdas.size, len(level_steps) - 1
    recs = [{"F": np.zeros(n)} for _ in level_steps]
    recs[finest].update(
        {name: np.zeros(n) for name in ("C", "theta", "purity", "trace", "herm")}
    )
    for rec in recs:
        rec["F"][0] = 1.0
    recs[finest]["C"][0] = 1.0
    recs[finest]["purity"][0] = purity
    propagators = [_interval_propagators(solver, lambdas, gamma, s) for s in level_steps]
    w = [None] * len(level_steps)
    rho0 = None
    done = 0
    for sigma in sweep.records():
        records = slice(done, done + sigma[0].shape[0])
        done = records.stop
        if rho0 is None:
            rho0 = [s[0] for s in sigma]
            rho0_norm = math.sqrt(solver.inner(rho0, rho0))
            sigma = [s[1:] for s in sigma]
            records = slice(1, records.stop)
        if records.start == records.stop:
            continue
        for level, rec in enumerate(recs):
            # rho_k = W_k rho0 W_k^dag, with W_k the propagator accumulated up to record k
            rho = [np.empty(s.shape, dtype=complex) for s in sigma]
            for k, u in enumerate(
                itertools.islice(propagators[level], records.stop - records.start)
            ):
                w[level] = u if w[level] is None else [a @ b for a, b in zip(u, w[level])]
                for r, a in zip(rho, w[level]):
                    r[k] = a
            rho = [(a @ r0) @ adjoint(a) for a, r0 in zip(rho, rho0)]
            rho_purity = solver.inner(rho, rho)
            rec["F"][records] = hs_fidelity_from_overlap(
                solver.inner(sigma, rho), purity, rho_purity
            )
            if level < finest:
                continue
            rec["C"][records] = hs_fidelity_from_overlap(
                solver.inner(sigma, rho0), purity, purity
            )
            rho_norm = np.sqrt(rho_purity)[:, None, None, None]
            unit_gap = [r0 / rho0_norm - r / rho_norm for r0, r in zip(rho0, rho)]
            rec["theta"][records] = hs_angle_from_distance(
                np.sqrt(solver.inner(unit_gap, unit_gap))
            )
            del unit_gap
            rec["purity"][records] = rho_purity
            tr = solver.total([np.trace(r, axis1=-2, axis2=-1) for r in rho])
            rec["trace"][records] = np.abs(tr.real - 1.0) + np.abs(tr.imag)
            rec["herm"][records] = np.max(
                [np.abs(r - adjoint(r)).max(axis=(-3, -2, -1)) for r in rho], axis=0
            )
    return recs


def require_evolve_args(beta, gamma, lambda_max, n_records) -> int:
    """Check evolve's arguments other than the model; return n_records as an int.

    beta passes require_beta, gamma and lambda_max are finite, gamma > 0,
    lambda_max >= 0, and n_records is an integer >= 1.
    """
    require_beta(beta)
    for name, value in (("gamma", gamma), ("lambda_max", lambda_max)):
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
    return n_records


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
    Refuses, before allocating, arguments that fail require_evolve_args and
    a run whose sectors and records would not fit in physical memory
    (require_sectors_fit).
    """
    n_records = require_evolve_args(beta, gamma, lambda_max, n_records)
    n = n_records if lambda_max > 0 else 1
    require_sectors_fit(model, n)
    sectors = symmetry_sectors(model)
    dv = flip_sums(model, beta).delta_v
    lambdas = np.linspace(0.0, lambda_max, n)
    # the lambda = 0 record is the Gibbs state, and every target has its purity
    sweep = QuasiGibbsSweep(sectors.blocks, lambdas, beta, sectors.multiplicity)

    # a one-record run has no interval and starts at one step
    steps = max(1, math.ceil(lambdas[-1] / max(n - 1, 1) / _INITIAL_DELTA_LAMBDA))
    # the first two levels always both run, so they share one pass over the sweep
    rec, finer = _run_levels(sweep, gamma, steps, 2 * steps)
    history = [float(rec["F"][-1])]
    for halving in range(_MAX_HALVINGS):
        steps *= 2
        if halving:
            [finer] = _run_levels(sweep, gamma, steps)
        history.append(float(finer["F"][-1]))
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
    radius = qsl_radius_constant_rate(dv, lambdas, gamma)

    trace = BoundTrace(
        lambdas=lambdas,
        adiabatic_fidelity=rec["F"],
        thermal_overlap=rec["C"],
        qsl_radius=radius,
        hs_angle=rec["theta"],
        bound_weak=bound_weak(radius),
        bound_strong=bound_strong(radius, rec["C"]),
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
