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
level reads them once.  A pass runs its levels on one leading axis: for
each chunk of records, _interval_propagators puts every level's CFM4 nodes
through the same _exp_minus_i stacks and returns each level's interval
propagators U_k as one (L, c, g, m, m) stack per group; one loop forms the
accumulated propagators W_k = U_k W_(k-1) of all levels with one product
per record and group, and rho_k = W_k rho0 W_k^dag and F come from one
stacked sandwich and one inner product for all levels.  Only the finest
level of a pass can be accepted, so the coarse level keeps F alone; the
finest level's rho gives every column that needs sigma or rho, C
included, which does not depend on the CFM4 step.  R and both bounds need
only C, so they are computed once, from the accepted level, with one
elementwise call each over every record.

Everything runs in the real symmetry-adapted basis of
models.symmetry_sectors, where H0 is diagonal and V block-diagonal, so every
CFM4 factor, propagator, rho and sigma is block-diagonal too and is kept as
one (..., g, m, m) stack per group of equal-size blocks (see
thermal.BlockEigensolver), never as a d x d matrix.  The factors of a stack
of CFM4 nodes come from five stacked real products per group, two more per
squaring of each factor whose 1-norm exceeds 0.05, and the stack
multiplies them into the partial propagators with one stacked product per
factor index.  A reflection twin (models.SymmetrySectors) is an orthogonal
copy of its partner block at every lambda, and so are its rho0,
propagators and targets, so the one block list of SymmetrySectors holds no
twin and evolve runs each partner once.  F, C, Theta, the purity and the
trace are sums of per-block traces counted by the sectors' multiplicity
(BlockEigensolver.inner and total), which the orthogonal change of basis
leaves unchanged; the Hermiticity defect is a maximum over blocks.
models.stack_slices cuts every stack, and since every product,
exponential and per-record sum runs matrix by matrix or row by row, the
rows do not depend on where it cuts.
"""

from __future__ import annotations

import logging
import math
import operator
from dataclasses import dataclass, field

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
    Each matrix is first scaled by 2^-s, with s the smallest integer for
    which its 1-norm is at most _TAYLOR_NORM = 0.05, which bounds the
    truncation error in 1-norm by the first dropped term,
    0.05^10 / 10! < 3e-20, before squaring.  Its s squarings
    (C, S) -> (C^2 - S^2, 2 C S), exact because C and S commute, then double
    the angle back, on the matrices whose s exceeds the squarings done, so a
    factor does not depend on the other matrices of its stack.  They are
    carried on C - I, so the rounding of the identity is not doubled s
    times: C - I -> 2 (C - I) + (C - I + S)(C - I - S) and
    S -> 2 (S + (C - I) S), two products per squaring.  A = 0 gives exactly I.
    """
    col_sums = np.abs(a).sum(axis=-2)
    s = np.zeros(col_sums.shape[:-1], dtype=int)
    # the per-matrix 1-norms, a slow reduction over a short axis, only when one scales
    if col_sums.max(initial=0.0) > _TAYLOR_NORM:
        norm = col_sums.max(axis=-1)
        s = np.ceil(np.log2(np.maximum(norm, _TAYLOR_NORM) / _TAYLOR_NORM)).astype(int)
        a = a * np.ldexp(1.0, -s)[..., None, None]
    b = a @ a
    b2 = b @ b
    cos_m1 = _taylor(b, b2, _COS_TAYLOR)
    sin = a + a @ _taylor(b, b2, _SIN_TAYLOR)
    for done in range(s.max(initial=0)):
        at = s > done
        c, sn = cos_m1[at], sin[at]
        cos_m1[at], sin[at] = 2.0 * c + (c + sn) @ (c - sn), 2.0 * (sn + c @ sn)
    return _add_identity(cos_m1, 1.0) - 1j * sin


def _interval_propagators(solver, lambdas, gamma, level_steps):
    """The CFM4 propagators over every interval of the grid lambdas at each
    step count of level_steps: one (L, c, g, m, m) stack per group of the
    BlockEigensolver solver, for L levels and c intervals.

    A step of width h from lambda0 applies exp(-i (h / 2 Gamma) H(lambda0 + h/6)),
    then exp(-i (h / 2 Gamma) H(lambda0 + 5h/6)); in the other order the scheme
    drops to second order.  The nodes of every level go through the same
    _exp_minus_i stacks, factor index by factor index, a node taking the
    entries of all blocks at the solver's dtype, as a lambda of the solver's
    eigh chunks does.  A stack multiplies each run of one factor index into
    the partial products of its intervals and levels in one stacked product
    per group, and a product whose factors span stacks is carried into the
    next.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    steps = np.asarray(level_steps)
    widths = (lambdas[1:] - lambdas[:-1]) / steps[:, None]  # (L, c)
    lam0 = lambdas[:-1] + np.arange(steps.max())[:, None, None] * widths  # every step's start
    nodes = np.stack([lam0 + widths / 6.0, lam0 + 5.0 * widths / 6.0], axis=1)
    nodes = nodes.reshape(2 * steps.max(), -1)  # (factor, level x interval)
    dt = (widths / (2.0 * gamma)).reshape(-1)
    # the slot (level x interval) of every node, factor by factor
    factors_per_slot = np.repeat(2 * steps, widths.shape[1])
    factor, slot = np.nonzero(np.arange(nodes.shape[0])[:, None] < factors_per_slot)
    u = [np.empty((dt.size, *h.shape[1:]), dtype=complex) for h in solver.hamiltonians([])]
    for at in stack_slices(factor.size, solver.dtype.itemsize * solver.entries):
        factors = [
            _exp_minus_i(dt[slot[at], None, None, None] * ham)
            for ham in solver.hamiltonians(nodes[factor[at], slot[at]])
        ]
        # runs of one factor index over consecutive slots
        cuts = [0, *(np.flatnonzero(np.diff(slot[at]) != 1) + 1), at.stop - at.start]
        for lo, hi in zip(cuts, cuts[1:]):
            to = slice(slot[at][lo], slot[at][lo] + hi - lo)
            for v, f in zip(u, factors):
                v[to] = f[lo:hi] if factor[at][lo] == 0 else f[lo:hi] @ v[to]
    return [v.reshape(*widths.shape, *v.shape[1:]) for v in u]


def _run_levels(sweep, gamma, *level_steps):
    """F at every CFM4 step count of level_steps, and every other column at
    the last, from one pass over the QuasiGibbsSweep sweep's records at
    drive rate gamma.

    Returns a dict of columns: "F" holds one row per level, and "C",
    "theta", "purity", "trace" and "herm" are the last level's, the finest
    of an evolve pass and the only one it can accept (C does not depend on
    the step count).  The levels run on one leading axis: for each chunk of
    records one _interval_propagators stack, overwritten in place by the
    accumulated propagators W_k = U_k W_(k-1) with one product per record
    and group, then one rho_k = W_k rho0 W_k^dag and one solver.inner for
    every level's F; the last level's rho gives the rest.
    """
    lambdas, purity, solver = sweep.lambdas, sweep.purity, sweep.solver
    n = lambdas.size
    rec = {"F": np.zeros((len(level_steps), n))}
    rec.update({name: np.zeros(n) for name in ("C", "theta", "purity", "trace", "herm")})
    rec["F"][:, 0] = rec["C"][0] = 1.0
    rec["purity"][0] = purity
    w = rho0 = None
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
        # each record's interval propagators, overwritten by its accumulated W_k
        ws = _interval_propagators(
            solver, lambdas[records.start - 1 : records.stop], gamma, level_steps
        )
        for k in range(records.stop - records.start):
            if w is not None:
                for x, y in zip(ws, w):
                    x[:, k] = x[:, k] @ y
            w = [x[:, k] for x in ws]
        w = [y.copy() for y in w]  # so this chunk's stacks can go before the next are built
        rho = [(x @ r0) @ adjoint(x) for x, r0 in zip(ws, rho0)]
        rho_purity = solver.inner(rho, rho)
        rec["F"][:, records] = hs_fidelity_from_overlap(
            solver.inner(sigma, rho), purity, rho_purity
        )
        rho, rho_purity = [r[-1] for r in rho], rho_purity[-1]
        rec["C"][records] = hs_fidelity_from_overlap(solver.inner(sigma, rho0), purity, purity)
        rho_norm = np.sqrt(rho_purity)[:, None, None, None]
        unit_gap = [r0 / rho0_norm - r / rho_norm for r0, r in zip(rho0, rho)]
        rec["theta"][records] = hs_angle_from_distance(np.sqrt(solver.inner(unit_gap, unit_gap)))
        del unit_gap
        rec["purity"][records] = rho_purity
        tr = solver.total([np.trace(r, axis1=-2, axis2=-1) for r in rho])
        rec["trace"][records] = np.abs(tr.real - 1.0) + np.abs(tr.imag)
        rec["herm"][records] = np.max(
            [np.abs(r - adjoint(r)).max(axis=(-3, -2, -1)) for r in rho], axis=0
        )
        del rho, ws
    return rec


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
    rec = _run_levels(sweep, gamma, steps, 2 * steps)
    f = rec["F"][0]
    history = [float(f[-1])]
    for halving in range(_MAX_HALVINGS):
        steps *= 2
        if halving:
            rec = _run_levels(sweep, gamma, steps)
        finer = rec["F"][-1]
        history.append(float(finer[-1]))
        change = float(np.max(np.abs(finer - f)))
        f = finer
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
        adiabatic_fidelity=f,
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
