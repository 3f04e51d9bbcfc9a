"""Unitary evolution of the Gibbs state under a constant-rate linear ramp,
with per-record fidelity-bound bookkeeping.

The stepper is the fourth-order commutator-free Magnus scheme CFM4
(Alvermann & Fehske, J. Comput. Phys. 230, 5930 (2011)).  H is linear in
lambda, so a step is two exponentials exp(-i H(lambda_eff) dt / 2), each
built by eigendecomposition: every step is exactly unitary and purity
conservation is structural rather than an accuracy accident.  The step is
halved until F is stable to 1e-8 at every record.  The quasi-Gibbs targets
come from one thermal.QuasiGibbsSweep, stable to 1e-8 at every record and
started from the H0 and V matrices evolve already holds; its lambda = 0
record is the initial Gibbs state, so H0 is diagonalized once.  Each halving
level reads the sweep's records once and fills every column that needs sigma
or rho, C included: C does not depend on the CFM4 step, so every level gives
it bit for bit, at the cost of one inner product per record.  R and both
bounds need only C, so they are computed once, from the accepted level.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .models import SpinChainModel, build_h0, build_v, require_finite
from .operators import hs_angle_mat, hs_fidelity_mat
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
    every level, one entry per pass over the quasi-Gibbs records.  A
    one-record trace (lambda_max = 0 or n_records = 1) has no interval: it
    runs the levels of 1 and 2 steps, so it reads 2 and (1.0, 1.0).
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

    @property
    def n_records(self):
        return len(self.lambdas)

    @property
    def max_abs_f_minus_c(self):
        """Near-coincidence diagnostic max_k |F_k - C_k|."""
        return float(np.max(np.abs(self.adiabatic_fidelity - self.thermal_overlap)))

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


def _propagator(hmat, dt):
    """Exactly unitary exp(-i H dt) of a real-symmetric or Hermitian H by eigh."""
    evals, evecs = np.linalg.eigh(hmat)
    phases = np.exp(-1j * dt * evals)
    # for real eigenvectors two real products cost half of one complex product
    cos_part = (evecs * phases.real) @ evecs.conj().T
    sin_part = (evecs * phases.imag) @ evecs.conj().T
    return cos_part + 1j * sin_part


def cfm4_propagator(h0, v, lam_start, lam_stop, gamma, steps):
    """Propagator over [lam_start, lam_stop] of the ramp lambda = Gamma t, by CFM4.

    Fourth-order commutator-free Magnus scheme (Alvermann & Fehske 2011).
    Because H(lambda) = H0 + lambda V is linear in lambda, each step of width
    h from lambda0 is two exponentials: first exp(-i (h / 2 Gamma)
    H(lambda0 + h/6)), then exp(-i (h / 2 Gamma) H(lambda0 + 5h/6)).  Applied
    in the other order the scheme drops to second order.
    """
    h = (lam_stop - lam_start) / steps
    dt = h / (2.0 * gamma)
    u = None
    for s in range(steps):
        lam0 = lam_start + s * h
        for node in (lam0 + h / 6.0, lam0 + 5.0 * h / 6.0):
            factor = _propagator(h0 + node * v, dt)
            u = factor if u is None else factor @ u
    return u


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
    """
    for name, value in (("beta", beta), ("gamma", gamma), ("lambda_max", lambda_max)):
        require_finite(name, value)
    if gamma <= 0:
        raise ValueError("drive rate Gamma must be positive")
    if lambda_max < 0:
        raise ValueError("lambda_max must be >= 0")
    if n_records < 1:
        raise ValueError("n_records must be >= 1")

    h0m, vm = build_h0(model).mat, build_v(model).mat
    dv = flip_sums(model, beta).delta_v
    lambdas = np.linspace(0.0, lambda_max, n_records if lambda_max > 0 else 1)
    n = lambdas.size
    # the lambda = 0 record is the Gibbs state, and every target has its purity
    sweep = QuasiGibbsSweep(h0m, vm, lambdas, beta)

    def run_level(steps):
        """Every column that needs sigma or rho, in one pass over the sweep."""
        rec = {name: np.zeros(n) for name in ("F", "C", "theta", "purity", "trace", "herm")}
        sigmas = sweep.records()
        rho0 = rho = next(sigmas)
        rec["F"][0] = rec["C"][0] = 1.0
        rec["purity"][0] = sweep.purity
        for k, sigma in enumerate(sigmas, start=1):
            u = cfm4_propagator(h0m, vm, lambdas[k - 1], lambdas[k], gamma, steps)
            rho = u @ rho @ u.conj().T
            rho_purity = float(np.real(np.vdot(rho, rho)))
            rec["F"][k] = hs_fidelity_mat(sigma, sweep.purity, rho, rho_purity)
            rec["C"][k] = hs_fidelity_mat(sigma, sweep.purity, rho0, sweep.purity)
            rec["theta"][k] = hs_angle_mat(rho0, rho)
            rec["purity"][k] = rho_purity
            tr = complex(np.trace(rho))
            rec["trace"][k] = abs(tr.real - 1.0) + abs(tr.imag)
            rec["herm"][k] = float(np.abs(rho - rho.conj().T).max())
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
    )
    logger.info(
        "evolve beta=%g gamma=%g: max |F - C| = %.3e over %d records",
        beta,
        gamma,
        trace.max_abs_f_minus_c,
        n,
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
