"""Unitary evolution of the Gibbs state under a constant-rate linear ramp,
with per-record fidelity-bound bookkeeping.

The stepper is midpoint-exponential (second-order Magnus): each substep
applies U = exp(-i H_mid dt) built by eigendecomposition, so every step is
exactly unitary and purity conservation is structural rather than an
accuracy accident.  The internal step is halved until the final-record
adiabatic fidelity is stable to 1e-8.  Quasi-Gibbs targets come from one
step-doubled continuation sweep whose record snapshots are cached (and
shared by F and C) when they fit in memory.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .models import SpinChainModel, build_h0, build_v, require_finite
from .operators import eigh, hs_norm, real_if_exactly_real
from .qsl import bound_strong, bound_weak, qsl_radius_constant_rate
from .susceptibility import delta_v_thermal
from .thermal import (
    CONTINUATION_STABILITY_TOL,
    EigenbasisContinuation,
    boltzmann_weights,
    default_continuation_steps,
    gibbs_state,
)

logger = logging.getLogger(__name__)

FINAL_FIDELITY_TOL = 1e-8
_MAX_HALVINGS = 12
_MAX_SWEEP_DOUBLINGS = 7
_INITIAL_DELTA_LAMBDA = 1e-3
_SIGMA_CACHE_BYTES = 6e8


@dataclass(frozen=True)
class BoundTrace:
    """Per-record dynamics trace: fidelities, QSL radius, bounds, purity.

    Records are sorted by lambda and start at lambda = 0 with F = C = 1 and
    R = Theta = 0.  trace_defect and herm_defect track |Tr rho - 1| and the
    Hermiticity defect of the evolved state at each record.
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


def _hs_fid_raw(a, a_purity, b, b_purity):
    overlap = float(np.real(np.vdot(a, b)))
    return min(max(overlap * overlap / (a_purity * b_purity), 0.0), 1.0)


class _SigmaSweep:
    """Quasi-Gibbs targets at the record grid from one converged continuation.

    The per-interval substep count is doubled until the final target is
    stable to 1e-8 in HS norm.  Snapshots are cached when they fit in
    _SIGMA_CACHE_BYTES; otherwise each request re-marches the continuation.
    """

    def __init__(self, model, lambdas, weights):
        self.model = model
        self.lambdas = lambdas
        self.weights = weights
        base_total = default_continuation_steps(lambdas[-1])
        per_interval = max(1, math.ceil(base_total / (len(lambdas) - 1)))
        dim = weights.shape[0]
        caching = len(lambdas) * dim * dim * 16 <= _SIGMA_CACHE_BYTES
        previous = None
        snapshots = [] if caching else None
        for _ in range(_MAX_SWEEP_DOUBLINGS):
            if snapshots is not None:
                snapshots.clear()
            final = self._march(per_interval, snapshots=snapshots)
            if previous is not None and hs_norm(final - previous) <= CONTINUATION_STABILITY_TOL:
                break
            previous = final
            per_interval *= 2
        else:
            raise RuntimeError("eigenbasis continuation did not stabilize to 1e-8")
        self.per_interval = per_interval
        self._cache = snapshots

    def _sigma(self, cont):
        u = cont.vectors
        return (u * self.weights) @ u.conj().T

    def _march(self, per_interval, snapshots):
        cont = EigenbasisContinuation(self.model)
        if snapshots is not None:
            snapshots.append(self._sigma(cont))
        for k in range(1, len(self.lambdas)):
            a, b = self.lambdas[k - 1], self.lambdas[k]
            for s in range(1, per_interval + 1):
                cont.advance(a + (b - a) * s / per_interval)
            if snapshots is not None:
                snapshots.append(self._sigma(cont))
        return self._sigma(cont)

    def records(self):
        """Yield the quasi-Gibbs matrix at each record lambda, in order."""
        if self._cache is not None:
            yield from self._cache
            return
        cont = EigenbasisContinuation(self.model)
        yield self._sigma(cont)
        for k in range(1, len(self.lambdas)):
            a, b = self.lambdas[k - 1], self.lambdas[k]
            for s in range(1, self.per_interval + 1):
                cont.advance(a + (b - a) * s / self.per_interval)
            yield self._sigma(cont)


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

    h0 = build_h0(model)
    v = build_v(model)
    spec0 = eigh(h0)
    rho0 = gibbs_state(spec0, beta)
    dv = delta_v_thermal(spec0, v, beta)
    weights = boltzmann_weights(spec0.eigenvalues, beta)
    sigma_purity = float(np.sum(weights**2))
    rho0_purity = rho0.purity

    if lambda_max == 0 or n_records == 1:
        zeros = np.zeros(1)
        return BoundTrace(
            lambdas=zeros.copy(),
            adiabatic_fidelity=np.ones(1),
            thermal_overlap=np.ones(1),
            qsl_radius=zeros.copy(),
            hs_angle=zeros.copy(),
            bound_weak=zeros.copy(),
            bound_strong=zeros.copy(),
            purity=np.array([rho0_purity]),
            trace_defect=zeros.copy(),
            herm_defect=zeros.copy(),
            beta=float(beta),
            gamma=float(gamma),
            delta_v_value=dv,
        )

    lambdas = np.linspace(0.0, lambda_max, n_records)
    interval = lambdas[1] - lambdas[0]
    sweep = _SigmaSweep(model, lambdas, weights)

    h0m = real_if_exactly_real(h0.mat)
    vm = real_if_exactly_real(v.mat)
    rho0m = rho0.mat

    def run_level(substeps):
        rho = rho0m.copy()
        rec = {
            name: np.zeros(n_records)
            for name in ("F", "C", "R", "theta", "weak", "strong", "purity", "trace", "herm")
        }
        sigma_iter = sweep.records()
        next(sigma_iter)
        rec["F"][0] = rec["C"][0] = 1.0
        rec["purity"][0] = rho0_purity
        for k in range(1, n_records):
            a = lambdas[k - 1]
            h = interval / substeps
            for s in range(substeps):
                mid = a + (s + 0.5) * h
                evals, evecs = np.linalg.eigh(h0m + mid * vm)
                phases = np.exp(-1j * evals * (h / gamma))
                u = (evecs * phases) @ evecs.conj().T
                rho = u @ rho @ u.conj().T
            sigma = next(sigma_iter)
            rho_purity = float(np.real(np.vdot(rho, rho)))
            rec["F"][k] = _hs_fid_raw(sigma, sigma_purity, rho, rho_purity)
            rec["C"][k] = _hs_fid_raw(sigma, sigma_purity, rho0m, rho0_purity)
            radius = qsl_radius_constant_rate(dv, lambdas[k], gamma)
            rec["R"][k] = radius.value
            rec["theta"][k] = math.acos(
                math.sqrt(_hs_fid_raw(rho0m, rho0_purity, rho, rho_purity))
            )
            rec["weak"][k] = bound_weak(radius)
            rec["strong"][k] = bound_strong(radius, rec["C"][k])
            rec["purity"][k] = rho_purity
            tr = complex(np.trace(rho))
            rec["trace"][k] = abs(tr.real - 1.0) + abs(tr.imag)
            rec["herm"][k] = float(np.abs(rho - rho.conj().T).max())
        return rec

    substeps = max(1, math.ceil(interval / _INITIAL_DELTA_LAMBDA))
    history = []
    rec = run_level(substeps)
    history.append(rec["F"][-1])
    for _ in range(_MAX_HALVINGS):
        substeps *= 2
        rec = run_level(substeps)
        history.append(rec["F"][-1])
        if abs(history[-1] - history[-2]) < FINAL_FIDELITY_TOL:
            break
    else:
        raise RuntimeError(
            "final-record fidelity did not stabilize to "
            f"{FINAL_FIDELITY_TOL} after {_MAX_HALVINGS} halvings; "
            f"history={history}"
        )

    trace = BoundTrace(
        lambdas=lambdas,
        adiabatic_fidelity=rec["F"],
        thermal_overlap=rec["C"],
        qsl_radius=rec["R"],
        hs_angle=rec["theta"],
        bound_weak=rec["weak"],
        bound_strong=rec["strong"],
        purity=rec["purity"],
        trace_defect=rec["trace"],
        herm_defect=rec["herm"],
        beta=float(beta),
        gamma=float(gamma),
        delta_v_value=dv,
        n_substeps_per_interval=substeps,
        fidelity_history=tuple(history),
    )
    logger.info(
        "evolve beta=%g gamma=%g: max |F - C| = %.3e over %d records",
        beta,
        gamma,
        trace.max_abs_f_minus_c,
        n_records,
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
