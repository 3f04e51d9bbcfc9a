"""Mixed-state quantum-speed-limit machinery: Wigner-Yanase skew information,
drive fluctuation deltaV, the QSL radius, and the two fidelity bounds.

The radius bounds how far (in Hilbert-Schmidt angle) unitary evolution can
carry the state from its initial point; the two bounds convert that radius
and the thermal-state overlap into an envelope for the adiabatic fidelity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import SpinChainModel, build_h0, build_v, require_finite
from .operators import DensityMatrix, HermitianOperator, hs_inner
from .thermal import escort_state

QUADRATURE_TOL = 1e-9
_MAX_QUAD_DOUBLINGS = 20


@dataclass(frozen=True)
class QslRadius:
    """QSL radius at a given lambda, with its clamped companions."""

    lam: float
    value: float

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("radius must be >= 0")

    @property
    def clamped_half_pi(self):
        return min(self.value, math.pi / 2)

    @property
    def clamped_quarter_pi(self):
        return min(self.value, math.pi / 4)


def _sqrt_psd(mat):
    """Matrix square root of a PSD matrix.

    Eigenvalue dust around zero (negative, or positive below the rank
    tolerance dim * eps * max) is clipped to exactly zero: the square root
    would otherwise amplify O(eps) dust into O(sqrt(eps)) noise.
    """
    evals, evecs = np.linalg.eigh(mat)
    floor = mat.shape[0] * np.finfo(float).eps * max(float(evals[-1]), 0.0)
    clipped = np.where(evals < floor, 0.0, evals)
    return (evecs * np.sqrt(clipped)) @ evecs.conj().T


def _skew_information(sqrt_rho, rho, h):
    t1 = np.real(hs_inner(rho, h @ h))
    shs = sqrt_rho @ h @ sqrt_rho
    t2 = np.real(np.sum(shs.T * h))
    return max(float(t1 - t2), 0.0)


def wy_skew_info(rho_escort: DensityMatrix, h: HermitianOperator) -> float:
    """Wigner-Yanase skew information Tr(rho H^2) - Tr(rho^{1/2} H rho^{1/2} H).

    Vanishes iff the state commutes with H; reduces to the variance of H for
    pure states.  Equals ||[rho^{1/2}, H]||_HS^2 / 2.
    """
    if rho_escort.dim != h.dim:
        raise ValueError(f"dimension mismatch {rho_escort.dim} vs {h.dim}")
    return _skew_information(_sqrt_psd(rho_escort.mat), rho_escort.mat, h.mat)


def delta_v(rho0: DensityMatrix, v: HermitianOperator) -> float:
    """Drive fluctuation sqrt(2 I_WY(escort(rho0), V)), in energy units."""
    return math.sqrt(2.0 * wy_skew_info(escort_state(rho0), v))


def qsl_radius_constant_rate(delta_v_value, lam, gamma) -> QslRadius:
    """Closed-form radius lambda^2 deltaV / (2 Gamma) for a constant drive rate.

    Valid when the initial state is stationary under H0 (a Gibbs state is),
    so the lambda'-dependence of the integrand is purely linear.
    """
    for name, value in (("delta_v", delta_v_value), ("lambda", lam), ("gamma", gamma)):
        require_finite(name, value)
    if gamma <= 0:
        raise ValueError("drive rate Gamma must be positive")
    return QslRadius(lam=float(lam), value=float(lam * lam * delta_v_value / (2.0 * gamma)))


def _simpson(values, step):
    # composite Simpson on an odd number of equally spaced samples
    acc = values[0] + values[-1] + 4.0 * np.sum(values[1:-1:2]) + 2.0 * np.sum(values[2:-2:2])
    return acc * step / 3.0


def qsl_radius_general(
    model: SpinChainModel,
    rho0: DensityMatrix,
    lam,
    rate_fn,
    n_quad: int = 8,
) -> QslRadius:
    """QSL radius by composite-Simpson quadrature of the instantaneous speed.

    Integrates sqrt(2 I_WY(escort(rho0), H_lambda')) / Gamma(lambda') over
    [0, lambda], doubling the panel count until the change is below 1e-9.
    """
    if lam == 0:
        return QslRadius(lam=0.0, value=0.0)
    if n_quad < 1:
        raise ValueError("n_quad must be >= 1")
    h0 = build_h0(model).mat
    v = build_v(model).mat
    escort = escort_state(rho0)
    sqrt_escort = _sqrt_psd(escort.mat)

    def integrand(x):
        rate = rate_fn(x)
        if not rate > 0:
            raise ValueError(f"non-positive drive rate {rate} at lambda'={x}")
        speed = math.sqrt(2.0 * _skew_information(sqrt_escort, escort.mat, h0 + x * v))
        return speed / rate

    panels = n_quad
    previous = None
    for _ in range(_MAX_QUAD_DOUBLINGS):
        xs = np.linspace(0.0, lam, 2 * panels + 1)
        vals = np.array([integrand(float(x)) for x in xs])
        est = float(_simpson(vals, xs[1] - xs[0]))
        if previous is not None and abs(est - previous) < QUADRATURE_TOL:
            return QslRadius(lam=float(lam), value=abs(est))
        previous = est
        panels *= 2
    raise RuntimeError("QSL quadrature did not converge to 1e-9")


def bound_weak(radius: QslRadius) -> float:
    """Looser fidelity bound sin(min(R, pi/2))."""
    return math.sin(radius.clamped_half_pi)


def bound_strong(radius: QslRadius, overlap_c) -> float:
    """Tighter fidelity bound g = g1 + g2.

    g1 = sin^2(min(R, pi/2)) |1 - 2C| and
    g2 = sin(2 min(R, pi/4)) sqrt(C) sqrt(1 - C), with C the overlap between
    the target and the initial state.  Never exceeds bound_weak.
    """
    if not 0.0 <= overlap_c <= 1.0:
        raise ValueError(f"overlap C={overlap_c} outside [0, 1]")
    g1 = math.sin(radius.clamped_half_pi) ** 2 * abs(1.0 - 2.0 * overlap_c)
    g2 = (
        math.sin(2.0 * radius.clamped_quarter_pi)
        * math.sqrt(overlap_c)
        * math.sqrt(1.0 - overlap_c)
    )
    return g1 + g2
