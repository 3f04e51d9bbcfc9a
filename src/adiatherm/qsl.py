"""Mixed-state quantum-speed-limit machinery: the QSL radius and the two
fidelity bounds.

The radius bounds how far (in Hilbert-Schmidt angle) unitary evolution can
carry the state from its initial point; the two bounds convert that radius
and the thermal-state overlap into an envelope for the adiabatic fidelity.
For a Gibbs rho0 the escort commutes with H0, so the radius's speed
sqrt(2 I_WY(escort(rho0), H_lambda')) / Gamma, with I_WY the Wigner-Yanase
skew information, is |lambda'| deltaV / Gamma; deltaV comes from
susceptibility.flip_sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import require_finite

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


def qsl_radius_general(delta_v_value, lam, rate_fn) -> QslRadius:
    """Radius deltaV |int_0^lambda lambda' / Gamma(lambda') dlambda'|, Gamma = rate_fn.

    Valid, like qsl_radius_constant_rate, for an initial state stationary
    under H0.  Composite Simpson from 8 panels, doubled until the radius
    changes by less than QUADRATURE_TOL; Simpson is exact for a constant rate.
    """
    for name, value in (("delta_v", delta_v_value), ("lambda", lam)):
        require_finite(name, value)
    if lam == 0:
        return QslRadius(lam=0.0, value=0.0)

    def integrand(x):
        rate = rate_fn(x)
        if not rate > 0:
            raise ValueError(f"non-positive drive rate {rate} at lambda'={x}")
        return x / rate

    panels, previous = 8, None
    for _ in range(_MAX_QUAD_DOUBLINGS):
        xs = np.linspace(0.0, lam, 2 * panels + 1)
        f = np.array([integrand(float(x)) for x in xs])
        est = (f[0] + f[-1] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-2:2].sum()) * (xs[1] - xs[0]) / 3.0
        if previous is not None and abs(delta_v_value * (est - previous)) < QUADRATURE_TOL:
            return QslRadius(lam=float(lam), value=float(delta_v_value * abs(est)))
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
    the target and the initial state.  Never exceeds bound_weak while
    R <= pi/4; beyond it the two clamps differ and g can exceed sin(R~)
    (by 0.118 at R = pi/2, C = 0.053).
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
