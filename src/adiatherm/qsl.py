"""Mixed-state quantum-speed-limit machinery: the QSL radius and the two
fidelity bounds.

The radius bounds how far (in Hilbert-Schmidt angle) unitary evolution can
carry the state from its initial point; the two bounds convert that radius
and the thermal-state overlap into an envelope for the adiabatic fidelity.
For a Gibbs rho0 the escort commutes with H0, so the radius's speed
sqrt(2 I_WY(escort(rho0), H_lambda')) / Gamma, with I_WY the Wigner-Yanase
skew information, is |lambda'| deltaV / Gamma; deltaV comes from
susceptibility.flip_sums.  Under a constant rate the radius is the closed
form lambda^2 deltaV / (2 Gamma).  All three functions are elementwise, so
one call covers every record of a run.
"""

from __future__ import annotations

import numpy as np

from .models import require_finite


def _require_all_finite(name, values):
    flat = np.ravel(values)
    bad = flat[~np.isfinite(flat)]
    if bad.size:
        require_finite(name, float(bad[0]))


def qsl_radius_constant_rate(delta_v_value, lam, gamma):
    """Closed-form radius lambda^2 deltaV / (2 Gamma) for a constant drive rate.

    Valid when the initial state is stationary under H0 (a Gibbs state is),
    so the lambda'-dependence of the integrand is purely linear.  Elementwise
    over numbers or arrays; every element is checked.
    """
    for name, value in (("delta_v", delta_v_value), ("lambda", lam), ("gamma", gamma)):
        _require_all_finite(name, value)
    if np.any(np.less_equal(gamma, 0)):
        raise ValueError("drive rate Gamma must be positive")
    # lambda^2 >= 0 and Gamma > 0, so only deltaV can make R negative
    if np.any(np.less(delta_v_value, 0)):
        raise ValueError("delta_v must be >= 0")
    return lam * lam * delta_v_value / (2.0 * gamma)


def bound_weak(r):
    """Looser fidelity bound sin(min(R, pi/2)), elementwise."""
    return np.sin(np.minimum(r, np.pi / 2))


def bound_strong(r, overlap_c):
    """Tighter fidelity bound g = g1 + g2, elementwise.

    g1 = sin^2(min(R, pi/2)) |1 - 2C| and
    g2 = sin(2 min(R, pi/4)) sqrt(C) sqrt(1 - C), with C the overlap between
    the target and the initial state.  Never exceeds bound_weak while
    R <= pi/4; beyond it the two clamps differ and g can exceed sin(R~)
    (by 0.118 at R = pi/2, C = 0.053).
    """
    c = np.asarray(overlap_c, dtype=float)
    outside = ~((0.0 <= c) & (c <= 1.0))
    if np.any(outside):
        raise ValueError(f"overlap C={float(c[outside].flat[0])} outside [0, 1]")
    g1 = np.sin(np.minimum(r, np.pi / 2)) ** 2 * np.abs(1.0 - 2.0 * c)
    g2 = np.sin(2.0 * np.minimum(r, np.pi / 4)) * np.sqrt(c) * np.sqrt(1.0 - c)
    return g1 + g2
