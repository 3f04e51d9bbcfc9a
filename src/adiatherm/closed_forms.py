"""Closed-form transfer-matrix results for the three chain drives.

Classical 2x2 transfer matrices generate the Ising partition functions and
correlation-type sums behind deltaV, chi_F, the threshold rate, and the
finite-temperature factor f_N(beta), exactly at any N and any finite beta.
Everything here is independent of the exact-diagonalization route and serves
as its oracle (and vice versa).

The zero-field chains (tfic, qxyc) reduce to powers of t = tanh(2 beta J).
The mixed-field forms are even in B, because the global flip prod X maps B
to -B and commutes with V, so they take H = 2 beta |B| >= 0.  Their
transfer and flip matrices are built ground-shifted, like every
Boltzmann weight of the package: each entry carries exp(-2 beta s) with
s >= 0, so no exponent is positive.  Each trace Tr(T^n M) is split over the
two eigenvalues of the shifted transfer matrix (_split_coefficients), and
Lambda^N enters only through r = Lambda_-/Lambda_+ in [0, 1).  A threshold
row of the mixed-field chain takes its deltaV, chi_F, f_N and f from one
such record (mfic_threshold_forms), bit for bit the four separate forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .models import require_alpha, require_beta, require_couplings, require_ring

_EIGEN_SPLIT_TOL = 1e-12


def delta_v_tfic_closed(n_sites, beta, j) -> float:
    """sqrt(2N) J tanh(2 beta J) [(1 + t^{N-2}) / (1 + t^N)]^{1/2}, t = tanh(2 beta J)."""
    require_ring(n_sites, j, min_sites=3)
    require_beta(beta)
    t = math.tanh(2.0 * beta * j)
    ratio = (1.0 + t ** (n_sites - 2)) / (1.0 + t**n_sites)
    return math.sqrt(2.0 * n_sites) * j * t * math.sqrt(ratio)


def chi_f_tfic_closed(n_sites, beta, j) -> float:
    """(N/4) tanh^2(2 beta J) (1 + t^{N-2}) / (1 + t^N)."""
    require_ring(n_sites, j, min_sites=3)
    require_beta(beta)
    t = math.tanh(2.0 * beta * j)
    return 0.25 * n_sites * t * t * (1.0 + t ** (n_sites - 2)) / (1.0 + t**n_sites)


def gamma_n_tfic(n_sites, j, alpha: float = 1.0) -> float:
    """Zero-temperature threshold rate 4 sqrt(2) J alpha / sqrt(N) (also QXYC)."""
    require_ring(n_sites, j)
    require_alpha(alpha)
    return 4.0 * math.sqrt(2.0) * j * alpha / math.sqrt(n_sites)


def f_n_tfic(n_sites, beta, j) -> float:
    """Finite-N temperature factor coth(2 beta J) [(1 + t^N)/(1 + t^{N-2})]^{1/2}.

    n_sites = None selects the thermodynamic limit f = coth(2 beta J).
    """
    require_beta(beta, positive=True)
    if n_sites is None:
        require_couplings(j)
        return 1.0 / math.tanh(2.0 * beta * j)
    require_ring(n_sites, j, min_sites=3)
    t = math.tanh(2.0 * beta * j)
    return (1.0 / t) * math.sqrt((1.0 + t**n_sites) / (1.0 + t ** (n_sites - 2)))


def f_tfic_asymptotics(beta, j, regime) -> float:
    """Asymptotes of the thermodynamic factor f(beta) = coth(2 beta J).

    'low' returns 1 + 2 exp(-4 beta J) (gap 4J, coefficient 2); 'high'
    returns 1 / (2 beta J) (coefficient 1/(2J)).
    """
    require_beta(beta, positive=regime == "high")
    require_couplings(j)
    if regime == "low":
        return 1.0 + 2.0 * math.exp(-4.0 * beta * j)
    if regime == "high":
        return 1.0 / (2.0 * beta * j)
    raise ValueError(f"regime must be 'low' or 'high', got {regime!r}")


def _split_coefficients(t, m, lam_plus, lam_minus) -> tuple[float, float]:
    """(a_+, a_-) with Tr(T^n M) = a_+ Lambda_+^n + a_- Lambda_-^n for every n >= 0.

    t and m are symmetric 2x2 matrices given as (top-left, off-diagonal,
    bottom-right) entries, and lam_plus, lam_minus are the eigenvalues of t.
    """
    if abs(lam_plus - lam_minus) <= _EIGEN_SPLIT_TOL * max(1.0, abs(lam_plus)):
        raise ValueError("degenerate transfer-matrix eigenvalues")
    tr_m = m[0] + m[2]
    tr_tm = t[0] * m[0] + 2.0 * t[1] * m[1] + t[2] * m[2]
    a_plus = (tr_tm - lam_minus * tr_m) / (lam_plus - lam_minus)
    a_minus = (lam_plus * tr_m - tr_tm) / (lam_plus - lam_minus)
    return a_plus, a_minus


@dataclass(frozen=True)
class MficCoefficients:
    """Ground-shifted transfer-matrix data of the mixed-field chain at inverse temperature 2 beta.

    K = 2 beta J and H = 2 beta |B|.  The transfer matrix
    T_{s,s'} = exp(K s s' - (H/2)(s + s')), s = +1 first, is taken as
    T~ = T e^{-(K+H)} = [[e^{-2H}, e^{-2K-H}], [e^{-2K-H}, 1]], and
    Lambda_pm are its eigenvalues (so Lambda_+ <= 1 + e^{-2H}).  d_pm split
    the local-flip matrix M e^{-2(K+H)} (units 1/energy^2) over T~, and e_pm
    the same matrix with each entry times its squared flip gap (2y)^2
    (dimensionless): chi_F's pair sum and deltaV^2's, which lacks the
    1/gap^2.
    """

    K: float
    H: float
    lambda_plus: float
    lambda_minus: float
    d_plus: float
    d_minus: float
    e_plus: float
    e_minus: float


def _flip_weight(beta, y, s):
    """8 e^{-2 beta (s + |y|)} sinh^2(beta y), written with no positive exponent.

    A local-flip entry of chi_F's matrix is this over y^2, and of deltaV^2's
    this times 4, the entry times its squared flip gap (2y)^2.  The factor
    e^{-2 beta s} is exactly 1 at s = 0, also where 2 beta overflows
    (beta = 1e308), which would give e^{-inf * 0} = nan.
    """
    shift = math.exp(-2.0 * beta * s) if s else 1.0
    return 2.0 * shift * math.expm1(-2.0 * beta * abs(y)) ** 2


def mfic_coefficients(beta, j, b) -> MficCoefficients:
    """All scalar transfer-matrix data entering the mixed-field closed forms.

    B in {0, +-2J} (within 1e-9 J) is rejected: the flip-matrix denominators
    (B -+ 2J)^2 and B^2 vanish there, so the closed forms as written divide
    by zero even though the underlying limits exist.
    """
    require_couplings(j, b)
    window = 1e-9 * j
    if min(abs(b), abs(b - 2 * j), abs(b + 2 * j)) < window:
        raise ValueError(
            f"B={b} is within {window:g} of an excluded value; the mixed-field "
            "closed forms assume B != 0, +-2J"
        )
    require_beta(beta)
    b = abs(b)
    k = 2.0 * beta * j
    h = 2.0 * beta * b
    t = (math.exp(-2.0 * h), math.exp(-2.0 * k - h), 1.0)
    lam_plus = (t[0] + 1.0) / 2.0 + math.hypot(math.expm1(-2.0 * h) / 2.0, t[1])
    lam_minus = -t[0] * math.expm1(-4.0 * k) / lam_plus
    # shifts s = 2(J + |B|) - |y| + (|B|, 0, -|B|); the first, 3|B| + 2J - |B - 2J|,
    # is written as 2|B| + min(2|B|, 4J) to avoid cancellation
    ys = (b - 2 * j, b, b + 2 * j)
    shifts = (2 * b + min(2 * b, 4 * j), 2 * j + b, 0.0)
    weights = [_flip_weight(beta, y, s) for y, s in zip(ys, shifts)]
    d_plus, d_minus = _split_coefficients(
        t, tuple(w / y**2 for w, y in zip(weights, ys)), lam_plus, lam_minus
    )
    e_plus, e_minus = _split_coefficients(t, tuple(4.0 * w for w in weights), lam_plus, lam_minus)
    return MficCoefficients(
        K=k,
        H=h,
        lambda_plus=lam_plus,
        lambda_minus=lam_minus,
        d_plus=d_plus,
        d_minus=d_minus,
        e_plus=e_plus,
        e_minus=e_minus,
    )


def _mfic_finite(n_sites, j, coeffs: MficCoefficients):
    """(deltaV, chi_F) of the N-site ring from one MficCoefficients record.

    Both are sums of positive flip entries over the same transfer matrix,
    deltaV^2 = (N J^2 / 4) Tr(T^{N-2} M_e) / Tr(T^N) and
    chi_F = (N J^2 / 2) Tr(T^{N-2} M) / Tr(T^N), with no difference of
    nearly equal terms at any beta.
    """
    r = coeffs.lambda_minus / coeffs.lambda_plus
    denom = coeffs.lambda_plus**2 * (1.0 + r**n_sites)
    tail = r ** (n_sites - 2)
    delta_v = math.sqrt(0.25 * n_sites * j * j * (coeffs.e_plus + coeffs.e_minus * tail) / denom)
    chi_over_nj2 = 0.5 * (coeffs.d_plus + coeffs.d_minus * tail) / denom
    return delta_v, n_sites * j * j * chi_over_nj2


def delta_v_mfic_closed(n_sites, beta, j, b) -> float:
    """[(N J^2 / 4) Tr(T^{N-2} M_e) / (Lambda_+^N + Lambda_-^N)]^{1/2}, shifted matrices."""
    require_ring(n_sites, j, b, min_sites=3)
    require_beta(beta)
    if beta == 0:
        return 0.0
    return _mfic_finite(n_sites, j, mfic_coefficients(beta, j, b))[0]


def chi_f_mfic_closed(n_sites, beta, j, b) -> float:
    """(N J^2 / 2) Tr(T^{N-2} M) / (Lambda_+^N + Lambda_-^N), from the shifted matrices."""
    require_ring(n_sites, j, b, min_sites=3)
    require_beta(beta)
    if beta == 0:
        return 0.0
    return _mfic_finite(n_sites, j, mfic_coefficients(beta, j, b))[1]


def gamma_n_mfic(n_sites, j, b, alpha: float = 1.0) -> float:
    """Zero-temperature threshold rate sqrt(2) alpha (2J + |B|)^2 / (sqrt(N) J).

    This is alpha deltaV0 / chi_F0 with deltaV0 = sqrt(2N) J and
    chi_F0 = N J^2 / (2J + |B|)^2 (N single-flip states at gap 2(2J + |B|)).
    """
    require_ring(n_sites, j, b)
    require_alpha(alpha)
    return math.sqrt(2.0) * alpha * (2.0 * j + abs(b)) ** 2 / (math.sqrt(n_sites) * j)


def _f_mfic_limit(j, b, coeffs: MficCoefficients) -> float:
    """The thermodynamic-limit factor of f_mfic from one MficCoefficients record."""
    scale = (2.0 * j + abs(b)) ** 2
    return math.sqrt(0.5 * coeffs.e_plus) * coeffs.lambda_plus / (scale * coeffs.d_plus)


def f_mfic(n_sites, beta, j, b) -> float:
    """Temperature factor Gamma_th / Gamma_N for the mixed-field chain.

    n_sites = None selects the thermodynamic limit
    f = (e_+ / 2)^{1/2} Lambda_+ / ((2J + |B|)^2 d_+)
    in the shifted data of MficCoefficients; it tends to 1 as
    beta -> infinity.  Raises ValueError where the factor's denominator
    underflows to 0 (beta <~ 1e-200): chi_F for finite N, d_+ for the limit.
    """
    require_beta(beta, positive=True)
    coeffs = mfic_coefficients(beta, j, b)
    if n_sites is None:
        if not coeffs.d_plus:
            raise ValueError(f"d_+ underflows to 0 at beta={beta!r}; f is undefined there")
        return _f_mfic_limit(j, b, coeffs)
    require_ring(n_sites, j, b, min_sites=3)
    dv, chi = _mfic_finite(n_sites, j, coeffs)
    if not chi:
        raise ValueError(f"chi_F underflows to 0 at beta={beta!r}; f_N is undefined there")
    return (dv / chi) / gamma_n_mfic(n_sites, j, b, 1.0)


def mfic_threshold_forms(n_sites, beta, j, b) -> tuple[float, float, float, float]:
    """(deltaV, chi_F, f_N, f) of the N-site mixed-field ring at beta, from
    one MficCoefficients record.

    Each is bit for bit delta_v_mfic_closed, chi_f_mfic_closed, f_mfic(N)
    and f_mfic(None) at the same arguments, and the arguments are checked
    as delta_v_mfic_closed checks them.  Where a factor is undefined it is
    nan instead of an error: both at beta = 0, f_N where chi_F underflows to
    0 and f where d_+ does.
    """
    require_ring(n_sites, j, b, min_sites=3)
    require_beta(beta)
    if beta == 0:
        return 0.0, 0.0, math.nan, math.nan
    coeffs = mfic_coefficients(beta, j, b)
    dv, chi = _mfic_finite(n_sites, j, coeffs)
    f_n = (dv / chi) / gamma_n_mfic(n_sites, j, b, 1.0) if chi else math.nan
    f_inf = _f_mfic_limit(j, b, coeffs) if coeffs.d_plus else math.nan
    return dv, chi, f_n, f_inf


def f_mfic_asymptotics(beta, j, b, regime) -> float:
    """Asymptotes of the thermodynamic mixed-field factor.

    'low' returns 1 + exp(-2 beta (2J + |B|)) (gap 2(2J + |B|), coefficient 1);
    'high' returns c2 / beta with
    c2 = sqrt(2 + (B/J)^2) / (sqrt(2) (2 + |B|/J)^2 J).
    """
    require_beta(beta, positive=regime == "high")
    require_couplings(j, b)
    if regime == "low":
        return 1.0 + math.exp(-2.0 * beta * (2.0 * j + abs(b)))
    if regime == "high":
        c2 = math.sqrt(2.0 + (b / j) ** 2) / (math.sqrt(2.0) * (2.0 + abs(b) / j) ** 2 * j)
        return c2 / beta
    raise ValueError(f"regime must be 'low' or 'high', got {regime!r}")
