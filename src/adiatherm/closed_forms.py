"""Closed-form transfer-matrix results for the three chain drives.

Classical 2x2 transfer matrices generate the Ising partition functions and
correlation-type sums behind deltaV, chi_F, the threshold rate, and the
finite-temperature factor f_N(beta), exactly at any N.  Everything here is
independent of the exact-diagonalization route and serves as its oracle
(and vice versa).

The zero-field chains (tfic, qxyc) reduce to powers of t = tanh(2 beta J).
The mixed-field forms split each trace Tr(T^n M) over the two eigenvalues
of the field transfer matrix (_split_coefficients), so large powers
Lambda^N only ever appear through the ratio r = Lambda_-/Lambda_+ < 1 and
nothing overflows at desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_EIGEN_SPLIT_TOL = 1e-12


@dataclass(frozen=True)
class TransferMatrix2:
    """Symmetric positive 2x2 transfer matrix with its ordered eigenvalues."""

    entries: np.ndarray
    eigen_plus: float
    eigen_minus: float

    def __post_init__(self):
        object.__setattr__(self, "entries", np.asarray(self.entries, dtype=float))
        t = self.entries
        if t.shape != (2, 2):
            raise ValueError("transfer matrix must be 2x2")
        if abs(t[0, 1] - t[1, 0]) > 1e-12 * max(1.0, abs(t[0, 1])):
            raise ValueError("transfer matrix must be symmetric")
        if np.any(t <= 0):
            raise ValueError("transfer matrix entries must be positive")
        tr = t[0, 0] + t[1, 1]
        det = t[0, 0] * t[1, 1] - t[0, 1] * t[1, 0]
        if abs(self.eigen_plus + self.eigen_minus - tr) > 1e-12 * max(1.0, abs(tr)):
            raise ValueError("eigenvalue sum does not match trace")
        prod = self.eigen_plus * self.eigen_minus
        if abs(prod - det) > 1e-12 * max(1.0, abs(det)):
            raise ValueError("eigenvalue product does not match determinant")
        if not self.eigen_plus > self.eigen_minus >= -1e-15:
            raise ValueError("need eigen_plus > eigen_minus >= 0")


def delta_v_tfic_closed(n_sites, beta, j) -> float:
    """sqrt(2N) J tanh(2 beta J) [(1 + t^{N-2}) / (1 + t^N)]^{1/2}, t = tanh(2 beta J)."""
    if n_sites < 3:
        raise ValueError("n_sites must be >= 3")
    if beta < 0:
        raise ValueError("beta must be >= 0")
    t = math.tanh(2.0 * beta * j)
    ratio = (1.0 + t ** (n_sites - 2)) / (1.0 + t**n_sites)
    return math.sqrt(2.0 * n_sites) * j * t * math.sqrt(ratio)


def chi_f_tfic_closed(n_sites, beta, j) -> float:
    """(N/4) tanh^2(2 beta J) (1 + t^{N-2}) / (1 + t^N)."""
    if n_sites < 3:
        raise ValueError("n_sites must be >= 3")
    t = math.tanh(2.0 * beta * j)
    return 0.25 * n_sites * t * t * (1.0 + t ** (n_sites - 2)) / (1.0 + t**n_sites)


def gamma_n_tfic(n_sites, j, alpha: float = 1.0) -> float:
    """Zero-temperature threshold rate 4 sqrt(2) J alpha / sqrt(N) (also QXYC)."""
    return 4.0 * math.sqrt(2.0) * j * alpha / math.sqrt(n_sites)


def f_n_tfic(n_sites, beta, j) -> float:
    """Finite-N temperature factor coth(2 beta J) [(1 + t^N)/(1 + t^{N-2})]^{1/2}."""
    if beta <= 0:
        raise ValueError("beta must be > 0 (factor undefined at infinite temperature)")
    if n_sites < 3:
        raise ValueError("n_sites must be >= 3")
    t = math.tanh(2.0 * beta * j)
    return (1.0 / t) * math.sqrt((1.0 + t**n_sites) / (1.0 + t ** (n_sites - 2)))


def f_tfic_asymptotics(beta, j, regime) -> float:
    """Asymptotes of the thermodynamic factor f(beta) = coth(2 beta J).

    'low' returns 1 + 2 exp(-4 beta J) (gap 4J, coefficient 2); 'high'
    returns 1 / (2 beta J) (coefficient 1/(2J)).
    """
    if regime == "low":
        return 1.0 + 2.0 * math.exp(-4.0 * beta * j)
    if regime == "high":
        return 1.0 / (2.0 * beta * j)
    raise ValueError(f"regime must be 'low' or 'high', got {regime!r}")


def _split_coefficients(t: TransferMatrix2, m) -> tuple[float, float]:
    """(a_+, a_-) with Tr(T^n M) = a_+ Lambda_+^n + a_- Lambda_-^n for every n >= 0."""
    m = np.asarray(m, dtype=float)
    lp, lm = t.eigen_plus, t.eigen_minus
    if abs(lp - lm) <= _EIGEN_SPLIT_TOL * max(1.0, abs(lp)):
        raise ValueError("degenerate transfer-matrix eigenvalues")
    tr_m = float(m[0, 0] + m[1, 1])
    tr_tm = float(np.trace(t.entries @ m))
    a_plus = (tr_tm - lm * tr_m) / (lp - lm)
    a_minus = (lp * tr_m - tr_tm) / (lp - lm)
    return float(a_plus), float(a_minus)


@dataclass(frozen=True)
class MficCoefficients:
    """Transfer-matrix data for the mixed-field chain at inverse temperature 2 beta.

    K = 2 beta J and H = 2 beta B; Lambda_pm are the transfer-matrix
    eigenvalues, c_pm the boundary-vector split coefficients, d_pm the
    split coefficients of the local-flip matrix with entries m_pp, m_mm,
    m_pm (units 1/energy^2).
    """

    K: float
    H: float
    lambda_plus: float
    lambda_minus: float
    c_plus: float
    c_minus: float
    d_plus: float
    d_minus: float
    m_pp: float
    m_mm: float
    m_pm: float


def _mfic_eigenvalues(k, h):
    """(Lambda_+, Lambda_-) of the field transfer matrix, cancellation-free.

    Lambda_- = lead - disc loses all digits once H is large (lead ~ disc);
    the determinant e^{2K} - e^{-2K} is exact, so Lambda_- = det / Lambda_+.
    """
    disc = math.sqrt(math.exp(2 * k) * math.sinh(h) ** 2 + math.exp(-2 * k))
    lam_plus = math.exp(k) * math.cosh(h) + disc
    det = math.exp(2 * k) - math.exp(-2 * k)
    return lam_plus, det / lam_plus


def mfic_transfer_matrix(beta, j, b) -> TransferMatrix2:
    """T_{s,s'} = exp(K s s' - (H/2)(s + s')) at inverse temperature 2 beta."""
    k = 2.0 * beta * j
    h = 2.0 * beta * b
    lam_plus, lam_minus = _mfic_eigenvalues(k, h)
    entries = np.array(
        [
            [math.exp(k - h), math.exp(-k)],
            [math.exp(-k), math.exp(k + h)],
        ]
    )
    return TransferMatrix2(entries=entries, eigen_plus=lam_plus, eigen_minus=lam_minus)


def mfic_coefficients(beta, j, b) -> MficCoefficients:
    """All scalar transfer-matrix data entering the mixed-field closed forms.

    B in {0, +-2J} (within 1e-9 J) is rejected: the flip-matrix denominators
    (B -+ 2J)^2 and B^2 vanish there, so the closed forms as written divide
    by zero even though the underlying limits exist.
    """
    window = 1e-9 * j
    if min(abs(b), abs(b - 2 * j), abs(b + 2 * j)) < window:
        raise ValueError(
            f"B={b} is within {window:g} of an excluded value; the mixed-field "
            "closed forms assume B != 0, +-2J"
        )
    k = 2.0 * beta * j
    h = 2.0 * beta * b
    t = mfic_transfer_matrix(beta, j, b)
    u = np.array([math.exp(-h / 2.0), math.exp(h / 2.0)])
    c_plus, c_minus = _split_coefficients(t, np.outer(u, u))
    m_pp = 8.0 * math.exp(-2 * beta * b) * math.sinh(beta * (b - 2 * j)) ** 2 / (b - 2 * j) ** 2
    m_mm = 8.0 * math.exp(2 * beta * b) * math.sinh(beta * (b + 2 * j)) ** 2 / (b + 2 * j) ** 2
    m_pm = 8.0 * math.sinh(beta * b) ** 2 / b**2
    flip = np.array([[m_pp, m_pm], [m_pm, m_mm]])
    d_plus, d_minus = _split_coefficients(t, flip)
    return MficCoefficients(
        K=k,
        H=h,
        lambda_plus=t.eigen_plus,
        lambda_minus=t.eigen_minus,
        c_plus=c_plus,
        c_minus=c_minus,
        d_plus=d_plus,
        d_minus=d_minus,
        m_pp=m_pp,
        m_mm=m_mm,
        m_pm=m_pm,
    )


def _mfic_ratios(n_sites, coeffs: MficCoefficients):
    """(2 Q / Z0, chi_F / (N J^2)) in overflow-safe ratio form."""
    r = coeffs.lambda_minus / coeffs.lambda_plus
    lp2 = coeffs.lambda_plus**2
    denom = 1.0 + r**n_sites
    q_ratio = (
        2.0
        * (coeffs.c_plus + coeffs.c_minus * r ** (n_sites - 2))
        / (lp2 * denom)
    )
    chi_over_nj2 = (
        0.5
        * (coeffs.d_plus + coeffs.d_minus * r ** (n_sites - 2))
        / (lp2 * denom)
    )
    return q_ratio, chi_over_nj2


def delta_v_mfic_closed(n_sites, beta, j, b) -> float:
    """sqrt(2N) J (1 - 2 Q^{(B)}_{N-1}(2 beta) / Z0(2 beta))^{1/2}."""
    if n_sites < 3:
        raise ValueError("n_sites must be >= 3")
    if beta == 0:
        return 0.0
    q_ratio, _ = _mfic_ratios(n_sites, mfic_coefficients(beta, j, b))
    return math.sqrt(2.0 * n_sites) * j * math.sqrt(max(1.0 - q_ratio, 0.0))


def chi_f_mfic_closed(n_sites, beta, j, b) -> float:
    """(N J^2 / 2) Tr(T^{N-2} M) / (Lambda_+^N + Lambda_-^N) in ratio form."""
    if n_sites < 3:
        raise ValueError("n_sites must be >= 3")
    if beta == 0:
        return 0.0
    _, chi_over_nj2 = _mfic_ratios(n_sites, mfic_coefficients(beta, j, b))
    return n_sites * j * j * chi_over_nj2


def gamma_n_mfic(n_sites, j, b, alpha: float = 1.0) -> float:
    """Zero-temperature threshold rate sqrt(2) alpha (2J + |B|)^2 / (sqrt(N) J).

    This is alpha deltaV0 / chi_F0 with deltaV0 = sqrt(2N) J and
    chi_F0 = N J^2 / (2J + |B|)^2 (N single-flip states at gap 2(2J + |B|)).
    """
    return math.sqrt(2.0) * alpha * (2.0 * j + abs(b)) ** 2 / (math.sqrt(n_sites) * j)


def f_mfic(n_sites, beta, j, b) -> float:
    """Temperature factor Gamma_th / Gamma_N for the mixed-field chain.

    n_sites = None selects the thermodynamic limit
    f = 2 Lambda_+^2 (1 - 2 c_+ / Lambda_+^2)^{1/2} / ((2J + |B|)^2 d_+).
    """
    if beta <= 0:
        raise ValueError("beta must be > 0 (factor undefined at infinite temperature)")
    coeffs = mfic_coefficients(beta, j, b)
    scale = (2.0 * j + abs(b)) ** 2
    if n_sites is None:
        lp2 = coeffs.lambda_plus**2
        return (
            2.0
            * lp2
            / (scale * coeffs.d_plus)
            * math.sqrt(max(1.0 - 2.0 * coeffs.c_plus / lp2, 0.0))
        )
    dv = delta_v_mfic_closed(n_sites, beta, j, b)
    chi = chi_f_mfic_closed(n_sites, beta, j, b)
    return (dv / chi) / gamma_n_mfic(n_sites, j, b, 1.0)


def f_mfic_asymptotics(beta, j, b, regime) -> float:
    """Asymptotes of the thermodynamic mixed-field factor.

    'low' returns 1 + exp(-2 beta (2J + |B|)) (gap 2(2J + |B|), coefficient 1);
    'high' returns c2 / beta with
    c2 = sqrt(2 + (B/J)^2) / (sqrt(2) (2 + |B|/J)^2 J).
    """
    if regime == "low":
        return 1.0 + math.exp(-2.0 * beta * (2.0 * j + abs(b)))
    if regime == "high":
        c2 = math.sqrt(2.0 + (b / j) ** 2) / (math.sqrt(2.0) * (2.0 + abs(b) / j) ** 2 * j)
        return c2 / beta
    raise ValueError(f"regime must be 'low' or 'high', got {regime!r}")
