"""Fidelity susceptibility, spectral coefficient extraction, and the
threshold driving rate.

chi_F is the curvature of the log thermal-state overlap at lambda = 0 and
comes out of the spectrum as a degeneracy-excluded double sum; the
threshold rate Gamma_th = alpha deltaV / chi_F compares against its
zero-temperature reference Gamma_N through f_N = Gamma_th / Gamma_N.

Every chain quantity (threshold_report and the low- and high-temperature
coefficients) comes from one preparation, the classical energies and the
flip pairs of V (flip_sums), without building a matrix.  The functions
taking a SpectralDecomposition and an operator are the dense oracle that
tests compare the flip route against.  Each of them sums over whole
degenerate levels, so it takes V in whatever eigenbasis eigh returns and
never rotates a level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._kernels import chi_pair_sum, pair_weight_sum
from .models import SpinChainModel, classical_energies, flip_terms, require_finite
from .operators import (
    HermitianOperator,
    SpectralDecomposition,
    degeneracy_tolerance,
    level_edges,
)


@dataclass(frozen=True)
class ThresholdReport:
    """deltaV, chi_F, Gamma_th, Gamma_N, f_N bundle at one temperature.

    beta = 0 leaves Gamma_th and f_N undefined (the threshold can be taken
    arbitrarily large at infinite temperature); the flag marks that case
    explicitly instead of producing 0/0.
    """

    beta: float
    delta_v: float
    chi_f: float
    gamma_th: float
    gamma_n: float
    f_n: float
    alpha: float
    undefined_at_infinite_temperature: bool = False


@dataclass(frozen=True)
class LowTempCoefficients:
    """Dimensionless spectral ratios behind the low-temperature expansion.

    a = |V_10|^2 / (deltaV0)^2, b = |V_10|^2 / (chi_F0 Delta^2),
    W = -a + 4b and c1 = 2W; the spectral inequalities force
    0 <= a <= 2b <= 1/2 and 0 < W <= 1.  gap_delta2 is the next coupled
    excitation gap, kept for diagnostics only.
    """

    a: float
    b: float
    W: float
    c1: float
    gap_delta: float
    gap_delta2: float | None = None

    def __post_init__(self):
        if not 0.0 <= self.a <= 2.0 * self.b + 1e-12:
            raise ValueError(f"spectral inequality a <= 2b violated: a={self.a}, b={self.b}")
        if self.b > 0.25 + 1e-12:
            raise ValueError(f"spectral inequality b <= 1/4 violated: b={self.b}")
        if not 0.0 < self.W <= 1.0 + 1e-12:
            raise ValueError(f"W={self.W} outside (0, 1]")
        if abs(self.c1 - 2.0 * self.W) > 1e-12:
            raise ValueError("c1 != 2W")


def _v_in_eigenbasis(spec: SpectralDecomposition, v: HermitianOperator) -> np.ndarray:
    """<m|V|n> in the eigenbasis of spec, as eigh returned it."""
    u = spec.eigenvectors
    return u.conj().T @ v.mat @ u


def _require_beta(beta):
    require_finite("beta", beta)
    if beta < 0:
        raise ValueError("beta must be >= 0")


def chi_f_thermal(spec: SpectralDecomposition, v: HermitianOperator, beta) -> float:
    """Thermal fidelity susceptibility as a spectral double sum.

    chi_F = (2/Z0(2 beta)) sum_{m != n} (e^{-beta E_m} - e^{-beta E_n})^2
            |V_mn|^2 / (E_m - E_n)^2,
    with pairs degenerate within the spectrum tolerance contributing exactly
    zero and all weights taken relative to the ground energy.
    """
    _require_beta(beta)
    e = spec.eigenvalues
    shifted = e - e.min()
    w = np.exp(-beta * shifted)
    z2 = float(np.sum(np.exp(-2.0 * beta * shifted)))
    vm = _v_in_eigenbasis(spec, v)
    v2 = np.abs(vm) ** 2
    tol = degeneracy_tolerance(e)
    raw = chi_pair_sum(shifted, w, v2, tol)
    return 2.0 * raw / z2


def delta_v_thermal(spec: SpectralDecomposition, v: HermitianOperator, beta) -> float:
    """Drive fluctuation from the H0 spectrum and exact Boltzmann weights.

    Algebraically identical to sqrt(2 I_WY(escort(Gibbs(beta)), V)) but
    written as the manifestly positive pair sum
    (deltaV)^2 = sum_{m != n} |V_mn|^2 (e^{-beta E_m} - e^{-beta E_n})^2 / Z0(2 beta),
    which stays accurate when Boltzmann weights drop below the eigensolver
    resolution of the assembled density matrix (large beta).
    """
    _require_beta(beta)
    e = spec.eigenvalues
    shifted = e - e.min()
    w = np.exp(-beta * shifted)
    z2 = float(np.sum(np.exp(-2.0 * beta * shifted)))
    vm = _v_in_eigenbasis(spec, v)
    v2 = np.abs(vm) ** 2
    return math.sqrt(pair_weight_sum(w, v2) / z2)


def _ground_block(spec: SpectralDecomposition):
    return slice(0, int(level_edges(spec.eigenvalues)[1]))


def ground_chi_f(spec: SpectralDecomposition, v: HermitianOperator) -> float:
    """beta -> infinity limit of chi_f_thermal; tolerates ground degeneracy.

    Equals (4/g0) sum over ground states g and excited n of
    |V_ng|^2 / (E_n - E_0)^2 where g0 is the ground multiplicity.
    """
    block = _ground_block(spec)
    g0 = block.stop - block.start
    e = spec.eigenvalues
    gaps = e[block.stop :] - e[block.start]
    vm = _v_in_eigenbasis(spec, v)
    v2 = np.abs(vm[block.stop :, block]) ** 2
    return float(4.0 / g0 * np.sum(v2 / gaps[:, None] ** 2))


def ground_delta_v(spec: SpectralDecomposition, v: HermitianOperator) -> float:
    """beta -> infinity limit of delta_v; tolerates ground degeneracy.

    With rho the normalized ground-multiplet projector P/g0,
    (deltaV0)^2 = 2 [Tr(P V^2) - Tr(P V P V)] / g0.
    """
    block = _ground_block(spec)
    g0 = block.stop - block.start
    vm = _v_in_eigenbasis(spec, v)
    vg = vm[:, block]
    t1 = float(np.sum(np.abs(vg) ** 2))
    t2 = float(np.sum(np.abs(vm[block, block]) ** 2))
    return math.sqrt(max(2.0 * (t1 - t2) / g0, 0.0))


class FlipSums(NamedTuple):
    """deltaV, chi_F, their beta -> infinity limits deltaV0, chi_F0, and the
    beta-independent sums behind the high-temperature laws: the
    degeneracy-excluded sum_{m != n} |V_mn|^2 and ||[H0, V]||_HS."""

    delta_v: float
    chi_f: float
    ground_delta_v: float
    ground_chi_f: float
    offdiag_square_sum: float
    commutator_norm: float


def flip_sums(model: SpinChainModel, beta) -> FlipSums:
    """Spectral pair sums of a chain from its N 2^N flip pairs.

    delta_v, chi_f, ground_delta_v and ground_chi_f equal delta_v_thermal,
    chi_f_thermal, ground_delta_v and ground_chi_f of the chain's H0
    spectrum and V, but no matrix is built.  H0 is diagonal in the
    computational basis, and V couples basis state s only to s ^ mask for
    the masks of flip_terms.  A pair sum over whole degenerate levels does
    not depend on the basis chosen inside them, so every spectral pair sum
    of the dense route becomes a sum over (s, s ^ mask) with
    |V|^2 = amplitude^2.  V's diagonal part never enters a pair sum, and it
    commutes with H0.  Degenerate pairs and the ground level use
    degeneracy_tolerance as the dense route does.
    """
    _require_beta(beta)
    e = classical_energies(model)
    shifted = e - e.min()
    tol = degeneracy_tolerance(e)
    ground = shifted <= tol
    g0 = int(np.count_nonzero(ground))
    w = np.exp(-beta * shifted)
    z2 = float(np.sum(np.exp(-2.0 * beta * shifted)))
    idx = np.arange(model.dim)
    dv2 = chi = dv0_2 = chi0 = offdiag = commutator = 0.0
    for mask, amplitude in flip_terms(model):
        partner = idx ^ mask
        a2 = amplitude * amplitude
        de = shifted[partner] - shifted
        dw2 = (w[partner] - w) ** 2
        coupled = np.abs(de) > tol
        dv2 += a2 * float(np.sum(dw2))
        chi += a2 * float(np.sum(dw2[coupled] / de[coupled] ** 2))
        leaves_ground = ground & ~ground[partner]
        dv0_2 += a2 * float(np.count_nonzero(leaves_ground))
        chi0 += a2 * float(np.sum(shifted[partner[leaves_ground]] ** -2.0))
        offdiag += a2 * float(np.count_nonzero(coupled))
        commutator += a2 * float(de @ de)
    return FlipSums(
        delta_v=math.sqrt(dv2 / z2),
        chi_f=2.0 * chi / z2,
        ground_delta_v=math.sqrt(2.0 * dv0_2 / g0),
        ground_chi_f=4.0 / g0 * chi0,
        offdiag_square_sum=offdiag,
        commutator_norm=math.sqrt(commutator),
    )


def low_temp_coefficients(model: SpinChainModel) -> LowTempCoefficients:
    """Extract a, b, W, c1 and the coupled gap Delta of a chain.

    Needs a unique ground state g.  V couples g only to its flip partners
    g ^ mask, so Delta is the smallest partner gap, and |V_10|^2 pools the
    partners of the whole level at Delta, whatever basis is chosen inside
    it.  deltaV0 and chi_F0 are the ground fields of flip_sums.
    """
    e = classical_energies(model)
    shifted = e - e.min()
    tol = degeneracy_tolerance(e)
    ground = np.flatnonzero(shifted <= tol)
    if ground.size != 1:
        raise ValueError("degenerate ground state: low-temperature coefficients undefined")
    terms = flip_terms(model)
    gaps = np.array([shifted[ground[0] ^ mask] for mask, _ in terms])
    v2 = np.array([amplitude * amplitude for _, amplitude in terms])
    delta = float(gaps.min())
    v10_sq = float(np.sum(v2[gaps <= delta + tol]))
    above = gaps[gaps > delta + tol]
    delta2 = float(above.min()) if above.size else None
    sums = flip_sums(model, 0.0)  # the ground fields do not depend on beta
    a = v10_sq / sums.ground_delta_v**2
    b = v10_sq / (sums.ground_chi_f * delta**2)
    w = -a + 4.0 * b
    return LowTempCoefficients(a=a, b=b, W=w, c1=2.0 * w, gap_delta=delta, gap_delta2=delta2)


def high_temp_coefficient(model: SpinChainModel) -> float:
    """Model-dependent coefficient c2 of the high-temperature law f ~ c2/beta.

    c2 = [ d^{-1/2} ||[H0, V]||_HS / deltaV0 ] /
         [ (2/d) sum_{m != n} |V_mn|^2 / chi_F0 ],
    with the off-diagonal sum excluding degenerate pairs, all from
    flip_sums.  Units: inverse energy.
    """
    sums = flip_sums(model, 0.0)  # only beta-independent fields are used
    if sums.offdiag_square_sum <= 0:
        raise ValueError("vanishing off-diagonal drive weight; c2 undefined")
    d = model.dim
    numer = sums.commutator_norm / math.sqrt(d) / sums.ground_delta_v
    denom = (2.0 / d) * sums.offdiag_square_sum / sums.ground_chi_f
    return numer / denom


def threshold_report(model: SpinChainModel, beta, alpha: float = 1.0) -> ThresholdReport:
    """Assemble deltaV, chi_F, Gamma_th, Gamma_N and f_N for one temperature.

    Every ingredient comes from flip_sums, in O(N 2^N) time and O(2^N)
    memory.  beta = inf is an error, not the ground limit: that limit is
    ground_delta_v and ground_chi_f (flip_sums' ground fields), whose ratio
    times alpha is Gamma_N.
    """
    require_finite("alpha", alpha)
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    sums = flip_sums(model, beta)
    if sums.ground_chi_f == 0:
        raise ValueError("V does not couple the ground level to any other level; Gamma_N undefined")
    gamma_n = alpha * sums.ground_delta_v / sums.ground_chi_f
    if beta == 0:
        return ThresholdReport(
            beta=0.0,
            delta_v=0.0,
            chi_f=0.0,
            gamma_th=math.nan,
            gamma_n=gamma_n,
            f_n=math.nan,
            alpha=alpha,
            undefined_at_infinite_temperature=True,
        )
    gamma_th = alpha * sums.delta_v / sums.chi_f
    return ThresholdReport(
        beta=float(beta),
        delta_v=sums.delta_v,
        chi_f=sums.chi_f,
        gamma_th=gamma_th,
        gamma_n=gamma_n,
        f_n=gamma_th / gamma_n,
        alpha=alpha,
    )
