"""Fidelity susceptibility, spectral coefficient extraction, and the
threshold driving rate.

chi_F is the curvature of the log thermal-state overlap at lambda = 0 and
comes out of the spectrum as a degeneracy-excluded double sum; the
threshold rate Gamma_th = alpha deltaV / chi_F compares against its
zero-temperature reference Gamma_N through f_N = Gamma_th / Gamma_N.

The functions taking a SpectralDecomposition and an operator work for any
drive and form the dense route; threshold_report evaluates the same sums for
the chain models over their flip pairs (flip_sums) without building either.
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
    commutator_hs_norm,
    degeneracy_tolerance,
    degenerate_blocks,
)

COUPLING_FLOOR = 1e-10
_IDENTITY_TOL = 1e-12


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

    def __post_init__(self):
        if self.undefined_at_infinite_temperature:
            return
        if abs(self.gamma_th - self.alpha * self.delta_v / self.chi_f) > _IDENTITY_TOL * max(
            1.0, abs(self.gamma_th)
        ):
            raise ValueError("gamma_th != alpha * delta_v / chi_f")
        if abs(self.f_n - self.gamma_th / self.gamma_n) > _IDENTITY_TOL * max(
            1.0, abs(self.f_n)
        ):
            raise ValueError("f_n != gamma_th / gamma_n")


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
    """<m|V|n> with degenerate blocks rotated to diagonalize P V P."""
    u = spec.eigenvectors
    tol = degeneracy_tolerance(spec.eigenvalues)
    vm = u.conj().T @ v.mat @ u
    for block in degenerate_blocks(spec.eigenvalues, tol):
        if block.stop - block.start > 1:
            sub = 0.5 * (vm[block, block] + vm[block, block].conj().T)
            _, w = np.linalg.eigh(sub)
            vm[:, block] = vm[:, block] @ w
            vm[block, :] = w.conj().T @ vm[block, :]
    return vm


def chi_f_thermal(spec: SpectralDecomposition, v: HermitianOperator, beta) -> float:
    """Thermal fidelity susceptibility as a spectral double sum.

    chi_F = (2/Z0(2 beta)) sum_{m != n} (e^{-beta E_m} - e^{-beta E_n})^2
            |V_mn|^2 / (E_m - E_n)^2,
    with pairs degenerate within the spectrum tolerance contributing exactly
    zero and all weights taken relative to the ground energy.
    """
    if beta < 0:
        raise ValueError("beta must be >= 0")
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
    if beta < 0:
        raise ValueError("beta must be >= 0")
    e = spec.eigenvalues
    shifted = e - e.min()
    w = np.exp(-beta * shifted)
    z2 = float(np.sum(np.exp(-2.0 * beta * shifted)))
    vm = _v_in_eigenbasis(spec, v)
    v2 = np.abs(vm) ** 2
    return math.sqrt(pair_weight_sum(w, v2) / z2)


def _ground_block(spec: SpectralDecomposition):
    tol = degeneracy_tolerance(spec.eigenvalues)
    return degenerate_blocks(spec.eigenvalues, tol)[0], tol


def ground_chi_f(spec: SpectralDecomposition, v: HermitianOperator) -> float:
    """beta -> infinity limit of chi_f_thermal; tolerates ground degeneracy.

    Equals (4/g0) sum over ground states g and excited n of
    |V_ng|^2 / (E_n - E_0)^2 where g0 is the ground multiplicity.
    """
    block, _ = _ground_block(spec)
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
    block, _ = _ground_block(spec)
    g0 = block.stop - block.start
    vm = _v_in_eigenbasis(spec, v)
    vg = vm[:, block]
    t1 = float(np.sum(np.abs(vg) ** 2))
    t2 = float(np.sum(np.abs(vm[block, block]) ** 2))
    return math.sqrt(max(2.0 * (t1 - t2) / g0, 0.0))


def chi_f_ground(spec: SpectralDecomposition, v: HermitianOperator) -> float:
    """Zero-temperature fidelity susceptibility 4 sum_{n>0} |V_n0|^2 / Delta_n^2.

    Requires a unique ground state; a degenerate ground multiplet has no
    canonical single ground-state susceptibility, so use a symmetry-resolved
    or field-split model (e.g. the mixed-field chain with B != 0) instead.
    """
    block, _ = _ground_block(spec)
    if block.stop - block.start != 1:
        raise ValueError(
            "degenerate ground state: chi_f_ground needs a unique ground state; "
            "use a field-split model such as mfic with B != 0"
        )
    return ground_chi_f(spec, v)


def low_temp_coefficients(spec: SpectralDecomposition, v: HermitianOperator) -> LowTempCoefficients:
    """Extract a, b, W, c1 and the coupled gap Delta from the spectrum.

    Delta is the smallest excitation gap among states with |V_n0| above the
    coupling floor; the full degenerate multiplet at that energy is pooled
    into |V_10|^2 (translation symmetry makes the coupled level a multiplet).
    """
    block, tol = _ground_block(spec)
    if block.stop - block.start != 1:
        raise ValueError("degenerate ground state: low-temperature coefficients undefined")
    e = spec.eigenvalues
    vm = _v_in_eigenbasis(spec, v)
    v0 = np.abs(vm[:, 0])
    coupled = np.where(v0[1:] > COUPLING_FLOOR)[0] + 1
    if coupled.size == 0:
        raise ValueError("no excited state couples to the ground state through V")
    gaps = e[coupled] - e[0]
    delta = float(gaps.min())
    multiplet = coupled[np.abs(gaps - delta) <= tol]
    v10_sq = float(np.sum(v0[multiplet] ** 2))
    above = gaps[gaps > delta + tol]
    delta2 = float(above.min()) if above.size else None
    dv0_sq = 2.0 * float(np.sum(v0[1:] ** 2))
    chi0 = ground_chi_f(spec, v)
    a = v10_sq / dv0_sq
    b = v10_sq / (chi0 * delta**2)
    w = -a + 4.0 * b
    return LowTempCoefficients(a=a, b=b, W=w, c1=2.0 * w, gap_delta=delta, gap_delta2=delta2)


def offdiag_square_sum(spec: SpectralDecomposition, v: HermitianOperator) -> float:
    """sum over non-degenerate pairs m != n of |V_mn|^2.

    Computed as Tr(V^2) minus the within-block squares in the block-resolved
    eigenbasis, matching the pair exclusion of chi_f_thermal.
    """
    vm = _v_in_eigenbasis(spec, v)
    total = float(np.sum(np.abs(vm) ** 2))
    tol = degeneracy_tolerance(spec.eigenvalues)
    within = 0.0
    for block in degenerate_blocks(spec.eigenvalues, tol):
        within += float(np.sum(np.abs(vm[block, block]) ** 2))
    return total - within


def high_temp_coefficient(
    spec: SpectralDecomposition, v: HermitianOperator, h0: HermitianOperator
) -> float:
    """Model-dependent coefficient c2 of the high-temperature law f ~ c2/beta.

    c2 = [ d^{-1/2} ||[H0, V]||_HS / deltaV0 ] /
         [ (2/d) sum_{m != n} |V_mn|^2 / chi_F0 ],
    with H0 shifted traceless and the off-diagonal sum excluding degenerate
    pairs.  Units: inverse energy.
    """
    d = spec.dim
    h0_shift = HermitianOperator(
        n_sites=h0.n_sites, mat=h0.mat - (np.trace(h0.mat) / d) * np.eye(d)
    )
    offdiag = offdiag_square_sum(spec, v)
    if offdiag <= 0:
        raise ValueError("vanishing off-diagonal drive weight; c2 undefined")
    numer = commutator_hs_norm(h0_shift, v) / math.sqrt(d) / ground_delta_v(spec, v)
    denom = (2.0 / d) * offdiag / ground_chi_f(spec, v)
    return numer / denom


class FlipSums(NamedTuple):
    """deltaV, chi_F and their beta -> infinity limits deltaV0, chi_F0."""

    delta_v: float
    chi_f: float
    ground_delta_v: float
    ground_chi_f: float


def flip_sums(model: SpinChainModel, beta) -> FlipSums:
    """Thermal and ground-level deltaV and chi_F of a chain from its N 2^N flip pairs.

    The four values equal delta_v_thermal, chi_f_thermal, ground_delta_v and
    ground_chi_f of the chain's H0 spectrum and V, but no matrix is built.
    H0 is diagonal in the computational basis, and V couples basis state s
    only to s ^ mask for the masks of flip_terms.  A pair sum over whole
    degenerate levels does not depend on the basis chosen inside them, so
    every spectral pair sum of the dense route becomes a sum over (s, s ^ mask)
    with |V|^2 = amplitude^2.  V's diagonal part never enters a pair sum.
    Degenerate pairs and the ground level use degeneracy_tolerance as the
    dense route does.
    """
    if beta < 0:
        raise ValueError("beta must be >= 0")
    e = classical_energies(model)
    shifted = e - e.min()
    tol = degeneracy_tolerance(e)
    ground = shifted <= tol
    g0 = int(np.count_nonzero(ground))
    w = np.exp(-beta * shifted)
    z2 = float(np.sum(np.exp(-2.0 * beta * shifted)))
    idx = np.arange(model.dim)
    dv2 = chi = dv0_2 = chi0 = 0.0
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
    return FlipSums(
        delta_v=math.sqrt(dv2 / z2),
        chi_f=2.0 * chi / z2,
        ground_delta_v=math.sqrt(2.0 * dv0_2 / g0),
        ground_chi_f=4.0 / g0 * chi0,
    )


def threshold_report(model: SpinChainModel, beta, alpha: float = 1.0) -> ThresholdReport:
    """Assemble deltaV, chi_F, Gamma_th, Gamma_N and f_N for one temperature.

    Every ingredient comes from flip_sums, in O(N 2^N) time and O(2^N)
    memory.  beta = inf is an error, not the ground limit: that limit is
    ground_delta_v and ground_chi_f (flip_sums' ground fields), whose ratio
    times alpha is Gamma_N.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    require_finite("beta", beta)
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
