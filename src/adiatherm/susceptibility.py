"""Fidelity susceptibility, spectral coefficient extraction, and the
threshold driving rate.

chi_F is the curvature of the log thermal-state overlap at lambda = 0 and
comes out of the spectrum as a degeneracy-excluded double sum; the
threshold rate Gamma_th = alpha deltaV / chi_F compares against its
zero-temperature reference Gamma_N through f_N = Gamma_th / Gamma_N.

Every chain quantity (threshold_sweep and the low- and high-temperature
coefficients) comes from one preparation, the flip pairs of V counted by
the H0 levels they join (models._pair_classes), without building a
matrix.  The levels are bit-count codes of the states, not sorted
energies, and the energies are invariant under the ring translation, so
the pair sums take one mask per translation orbit: one O(2^N) count in
chunks of the states, no array of 2^N values, then O(classes) per beta.
A whole beta grid comes from one such count
(flip_sums_sweep), its weights vectorised over beta in chunks; flip_sums
and threshold_report are its one-beta cases.  The dense oracle that
tests and the acceptance criteria compare it against is dense_sums_sweep:
the same FlipSums records at every beta of a grid, from one
eigendecomposition of H0 and one dense V, rotated once into the
eigenbasis for the whole grid, whose nonzero |V_mn|^2 are the classes of
the eigenvalues.  Both routes are one producer of pair classes and the
same reduction (_class_sums), which forms each weight difference as
w_low expm1(-beta dE) and, below beta = 1, sums (dw / beta)^2, so no
digit is lost to cancellation or to subnormal squares at small beta;
the oracle's independence lies in its classes, from a dense V and eigh,
and tests/oracle.py checks the reduction itself against a brute-force
chi_F and the Wigner-Yanase deltaV.  dense_sums is the oracle's one-beta
case, and chi_f_thermal, delta_v_thermal, ground_chi_f and ground_delta_v
each read one field of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._kernels import chi_pair_sum, pair_weight_sum
from .models import SpinChainModel, require_alpha, require_beta, stack_slices
from .models import _pair_classes
from .operators import HermitianOperator, SpectralDecomposition, degeneracy_tolerance


@dataclass(frozen=True)
class ThresholdReport:
    """deltaV, chi_F, Gamma_th, Gamma_N, f_N bundle at one temperature.

    beta = 0 leaves Gamma_th and f_N undefined (the threshold can be taken
    arbitrarily large at infinite temperature); the flag marks that case
    explicitly instead of producing 0/0.  A beta > 0 so small that chi_F,
    which scales as beta^2, is subnormal or 0 (beta below about 1e-154) is
    reported the same: such a chi_F has lost its digits.  deltaV stays exact
    there.
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
    0 <= a <= 2b <= 1/2 and 0 < W <= 1, and AC09 checks them.  gap_delta2
    is the next coupled excitation gap, kept for diagnostics only.
    """

    a: float
    b: float
    W: float
    c1: float
    gap_delta: float
    gap_delta2: float | None = None


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


def flip_sums_sweep(model: SpinChainModel, betas) -> list[FlipSums]:
    """Spectral pair sums of a chain at every beta of betas, from one count
    of its flip pairs by the H0 levels they join: one O(2^N) count, then
    O(classes) per beta.

    Every field equals the field of dense_sums on the chain's H0 spectrum
    and V, but no matrix is built.  H0 is diagonal in the
    computational basis, and V couples basis state s only to s ^ mask for
    the masks of flip_terms.  A pair sum over whole degenerate levels does
    not depend on the basis chosen inside them, so every spectral pair sum
    of the dense route becomes a sum over (s, s ^ mask) with
    |V|^2 = amplitude^2.  The energies are translation invariant, so a
    mask's pair sums equal those of its translates, and one pass per
    translation orbit of the masks (models._flip_orbits), scaled by the
    orbit's summed amplitude^2, gives them all.  V's diagonal part never
    enters a pair sum, and it commutes with H0.  Degenerate pairs and the
    ground level use degeneracy_tolerance as the dense route does.

    A pair enters every sum only through the energies of its two ends, so
    models._pair_classes counts the pairs once by class, a pair (i, j) of
    H0 levels weighted by the amplitude^2 of the pairs from level i to
    level j, in chunks of the states, and each beta then sums over levels
    and classes alone (_class_sums).  Every beta is checked before anything
    is allocated, and an N above models._MAX_FLIP_SITES is refused.
    """
    for beta in betas:
        require_beta(beta)
    return _class_sums(_pair_classes(model), betas)


def _class_sums(classes, betas) -> list[FlipSums]:
    """The FlipSums records at each beta of betas from pair classes
    (levels, multiplicity, start, end, weight) as models._pair_classes gives
    them: the one reduction of flip_sums_sweep and dense_sums_sweep.

    The levels ascend from 0, so a class's lower-energy end is its smaller
    level index, and w_m - w_n = w_low expm1(-beta |E_m - E_n|) keeps every
    digit at small beta, where both weights are near 1.  Below beta = 1 the
    sums take dw / beta, which tends to -w_low |E_m - E_n| as beta -> 0, and
    deltaV and chi_F get their factors of beta back last, so no dw^2 is a
    subnormal number at tiny beta: each field keeps its digits wherever it
    is itself a normal float (chi_F ~ beta^2 is not below beta ~ 1e-154).
    The four beta-independent fields and the chi_F weights are formed once.
    The betas go through in the models.stack_slices chunks of three class
    arrays a beta, and each row of a C-contiguous stack is summed by
    add.reduce in the order np.sum sums one beta's 1-D array, so every
    record is bitwise independent of the chunking.
    """
    levels, multiplicity, start, end, weight = classes
    tol = degeneracy_tolerance(levels)
    low = np.minimum(start, end)
    gap = np.abs(levels[end] - levels[start])
    coupled = gap > tol
    chi_weight = weight[coupled] / gap[coupled] ** 2
    ground = levels <= tol
    leaves = ground[start] & ~ground[end]
    g0 = int(multiplicity[ground].sum())
    leaving = weight[leaves]
    fixed = (math.sqrt(2.0 * float(leaving.sum()) / g0),
             4.0 / g0 * float(leaving @ levels[end[leaves]] ** -2.0),
             float(weight[coupled].sum()), math.sqrt(float(weight @ gap**2)))
    betas = np.asarray(betas, dtype=float)
    # the floor keeps w / scale finite at beta = 0 and at a subnormal beta
    scale = np.maximum(np.minimum(betas, 1.0), np.finfo(float).tiny)
    dv2, chi, z2 = np.empty(betas.size), np.empty(betas.size), np.empty(betas.size)
    for chunk in stack_slices(betas.size, 3 * weight.nbytes):
        beta = betas[chunk, None]
        # -beta E overflows to -inf only where the weight is 0 anyway
        with np.errstate(over="ignore"):
            z2[chunk] = np.add.reduce(np.exp(-beta * (2.0 * levels)) * multiplicity, axis=1)
            dw2 = (np.exp(-beta * levels) / scale[chunk, None]).take(low, axis=1)
            dw2 *= np.expm1(-beta * gap)
        np.square(dw2, out=dw2)
        dv2[chunk] = pair_weight_sum(dw2, weight)
        chi[chunk] = chi_pair_sum(dw2, chi_weight, coupled)
    rows = zip(scale.tolist(), dv2.tolist(), chi.tolist(), z2.tolist())
    return [
        FlipSums(s * math.sqrt(dv2_b / z2_b), s * (s * (2.0 * chi_b / z2_b)), *fixed)
        for s, dv2_b, chi_b, z2_b in rows
    ]


def flip_sums(model: SpinChainModel, beta) -> FlipSums:
    """flip_sums_sweep at the one temperature beta."""
    return flip_sums_sweep(model, (beta,))[0]


def dense_sums_sweep(spec: SpectralDecomposition, v: HermitianOperator, betas) -> list[FlipSums]:
    """The six flip_sums fields at every beta of betas, from an H0 spectrum
    and a dense V: the oracle.

    Every beta is checked before any matrix product.  V is then rotated once
    into the eigenbasis as eigh returned it, and every nonzero |V_mn|^2 is a
    class (m, n) of the ascending eigenvalues, each a level of multiplicity
    1, summed by the reduction flip_sums_sweep uses (_class_sums).  A sum
    over the eigenvalues of a degenerate level is a sum over the whole
    level, so V may come in whatever basis eigh returns inside a level.  H0
    is diagonal for the chains, so eigh returns unit eigenvectors and the
    classes are V's at most (N + 1) d nonzero entries, not d^2.  Each record
    is bitwise independent of the grid it came in.
    """
    for beta in betas:
        require_beta(beta)
    e, u = spec.eigenvalues, spec.eigenvectors
    v2 = np.abs(u.conj().T @ v.mat @ u) ** 2
    start, end = v2.nonzero()
    return _class_sums((e - e[0], np.ones(e.size), start, end, v2[start, end]), betas)


def dense_sums(spec: SpectralDecomposition, v: HermitianOperator, beta) -> FlipSums:
    """dense_sums_sweep at the one temperature beta."""
    return dense_sums_sweep(spec, v, (beta,))[0]


def chi_f_thermal(spec: SpectralDecomposition, v: HermitianOperator, beta) -> float:
    """Thermal fidelity susceptibility chi_F of dense_sums."""
    return dense_sums(spec, v, beta).chi_f


def delta_v_thermal(spec: SpectralDecomposition, v: HermitianOperator, beta) -> float:
    """Drive fluctuation deltaV of dense_sums, equal to sqrt(2 I_WY(escort(Gibbs(beta)), V))."""
    return dense_sums(spec, v, beta).delta_v


def ground_chi_f(spec: SpectralDecomposition, v: HermitianOperator) -> float:
    """beta -> infinity limit of chi_f_thermal; tolerates ground degeneracy."""
    return dense_sums(spec, v, 0.0).ground_chi_f


def ground_delta_v(spec: SpectralDecomposition, v: HermitianOperator) -> float:
    """beta -> infinity limit of delta_v_thermal; tolerates ground degeneracy."""
    return dense_sums(spec, v, 0.0).ground_delta_v


def low_temp_coefficients(model: SpinChainModel) -> LowTempCoefficients:
    """Extract a, b, W, c1 and the coupled gap Delta of a chain.

    Needs a unique ground state g, read from the pair classes
    (models._pair_classes), which also give deltaV0 and chi_F0 as
    flip_sums does.  V couples g only to its flip partners g ^ mask, so
    Delta is the smallest gap of a class leaving the ground level, and
    |V_10|^2 pools the classes at Delta, whatever basis is chosen inside
    that level.
    """
    classes = _pair_classes(model)
    levels, multiplicity, start, end, weight = classes
    tol = degeneracy_tolerance(levels)
    if multiplicity[levels <= tol].sum() != 1:
        raise ValueError("degenerate ground state: low-temperature coefficients undefined")
    leaving = start == 0  # the levels ascend, so the ground level is level 0
    gaps, v2 = levels[end[leaving]], weight[leaving]
    delta = float(gaps.min())
    v10_sq = float(np.sum(v2[gaps <= delta + tol]))
    above = gaps[gaps > delta + tol]
    delta2 = float(above.min()) if above.size else None
    # the ground fields are the same at every beta
    ground_delta_v, ground_chi_f = _class_sums(classes, (0.0,))[0][2:4]
    a = v10_sq / ground_delta_v**2
    b = v10_sq / (ground_chi_f * delta**2)
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


def threshold_sweep(model: SpinChainModel, betas, alpha: float = 1.0) -> list[ThresholdReport]:
    """Assemble deltaV, chi_F, Gamma_th, Gamma_N and f_N at every beta of betas.

    Every ingredient comes from one flip_sums_sweep over the grid: one
    O(2^N) count of the flip pairs by the H0 levels they join, in memory
    bounded by the stack budget, then O(classes) per beta.
    beta = inf is an error, not the ground limit: that limit is
    ground_delta_v and ground_chi_f (flip_sums' ground fields), whose ratio
    times alpha is Gamma_N.
    """
    require_alpha(alpha)
    reports = []
    for beta, sums in zip(betas, flip_sums_sweep(model, betas)):
        if sums.ground_chi_f == 0:
            raise ValueError(
                "V does not couple the ground level to any other level; Gamma_N undefined"
            )
        gamma_n = alpha * sums.ground_delta_v / sums.ground_chi_f
        # chi_F = 0 at beta = 0, and chi_F ~ beta^2 is subnormal, so short of
        # digits, below beta ~ 1e-154 and 0 below ~ 1e-162
        undefined = beta == 0 or sums.chi_f < np.finfo(float).tiny
        gamma_th = math.nan if undefined else alpha * sums.delta_v / sums.chi_f
        reports.append(
            ThresholdReport(
                beta=float(beta),
                delta_v=sums.delta_v,
                chi_f=sums.chi_f,
                gamma_th=gamma_th,
                gamma_n=gamma_n,
                f_n=gamma_th / gamma_n,
                alpha=alpha,
                undefined_at_infinite_temperature=undefined,
            )
        )
    return reports


def threshold_report(model: SpinChainModel, beta, alpha: float = 1.0) -> ThresholdReport:
    """threshold_sweep at the one temperature beta."""
    return threshold_sweep(model, (beta,), alpha)[0]
