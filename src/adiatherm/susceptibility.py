"""Fidelity susceptibility, spectral coefficient extraction, and the
threshold driving rate.

chi_F is the curvature of the log thermal-state overlap at lambda = 0 and
comes out of the spectrum as a degeneracy-excluded double sum; the
threshold rate Gamma_th = alpha deltaV / chi_F compares against its
zero-temperature reference Gamma_N through f_N = Gamma_th / Gamma_N.

Every chain quantity (threshold_sweep and the low- and high-temperature
coefficients) comes from one preparation, the classical energies and the
flip pairs of V, without building a matrix.  The energies are invariant
under the ring translation, so the pair sums take one mask per
translation orbit, and a pair enters them only through the H0 levels of
its two ends: one O(2^N) count of the pairs by level pair, then
O(classes) per beta.  A whole beta grid comes from one such count
(flip_sums_sweep), its weights vectorised over beta in chunks; flip_sums
and threshold_report are its one-beta cases.  The dense oracle that
tests and the acceptance criteria compare it against is dense_sums_sweep:
the same FlipSums records at every beta of a grid, from one
eigendecomposition of H0 and one dense V, rotated once into the
eigenbasis for the whole grid, and one masked chi_F kernel, after which
each beta costs two d x d sums.  Its sums run over whole degenerate levels,
so it takes V in whatever eigenbasis eigh returns and never rotates a
level.  dense_sums is its one-beta case, and chi_f_thermal,
delta_v_thermal, ground_chi_f and ground_delta_v each read one field of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._kernels import chi_pair_sum, pair_weight_sum
from .models import SpinChainModel, classical_energies, flip_terms, require_alpha, require_beta
from .models import _flip_orbits, stack_slices
from .operators import (
    HermitianOperator,
    SpectralDecomposition,
    degeneracy_tolerance,
    level_starts,
)


@dataclass(frozen=True)
class ThresholdReport:
    """deltaV, chi_F, Gamma_th, Gamma_N, f_N bundle at one temperature.

    beta = 0 leaves Gamma_th and f_N undefined (the threshold can be taken
    arbitrarily large at infinite temperature); the flag marks that case
    explicitly instead of producing 0/0.  A beta > 0 so small that every
    Boltzmann weight rounds to 1 gives chi_F = 0 too and is reported the same.
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
    the pass counts the pairs once by class, a pair (i, j) of H0 levels
    weighted by the amplitude^2 of the pairs from level i to level j, and
    each beta then sums over levels and classes alone (_flip_pass).  Every
    beta is checked before anything is allocated.
    """
    for beta in betas:
        require_beta(beta)
    # the pass's 2^N arrays are gone before the records are built
    dv2, chi, z2, fixed = _flip_pass(model, np.asarray(betas, dtype=float))
    return [
        FlipSums(math.sqrt(dv2_b / z2_b), 2.0 * chi_b / z2_b, *fixed)
        for dv2_b, chi_b, z2_b in zip(dv2.tolist(), chi.tolist(), z2.tolist())
    ]


def _flip_pass(model: SpinChainModel, betas: np.ndarray):
    """The pair sums behind flip_sums_sweep: (deltaV)^2 Z0(2 beta),
    chi_F Z0(2 beta) / 2 and Z0(2 beta) at each beta, and the four
    beta-independent fields.

    The levels are the distinct shifted classical_energies; energies within
    the degeneracy tolerance but not bitwise equal are distinct levels, as
    they are distinct states' energies in a pass per state.  They come from
    np.sort and one comparison, not np.unique, whose Python-level steps cost
    about 0.1 ms a call in a fresh process at N = 10.  One bincount
    per translation orbit counts its pairs by (level, partner level), and
    the classes are the level pairs with a nonzero count.  The four
    beta-independent fields and each class's chi_F weight are formed once.
    The betas go through in the models.stack_slices chunks of three class
    arrays a beta, each row gathered with take and compress into a
    C-contiguous stack that add.reduce sums in the order np.sum sums one
    beta's 1-D array, so every field is bitwise independent of the chunking.
    """
    e = classical_energies(model)
    levels = np.sort(e)
    levels = levels[np.concatenate(([True], levels[1:] != levels[:-1]))]
    tol = degeneracy_tolerance(levels)
    level = levels.searchsorted(e)
    multiplicity = np.bincount(level)
    levels -= levels[0]  # e - e.min() level by level, bitwise as state by state
    size = levels.size
    counts = np.zeros(size * size)
    for mask, a2 in _flip_orbits(model):
        codes = level[np.arange(model.dim) ^ mask]  # the partners' levels
        codes += level * size
        counts += a2 * np.bincount(codes, minlength=size * size)
    classes = counts.nonzero()[0]
    weight = counts[classes]
    start, end = np.divmod(classes, size)
    de = levels[end] - levels[start]
    coupled = np.abs(de) > tol
    chi_weight = weight[coupled] / de[coupled] ** 2
    ground = levels <= tol
    leaves = ground[start] & ~ground[end]
    g0 = int(multiplicity[ground].sum())
    del e, level, codes  # the beta loop holds no 2^N array
    leaving = weight[leaves]
    fixed = (math.sqrt(2.0 * float(leaving.sum()) / g0),
             4.0 / g0 * float(leaving @ levels[end[leaves]] ** -2.0),
             float(weight[coupled].sum()), math.sqrt(float(weight @ de**2)))
    dv2, chi, z2 = np.empty(betas.size), np.empty(betas.size), np.empty(betas.size)
    for chunk in stack_slices(betas.size, 3 * weight.nbytes):
        beta = betas[chunk, None]
        # -beta E overflows to -inf only where the weight is 0 anyway
        with np.errstate(over="ignore"):
            z2[chunk] = np.add.reduce(np.exp(-beta * (2.0 * levels)) * multiplicity, axis=1)
            w = np.exp(-beta * levels)
        dw2 = w.take(end, axis=1)
        dw2 -= w.take(start, axis=1)
        np.square(dw2, out=dw2)
        dv2[chunk] = np.add.reduce(dw2 * weight, axis=1)
        chi[chunk] = np.add.reduce(dw2.compress(coupled, axis=1) * chi_weight, axis=1)
    return dv2, chi, z2, fixed


def flip_sums(model: SpinChainModel, beta) -> FlipSums:
    """flip_sums_sweep at the one temperature beta."""
    return flip_sums_sweep(model, (beta,))[0]


def dense_sums_sweep(spec: SpectralDecomposition, v: HermitianOperator, betas) -> list[FlipSums]:
    """The six flip_sums fields at every beta of betas, from an H0 spectrum
    and a dense V: the oracle.

    Every beta is checked before any matrix product.  V is then rotated once
    into the eigenbasis as eigh returned it, and the degeneracy tolerance,
    the ground multiplicity and the four beta-independent fields are formed
    once for the grid.  The weights of the whole grid are one (betas, d)
    stack, so each pair sum is one kernel call per model: chi_pair_sum
    forms its masked |V_mn|^2 / (E_m - E_n)^2 kernel once, and then each
    beta costs two d x d sums.  Every sum runs over whole degenerate
    levels, with weights relative to the ground energy.
    (deltaV)^2 = sum_{m != n} |V_mn|^2 (w_m - w_n)^2 / Z0(2 beta) stays
    accurate where the weights w = e^{-beta E} drop below the eigensolver
    resolution of an assembled density matrix (large beta), and
    chi_F = (2/Z0(2 beta)) sum (w_m - w_n)^2 |V_mn|^2 / (E_m - E_n)^2 skips
    pairs degenerate within degeneracy_tolerance.  With g0 the ground
    multiplicity and P the ground-level projector, chi_F0 = (4/g0) sum over
    ground g and excited n of |V_ng|^2 / (E_n - E_0)^2 and
    (deltaV0)^2 = 2 [Tr(P V^2) - Tr(P V P V)] / g0.  Each beta's fields are
    the same operations on the same arrays as a one-beta call (the kernels
    sum each row as a vector, and Z0(2 beta) adds one C-contiguous row), so
    a record is bitwise independent of the grid it came in.
    """
    for beta in betas:
        require_beta(beta)
    e, u = spec.eigenvalues, spec.eigenvectors
    shifted = e - e.min()
    tol = degeneracy_tolerance(e)
    g0 = int(np.flatnonzero(level_starts(e))[1])
    v2 = np.abs(u.conj().T @ v.mat @ u) ** 2
    de = shifted[:, None] - shifted[None, :]
    gaps = e[g0:] - e[0]
    t1 = float(np.sum(v2[:, :g0]))
    t2 = float(np.sum(v2[:g0, :g0]))
    fixed = (
        math.sqrt(max(2.0 * (t1 - t2) / g0, 0.0)),
        float(4.0 / g0 * np.sum(v2[g0:, :g0] / gaps[:, None] ** 2)),
        float(np.sum(v2[np.abs(de) > tol])),
        math.sqrt(float(np.sum(v2 * de**2))),
    )
    del de  # a d x d array; chi_pair_sum forms its own, so free it first
    beta = np.asarray(betas, dtype=float).reshape(-1, 1)
    with np.errstate(over="ignore"):  # as in _flip_pass
        w = np.exp(-beta * shifted)
        z2 = np.add.reduce(np.exp(-beta * (2.0 * shifted)), axis=1)
    dv2 = pair_weight_sum(w, v2) / z2
    chi = 2.0 * chi_pair_sum(shifted, w, v2, tol) / z2
    return [
        FlipSums(math.sqrt(dv2_b), chi_b, *fixed)
        for dv2_b, chi_b in zip(dv2.tolist(), chi.tolist())
    ]


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


def threshold_sweep(model: SpinChainModel, betas, alpha: float = 1.0) -> list[ThresholdReport]:
    """Assemble deltaV, chi_F, Gamma_th, Gamma_N and f_N at every beta of betas.

    Every ingredient comes from one flip_sums_sweep over the grid: one
    O(2^N) count of the flip pairs by the H0 levels they join, in O(2^N)
    memory, then O(classes) per beta.
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
        # at beta = 0, or a beta too small to resolve any weight difference, every
        # weight is 1 and flip_sums gives deltaV = chi_F = 0 exactly
        undefined = beta == 0 or sums.chi_f == 0
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
