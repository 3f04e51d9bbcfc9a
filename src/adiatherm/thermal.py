"""Thermal-state machinery: Gibbs and quasi-Gibbs states, escort state,
adiabatic continuation of the initial eigenbasis, thermal-state overlap.

The quasi-Gibbs target keeps the initial Boltzmann weights while its
eigenvectors follow the instantaneous eigenbasis of H_lambda.  Labels are
transported level by level, by the projector mass each fresh degenerate
level takes from the previous columns (adiabatic transport of spectral
projectors, Kato 1950), so the basis eigh picks inside a level never
matters.  A tie between labels of different weight triggers a
ContinuationWarning instead of failing silently.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .models import SpinChainModel, build_h0, build_v
from .operators import (
    DensityMatrix,
    SpectralDecomposition,
    degeneracy_tolerance,
    degenerate_blocks,
    level_edges,
    hs_fidelity,
    hs_norm,
    eigh,
    real_if_exactly_real,
)

# Above this, all excited Boltzmann weights underflow to exact zero, so the
# ground-projector limit is returned explicitly.
_BETA_SPAN_CAP = 700.0

AMBIGUITY_TOL = 1e-6
CONTINUATION_STABILITY_TOL = 1e-8
_MAX_DOUBLINGS = 6


class ContinuationWarning(UserWarning):
    """Ambiguous eigenvector matching during eigenbasis continuation."""


def boltzmann_weights(energies, beta) -> np.ndarray:
    """Normalized Gibbs weights exp(-beta(E - E_min)) / Z, overflow-safe.

    beta may be 0 (uniform weights) but not negative.  For
    beta > 700 / spectral-span the exact ground-multiplet projector weights
    are returned instead of underflowed exponentials.
    """
    if not math.isfinite(beta) or beta < 0:
        raise ValueError(f"inverse temperature must be finite and >= 0, got {beta}")
    e = np.asarray(energies, dtype=float)
    shifted = e - e.min()
    span = float(shifted.max())
    if span > 0 and beta > _BETA_SPAN_CAP / span:
        w = (shifted <= degeneracy_tolerance(e)).astype(float)
    else:
        w = np.exp(-beta * shifted)
    return w / w.sum()


def _hermitize(mat):
    return 0.5 * (mat + mat.conj().T)


def gibbs_state(h0_spec: SpectralDecomposition, beta) -> DensityMatrix:
    """Gibbs state sum_n e^{-beta E_n} |n><n| / Z0 of a diagonalized H0."""
    p = boltzmann_weights(h0_spec.eigenvalues, beta)
    u = h0_spec.eigenvectors
    return DensityMatrix(mat=_hermitize((u * p) @ u.conj().T))


def escort_state(rho: DensityMatrix) -> DensityMatrix:
    """Order-2 escort state rho^2 / Tr(rho^2); maps Gibbs(beta) to Gibbs(2 beta)."""
    sq = rho.mat @ rho.mat
    return DensityMatrix(mat=_hermitize(sq / np.real(np.trace(sq))))


@dataclass(frozen=True)
class LabeledEigenbasis:
    """Instantaneous eigenvectors of H_lambda labeled by their lambda=0 energies."""

    lam: float
    vectors: np.ndarray
    origin_energies: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vectors", np.asarray(self.vectors, dtype=complex))
        object.__setattr__(
            self, "origin_energies", np.asarray(self.origin_energies, dtype=float)
        )
        u = self.vectors
        defect = np.abs(u.conj().T @ u - np.eye(u.shape[0])).max()
        if defect > 1e-10:
            raise ValueError(f"basis columns not orthonormal (defect {defect:.3e})")

    @property
    def dim(self):
        return self.vectors.shape[0]


class EigenbasisContinuation:
    """Marches the labeled eigenbasis of H_lambda along a lambda path.

    At lambda = 0 every degenerate H0 eigenspace is rotated to diagonalize
    the projected drive P V P (first-order degenerate perturbation theory),
    which fixes the basis the non-degenerate perturbative formulas assume.

    Labels are transported level by level, by adiabatic transport of the
    spectral projectors (Kato 1950).  Each advance() clusters the fresh
    eigenvalues into levels; a level of multiplicity g takes the labels of
    the g old columns with the largest projector mass
    sum_{i in level} |<new_i|old_j>|^2, which does not depend on the basis
    eigh returns inside the level.  The columns are the fresh eigenvectors,
    so the quasi-Gibbs state sum_level w P_level at a lambda depends only on
    the eigendecomposition there and on the labels.  A level that receives
    labels of different origin energies (an exact crossing) is rotated onto
    the transported old columns, because only there does the basis inside
    the level matter.  A level whose g-th and (g+1)-th masses tie within
    AMBIGUITY_TOL between labels of different origin energies, or a step
    that loses a label to another level, is ambiguous: it raises a
    ContinuationWarning and is recorded on ambiguous_steps.
    """

    def __init__(self, model: SpinChainModel):
        self.model = model
        self._start(
            real_if_exactly_real(build_h0(model).mat), real_if_exactly_real(build_v(model).mat)
        )

    def _start(self, h0, v):
        """Label the eigenbasis of H0 + lambda V at lambda = 0."""
        self._h0 = h0
        self._v = v
        evals, evecs = np.linalg.eigh(h0)
        blocks = degenerate_blocks(evals)
        for block in blocks:
            if block.stop - block.start > 1:
                ub = evecs[:, block]
                proj = _hermitize(ub.conj().T @ v @ ub)
                _, w = np.linalg.eigh(proj)
                evecs[:, block] = ub @ w
        self.lam = 0.0
        self.vectors = evecs
        self._origin = evals.copy()
        # every column of an H0 level carries the index of the level's first
        # column, so labels of equal origin energy are interchangeable
        self.labels = np.repeat(
            [b.start for b in blocks], [b.stop - b.start for b in blocks]
        )
        self.rotated = False  # whether the last step rotated a level's columns
        self.ambiguous_steps = []

    @property
    def origin_energies(self):
        """The lambda = 0 energy carried by each column."""
        return self._origin[self.labels]

    def advance(self, lam: float) -> None:
        """Step the labeled basis to the eigenbasis of H at the given lambda."""
        evals, fresh = np.linalg.eigh(self._h0 + lam * self._v)
        d = evals.size
        edges = level_edges(evals)
        starts, sizes = edges[:-1], np.diff(edges)
        level = np.repeat(np.arange(starts.size), sizes)
        overlap = fresh.conj().T @ self.vectors
        mass = np.add.reduceat((overlap * overlap.conj()).real, starts, axis=0)
        order = np.argsort(-mass, axis=1, kind="stable")
        # fresh column i takes the label of the old column ranked
        # (i - level start) in its level's projector masses
        source = order[level, np.arange(d) - starts[level]]
        labels = self.labels[source]

        # ambiguous: a level's g-th and (g+1)-th masses tie between labels
        # of different origin energy, or a label went to two levels
        rows = np.flatnonzero(sizes < d)
        last, after = order[rows, sizes[rows] - 1], order[rows, sizes[rows]]
        tied = mass[rows, last] - mass[rows, after] < AMBIGUITY_TOL
        n_ambiguous = int(np.count_nonzero(tied & (self.labels[last] != self.labels[after])))
        if not np.array_equal(np.sort(labels), np.sort(self.labels)):
            n_ambiguous += 1
        if n_ambiguous:
            # every step is recorded; the warning fires once per continuation
            # to keep long sweeps through persistent degeneracies readable
            if not self.ambiguous_steps:
                warnings.warn(
                    f"{n_ambiguous} ambiguous level match(es) at lambda={lam:.6g}; "
                    "resolved by the larger projector mass (further steps "
                    "recorded on ambiguous_steps)",
                    ContinuationWarning,
                    stacklevel=2,
                )
            self.ambiguous_steps.append((lam, n_ambiguous))

        mixed = np.minimum.reduceat(labels, starts) != np.maximum.reduceat(labels, starts)
        self.rotated = bool(mixed.any())
        for lev in np.flatnonzero(mixed):
            block = slice(starts[lev], edges[lev + 1])
            # polar factor of the level's overlaps: the orthonormal basis of
            # the level closest to the projected old columns
            u, _, vh = np.linalg.svd(overlap[block][:, source[block]])
            fresh[:, block] = fresh[:, block] @ (u @ vh)
        self.vectors = fresh
        self.labels = labels
        self.lam = lam

    def basis(self) -> LabeledEigenbasis:
        return LabeledEigenbasis(
            lam=self.lam,
            vectors=self.vectors.copy(),
            origin_energies=self.origin_energies,
        )


def default_continuation_steps(lambda_target) -> int:
    return max(50, int(math.ceil(2000.0 * abs(lambda_target))))


def continued_eigenbasis(
    model: SpinChainModel, lambda_target: float, n_steps: int
) -> LabeledEigenbasis:
    """Transport the H0 eigenbasis to lambda_target in n_steps increments.

    Negative targets are allowed (used by symmetric finite differences of the
    overlap); the path is still a straight march from 0.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    cont = EigenbasisContinuation(model)
    if lambda_target != 0.0:
        for lam in np.linspace(0.0, lambda_target, n_steps + 1)[1:]:
            cont.advance(float(lam))
    return cont.basis()


def quasi_gibbs_mat(basis: LabeledEigenbasis, beta) -> np.ndarray:
    """Raw matrix of the quasi-Gibbs state (no DensityMatrix validation)."""
    p = boltzmann_weights(basis.origin_energies, beta)
    u = basis.vectors
    return _hermitize((u * p) @ u.conj().T)


def quasi_gibbs(basis: LabeledEigenbasis, beta) -> DensityMatrix:
    """Quasi-Gibbs state: initial Boltzmann weights on the transported basis.

    Its purity equals the initial Gibbs purity because the weights never
    change along the continuation.
    """
    return DensityMatrix(mat=quasi_gibbs_mat(basis, beta))


def quasi_gibbs_at(
    model: SpinChainModel, beta, lam, n_steps: int | None = None
) -> DensityMatrix:
    """Quasi-Gibbs state at lambda, with step-doubling when n_steps is None.

    The step count starts at max(50, ceil(2000 |lambda|)) and doubles until
    the state is stable to 1e-8 in Hilbert-Schmidt norm.
    """
    if n_steps is not None:
        return quasi_gibbs(continued_eigenbasis(model, lam, n_steps), beta)
    steps = default_continuation_steps(lam)
    current = quasi_gibbs_mat(continued_eigenbasis(model, lam, steps), beta)
    for _ in range(_MAX_DOUBLINGS):
        steps *= 2
        finer = quasi_gibbs_mat(continued_eigenbasis(model, lam, steps), beta)
        if hs_norm(finer - current) <= CONTINUATION_STABILITY_TOL:
            return DensityMatrix(mat=finer)
        current = finer
    raise RuntimeError(
        f"quasi-Gibbs state did not stabilize to {CONTINUATION_STABILITY_TOL} "
        f"after {_MAX_DOUBLINGS} step doublings (lambda={lam}, beta={beta})"
    )


def thermal_overlap(model: SpinChainModel, beta, lam, n_steps: int | None = None) -> float:
    """Hilbert-Schmidt fidelity between Gibbs(beta) and the quasi-Gibbs target."""
    rho0 = gibbs_state(eigh(build_h0(model)), beta)
    sigma = quasi_gibbs_at(model, beta, lam, n_steps)
    return hs_fidelity(rho0, sigma)
