"""Thermal-state machinery: Gibbs and escort states, and the quasi-Gibbs
target along an adiabatic continuation of the initial eigenbasis.

The quasi-Gibbs target keeps the initial Boltzmann weights while its
eigenvectors follow the instantaneous eigenbasis of H_lambda.  Labels are
transported level by level, by the projector mass each fresh degenerate
level takes from the previous columns (adiabatic transport of spectral
projectors, Kato 1950), so the basis eigh picks inside a level never
matters.  QuasiGibbsSweep is the only code that marches the continuation:
it walks one labeled lambda = 0 basis over a grid of records and doubles
the steps per record interval until the target is stable at every record.
quasi_gibbs_at and thermal_overlap are its two-record case over
[0, lambda], and evolve takes its targets from it.  A tie between labels of
different weight in the accepted march triggers a ContinuationWarning
instead of failing silently.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .models import SpinChainModel, build_h0, build_v, require_finite
from .operators import (
    DensityMatrix,
    SpectralDecomposition,
    level_edges,
    hs_fidelity_mat,
    hs_norm,
)

AMBIGUITY_TOL = 1e-6
CONTINUATION_STABILITY_TOL = 1e-8
_MAX_SWEEP_DOUBLINGS = 7
_SIGMA_CACHE_BYTES = 6e8


class ContinuationWarning(UserWarning):
    """Ambiguous level matching in the accepted march of a QuasiGibbsSweep."""


def boltzmann_weights(energies, beta) -> np.ndarray:
    """Normalized Gibbs weights exp(-beta(E - E_min)) / Z, overflow-safe.

    beta may be 0 (uniform weights) but not negative.  The ground weight is
    exp(0) = 1, so Z >= 1 never underflows, and a weight that underflows to
    zero is below the smallest double relative to the ground weight.
    """
    if not math.isfinite(beta) or beta < 0:
        raise ValueError(f"inverse temperature must be finite and >= 0, got {beta}")
    e = np.asarray(energies, dtype=float)
    w = np.exp(-beta * (e - e.min()))
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




class EigenbasisContinuation:
    """Marches the labeled eigenbasis of H_lambda = h0 + lambda v along a lambda path.

    h0 and v are the dense matrices of H0 and V, real symmetric or Hermitian.
    At lambda = 0 every degenerate H0 eigenspace is rotated to diagonalize
    the projected drive P V P (first-order degenerate perturbation theory),
    which fixes the basis the non-degenerate perturbative formulas assume.
    restart() returns to that labeled basis, so one continuation serves any
    number of marches.

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
    that loses a label to another level, is ambiguous and is recorded on
    ambiguous_steps as (lambda, number of ambiguous matches).
    """

    def __init__(self, h0, v):
        self._h0 = h0
        self._v = v
        evals, evecs = np.linalg.eigh(h0)
        edges = level_edges(evals)
        for start, stop in zip(edges[:-1], edges[1:]):
            if stop - start > 1:
                ub = evecs[:, start:stop]
                proj = _hermitize(ub.conj().T @ v @ ub)
                _, w = np.linalg.eigh(proj)
                evecs[:, start:stop] = ub @ w
        self._origin = evals
        # every column of an H0 level carries the index of the level's first
        # column, so labels of equal origin energy are interchangeable
        labels = np.repeat(edges[:-1], np.diff(edges))
        self._at_zero = (evecs, labels)
        self.restart()

    def restart(self) -> None:
        """Return to the labeled eigenbasis at lambda = 0."""
        self.lam = 0.0
        self.vectors, self.labels = self._at_zero
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
            self.ambiguous_steps.append((float(lam), n_ambiguous))

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


def _sigma(vectors, column_weights):
    """Quasi-Gibbs matrix sum_j w_j |u_j><u_j| of weighted columns (no validation)."""
    return (vectors * column_weights) @ vectors.conj().T


class QuasiGibbsSweep:
    """Quasi-Gibbs targets at a grid of records from one converged continuation.

    The targets keep the Boltzmann weights of H0 at inverse temperature beta
    on the continued eigenbasis of h0 + lambda v, at each lambda of the
    monotonic grid lambdas, which starts at 0.  One EigenbasisContinuation
    is started per sweep, and every march restarts from its labeled
    lambda = 0 basis.  sigma at a record is sum_level w P_level(lambda_k),
    built from the continuation's eigendecomposition at lambda_k, so the
    step count only decides whether the labels are resolved.  Starting at
    one step per record interval, the count is doubled until sigma at every
    record is stable to CONTINUATION_STABILITY_TOL in HS norm.  Where the
    previous march rotated no level at a record, that change is exactly the
    2-norm of the change in column weights.

    Only the accepted march counts: its ambiguous steps are kept on
    ambiguous_steps and raise one ContinuationWarning, while a coarser march
    that the doubling rejected is discarded together with its ties.
    Every target has the purity sum w^2 of the weights (purity).  Snapshots
    are cached when they fit in _SIGMA_CACHE_BYTES at their own itemsize;
    otherwise each request re-marches the continuation.
    """

    def __init__(self, h0, v, lambdas, beta):
        self.lambdas = lambdas
        self._cont = EigenbasisContinuation(h0, v)
        self.weights = boltzmann_weights(self._cont._origin, beta)
        self.purity = float(np.sum(self.weights**2))
        dim = self.weights.size
        itemsize = np.result_type(h0, v, self.weights).itemsize  # of every snapshot
        caching = len(lambdas) * dim * dim * itemsize <= _SIGMA_CACHE_BYTES
        per_interval = 1
        previous = None
        for _ in range(_MAX_SWEEP_DOUBLINGS):
            snapshots = [] if caching else None
            states, change = self._march(per_interval, snapshots, previous)
            if change <= CONTINUATION_STABILITY_TOL:
                break
            previous = states
            per_interval *= 2
        else:
            raise RuntimeError(
                "eigenbasis continuation did not stabilize to "
                f"{CONTINUATION_STABILITY_TOL} at every record"
            )
        self.per_interval = per_interval
        self.ambiguous_steps = self._cont.ambiguous_steps
        if self.ambiguous_steps:
            lam, count = self.ambiguous_steps[0]
            warnings.warn(
                f"{count} ambiguous level match(es) at lambda={lam:.6g}; resolved by the "
                f"larger projector mass ({len(self.ambiguous_steps)} ambiguous step(s) "
                "recorded on ambiguous_steps)",
                ContinuationWarning,
                stacklevel=2,
            )
        self._cache = snapshots

    def _walk(self, per_interval):
        """Yield the continuation at each record lambda, in order."""
        cont = self._cont
        cont.restart()
        yield cont
        for k in range(1, len(self.lambdas)):
            a, b = self.lambdas[k - 1], self.lambdas[k]
            for s in range(1, per_interval):
                cont.advance(a + (b - a) * s / per_interval)
            cont.advance(b)
            yield cont

    def _march(self, per_interval, snapshots, previous):
        """Per-record (column weights, rotated columns or None) and the largest
        HS change of sigma against the previous march (inf without one)."""
        states, change = [], math.inf if previous is None else 0.0
        for k, cont in enumerate(self._walk(per_interval)):
            w = self.weights[cont.labels]
            u = cont.vectors
            states.append((w, u.copy() if cont.rotated else None))
            if previous is not None:
                w_prev, u_prev = previous[k]
                if u_prev is None:
                    # the previous levels carried one weight each, so its sigma
                    # is diagonal in any basis of them, this march's included
                    delta = float(np.linalg.norm(w - w_prev))
                else:
                    delta = hs_norm(_sigma(u, w) - _sigma(u_prev, w_prev))
                change = max(change, delta)
            if snapshots is not None:
                snapshots.append(_sigma(u, w))
        return states, change

    def records(self):
        """Yield the quasi-Gibbs matrix at each record lambda, in order."""
        if self._cache is not None:
            yield from self._cache
            return
        for cont in self._walk(self.per_interval):
            yield _sigma(cont.vectors, self.weights[cont.labels])


def _endpoints(model: SpinChainModel, beta, lam):
    """The records of a two-record sweep over [0, lam], and their purity."""
    require_finite("lambda", lam)
    sweep = QuasiGibbsSweep(build_h0(model).mat, build_v(model).mat, np.array([0.0, lam]), beta)
    return (*sweep.records(), sweep.purity)


def quasi_gibbs_at(model: SpinChainModel, beta, lam) -> DensityMatrix:
    """Quasi-Gibbs state at lambda: initial Boltzmann weights on the continued basis.

    The last record of a two-record QuasiGibbsSweep over [0, lambda];
    negative lambda is allowed (symmetric finite differences of the overlap
    use it).  Its purity equals the initial Gibbs purity because the
    weights never change along the continuation.
    """
    return DensityMatrix(mat=_endpoints(model, beta, lam)[1])


def thermal_overlap(model: SpinChainModel, beta, lam) -> float:
    """Hilbert-Schmidt fidelity C between Gibbs(beta) and the quasi-Gibbs target.

    Both come from one two-record sweep: its lambda = 0 record is the Gibbs
    state.  Both are validated as DensityMatrix, and C is hs_fidelity_mat
    with the sweep's purity for both, as in evolve, so it equals
    evolve(...).thermal_overlap[k] at lam = trace.lambdas[k] exactly.
    """
    rho0, sigma, purity = _endpoints(model, beta, lam)
    DensityMatrix(mat=rho0)
    DensityMatrix(mat=sigma)
    return hs_fidelity_mat(sigma, purity, rho0, purity)
