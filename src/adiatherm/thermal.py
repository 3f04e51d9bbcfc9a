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
Its targets are rebuilt from the accepted march's column weights and one
eigendecomposition pass over the records, never by marching again.
quasi_gibbs_at and thermal_overlap are its two-record case over
[0, lambda], and evolve takes its targets from it.  A tie between labels of
different weight in the accepted march triggers a ContinuationWarning
instead of failing silently.

Every eigendecomposition of H_lambda comes from a BlockEigensolver, which
takes H0 and V as blocks: the symmetry sectors of the ring
(models.symmetry_sectors), or a dense pair as one block.  A march knows its
whole lambda path before it starts, so the blocks of each size go through
one stacked np.linalg.eigh per chunk of that path.  The eigenpairs stay in
block order and the continuation forms its levels inside blocks, so equal
energies of different sectors never share a level or exchange labels.  The
sweep's records are in the sector basis; quasi_gibbs_at returns its state in
the computational basis, and thermal_overlap needs no basis, since an
orthogonal change of basis leaves every trace unchanged.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .models import SpinChainModel, require_finite, symmetry_sectors
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
# bytes of the block matrices one chunk of BlockEigensolver stacks
_EIGH_STACK_BYTES = 1 << 17


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


class BlockEigensolver:
    """The eigenpairs of H(lambda) = blockdiag_b(h0_b + lambda v_b), over stacks of lambdas.

    blocks is a sequence of (h0_b, v_b) pairs of square matrices, such as
    SymmetrySectors.blocks; a dense (h0, v) pair is one block.  The blocks of
    one size take one np.linalg.eigh over a stack of every such block at
    every lambda of a chunk of at most _EIGH_STACK_BYTES of all blocks;
    LAPACK runs matrix by matrix, so the result does not depend on the
    chunking.  eigenpairs() keeps eigh's order: by block size, then block by
    block, ascending inside a block, whose columns are edges[i]:edges[i + 1]
    of the d x d eigenvectors, block-diagonal in the blocks' row order.
    """

    def __init__(self, blocks):
        self.dtype = np.result_type(*(mat for pair in blocks for mat in pair))
        sizes = np.array([h0.shape[0] for h0, _ in blocks])
        self.dim = int(sizes.sum())
        groups = [np.flatnonzero(sizes == m) for m in sorted(set(sizes.tolist()))]
        self._stacks = [
            [np.stack([blocks[b][k] for b in group]) for k in (0, 1)] for group in groups
        ]
        # the eigenpairs of a chunk are concatenated group by group, block by
        # block; entry (r, j) of block b goes to row offset_b + r and column
        # edges_b + j, where edges_b counts the columns of the blocks before b
        order = np.concatenate(groups)
        m = sizes[order]
        self.edges = np.concatenate(([0], np.cumsum(m)))
        block = np.repeat(np.arange(order.size), m * m)
        entry = np.arange(block.size) - np.repeat(np.cumsum(m * m) - m * m, m * m)
        rows = (np.cumsum(sizes) - sizes)[order][block] + entry // m[block]
        self._flat = rows * self.dim + self.edges[block] + entry % m[block]
        self._chunk = max(1, _EIGH_STACK_BYTES // (self.dtype.itemsize * int(np.sum(sizes**2))))

    def eigenpairs(self, lambdas):
        """Yield (eigenvalues in block order, eigenvector columns) at each lambda, in order."""
        lambdas = np.asarray(lambdas, dtype=float)
        for start in range(0, lambdas.size, self._chunk):
            lams = lambdas[start : start + self._chunk]
            evals, entries = [], []
            for h0s, vs in self._stacks:
                e, u = np.linalg.eigh(h0s[:, None] + lams[None, :, None, None] * vs[:, None])
                evals.append(e.transpose(1, 0, 2).reshape(lams.size, -1))
                entries.append(u.transpose(1, 0, 2, 3).reshape(lams.size, -1))
            evals, entries = np.concatenate(evals, axis=1), np.concatenate(entries, axis=1)
            for e, u in zip(evals, entries):
                vectors = np.zeros(self.dim**2, dtype=self.dtype)
                vectors[self._flat] = u
                yield e, vectors.reshape(self.dim, self.dim)

    def block_level_edges(self, evals):
        """operators.level_edges of eigenvalues in block order, split at every block edge."""
        # a mask, since np.union1d would import numpy.ma on its first call
        split = np.zeros(self.dim + 1, dtype=bool)
        split[level_edges(evals)] = split[self.edges] = True
        return np.flatnonzero(split)


class EigenbasisContinuation:
    """Marches the labeled eigenbasis of H_lambda = h0 + lambda v along a lambda path.

    blocks holds H0 and V as (h0_b, v_b) pairs (see BlockEigensolver): the
    blocks of SymmetrySectors, or a dense pair as one block.  restart()
    returns to the labeled eigenbasis of H0, so one continuation serves any
    number of marches.

    Labels are transported level by level, by adiabatic transport of the
    spectral projectors (Kato 1950).  Levels are formed inside the solver's
    blocks, whose eigenvectors have zero overlap, so no label leaves its
    sector.  A level of multiplicity g takes the labels of the g old columns
    with the largest projector mass sum_{i in level} |<new_i|old_j>|^2,
    which does not depend on the basis eigh returns inside the level.  The
    columns are the fresh eigenvectors, so the quasi-Gibbs state
    sum_level w P_level at a lambda depends only on the eigendecomposition
    there and on the labels.  A level that receives labels of different
    origin energies (an exact crossing) is rotated onto the transported old
    columns, because only there does the basis inside the level matter.  A
    level whose g-th and (g+1)-th masses tie within AMBIGUITY_TOL between
    labels of different origin energies, or a step that loses a label to
    another level, is ambiguous and is recorded on ambiguous_steps as
    (lambda, number of ambiguous matches).
    """

    def __init__(self, blocks):
        self.solver = BlockEigensolver(blocks)
        evals, evecs = next(self.solver.eigenpairs([0.0]))
        edges = self.solver.block_level_edges(evals)
        self._origin = evals
        # every column of an H0 level carries the index of the level's first
        # column, so the labels inside one level are interchangeable
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

    def advance(self, lam: float, eigenpairs=None) -> None:
        """Step the labeled basis to the eigenbasis of H at the given lambda.

        eigenpairs is the solver's pair at lam when the caller has it.
        """
        if eigenpairs is None:
            eigenpairs = next(self.solver.eigenpairs([lam]))
        evals, fresh = eigenpairs
        d = evals.size
        edges = self.solver.block_level_edges(evals)
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
    on the continued eigenbasis of H0 + lambda V, given as blocks (see
    BlockEigensolver), at each lambda of the grid lambdas, which must be
    finite and start at 0; they are matrices in the blocks' basis.  The march
    follows the records in the order given, so the grid need not ascend.
    One EigenbasisContinuation is started per sweep, and every march
    restarts from its labeled lambda = 0 basis.  sigma at a record is
    sum_level w P_level(lambda_k), built from the continuation's
    eigendecomposition at lambda_k, so the step count only decides whether
    the labels are resolved.  Starting at one step per record interval, the
    count is doubled until sigma at every record is stable to
    CONTINUATION_STABILITY_TOL in HS norm.  Where the previous march rotated
    no level at a record, that change is exactly the 2-norm of the change in
    column weights.

    The accepted march keeps the column weights at each record, and its
    columns only where that step rotated a level; elsewhere they are the
    fresh eigenvectors of solver, the sweep's BlockEigensolver.  records()
    rebuilds every target from these and one pass of solver over the
    records, bit for bit the sigma the march checked, and never advances the
    continuation.

    Only the accepted march counts: its ambiguous steps are kept on
    ambiguous_steps and raise one ContinuationWarning, while a coarser march
    that the doubling rejected is discarded together with its ties.
    Every target has the purity sum w^2 of the weights (purity).
    """

    def __init__(self, blocks, lambdas, beta):
        lambdas = np.asarray(lambdas, dtype=float)
        if lambdas.size == 0 or lambdas[0] != 0 or not np.isfinite(lambdas).all():
            raise ValueError(f"record lambdas must be finite and start at 0, got {lambdas}")
        self.lambdas = lambdas
        self._cont = EigenbasisContinuation(blocks)
        self.solver = self._cont.solver
        self.weights = boltzmann_weights(self._cont._origin, beta)
        self.purity = float(np.sum(self.weights**2))
        per_interval = 1
        previous = None
        for _ in range(_MAX_SWEEP_DOUBLINGS):
            states, change = self._march(per_interval, previous)
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
        self._states = states
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

    def _march(self, per_interval, previous):
        """Per-record (column weights, rotated columns or None) and the largest
        HS change of sigma against the previous march (inf without one).

        The march's whole lambda path is known before it starts, so every
        eigenpair comes from one pass of the solver over it.
        """
        cont = self._cont
        cont.restart()
        path = []
        for a, b in zip(self.lambdas[:-1], self.lambdas[1:]):
            path += [a + (b - a) * s / per_interval for s in range(1, per_interval)] + [b]
        steps = zip(path, self.solver.eigenpairs(path))
        states, change = [], math.inf if previous is None else 0.0
        for k in range(self.lambdas.size):
            if k:
                for _ in range(per_interval):
                    cont.advance(*next(steps))
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
        return states, change

    def records(self):
        """Yield the quasi-Gibbs matrix at each record lambda, in order."""
        for (w, rotated), (_, fresh) in zip(self._states, self.solver.eigenpairs(self.lambdas)):
            yield _sigma(fresh if rotated is None else rotated, w)


def _endpoints(model: SpinChainModel, beta, lam):
    """The sector basis, the records in it of a two-record sweep over [0, lam],
    and their purity."""
    require_finite("lambda", lam)
    sectors = symmetry_sectors(model)
    sweep = QuasiGibbsSweep(sectors.blocks, np.array([0.0, lam]), beta)
    return (sectors.basis, *sweep.records(), sweep.purity)


def quasi_gibbs_at(model: SpinChainModel, beta, lam) -> DensityMatrix:
    """Quasi-Gibbs state at lambda: initial Boltzmann weights on the continued basis.

    The last record of a two-record QuasiGibbsSweep over [0, lambda] on the
    symmetry sectors, returned in the computational basis; negative lambda
    is allowed (symmetric finite differences of the overlap use it).  Its
    purity equals the initial Gibbs purity because the weights never change
    along the continuation.
    """
    basis, _, sigma, _ = _endpoints(model, beta, lam)
    return DensityMatrix(mat=basis @ sigma @ basis.T)


def thermal_overlap(model: SpinChainModel, beta, lam) -> float:
    """Hilbert-Schmidt fidelity C between Gibbs(beta) and the quasi-Gibbs target.

    Both come from one two-record sweep on the symmetry sectors: its
    lambda = 0 record is the Gibbs state.  Both are validated as
    DensityMatrix in the sector basis, which changes no trace, and C is
    hs_fidelity_mat with the sweep's purity for both, as in evolve, so it
    equals evolve(...).thermal_overlap[k] at lam = trace.lambdas[k] exactly.
    """
    _, rho0, sigma, purity = _endpoints(model, beta, lam)
    DensityMatrix(mat=rho0)
    DensityMatrix(mat=sigma)
    return hs_fidelity_mat(sigma, purity, rho0, purity)
