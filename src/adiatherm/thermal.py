"""Thermal-state machinery: Gibbs and escort states, and the quasi-Gibbs
target along an adiabatic continuation of the initial eigenbasis.

The quasi-Gibbs target keeps the initial Boltzmann weights while its
eigenvectors follow the instantaneous eigenbasis of H_lambda.  Labels are
transported level by level, by the projector mass each fresh degenerate
level takes from the previous columns (adiabatic transport of spectral
projectors, Kato 1950), so the basis eigh picks inside a level never
matters.  QuasiGibbsSweep is the only code that marches the continuation:
it walks one labeled lambda = 0 basis over a grid of records and doubles
the steps per record interval until the target is stable at every record;
its first round marches 1 and 2 steps per interval over one
eigendecomposition pass, since the records are every second lambda of the
2-step path.
Its targets are rebuilt from the accepted march's column labels and one
eigendecomposition pass over the records, never by marching again.
quasi_gibbs_states is one sweep over [0, *lams] with the sectors built
once, and quasi_gibbs_at its one-lambda case; thermal_overlap is the
two-record case over [0, lambda], and evolve takes its targets from it.
A tie between labels of different weight in the accepted march triggers a
ContinuationWarning instead of failing silently.

Every eigendecomposition of H_lambda comes from a BlockEigensolver, which
takes H0 and V as blocks: the symmetry sectors of the ring
(models.symmetry_sectors), or a dense pair as one block.  Each run of
consecutive blocks of one size forms a group, and every matrix that is
block-diagonal in them (the eigenvectors, the continuation's overlaps, the
quasi-Gibbs targets, and evolve's propagators and states) is one
(..., g, m, m) stack per group, never a d x d matrix.  A march knows its
whole lambda path before it starts, so each group goes through one stacked
np.linalg.eigh per chunk of that path, and the continuation advances over
each chunk's Eigenpairs in stacked products: per-block overlaps, level
masses and argsorts for every step at once, with the labels composed in one
short integer loop.  Levels are formed inside blocks, so equal energies of
different sectors never share a level or exchange labels.  The sweep's
records are per-block stacks in the sector basis; quasi_gibbs_states
assembles each state in the computational basis once, and thermal_overlap
needs no basis, since an orthogonal change of basis leaves every trace
unchanged.
A block may stand for several orthogonal copies of itself (a partner of
models.SymmetrySectors and its reflection twin), counted by the solver's
multiplicity in every sum over blocks; every route runs so.
"""

from __future__ import annotations

import copy
import math
import warnings
from typing import NamedTuple

import numpy as np

from .models import SpinChainModel, require_beta, require_dense_fits, require_finite
from .models import stack_slices, symmetry_sectors
from .operators import (
    DensityMatrix,
    SpectralDecomposition,
    adjoint,
    hermiticity_defect,
    hs_fidelity_from_overlap,
    level_starts,
    require_density,
)

AMBIGUITY_TOL = 1e-6
CONTINUATION_STABILITY_TOL = 1e-8
_MAX_SWEEP_DOUBLINGS = 7


class ContinuationWarning(UserWarning):
    """Ambiguous level matching in the accepted march of a QuasiGibbsSweep."""


def boltzmann_weights(energies, beta, multiplicity=1) -> np.ndarray:
    """Normalized Gibbs weights exp(-beta(E - E_min)) / Z, overflow-safe.

    beta may be 0 (uniform weights) but not negative.  The ground weight is
    exp(0) = 1, so Z >= 1 never underflows, and a weight that underflows to
    zero is below the smallest double relative to the ground weight.
    multiplicity (a scalar or one count per energy) is how often each
    energy occurs in Z = sum multiplicity exp(-beta(E - E_min)).
    """
    require_beta(beta)
    e = np.asarray(energies, dtype=float)
    with np.errstate(over="ignore"):  # as in susceptibility._flip_pass
        w = np.exp(-beta * (e - e.min()))
    return w / np.sum(multiplicity * w)


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


class Eigenpairs(NamedTuple):
    """The eigenpairs of H at a chunk of c lambdas.

    values is (c, d), in block order; vectors holds one (c, g, m, m) stack
    of eigenvector columns per group of g blocks of size m.
    """

    lambdas: np.ndarray
    values: np.ndarray
    vectors: list


class BlockEigensolver:
    """The eigenpairs of H(lambda) = blockdiag_b(h0_b + lambda v_b), over stacks of lambdas.

    blocks is a sequence of (h0_b, v_b) pairs of square matrices, such as
    SymmetrySectors.blocks; a dense (h0, v) pair is one block.  The blocks
    keep the order they are given in, and each run of consecutive blocks of
    one size m forms a group, so a matrix block-diagonal in them is one
    (..., g, m, m) stack per group.  In a d-vector, block i owns entries
    edges[i]:edges[i + 1] and group j entries group_edges[j]:group_edges[j + 1].
    solve() diagonalizes every group at every lambda of a chunk in one
    np.linalg.eigh, ascending inside each block; LAPACK runs matrix by
    matrix, so the result does not depend on the chunking.  eigenpairs()
    cuts a lambda path by models.stack_slices, a lambda taking the entries
    of all blocks at their dtype.

    multiplicity, one count per block (all 1 when None), is how many
    orthogonal copies of each block the full operator holds, such as a
    partner of SymmetrySectors and its reflection twin.  Every trace over
    the full operator is then a sum over the given blocks counted by
    multiplicity: total() and inner() take it so, group_multiplicity holds
    each group's (g,) counts, and the integer d-vector multiplicity each
    column's count for sums over columns (the partition function, the
    purity).  dense() repeats each block by its count, in the column order
    of SymmetrySectors.basis.
    """

    def __init__(self, blocks, multiplicity=None):
        self.dtype = np.result_type(*(mat for pair in blocks for mat in pair))
        sizes = np.array([h0.shape[0] for h0, _ in blocks])
        self.dim = int(sizes.sum())
        runs = np.concatenate(([0], np.flatnonzero(np.diff(sizes)) + 1, [sizes.size]))
        self._stacks = [
            [np.stack([pair[k] for pair in blocks[lo:hi]]) for k in (0, 1)]
            for lo, hi in zip(runs, runs[1:])
        ]
        self.edges = np.concatenate(([0], np.cumsum(sizes)))
        self.group_edges = self.edges[runs]
        self.entries = int(np.sum(sizes**2))
        counts = np.ones(sizes.size, dtype=int) if multiplicity is None else np.array(multiplicity)
        self.multiplicity = np.repeat(counts, sizes)
        self.group_multiplicity = [counts[lo:hi] for lo, hi in zip(runs, runs[1:])]

    def split(self, values):
        """Per-group (..., g, m) views of (..., d) values in block order."""
        return [
            values[..., lo:hi].reshape(*values.shape[:-1], -1, h0s.shape[-1])
            for (h0s, _), lo, hi in zip(self._stacks, self.group_edges, self.group_edges[1:])
        ]

    def hamiltonians(self, lambdas):
        """Per-group (c, g, m, m) stacks of the blocks h0_b + lambda v_b at the c lambdas."""
        lams = np.asarray(lambdas, dtype=float).reshape(-1, 1, 1, 1)
        return [h0s + lams * vs for h0s, vs in self._stacks]

    def solve(self, lambdas):
        """The Eigenpairs at every lambda of lambdas, in one stacked eigh per group."""
        lams = np.asarray(lambdas, dtype=float).reshape(-1)
        values, vectors = [], []
        for h in self.hamiltonians(lams):
            e, u = np.linalg.eigh(h)
            values.append(e.reshape(lams.size, -1))
            vectors.append(u)
        return Eigenpairs(lams, np.concatenate(values, axis=1), vectors)

    def eigenpairs(self, lambdas):
        """Yield the Eigenpairs along lambdas, one stack_slices chunk at a time."""
        lambdas = np.asarray(lambdas, dtype=float).reshape(-1)
        for chunk in stack_slices(lambdas.size, self.dtype.itemsize * self.entries):
            yield self.solve(lambdas[chunk])

    def level_starts(self, values):
        """operators.level_starts of (c, d) eigenvalues in block order, split at every block edge."""
        starts = level_starts(values)
        starts[..., self.edges] = True
        return starts

    def total(self, per_block):
        """sum_b multiplicity_b x_b of per-group (..., g) values, one per block."""
        return sum((x * c).sum(axis=-1) for x, c in zip(per_block, self.group_multiplicity))

    def inner(self, a, b):
        """Re Tr(a^dag b) of block-diagonal matrices given as per-group stacks,
        each block counted by its multiplicity.

        a and b hold one (..., g, m, m) stack per group and broadcast against
        each other; the result has their leading shape.  Each block and then
        each group sums one contiguous row per leading index, so an entry
        does not depend on how many others share its stack.
        """
        per_block = []
        for x, y in zip(a, b):
            prod = (np.conj(x) * y).real
            per_block.append(prod.reshape(*prod.shape[:-2], -1).sum(axis=-1))
        return self.total(per_block)

    def dense(self, stacks):
        """The block-diagonal matrix of per-group (g, m, m) stacks, each block
        repeated by its multiplicity (d x d when every block counts once)."""
        size = int(self.multiplicity.sum())
        out = np.zeros((size, size), dtype=np.result_type(*stacks))
        at = 0
        for stack, counts in zip(stacks, self.group_multiplicity):
            m = stack.shape[-1]
            for block in np.repeat(stack, counts, axis=0):
                out[at : at + m, at : at + m] = block
                at += m
        return out


class EigenbasisContinuation:
    """Marches the labeled eigenbasis of H_lambda = h0 + lambda v along a lambda path.

    blocks holds H0 and V as (h0_b, v_b) pairs, counted by multiplicity
    (see BlockEigensolver): the blocks of SymmetrySectors, or a dense pair
    as one block.  vectors holds the current columns as the solver's
    per-group stacks, and labels the lambda = 0 column each carries, in
    block order.  restart() returns to the labeled eigenbasis of H0, so one
    continuation serves any number of marches.

    Labels are transported level by level, by adiabatic transport of the
    spectral projectors (Kato 1950).  Levels are formed inside the solver's
    blocks, whose eigenvectors have zero overlap, so no label leaves its
    block.  A level of multiplicity g takes the labels of the g old columns
    of its block with the largest projector mass
    sum_{i in level} |<new_i|old_j>|^2, which does not depend on the basis
    eigh returns inside the level.  The columns are the fresh eigenvectors,
    so the quasi-Gibbs state sum_level w P_level at a lambda depends only on
    the eigendecomposition there and on the labels.  A level that receives
    labels of different origin energies (an exact crossing) is rotated onto
    the transported old columns, because only there does the basis inside
    the level matter.  A level whose g-th and (g+1)-th masses tie within
    AMBIGUITY_TOL between labels of different origin energies is ambiguous
    and is recorded on ambiguous_steps as (lambda, number of ambiguous
    matches); a tie counts once per copy of its block (its multiplicity),
    as in the full operator.  A step that gives one label to two levels
    loses another: its lambda is recorded on lost_steps, and the march no
    longer carries every lambda = 0 column once.
    """

    def __init__(self, blocks, multiplicity=None):
        self.solver = BlockEigensolver(blocks, multiplicity)
        at_zero = self.solver.solve([0.0])
        edges = np.flatnonzero(self.solver.level_starts(at_zero.values[0]))
        self._origin = at_zero.values[0]
        # every column of an H0 level carries the index of the level's first
        # column, so the labels inside one level are interchangeable
        labels = np.repeat(edges[:-1], np.diff(edges))
        self._at_zero = ([u[0] for u in at_zero.vectors], labels)
        self.restart()

    def restart(self) -> None:
        """Return to the labeled eigenbasis at lambda = 0."""
        self.vectors, self.labels = self._at_zero
        self.ambiguous_steps = []
        self.lost_steps = []

    @property
    def origin_energies(self):
        """The lambda = 0 energy carried by each column."""
        return self._origin[self.labels]

    def advance(self, pairs):
        """Step the labeled basis through pairs, Eigenpairs of self.solver, in order.

        The steps go in stacks, and a step that rotates a level ends its
        stack, so the next one starts from the rotated columns.  Returns the
        labels after every step, one row per lambda of pairs, and
        {step index: per-group columns} of every step that rotated a level.
        """
        labels, rotations, start = [], {}, 0
        while start < pairs.lambdas.size:
            taken, rows, columns = self._steps(pairs, start)
            labels.append(rows)
            start += taken
            if columns is not None:
                rotations[start - 1] = columns
        return np.concatenate(labels), rotations

    def _steps(self, pairs, start):
        """Steps start: of a chunk, up to and including the first that rotates a level.

        Every overlap is taken with the previous step's fresh columns, which
        are that step's columns unless it rotated.  Returns the number of
        steps taken, the labels after each and the rotated columns of the
        last one (None when no step rotated).
        """
        solver = self.solver
        values = pairs.values[start:]
        fresh = [u[start:] for u in pairs.vectors]
        steps, d = values.shape
        new_level = solver.level_starts(values)
        source = np.empty((steps, d), dtype=np.intp)
        groups = []
        for lo, hi, u, old in zip(solver.group_edges, solver.group_edges[1:], fresh, self.vectors):
            m = u.shape[-1]
            overlap = adjoint(u) @ np.concatenate((old[None], u[:-1]))
            # every level of every step, with each step's rows one after another
            first = np.flatnonzero(new_level[:, lo:hi])
            mass = np.add.reduceat((overlap * overlap.conj()).real.reshape(-1, m), first, axis=0)
            order = np.argsort(-mass, axis=1, kind="stable")
            level = np.cumsum(new_level[:, lo:hi].reshape(-1)) - 1
            # fresh column i takes the label of the old column of its block
            # ranked (i - level start) in its level's projector masses
            taken = order[level, np.arange(level.size) - first[level]]
            block_start = lo + np.arange(hi - lo) // m * m
            source[:, lo:hi] = block_start + taken.reshape(steps, hi - lo)
            groups.append((overlap, first, mass, order, taken))

        labels = np.empty((steps + 1, d), dtype=self.labels.dtype)
        labels[0] = self.labels
        for t in range(steps):
            labels[t + 1] = labels[t][source[t]]

        # lost: a label went to two levels; ambiguous: a level's g-th and
        # (g+1)-th masses tie between labels of different origin energy
        lost = np.any(np.sort(labels[1:], axis=1) != np.sort(labels[:-1], axis=1), axis=1)
        n_ambiguous = np.zeros(steps, dtype=int)
        rotating, mixed_levels = steps, []
        for lo, hi, counts, (overlap, first, mass, order, taken) in zip(
            solver.group_edges, solver.group_edges[1:], solver.group_multiplicity, groups
        ):
            m, width = overlap.shape[-1], hi - lo
            step = first // width
            size = np.diff(np.append(first, steps * width))
            block_start = lo + first % width // m * m
            part = np.flatnonzero(size < m)
            last, after = order[part, size[part] - 1], order[part, size[part]]
            tied = mass[part, last] - mass[part, after] < AMBIGUITY_TOL
            before = step[part]
            differ = (labels[before, block_start[part] + last]
                      != labels[before, block_start[part] + after])
            hit = part[tied & differ]
            n_ambiguous += np.bincount(
                step[hit], weights=counts[first[hit] % width // m], minlength=steps
            ).astype(int)
            lab = labels[1:, lo:hi].reshape(-1)
            mixed = np.minimum.reduceat(lab, first) != np.maximum.reduceat(lab, first)
            if mixed.any():
                rotating = min(rotating, int(step[mixed].min()))
            mixed_levels.append((width, mixed, step, size))

        taken_steps = min(rotating + 1, steps)
        for t in np.flatnonzero(n_ambiguous[:taken_steps]):
            self.ambiguous_steps.append((float(pairs.lambdas[start + t]), int(n_ambiguous[t])))
        self.lost_steps.extend(pairs.lambdas[start + np.flatnonzero(lost[:taken_steps])].tolist())
        last_step = taken_steps - 1
        columns = [u[last_step] for u in fresh]
        rotated = None
        if rotating < steps:
            columns = [u.copy() for u in columns]
            for cols, (overlap, first, _, _, taken), (width, mixed, step, size) in zip(
                columns, groups, mixed_levels
            ):
                m = overlap.shape[-1]
                for lev in np.flatnonzero(mixed & (step == last_step)):
                    row = first[lev] % width
                    block, inside = divmod(row, m)
                    level = slice(inside, inside + size[lev])
                    chosen = taken[first[lev] : first[lev] + size[lev]]
                    # polar factor of the level's overlaps: the orthonormal
                    # basis of the level closest to the projected old columns
                    u, _, vh = np.linalg.svd(overlap[last_step, block][level][:, chosen])
                    cols[block][:, level] = cols[block][:, level] @ (u @ vh)
            rotated = columns
        self.vectors = columns
        self.labels = labels[taken_steps].copy()
        return taken_steps, labels[1 : taken_steps + 1], rotated


def _sigma(solver, vectors, weights):
    """Per-group quasi-Gibbs blocks sum_j w_j |u_j><u_j| (no validation).

    vectors holds one (..., g, m, m) stack of columns per group and weights
    the (..., d) column weights in block order.
    """
    return [(u * w[..., None, :]) @ adjoint(u) for u, w in zip(vectors, solver.split(weights))]


class _March(NamedTuple):
    """One march of a QuasiGibbsSweep: the per-record column labels
    (records, d), the rotated columns {record: per-group columns} of the
    records whose step rotated a level, and its ambiguous and lost steps."""

    labels: np.ndarray
    rotated: dict
    ambiguous_steps: list
    lost_steps: list


class QuasiGibbsSweep:
    """Quasi-Gibbs targets at a grid of records from one converged continuation.

    The targets keep the Boltzmann weights of H0 at inverse temperature beta
    on the continued eigenbasis of H0 + lambda V, given as blocks counted
    by multiplicity (see BlockEigensolver), at each lambda of the grid
    lambdas, which must be finite and start at 0; they are per-block stacks
    in the blocks' basis.
    The march follows the records in the order given, so the grid need not
    ascend.  One EigenbasisContinuation is started per sweep, and every
    march restarts from its labeled lambda = 0 basis and advances over the
    solver's chunks of its path.  sigma at a record is
    sum_level w P_level(lambda_k), built from the continuation's
    eigendecomposition at lambda_k, so the step count only decides whether
    the labels are resolved.  Starting at one step per record interval, the
    count is doubled until sigma at every record is stable to
    CONTINUATION_STABILITY_TOL in HS norm, every block counted by its
    multiplicity, and the march lost no label (lost_steps of
    EigenbasisContinuation), so every target's weights are the Gibbs
    weights in some order.  Where the coarser march rotated no level at a
    record, that change is exactly sqrt(sum multiplicity dw^2) of the change
    dw in column weights.  The first round marches 1 and 2 steps per interval in
    one pass of the solver over the 2-step path, whose every second lambda
    is a record, so each of its lambdas is solved once for both marches;
    each later round marches 2p steps and compares with the previous
    round's march of p steps.

    The accepted march keeps the column labels at each record, which give
    the column weights, and its columns only where that step rotated a
    level; elsewhere they are the fresh eigenvectors of solver, the sweep's
    BlockEigensolver.  records() rebuilds every target from these and one
    pass of solver over the records, bit for bit the sigma the march
    checked, and never advances the continuation.

    Only the accepted march counts: its ambiguous steps are kept on
    ambiguous_steps and raise one ContinuationWarning, while a coarser march
    that the doubling rejected is discarded together with its ties.
    Every target has the purity sum multiplicity w^2 of the weights
    (purity), whose Z counts every block by its multiplicity too.
    """

    def __init__(self, blocks, lambdas, beta, multiplicity=None):
        lambdas = np.asarray(lambdas, dtype=float)
        if lambdas.size == 0 or lambdas[0] != 0 or not np.isfinite(lambdas).all():
            raise ValueError(f"record lambdas must be finite and start at 0, got {lambdas}")
        self.lambdas = lambdas
        self._cont = EigenbasisContinuation(blocks, multiplicity)
        self.solver = self._cont.solver
        counts = self.solver.multiplicity
        self.weights = boltzmann_weights(self._cont._origin, beta, counts)
        self.purity = float(np.sum(counts * self.weights**2))
        # the first round marches 1 and 2 steps per interval in one pass
        per_interval, coarse = 2, None
        for _ in range(1, _MAX_SWEEP_DOUBLINGS):
            coarse, march, change = self._march(per_interval, coarse)
            if change <= CONTINUATION_STABILITY_TOL and not march.lost_steps:
                break
            coarse = march
            per_interval *= 2
        else:
            raise RuntimeError(
                "eigenbasis continuation did not stabilize to "
                f"{CONTINUATION_STABILITY_TOL} at every record"
            )
        self.per_interval = per_interval
        self._labels, self._rotated, self.ambiguous_steps, _ = march
        if self.ambiguous_steps:
            lam, count = self.ambiguous_steps[0]
            warnings.warn(
                f"{count} ambiguous level match(es) at lambda={lam:.6g}; resolved by the "
                f"larger projector mass ({len(self.ambiguous_steps)} ambiguous step(s) "
                "recorded on ambiguous_steps)",
                ContinuationWarning,
                stacklevel=2,
            )

    def _march(self, per_interval, coarse):
        """March per_interval steps to each record and compare with a coarser march.

        coarse is the previous round's _March.  Without one (the first
        round) a second march state, a restarted shallow copy of the
        continuation, steps once per interval alongside: its steps are this
        path's record points, so each chunk's eigenpairs serve both marches
        and every lambda is solved once.  Returns the coarse march, this
        march and the largest HS change of sigma between them at a record.

        The labels are 4-byte integers, so the two marches compared hold
        together as many bytes as one records x d array of weights.

        The march's whole lambda path is known before it starts, so every
        eigenpair comes from one pass of the solver over it, and no
        eigenpairs are kept beyond their chunk.
        """
        cont, solver, w = self._cont, self.solver, self.weights
        cont.restart()
        # per_interval steps to each record, the last one ending on it exactly
        a, b = self.lambdas[:-1, None], self.lambdas[1:, None]
        path = a + (b - a) * np.arange(1, per_interval + 1) / per_interval
        path[:, -1] = self.lambdas[1:]
        record_labels = np.empty((self.lambdas.size, solver.dim), dtype=np.int32)
        record_labels[0] = cont.labels
        alongside = None
        if coarse is None:
            alongside = copy.copy(cont)
            alongside.restart()
            coarse = _March(
                np.empty_like(record_labels), {}, alongside.ambiguous_steps, alongside.lost_steps
            )
            coarse.labels[0] = alongside.labels
        # the HS change of sigma at the records where the coarse march rotated a level
        rotated, changes, done = {}, {}, 0
        for pairs in solver.eigenpairs(path):
            # the steps of this chunk that end a record interval
            ends = np.arange((per_interval - 1 - done) % per_interval, pairs.lambdas.size,
                             per_interval)
            records = ((done + ends + 1) // per_interval).tolist()
            done += pairs.lambdas.size
            if alongside is not None and ends.size:
                at_records = Eigenpairs(
                    pairs.lambdas[ends], pairs.values[ends], [u[ends] for u in pairs.vectors]
                )
                labels, rotations = alongside.advance(at_records)
                coarse.labels[records] = labels
                for i, columns in rotations.items():
                    coarse.rotated[records[i]] = columns
            labels, rotations = cont.advance(pairs)
            record_labels[records] = labels[ends]
            for t, k in zip(ends.tolist(), records):
                if t in rotations:
                    rotated[k] = rotations[t]
                if k in coarse.rotated:
                    columns = rotations[t] if t in rotations else [u[t] for u in pairs.vectors]
                    diff = [
                        x - y
                        for x, y in zip(
                            _sigma(solver, columns, w[record_labels[k]]),
                            _sigma(solver, coarse.rotated[k], w[coarse.labels[k]]),
                        )
                    ]
                    changes[k] = math.sqrt(solver.inner(diff, diff))
        # the coarse levels carried one weight each where that march rotated
        # none, so its sigma is diagonal in any basis of them, this march's included;
        # the weights are gathered in stack_slices row chunks, never as a
        # whole records x d array
        delta = np.empty(self.lambdas.size)
        for at in stack_slices(delta.size, w.nbytes):
            dw = w[record_labels[at]] - w[coarse.labels[at]]
            delta[at] = np.sqrt(np.sum(dw * dw * solver.multiplicity, axis=1))
        for k, change in changes.items():
            delta[k] = change
        march = _March(record_labels, rotated, cont.ambiguous_steps, cont.lost_steps)
        return coarse, march, float(delta.max())

    def records(self):
        """Yield the quasi-Gibbs targets at the records, in order, a chunk at a time.

        Each chunk is a list of one (c, g, m, m) stack per solver group for
        the next c records.
        """
        done = 0
        for pairs in self.solver.eigenpairs(self.lambdas):
            c = pairs.lambdas.size
            for k, columns in self._rotated.items():
                if done <= k < done + c:
                    for u, cols in zip(pairs.vectors, columns):
                        u[k - done] = cols
            yield _sigma(self.solver, pairs.vectors, self.weights[self._labels[done : done + c]])
            done += c


def _require_path(beta, lams) -> list[float]:
    """The lambdas as floats, after checking beta and every lambda."""
    require_beta(beta)
    lams = [float(lam) for lam in lams]
    for lam in lams:
        require_finite("lambda", lam)
    return lams


def _endpoints(model: SpinChainModel, beta, lams):
    """The sector basis, the solver of one sweep over [0, *lams], its
    records as one (records, g, m, m) stack per group, and their purity.

    The caller checks beta and lams (_require_path); symmetry_sectors
    checks its own guard before it allocates.  The sweep marches the
    lambdas in the order given, on the blocks of SymmetrySectors counted by
    their multiplicity.
    """
    sectors = symmetry_sectors(model)
    sweep = QuasiGibbsSweep(sectors.blocks, np.array([0.0, *lams]), beta, sectors.multiplicity)
    records = [np.concatenate(stacks) for stacks in zip(*sweep.records())]
    return sectors.basis, sweep.solver, records, sweep.purity


def quasi_gibbs_states(model: SpinChainModel, beta, lams):
    """Quasi-Gibbs states at every lambda of lams, from one sweep.

    beta and every lambda are checked first, then the dense route's guard
    (require_dense_fits: each state is a d x d matrix); then
    symmetry_sectors is built once and one QuasiGibbsSweep runs over
    [0, *lams] on its blocks, marched in the order given.  Returns an iterator that assembles each
    state in the computational basis (solver.dense, whose copies of a block
    are the sector basis's twin columns) as it is reached.  A record's sigma
    depends only on the eigendecomposition at its lambda and on the labels
    there, so each state equals the quasi_gibbs_at call at its lambda bit
    for bit unless the march rotates a level there: a level crossing
    exactly at that lambda is rotated onto the previous step's columns,
    which differ between the two paths by rounding.
    """
    lams = _require_path(beta, lams)
    require_dense_fits(model)
    basis, solver, records, _ = _endpoints(model, beta, lams)
    return (
        DensityMatrix(mat=basis @ solver.dense([stack[k] for stack in records]) @ basis.T)
        for k in range(1, records[0].shape[0])
    )


def quasi_gibbs_at(model: SpinChainModel, beta, lam) -> DensityMatrix:
    """Quasi-Gibbs state at lambda: initial Boltzmann weights on the continued basis.

    quasi_gibbs_states at the one lambda: the last record of a two-record
    QuasiGibbsSweep over [0, lambda] on the symmetry sectors, assembled
    once in the computational basis; negative lambda is allowed (symmetric
    finite differences of the overlap use it).  Its purity equals the
    initial Gibbs purity because the weights never change along the
    continuation.
    """
    [state] = quasi_gibbs_states(model, beta, (lam,))
    return state


def _require_state(solver, stacks):
    """Raise ValueError unless per-group (g, m, m) stacks, each block counted
    by its multiplicity, are a density matrix.

    The checks of operators.DensityMatrix on the matrix solver.dense(stacks),
    from the blocks alone: the largest Hermiticity defect of a block, the
    trace and the purity (sum multiplicity x lambda^2) counted by
    multiplicity, and the smallest eigenvalue of a block.
    """
    defect = max(hermiticity_defect(x) for x in stacks)
    trace = solver.total([np.trace(x, axis1=-2, axis2=-1) for x in stacks])
    evals = [np.linalg.eigvalsh(x) for x in stacks]
    purity = float(solver.total([np.sum(e * e, axis=-1) for e in evals]))
    require_density(defect, complex(trace), min(e.min() for e in evals), purity)


def thermal_overlap(model: SpinChainModel, beta, lam) -> float:
    """Hilbert-Schmidt fidelity C between Gibbs(beta) and the quasi-Gibbs target.

    Both come from one two-record sweep on the symmetry sectors, as in
    evolve: its lambda = 0 record is the Gibbs state.  A reflection twin
    holds an orthogonal copy of its partner's blocks of both states, so
    every trace is the partner's, counted twice.  Both are validated block
    by block with the checks of DensityMatrix (_require_state).  C is
    hs_fidelity_from_overlap of their solver.inner with the sweep's purity
    for both, as in evolve, so it equals evolve(...).thermal_overlap[k] at
    lam = trace.lambdas[k] exactly.  It forms no d x d matrix, so
    symmetry_sectors' guard is the only memory guard it checks.
    """
    _, solver, records, purity = _endpoints(model, beta, _require_path(beta, (lam,)))
    rho0, sigma = [stack[0] for stack in records], [stack[1] for stack in records]
    _require_state(solver, rho0)
    _require_state(solver, sigma)
    return float(hs_fidelity_from_overlap(solver.inner(sigma, rho0), purity, purity))
