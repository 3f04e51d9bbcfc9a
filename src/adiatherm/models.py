"""Driven spin-1/2 chain models with periodic boundary conditions.

Three drives share the classical Ising part H0 = -J sum_j Z_j Z_{j+1}
(plus +B sum_j Z_j for the mixed-field chain):

* ``tfic``  transverse-field Ising chain,   V = -J sum_j X_j
* ``qxyc``  quantum XY chain,               V = -J sum_j (X_j X_{j+1} - Z_j Z_{j+1})
* ``mfic``  mixed-field Ising chain,        V = -J sum_j X_j

and the driven Hamiltonian is H_lambda = H0 + lambda * V.  build_h0 and
build_v give the dense matrices of the operator-level oracle;
symmetry_sectors gives H0 and V block by block in a real symmetry-adapted
basis of the ring (Sandvik, AIP Conf. Proc. 1297, 135 (2010)), as one
block list with a multiplicity per block, which the dynamics route, the
quasi-Gibbs states and the spectrum command all diagonalize: a reflection
twin has no block and counts through its partner.  V has one
construction, _apply_v from flip_terms: build_v applies it to the
identity and symmetry_sectors to each block's columns.
"""

from __future__ import annotations

import functools
import math
import operator
import os
from dataclasses import dataclass

import numpy as np

from .operators import HermitianOperator

KINDS = ("tfic", "qxyc", "mfic")

# d x d matrices, counted at complex size, budgeted for the routes that form
# a dense operator (build_h0, build_v, quasi_gibbs_states and quasi_gibbs_at,
# and eigh and dense_sums on their results): the operator, its eigenvectors, and
# products and validation temporaries.  A budget, not a measured peak.
_DENSE_MATRICES = 14
# Real d x d arrays symmetry_sectors holds at its peak: the basis, plus one
# block's _apply_v output, gathered columns and their scaled copy (d x m_b
# each, m_b <= 1.5 d / N), plus the blocks (sum m_b^2 <= 1.25 d^2 / N), so
# 1 + 5.75 / N arrays.  tracemalloc reads 1.76-1.84 of them at N = 8 and
# 1.30-1.39 at N = 10 (tfic, qxyc, mfic at B = 0.7).
_SECTOR_ARRAYS = 2
# Arrays of n_records x 2^N 8-byte values evolve holds at once: the column
# labels of the two marches QuasiGibbsSweep compares, 4-byte integers that
# take one such array together (their weights are gathered in row chunks),
# and one more for evolve's per-record columns, the stack temporaries and
# the march's lambda path (one float64 array of per_interval values a
# record).  The sector blocks hold no reflection twin, so evolve's labels
# and columns span fewer than 2^N entries: tracemalloc reads 1.35 of them
# for evolve(tfic, N=6, 5000 records).
_RECORD_ARRAYS = 2
# Arrays of 2^N 8-byte values flip_sums_sweep holds at once: classical_energies'
# bit counts and temporaries, then the energies, their level indices and one
# flip orbit's level codes with a temporary.  The beta loop holds arrays over
# the H0 levels and level-pair classes only, in chunks of _STACK_BYTES.
# tracemalloc reads 4.0 of them (tfic, qxyc) and 5.1 (mfic at B = 0.7) at
# N = 16, and 8.3 at N = 12 with 1000 betas, whose records hold the rest.
_FLIP_ARRAYS = 12
# Bytes one stack of every stacked loop holds (eigh, CFM4 and flip-sum
# chunks, the march's weight rows); stack_slices is its only reader.
_STACK_BYTES = 1 << 17


@dataclass(frozen=True)
class SpinChainModel:
    """Model selector: kind in {'tfic', 'qxyc', 'mfic'}, ring size, couplings.

    J and, when given, B must be finite.  B is the longitudinal field of the
    mixed-field chain and is ignored for the other two kinds.  The
    B not-in {0, +-2J} restriction is enforced only at the closed-form
    boundary, where those values make transfer-matrix denominators vanish;
    exact diagonalization itself is fine at any finite B.
    """

    kind: str
    n_sites: int
    J: float = 1.0
    B: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "kind", str(self.kind).lower())
        if self.kind not in KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        object.__setattr__(self, "n_sites", require_ring(self.n_sites, self.J, self.B))
        if self.kind == "mfic":
            if self.B is None:
                raise ValueError("mfic requires a longitudinal field B")
        elif self.B is not None:
            object.__setattr__(self, "B", None)

    @property
    def dim(self):
        return 2**self.n_sites


def require_finite(name, value):
    """Raise ValueError when an input parameter is NaN or infinite.

    Shared by the API entry points, so the CLI reports such input as an
    ordinary ``error:`` line instead of writing NaN rows.
    """
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def require_couplings(J, B=None):
    """Raise ValueError unless J is finite and positive and B, when given, is finite."""
    require_finite("J", J)
    if not J > 0:
        raise ValueError("coupling J must be positive")
    if B is not None:
        require_finite("B", B)


def require_ring(n_sites, J, B=None, min_sites=2) -> int:
    """The ring size as an int, after the checks of SpinChainModel.

    n_sites must be an integer >= min_sites, and the couplings pass
    require_couplings.  The closed forms call it with min_sites = 3.
    """
    try:
        n_sites = operator.index(n_sites)
    except TypeError:
        raise ValueError(f"n_sites must be an integer, got {n_sites!r}") from None
    if n_sites < min_sites:
        raise ValueError(f"n_sites must be >= {min_sites}")
    require_couplings(J, B)
    return n_sites


def require_beta(beta, positive=False):
    """Raise ValueError unless beta is finite and >= 0, or > 0 when positive.

    positive marks a quantity such as the temperature factor, which is
    undefined at infinite temperature.
    """
    require_finite("beta", beta)
    if beta < 0:
        raise ValueError("beta must be >= 0")
    if positive and beta == 0:
        raise ValueError("beta must be > 0 (factor undefined at infinite temperature)")


def require_alpha(alpha):
    """Raise ValueError unless the threshold prefactor alpha is finite and positive."""
    require_finite("alpha", alpha)
    if alpha <= 0:
        raise ValueError("alpha must be positive")


def _bond_products(n_sites):
    """s_j s_{j+1} over the computational basis for each ring bond j = 1..N, in order."""
    idx = np.arange(2**n_sites, dtype=np.int64)
    for site in range(n_sites):
        differ = (idx >> (n_sites - 1 - site)) ^ (idx >> (n_sites - 1 - (site + 1) % n_sites))
        yield 1 - 2 * (differ & 1)


def classical_energies(model: SpinChainModel) -> np.ndarray:
    """Diagonal of H0 in the computational Z-product basis, from two bit counts.

    Basis index bit k (from the most significant bit) is site k+1, the
    tensor order of a Pauli string with site 1 leftmost, and s = 1 - 2 * bit,
    so sum_j s_j s_{j+1} = N - 2 popcount(s ^ T s) and sum_j s_j = N - 2 popcount(s).

    Refuses, before allocating, an N whose flip route (flip_sums_sweep, with
    _FLIP_ARRAYS arrays of 2^N values) would not fit in physical memory.
    """
    _require_memory(
        model,
        "flip route",
        _FLIP_ARRAYS * 8 * model.dim,
        f"{_FLIP_ARRAYS} arrays of {model.dim} 8-byte values",
    )
    n = model.n_sites
    idx = np.arange(model.dim, dtype=np.int64)
    # the counts are uint8: as int64, n - 2 * count cannot wrap
    bonds = n - 2 * np.bitwise_count(idx ^ _translate(idx, n)).astype(np.int64)
    energies = -model.J * bonds.astype(float)
    if model.kind == "mfic":
        energies = energies + model.B * (n - 2 * np.bitwise_count(idx).astype(np.int64))
    return energies


def flip_terms(model: SpinChainModel) -> tuple[tuple[int, float], ...]:
    """Off-diagonal part of V in the computational basis as (XOR mask, amplitude).

    <s ^ mask| V |s> = amplitude for every basis index s, and V has no other
    off-diagonal entries.  tfic and mfic flip one site per term, qxyc an
    adjacent pair; terms that flip the same bits are merged by summing their
    amplitudes (the N = 2 ring, whose two bonds both flip sites 1 and 2).
    qxyc's diagonal ZZ part is not included.
    """
    n = model.n_sites
    bit = [1 << (n - 1 - site) for site in range(n)]
    amplitudes = {}
    for site in range(n):
        mask = bit[site] if model.kind != "qxyc" else bit[site] | bit[(site + 1) % n]
        amplitudes[mask] = amplitudes.get(mask, 0.0) - model.J
    return tuple(amplitudes.items())


def _flip_orbits(model: SpinChainModel) -> tuple[tuple[int, float], ...]:
    """flip_terms grouped into translation orbits, as (representative, weight).

    The representative is the orbit's smallest rotation of a mask and the
    weight the sum of amplitude^2 over the orbit's masks, in flip_terms
    order.  classical_energies is bitwise invariant under T, so s -> T s
    carries the pairs (s, s ^ mask) onto (T s, T s ^ T mask) at equal
    energies: every pair sum of a mask is its representative's.  Every
    kind's masks are the translates of one mask for every N >= 2 (one site,
    or one bond; qxyc's two bonds at N = 2 merge into 0b11), so there is one
    orbit: the smallest mask, and at N = 2 tfic's weight is 2 J^2 and
    qxyc's 4 J^2.
    """
    terms = flip_terms(model)
    weight = functools.reduce(operator.add, (amplitude * amplitude for _, amplitude in terms), 0.0)
    return ((min(mask for mask, _ in terms), weight),)


def _require_memory(model: SpinChainModel, route, needed, arrays):
    """Raise ValueError when needed bytes (held as arrays) exceed physical memory."""
    available = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if needed > available:
        raise ValueError(
            f"N={model.n_sites} is too large for the {route}: it needs about "
            f"{needed / 1e9:.3g} GB ({arrays}), more than the "
            f"{available / 1e9:.3g} GB of physical memory"
        )


def stack_slices(count, item_bytes):
    """Yield consecutive slices of range(count), each of at most _STACK_BYTES
    at item_bytes an item, or of one item where one is more (never a list)."""
    step = max(1, _STACK_BYTES // item_bytes)
    for start in range(0, count, step):
        yield slice(start, min(start + step, count))


def require_dense_fits(model: SpinChainModel):
    """Raise ValueError when the dense route would not fit in physical memory.

    The estimate is _DENSE_MATRICES 2^N x 2^N matrices at complex size; it
    is checked before anything is allocated.
    """
    _require_memory(
        model,
        "dense route",
        _DENSE_MATRICES * 16 * 4**model.n_sites,
        f"{_DENSE_MATRICES} complex {model.dim}x{model.dim} matrices",
    )


def require_sectors_fit(model: SpinChainModel, n_records=0):
    """Raise ValueError when symmetry_sectors, and n_records records of
    evolve on its blocks, would not fit in physical memory.

    The estimate is _SECTOR_ARRAYS real 2^N x 2^N arrays plus
    _RECORD_ARRAYS arrays of n_records x 2^N 8-byte values; it is checked
    before anything is allocated.
    """
    route, arrays = "sector route", f"{_SECTOR_ARRAYS} real {model.dim}x{model.dim} arrays"
    if n_records:
        route += f" with {n_records} records"
        arrays += f" and {_RECORD_ARRAYS} arrays of {n_records}x{model.dim} 8-byte values"
    needed = (_SECTOR_ARRAYS * model.dim + _RECORD_ARRAYS * n_records) * 8 * model.dim
    _require_memory(model, route, needed, arrays)


def build_h0(model: SpinChainModel) -> HermitianOperator:
    """Initial Hamiltonian, diagonal in the computational basis (exactly)."""
    require_dense_fits(model)
    return HermitianOperator(n_sites=model.n_sites, mat=np.diag(classical_energies(model)))


def build_v(model: SpinChainModel) -> HermitianOperator:
    """Driving term; Hermitian and traceless for all three kinds.

    _apply_v applied to the identity, so the dense V and the sector
    blocks share one construction.
    """
    require_dense_fits(model)
    return HermitianOperator(n_sites=model.n_sites, mat=_apply_v(model, np.eye(model.dim)))


@dataclass(frozen=True)
class SymmetrySectors:
    """H0 and V block by block, in a real orthonormal symmetry-adapted basis.

    The ring's symmetries are translation T, reflection P (site j -> N + 1 - j)
    and, for tfic and qxyc, the global flip prod X; mfic's B sum Z breaks
    prod X.  Block b holds the states of labels[b] = (m, p, x): momentum
    k = 2 pi m / N, m = 0..N//2, with +-k paired into real cos/sin
    combinations, reflection parity p = +-1 and prod X parity x = +-1 (None
    for mfic).  blocks[b] = (h0_b, v_b) are H0 and V on block b, in order of
    block size (label order among blocks of one size).  Every column lies in
    one symmetry orbit, whose states share one classical energy, so each
    h0_b is exactly diagonal; H0 and V commute with every symmetry, so they
    have no entry between blocks.

    At 0 < k < pi (0 < 2m < N) the sector (m, -1, x) is a twin of its
    partner (m, +1, x): J = (T - T^-1) / (2 sin k) is a real orthogonal map
    of the +-k space that commutes with H0, V and prod X and anticommutes
    with P, so it carries the partner's states onto the twin's at every
    lambda.  A twin has no label or block: multiplicity[b] is 2 for its
    partner and 1 for any other block.  basis is the d x d orthogonal matrix
    of the sector states, block by block, a twin's columns (J times its
    partner's) right after its partner's.
    """

    labels: tuple
    basis: np.ndarray
    blocks: tuple
    multiplicity: tuple

    @property
    def sizes(self):
        return tuple(h0.shape[0] for h0, _ in self.blocks)


def _translate(idx, n_sites):
    """T on basis indices: |s_1 ... s_N> -> |s_N s_1 ... s_{N-1}>."""
    return (idx >> 1) | ((idx & 1) << (n_sites - 1))


def _reflect(idx, n_sites):
    """P on basis indices: the bits in reverse order."""
    out = np.zeros_like(idx)
    for site in range(n_sites):
        out |= ((idx >> site) & 1) << (n_sites - 1 - site)
    return out


def _momentum_coefficients(n_sites):
    """Row m: the coefficient of T^j, j = 0..N-1, in the real projector
    (c_m / N) sum_j cos(2 pi m j / N) T^j onto momenta +-2 pi m / N, halved
    for the reflection projector (1 +- P) / 2.  c_m = 1 at k = 0, pi and 2
    otherwise.

    cos is taken at min(mj mod N, N - (mj mod N)), so T^j and T^-j get
    bitwise equal coefficients.
    """
    m = np.arange(n_sites // 2 + 1)[:, None]
    phase = (m * np.arange(n_sites)) % n_sites
    phase = np.minimum(phase, n_sites - phase)
    paired = np.where((m == 0) | (2 * m == n_sites), 1.0, 2.0)
    return paired * np.cos(2.0 * np.pi * phase / n_sites) / (2.0 * n_sites)


def _apply_v(model: SpinChainModel, columns) -> np.ndarray:
    """V times a d x m array of columns, from flip_terms and qxyc's diagonal +J sum Z_j Z_{j+1}."""
    idx = np.arange(model.dim)
    out = np.zeros_like(columns)
    for mask, amplitude in flip_terms(model):
        out += amplitude * columns[idx ^ mask]
    if model.kind == "qxyc":
        # bond by bond, the order of the Pauli-string sum: J * sum(bonds)
        # rounds differently, e.g. at J = 0.7
        diagonal = np.zeros(model.dim)
        for bond in _bond_products(model.n_sites):
            diagonal += model.J * bond
        out += diagonal[:, None] * columns
    return out


def symmetry_sectors(model: SpinChainModel) -> SymmetrySectors:
    """The symmetry sectors of the ring, built from classical_energies and flip_terms.

    Per orbit of the symmetry group, the real projector of every label but
    a twin is built on the orbit's states and diagonalized in one stacked
    eigh; its eigenvectors of eigenvalue 1 are the orbit's states of that
    label, and J_orbit = (T - T^(N-1)) / (2 sin k) carries them onto the
    twin's.  At N = 2 and 3 some labels are empty, because T and P partly coincide.
    Refuses, before allocating, an N whose sectors would not fit in
    physical memory (require_sectors_fit).
    """
    require_sectors_fit(model)
    n, d = model.n_sites, model.dim
    energies = classical_energies(model)
    idx = np.arange(d, dtype=np.int64)
    shifts = [idx]
    for _ in range(n - 1):
        shifts.append(_translate(shifts[-1], n))
    translated = np.array(shifts)  # T^j s, row j
    orbit_images = np.stack([translated, translated[:, _reflect(idx, n)]])  # T^j s, T^j P s
    images = orbit_images.reshape(2 * n, d)
    flips = model.kind != "mfic"  # B sum Z breaks prod X
    if flips:
        images = np.concatenate([images, images ^ (d - 1)])
    coefficients = _momentum_coefficients(n)
    # in the order of the stacked projectors below: m, then p, then x
    labels = [(m, p, x) for m in range(n // 2 + 1) for p in (1, -1)
              for x in ((1, -1) if flips else (None,))]
    formed = np.array([p == 1 or not 0 < 2 * m < n for m, p, _ in labels])  # not a twin
    labels = [label for label, keep in zip(labels, formed) if keep]
    columns = {label: [] for label in labels}

    representatives = images.min(axis=0)
    order = np.argsort(representatives, kind="stable")
    # each orbit's states in ascending order, as searchsorted needs
    for states in np.split(order, np.flatnonzero(np.diff(representatives[order])) + 1):
        size = states.size
        perms = np.zeros((2, n, size, size))  # T^j and T^j P on the orbit
        images_on_orbit = np.searchsorted(states, orbit_images[:, :, states])
        perms[0, np.arange(n)[:, None], images_on_orbit[0], np.arange(size)] = 1.0
        perms[1, np.arange(n)[:, None], images_on_orbit[1], np.arange(size)] = 1.0
        halves = (coefficients @ perms.reshape(2, n, -1)).reshape(2, -1, size, size)
        projectors = np.stack([halves[0] + halves[1], halves[0] - halves[1]], axis=1)
        if flips:
            flipped = projectors[..., np.searchsorted(states, states ^ (d - 1)), :]
            projectors = np.stack([projectors + flipped, projectors - flipped], axis=2) / 2.0
        evals, evecs = np.linalg.eigh(projectors.reshape(-1, size, size)[formed])
        kept = evals > 0.5
        for index in np.flatnonzero(kept.any(axis=1)):
            m, partner = labels[index][0], evecs[index][:, kept[index]]
            copies = [partner]
            if 0 < 2 * m < n:
                j_orbit = (perms[0, 1] - perms[0, n - 1]) / (2.0 * math.sin(2.0 * math.pi * m / n))
                copies.append(j_orbit @ partner)
            columns[labels[index]].append((states, copies))

    widths = {label: sum(c[0].shape[1] for _, c in columns[label]) for label in labels}
    labels = sorted((label for label in labels if widths[label]), key=widths.__getitem__)
    basis = np.zeros((d, d))
    blocks, multiplicity, start = [], [], 0
    for label in labels:
        multiplicity.append(len(columns[label][0][1]))
        # the partner's columns, then its twin's
        for twin in range(multiplicity[-1]):
            first, h0_diagonal = start, []
            for states, copies in columns[label]:
                width = copies[twin].shape[1]
                basis[states, start : start + width] = copies[twin]
                h0_diagonal += [energies[states[0]]] * width
                start += width
            if not twin:
                cols = basis[:, first:start]
                v_block = cols.T @ _apply_v(model, cols)
                blocks.append((np.diag(h0_diagonal), 0.5 * (v_block + v_block.T)))
    return SymmetrySectors(tuple(labels), basis, tuple(blocks), tuple(multiplicity))
