"""Driven spin-1/2 chain models with periodic boundary conditions.

Three drives share the classical Ising part H0 = -J sum_j Z_j Z_{j+1}
(plus +B sum_j Z_j for the mixed-field chain):

* ``tfic``  transverse-field Ising chain,   V = -J sum_j X_j
* ``qxyc``  quantum XY chain,               V = -J sum_j (X_j X_{j+1} - Z_j Z_{j+1})
* ``mfic``  mixed-field Ising chain,        V = -J sum_j X_j

and the driven Hamiltonian is H_lambda = H0 + lambda * V.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .operators import HermitianOperator

KINDS = ("tfic", "qxyc", "mfic")

# d x d matrices evolve holds at once, each counted at complex size: H0, V,
# the eigenvectors of H0, rho0, the continuation's columns, the quasi-Gibbs
# target, the evolved state and the propagator with its CFM4 factor,
# eigenvectors, two real parts, product and sandwich temporaries.
_DENSE_MATRICES = 13
# Arrays of 2^N 8-byte values flip_sums holds at once: the energies, their
# shifted copy, the weights, the basis indices, the ground mask, and per
# flip mask the partners, energy and weight differences, the coupled mask
# and up to three expression temporaries.
_FLIP_ARRAYS = 12


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
        if self.n_sites < 2:
            raise ValueError("n_sites must be >= 2")
        require_finite("J", self.J)
        if not self.J > 0:
            raise ValueError("coupling J must be positive")
        if self.B is not None:
            require_finite("B", self.B)
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


def _site_bits(n_sites):
    """Bit of each site over the computational basis, one array per site, site 1 first.

    Basis index bit k (from the most significant bit) is site k+1, matching
    the tensor order of build_pauli_string; spin values are s = 1 - 2 * bit.
    """
    idx = np.arange(2**n_sites, dtype=np.int64)
    for site in range(n_sites):
        yield (idx >> (n_sites - 1 - site)) & 1


def _bond_products(n_sites):
    """s_j s_{j+1} over the computational basis for each ring bond j = 1..N, in order."""
    idx = np.arange(2**n_sites, dtype=np.int64)
    for site in range(n_sites):
        differ = (idx >> (n_sites - 1 - site)) ^ (idx >> (n_sites - 1 - (site + 1) % n_sites))
        yield 1 - 2 * (differ & 1)


def classical_energies(model: SpinChainModel) -> np.ndarray:
    """Diagonal of H0 in the computational Z-product basis (see _site_bits).

    Refuses, before allocating, an N whose flip route (flip_sums, with
    _FLIP_ARRAYS arrays of 2^N values) would not fit in physical memory.
    """
    _require_memory(
        model,
        "flip route",
        _FLIP_ARRAYS * 8 * model.dim,
        f"{_FLIP_ARRAYS} arrays of {model.dim} 8-byte values",
    )
    bonds = sum(_bond_products(model.n_sites))
    energies = -model.J * bonds.astype(float)
    if model.kind == "mfic":
        energies = energies + model.B * sum(1 - 2 * bit for bit in _site_bits(model.n_sites))
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


def _require_memory(model: SpinChainModel, route, needed, arrays):
    """Raise ValueError when needed bytes (held as arrays) exceed physical memory."""
    available = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if needed > available:
        raise ValueError(
            f"N={model.n_sites} is too large for the {route}: it needs about "
            f"{needed / 1e9:.3g} GB ({arrays}), more than the "
            f"{available / 1e9:.3g} GB of physical memory"
        )


def require_dense_fits(model: SpinChainModel):
    """Raise ValueError when the dense route would not fit in physical memory.

    The estimate is _DENSE_MATRICES 2^N x 2^N matrices at complex size, the
    most that evolve holds at once; it is checked before anything is
    allocated.
    """
    _require_memory(
        model,
        "dense route",
        _DENSE_MATRICES * 16 * 4**model.n_sites,
        f"{_DENSE_MATRICES} complex {model.dim}x{model.dim} matrices",
    )


def build_h0(model: SpinChainModel) -> HermitianOperator:
    """Initial Hamiltonian, diagonal in the computational basis (exactly)."""
    require_dense_fits(model)
    return HermitianOperator(n_sites=model.n_sites, mat=np.diag(classical_energies(model)))


def build_v(model: SpinChainModel) -> HermitianOperator:
    """Driving term; Hermitian and traceless for all three kinds.

    Scattered from flip_terms, plus the diagonal +J sum Z_j Z_{j+1} of qxyc
    accumulated bond by bond.
    """
    require_dense_fits(model)
    n = model.n_sites
    idx = np.arange(model.dim)
    total = np.zeros((model.dim, model.dim))
    for mask, amplitude in flip_terms(model):
        total[idx ^ mask, idx] = amplitude
    if model.kind == "qxyc":
        diag = np.zeros(model.dim)
        for bond in _bond_products(n):
            diag += model.J * bond
        total[idx, idx] = diag
    return HermitianOperator(n_sites=n, mat=total)


def hamiltonian_at(model: SpinChainModel, lam: float) -> HermitianOperator:
    """Interpolating Hamiltonian H0 + lambda * V."""
    require_finite("lambda", lam)
    h0 = build_h0(model)
    v = build_v(model)
    return HermitianOperator(n_sites=model.n_sites, mat=h0.mat + lam * v.mat)


def translation_operator(n_sites) -> np.ndarray:
    """Cyclic one-site shift |s_1 ... s_N> -> |s_N s_1 ... s_{N-1}>."""
    dim = 2**n_sites
    perm = np.empty(dim, dtype=np.int64)
    for idx in range(dim):
        low = idx & 1
        perm[idx] = (idx >> 1) | (low << (n_sites - 1))
    op = np.zeros((dim, dim))
    op[perm, np.arange(dim)] = 1.0
    return op
