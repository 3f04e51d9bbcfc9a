"""Dense Hermitian-operator algebra on the 2**N spin-1/2 Hilbert space.

Every operator is a dense matrix that keeps the dtype it is built with:
the chain Hamiltonians and drives are real (models.build_h0, build_v), so
their eigendecompositions, Gibbs states and oracle sums run in real
arithmetic, while Pauli strings and evolved states are complex.  The
routes that need a matrix (evolution, continuation, the operator-level
susceptibility functions) run at desk scale (N <= 12, d <= 4096), where
full eigendecompositions stay cheap, so no sparse or iterative machinery
is used anywhere.  The threshold route builds no operator at all: it
enumerates flip pairs (susceptibility.flip_sums) and has been measured up
to N = 18.  hbar = 1 throughout and the Ising coupling J sets the energy
unit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-12
ORTHONORMALITY_TOL = 1e-12
RECONSTRUCTION_RTOL = 1e-10

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def hs_inner(a, b):
    """Hilbert-Schmidt inner product Tr(A^dag B) of two equal-shape matrices."""
    return complex(np.vdot(a, b))


def hs_norm(a):
    """Hilbert-Schmidt (Frobenius) norm of a matrix."""
    return float(np.linalg.norm(a))


def _as_square_matrix(mat):
    """Square matrix that stays complex when given complex entries, float64 otherwise."""
    arr = np.asarray(mat)
    arr = arr.astype(complex if np.iscomplexobj(arr) else float, copy=False)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    return arr


def hermiticity_defect(mat):
    """Largest entrywise deviation |A - A^dag|."""
    return float(np.abs(mat - mat.conj().T).max())


@dataclass(frozen=True)
class HermitianOperator:
    """Hermitian operator on the 2**n_sites dimensional spin Hilbert space."""

    n_sites: int
    mat: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mat", _as_square_matrix(self.mat))
        if self.n_sites < 1:
            raise ValueError("n_sites must be a positive integer")
        if self.mat.shape[0] != 2**self.n_sites:
            raise ValueError(
                f"dimension {self.mat.shape[0]} != 2**{self.n_sites}"
            )
        defect = hermiticity_defect(self.mat)
        if defect > HERMITICITY_TOL:
            raise ValueError(f"matrix is not Hermitian (defect {defect:.3e})")

    @property
    def dim(self):
        return self.mat.shape[0]


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive-semidefinite, unit-trace operator."""

    mat: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mat", _as_square_matrix(self.mat))
        defect = hermiticity_defect(self.mat)
        if defect > HERMITICITY_TOL:
            raise ValueError(f"density matrix not Hermitian (defect {defect:.3e})")
        tr = complex(np.trace(self.mat))
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace {tr} differs from 1 beyond tolerance")
        evals = np.linalg.eigvalsh(self.mat)
        if evals.min() < EIGENVALUE_FLOOR:
            raise ValueError(f"negative eigenvalue {evals.min():.3e}")
        pur = float(np.sum(evals**2))
        if not 0.0 < pur <= 1.0 + TRACE_TOL:
            raise ValueError(f"purity {pur} outside (0, 1]")

    @property
    def dim(self):
        return self.mat.shape[0]

    @property
    def purity(self):
        """Tr(rho^2)."""
        return float(np.real(hs_inner(self.mat, self.mat)))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigenvalues and orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "eigenvalues", np.asarray(self.eigenvalues, dtype=float)
        )
        object.__setattr__(
            self, "eigenvectors", _as_square_matrix(self.eigenvectors)
        )
        if np.any(np.diff(self.eigenvalues) < 0):
            raise ValueError("eigenvalues must be ascending")
        u = self.eigenvectors
        gram_defect = np.abs(u.conj().T @ u - np.eye(u.shape[0])).max()
        if gram_defect > ORTHONORMALITY_TOL:
            raise ValueError(f"eigenvectors not orthonormal (defect {gram_defect:.3e})")

    @property
    def dim(self):
        return self.eigenvectors.shape[0]


def build_pauli_string(n_sites, factors):
    """Tensor product of single-site Pauli matrices, identity elsewhere.

    ``factors`` is a list of (site, axis) pairs with 1-based site indices and
    axis in {'X', 'Y', 'Z'}.  Site 1 is the leftmost tensor factor.
    """
    if n_sites < 1:
        raise ValueError("n_sites must be positive")
    axes = {}
    for site, axis in factors:
        if not 1 <= site <= n_sites:
            raise ValueError(f"site index {site} outside [1, {n_sites}]")
        if site in axes:
            raise ValueError(f"duplicate site index {site}")
        axis = str(axis).upper()
        if axis not in ("X", "Y", "Z"):
            raise ValueError(f"unknown Pauli axis {axis!r}")
        axes[site] = axis
    out = np.array([[1.0 + 0.0j]])
    for site in range(1, n_sites + 1):
        out = np.kron(out, PAULI[axes.get(site, "I")])
    return HermitianOperator(n_sites=n_sites, mat=out)


def eigh(op: HermitianOperator) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian operator, eigenvalues ascending.

    The reconstruction ||H - U diag(E) U^dag|| is checked against
    RECONSTRUCTION_RTOL * ||H||; eigensolver failures propagate as
    numpy.linalg.LinAlgError.
    """
    evals, evecs = np.linalg.eigh(op.mat)
    dec = SpectralDecomposition(eigenvalues=evals, eigenvectors=evecs)
    rebuilt = (evecs * evals) @ evecs.conj().T
    err = hs_norm(op.mat - rebuilt)
    scale = max(hs_norm(op.mat), 1e-300)
    if err > RECONSTRUCTION_RTOL * scale:
        raise ValueError(f"eigh reconstruction error {err:.3e} too large")
    return dec


def hs_fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Hilbert-Schmidt fidelity (Tr rho sigma)^2 / (Tr rho^2 Tr sigma^2).

    Symmetric in its arguments, in [0, 1], and equal to 1 iff rho == sigma.
    """
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch {rho.dim} vs {sigma.dim}")
    return hs_fidelity_mat(rho.mat, rho.purity, sigma.mat, sigma.purity)


def hs_fidelity_mat(a, a_purity, b, b_purity) -> float:
    """(Tr a^dag b)^2 / (a_purity b_purity) clipped to [0, 1], without validation.

    The one HS fidelity formula, of hs_fidelity, evolve's F and C and
    thermal_overlap; a quasi-Gibbs state passes its exact purity sum w^2.
    """
    overlap = float(np.real(np.vdot(a, b)))
    return min(max(overlap * overlap / (a_purity * b_purity), 0.0), 1.0)


def hs_angle_mat(a, b) -> float:
    """Angle between two matrices with Tr(a^dag b) >= 0, seen as HS vectors.

    2 asin(||a/||a|| - b/||b|| || / 2) equals arccos sqrt(F[a, b]) but keeps
    full relative precision at small angles, where arccos of a fidelity
    rounded near 1 does not.
    """
    return 2.0 * math.asin(hs_norm(a / hs_norm(a) - b / hs_norm(b)) / 2.0)


def hs_angle(rho0: DensityMatrix, rho: DensityMatrix) -> float:
    """Hilbert-Schmidt angle arccos sqrt(F[rho0, rho]) in [0, pi/2]."""
    if rho0.dim != rho.dim:
        raise ValueError(f"dimension mismatch {rho0.dim} vs {rho.dim}")
    return hs_angle_mat(rho0.mat, rho.mat)


def commutator_hs_norm(a: HermitianOperator, b: HermitianOperator) -> float:
    """||[A, B]||_HS for Hermitian A, B via 2 Tr(A^2 B^2) - 2 Tr(ABAB)."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch {a.dim} vs {b.dim}")
    ab = a.mat @ b.mat
    # Tr(A^2 B^2) = Tr((AB)(AB)^dag) and Tr(ABAB) = Tr((AB)^2) for Hermitian A, B.
    t1 = float(np.real(hs_inner(ab, ab)))
    t2 = float(np.real(np.sum(ab.T * ab)))
    return math.sqrt(max(2.0 * t1 - 2.0 * t2, 0.0))


def degeneracy_tolerance(eigenvalues) -> float:
    """Spectrum-relative tolerance below which eigenvalues count as degenerate.

    The chains studied here have H0 spectra that are exact small integers
    times J (plus B), so genuine degeneracies sit far below this threshold
    while numerical splitting sits far under it.
    """
    ev = np.asarray(eigenvalues, dtype=float)
    span = float(ev.max() - ev.min()) if ev.size else 0.0
    return 1e-9 * span


def level_edges(eigenvalues):
    """Boundaries of the degenerate levels of ascending eigenvalues.

    Eigenvalues within degeneracy_tolerance share a level.  Level k covers
    indices edges[k]:edges[k + 1]; the first edge is 0 and the last is the
    number of eigenvalues.
    """
    ev = np.asarray(eigenvalues, dtype=float)
    tol = degeneracy_tolerance(ev)
    return np.concatenate(([0], np.flatnonzero(np.diff(ev) > tol) + 1, [ev.size]))
