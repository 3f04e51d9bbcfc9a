"""Dense Hermitian-operator algebra on the 2**N spin-1/2 Hilbert space.

Every operator is a dense matrix that keeps the dtype it is built with:
the chain Hamiltonians and drives are real (models.build_h0, build_v), so
their eigendecompositions, Gibbs states and oracle sums run in real
arithmetic, while evolved states are complex.  The routes that form a
d x d matrix (the operator-level susceptibility functions, quasi_gibbs_at)
run at desk scale (N <= 12, d <= 4096), where full eigendecompositions
stay cheap, so no sparse or iterative machinery is used anywhere.  The
threshold route builds no operator at all: it counts the flip pairs by
the H0 levels they join, one O(2^N) count, then O(classes) per beta
(susceptibility.flip_sums), and has been measured up to N = 20.  hbar = 1
throughout and the Ising coupling J sets the energy unit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-12
ORTHONORMALITY_TOL = 1e-12
RECONSTRUCTION_RTOL = 1e-10
_DEGENERACY_RTOL = 1e-9


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


def adjoint(a):
    """Conjugate transpose over the last two axes, a view for real arrays."""
    a = a.swapaxes(-1, -2)
    return a.conj() if np.iscomplexobj(a) else a


def hermiticity_defect(mat):
    """Largest entrywise deviation |A - A^dag|, over a stack of matrices too."""
    return float(np.abs(mat - adjoint(mat)).max())


def require_density(defect, trace, smallest, purity):
    """Raise ValueError unless a matrix with this Hermiticity defect, trace,
    smallest eigenvalue and purity is a density matrix (DensityMatrix's checks)."""
    if defect > HERMITICITY_TOL:
        raise ValueError(f"density matrix not Hermitian (defect {defect:.3e})")
    if abs(trace - 1.0) > TRACE_TOL:
        raise ValueError(f"trace {trace} differs from 1 beyond tolerance")
    if smallest < EIGENVALUE_FLOOR:
        raise ValueError(f"negative eigenvalue {smallest:.3e}")
    if not 0.0 < purity <= 1.0 + TRACE_TOL:
        raise ValueError(f"purity {purity} outside (0, 1]")


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


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive-semidefinite, unit-trace operator."""

    mat: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mat", _as_square_matrix(self.mat))
        evals = np.linalg.eigvalsh(self.mat)
        require_density(
            hermiticity_defect(self.mat),
            complex(np.trace(self.mat)),
            evals.min(),
            float(np.sum(evals**2)),
        )

    @property
    def purity(self):
        """Tr(rho^2)."""
        return float(np.real(np.vdot(self.mat, self.mat)))


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


def hs_fidelity_from_overlap(overlap, a_purity, b_purity):
    """overlap^2 / (a_purity b_purity) clipped to [0, 1], for Re Tr(a^dag b) = overlap.

    The one HS fidelity formula, of evolve's F and C and thermal_overlap,
    elementwise over arrays; a quasi-Gibbs state passes its exact purity
    sum w^2.
    """
    return np.clip(overlap * overlap / (a_purity * b_purity), 0.0, 1.0)


def hs_angle_from_distance(distance):
    """Angle between two HS vectors at distance ||a/||a|| - b/||b|| || of their unit vectors.

    2 asin(distance / 2) equals arccos sqrt(F[a, b]) for Tr(a^dag b) >= 0
    but keeps full relative precision at small angles, where arccos of a
    fidelity rounded near 1 does not.  Elementwise over arrays.
    """
    return 2.0 * np.arcsin(distance / 2.0)


def degeneracy_tolerance(eigenvalues) -> float:
    """Spectrum-relative tolerance below which eigenvalues count as degenerate.

    The chains studied here have H0 spectra that are exact small integers
    times J (plus B), so genuine degeneracies sit far below this threshold
    while numerical splitting sits far under it.
    """
    ev = np.asarray(eigenvalues, dtype=float)
    span = float(ev.max() - ev.min()) if ev.size else 0.0
    return _DEGENERACY_RTOL * span


def level_starts(eigenvalues):
    """Where the degenerate levels of ascending eigenvalues start, along the last axis.

    Eigenvalues within degeneracy_tolerance share a level.  Entry i is True
    where a level starts at index i, and a closing entry n is True, so
    np.flatnonzero of one row gives the level edges: level k covers indices
    edges[k]:edges[k + 1].  Each row of a stack has its own
    degeneracy_tolerance.
    """
    ev = np.asarray(eigenvalues, dtype=float)
    span = ev.max(axis=-1, keepdims=True) - ev.min(axis=-1, keepdims=True)
    starts = np.ones(ev.shape[:-1] + (ev.shape[-1] + 1,), dtype=bool)
    starts[..., 1:-1] = np.diff(ev, axis=-1) > _DEGENERACY_RTOL * span
    return starts
