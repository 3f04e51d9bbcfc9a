import math

import numpy as np
import pytest

from adiatherm.operators import (
    DensityMatrix,
    HermitianOperator,
    build_pauli_string,
    commutator_hs_norm,
    degeneracy_tolerance,
    eigh,
    hs_angle,
    hs_fidelity,
    hs_norm,
    level_edges,
)

import oracle


def pure_state(vec):
    vec = np.asarray(vec, dtype=complex)
    vec = vec / np.linalg.norm(vec)
    return DensityMatrix(mat=np.outer(vec, vec.conj()))


class TestPauliStrings:
    def test_single_site_z(self):
        op = build_pauli_string(1, [(1, "Z")])
        assert np.array_equal(op.mat, np.diag([1.0 + 0j, -1.0 + 0j]))

    def test_empty_product_is_identity(self):
        op = build_pauli_string(2, [])
        assert np.array_equal(op.mat, np.eye(4, dtype=complex))

    def test_two_site_xx_flips_both_spins(self):
        # hand expansion of X (x) X: antidiagonal ones
        op = build_pauli_string(2, [(1, "X"), (2, "X")])
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 3] = expected[1, 2] = expected[2, 1] = expected[3, 0] = 1.0
        assert np.array_equal(op.mat, expected)

    def test_entries_from_unit_circle(self):
        op = build_pauli_string(3, [(1, "X"), (2, "Y"), (3, "Z")])
        allowed = {0, 1, -1, 1j, -1j}
        assert {complex(x) for x in op.mat.ravel()} <= allowed

    def test_matches_kron_oracle(self):
        op = build_pauli_string(3, [(2, "Y")])
        assert np.allclose(op.mat, oracle.site_op(oracle.SY, 2, 3))

    def test_duplicate_site_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            build_pauli_string(3, [(1, "X"), (1, "Z")])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            build_pauli_string(2, [(3, "X")])


class TestDomainTypes:
    def test_hermitian_operator_rejects_non_hermitian(self):
        mat = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="Hermitian"):
            HermitianOperator(n_sites=1, mat=mat)

    def test_hermitian_operator_rejects_bad_dim(self):
        with pytest.raises(ValueError, match="dimension"):
            HermitianOperator(n_sites=2, mat=np.eye(3))

    def test_density_matrix_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(mat=np.eye(2))

    def test_density_matrix_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="negative"):
            DensityMatrix(mat=np.diag([1.5, -0.5]))

    def test_purity_of_maximally_mixed(self):
        rho = DensityMatrix(mat=np.eye(4) / 4.0)
        assert abs(rho.purity - 0.25) < 1e-15

    def test_spectral_decomposition_rejects_descending(self):
        from adiatherm.operators import SpectralDecomposition

        with pytest.raises(ValueError, match="ascending"):
            SpectralDecomposition(eigenvalues=[2.0, 1.0], eigenvectors=np.eye(2))

    def test_spectral_decomposition_rejects_skewed_columns(self):
        from adiatherm.operators import SpectralDecomposition

        vecs = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError, match="orthonormal"):
            SpectralDecomposition(eigenvalues=[0.0, 1.0], eigenvectors=vecs)

    def test_operators_keep_their_dtype(self):
        # real input stays real (as float64), complex input stays complex
        assert HermitianOperator(n_sites=1, mat=np.eye(2, dtype=int)).mat.dtype == np.float64
        assert HermitianOperator(n_sites=1, mat=np.eye(2, dtype=complex)).mat.dtype == complex
        assert DensityMatrix(mat=np.eye(2) / 2.0).mat.dtype == np.float64

    def test_hermitian_operator_rejects_zero_sites(self):
        with pytest.raises(ValueError, match="positive"):
            HermitianOperator(n_sites=0, mat=np.eye(1))


class TestHsFidelity:
    def test_self_fidelity_is_one(self):
        rng = np.random.default_rng(7)
        rho = DensityMatrix(mat=oracle.random_density_matrix(8, rng))
        assert abs(hs_fidelity(rho, rho) - 1.0) < 1e-12

    def test_orthogonal_pure_states(self):
        assert hs_fidelity(pure_state([1, 0]), pure_state([0, 1])) == 0.0

    def test_mixed_against_pure(self):
        # Tr(rho sigma) = 1/2, purities 1/2 and 1
        mixed = DensityMatrix(mat=np.eye(2) / 2.0)
        assert abs(hs_fidelity(mixed, pure_state([1, 0])) - 0.5) < 1e-14

    def test_symmetric(self):
        rng = np.random.default_rng(3)
        a = DensityMatrix(mat=oracle.random_density_matrix(6, rng))
        b = DensityMatrix(mat=oracle.random_density_matrix(6, rng))
        assert abs(hs_fidelity(a, b) - hs_fidelity(b, a)) < 1e-15

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            hs_fidelity(pure_state([1, 0]), DensityMatrix(mat=np.eye(4) / 4))

    def test_bounded_on_random_pairs(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            a = DensityMatrix(mat=oracle.random_density_matrix(8, rng, rank=3))
            b = DensityMatrix(mat=oracle.random_density_matrix(8, rng))
            f = hs_fidelity(a, b)
            assert 0.0 <= f <= 1.0
            assert f < 1.0 - 1e-10  # distinct states stay away from 1

    def test_unity_reached_only_by_coincident_states(self):
        rng = np.random.default_rng(19)
        rho_mat = oracle.random_density_matrix(8, rng)
        bump = oracle.random_density_matrix(8, rng)
        nearby = DensityMatrix(mat=(1 - 5e-12) * rho_mat + 5e-12 * bump)
        rho = DensityMatrix(mat=rho_mat)
        from adiatherm.operators import hs_norm

        assert hs_norm(nearby.mat - rho.mat) <= 1e-10
        assert hs_fidelity(rho, nearby) == pytest.approx(1.0, abs=1e-12)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(5)
        a = DensityMatrix(mat=oracle.random_density_matrix(8, rng))
        b = DensityMatrix(mat=oracle.random_density_matrix(8, rng))
        u = oracle.random_unitary(8, rng)
        a_rot = DensityMatrix(mat=u @ a.mat @ u.conj().T)
        b_rot = DensityMatrix(mat=u @ b.mat @ u.conj().T)
        assert abs(hs_fidelity(a_rot, b_rot) - hs_fidelity(a, b)) < 1e-12


class TestHsAngle:
    def test_zero_for_identical(self):
        rho = pure_state([1, 1])
        assert hs_angle(rho, rho) == 0.0

    def test_half_pi_for_orthogonal(self):
        assert abs(hs_angle(pure_state([1, 0]), pure_state([0, 1])) - math.pi / 2) < 1e-15

    def test_quarter_pi_mixed_vs_pure(self):
        mixed = DensityMatrix(mat=np.eye(2) / 2.0)
        assert abs(hs_angle(mixed, pure_state([1, 0])) - math.pi / 4) < 1e-14

    def test_small_rotation_keeps_precision(self):
        # rotating rho by exp(-i H eps) moves it through the angle
        # ||[H, rho]|| eps / sqrt(Tr rho^2) to first order; arccos sqrt(F)
        # is 4 % off here, because F = 1 - 4e-15 keeps only two digits of it
        rng = np.random.default_rng(8)
        rho = DensityMatrix(mat=oracle.random_density_matrix(32, rng))
        a = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        h = (a + a.conj().T) / 2.0
        eps = 1e-8
        evals, evecs = np.linalg.eigh(h)
        u = (evecs * np.exp(-1j * eps * evals)) @ evecs.conj().T
        rotated = DensityMatrix(mat=u @ rho.mat @ u.conj().T)
        first_order = hs_norm(h @ rho.mat - rho.mat @ h) * eps / math.sqrt(rho.purity)
        assert hs_angle(rho, rotated) == pytest.approx(first_order, rel=1e-6)


class TestEigh:
    def test_already_diagonal(self):
        dec = eigh(HermitianOperator(1, np.diag([3.0, 1.0])))
        assert np.allclose(dec.eigenvalues, [1.0, 3.0])

    def test_pauli_x(self):
        dec = eigh(build_pauli_string(1, [(1, "X")]))
        assert np.allclose(dec.eigenvalues, [-1.0, 1.0])

    def test_ising_ring_three_sites(self):
        # classical enumeration of the 8 ring configurations
        h = HermitianOperator(3, oracle.dense_h0("tfic", 3))
        dec = eigh(h)
        assert np.allclose(dec.eigenvalues, oracle.ring_config_energies(3), atol=1e-12)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(17)
        g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        h = HermitianOperator(4, (g + g.conj().T) / 2.0)
        dec = eigh(h)
        rebuilt = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.conj().T
        assert hs_norm(h.mat - rebuilt) <= 1e-10 * hs_norm(h.mat)
        gram = dec.eigenvectors.conj().T @ dec.eigenvectors
        assert np.abs(gram - np.eye(16)).max() <= 1e-12


class TestCommutatorNorm:
    def test_commuting_pair(self):
        a = HermitianOperator(1, np.diag([1.0, 2.0]))
        b = HermitianOperator(1, np.diag([5.0, -1.0]))
        assert commutator_hs_norm(a, b) == 0.0

    def test_pauli_z_x(self):
        # [Z, X] = 2iY, norm 2 sqrt(2)
        z = build_pauli_string(1, [(1, "Z")])
        x = build_pauli_string(1, [(1, "X")])
        assert abs(commutator_hs_norm(z, x) - 2.0 * math.sqrt(2.0)) < 1e-13

    def test_against_dense_commutator(self):
        h0 = oracle.dense_h0("tfic", 4)
        v = oracle.dense_v("tfic", 4)
        direct = hs_norm(h0 @ v - v @ h0)
        via_traces = commutator_hs_norm(HermitianOperator(4, h0), HermitianOperator(4, v))
        assert abs(via_traces - direct) < 1e-10 * max(1.0, direct)

    def test_symmetry_and_zero_iff_commuting(self):
        rng = np.random.default_rng(23)
        g = rng.standard_normal((8, 8))
        a = HermitianOperator(3, (g + g.T) / 2.0)
        g2 = rng.standard_normal((8, 8))
        b = HermitianOperator(3, (g2 + g2.T) / 2.0)
        assert abs(commutator_hs_norm(a, b) - commutator_hs_norm(b, a)) < 1e-12
        comm = a.mat @ b.mat - b.mat @ a.mat
        assert (commutator_hs_norm(a, b) < 1e-10) == (np.abs(comm).max() <= 1e-12)


class TestDegeneracyGrouping:
    def test_blocks_on_exact_spectrum(self):
        ev = np.array([-3.0, -3.0, 1.0, 1.0, 1.0, 2.0])
        assert level_edges(ev).tolist() == [0, 2, 5, 6]

    def test_tolerance_scales_with_span(self):
        ev = np.array([0.0, 4.0])
        assert degeneracy_tolerance(ev) == pytest.approx(4e-9)
