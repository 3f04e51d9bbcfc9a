import math

import numpy as np
import pytest

from adiatherm.models import (
    SpinChainModel,
    build_h0,
    build_v,
    classical_energies,
    flip_terms,
    hamiltonian_at,
    translation_operator,
)
from adiatherm.operators import hs_norm
from adiatherm.susceptibility import (
    flip_sums,
    high_temp_coefficient,
    low_temp_coefficients,
    threshold_report,
)

import oracle


class TestModelInvariants:
    def test_rejects_small_chain(self):
        with pytest.raises(ValueError, match="n_sites"):
            SpinChainModel("tfic", 1)

    def test_rejects_non_positive_coupling(self):
        with pytest.raises(ValueError, match="J"):
            SpinChainModel("tfic", 4, J=-1.0)

    def test_mfic_requires_field(self):
        with pytest.raises(ValueError, match="field"):
            SpinChainModel("mfic", 4)

    def test_field_ignored_outside_mfic(self):
        model = SpinChainModel("tfic", 4, B=0.3)
        assert model.B is None

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            SpinChainModel("xyz", 4)

    @pytest.mark.parametrize(
        "name,kwargs",
        [
            ("J", {"J": math.nan}),
            ("J", {"J": math.inf}),
            ("B", {"B": math.nan}),
            ("B", {"B": math.inf}),
            ("B", {"B": -math.inf}),
        ],
    )
    def test_rejects_non_finite_couplings(self, name, kwargs):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            SpinChainModel("mfic", 4, **{"B": 0.7, **kwargs})


class TestDenseMemoryGuard:
    def test_refuses_before_allocating(self, monkeypatch):
        def no_allocation(*args, **kwargs):
            raise AssertionError("allocated an array")

        for name in ("arange", "zeros", "empty", "diag"):
            monkeypatch.setattr(np, name, no_allocation)
        model = SpinChainModel("tfic", 40)
        for build in (build_h0, build_v):
            with pytest.raises(ValueError, match=r"N=40 .* GB \(13 complex"):
                build(model)


class TestFlipMemoryGuard:
    def test_refuses_before_allocating(self, monkeypatch):
        def no_allocation(*args, **kwargs):
            raise AssertionError("allocated an array")

        for name in ("arange", "zeros", "empty", "diag"):
            monkeypatch.setattr(np, name, no_allocation)
        model = SpinChainModel("mfic", 40, B=0.7)
        for route in (
            classical_energies,
            lambda m: flip_sums(m, 1.0),
            lambda m: threshold_report(m, 1.0),
            low_temp_coefficients,
            high_temp_coefficient,
        ):
            with pytest.raises(ValueError, match=r"N=40 .* flip route: .* GB \(12 arrays"):
                route(model)


class TestH0:
    def test_two_site_ring_double_counts_bond(self):
        # N=2 ring: E = -2 J s1 s2, so {-2J, +2J, +2J, -2J} over the basis
        model = SpinChainModel("tfic", 2, J=1.0)
        diag = np.real(np.diag(build_h0(model).mat))
        assert np.allclose(diag, [-2.0, 2.0, 2.0, -2.0])

    def test_mfic_two_site_ground_energy(self):
        model = SpinChainModel("mfic", 2, J=1.0, B=1.0)
        energies = np.sort(np.real(np.diag(build_h0(model).mat)))
        # all-down configuration: -2J - 2B
        assert energies[0] == pytest.approx(-4.0)
        assert np.allclose(energies, sorted([-2 + 2, 2.0, 2.0, -2 - 2]))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_ferromagnetic_ground_twofold(self, n):
        model = SpinChainModel("tfic", n, J=1.0)
        energies = np.sort(classical_energies(model))
        assert energies[0] == pytest.approx(-n)
        assert energies[1] == pytest.approx(-n)
        assert energies[2] > -n

    def test_exactly_diagonal(self):
        for kind, b in (("tfic", None), ("qxyc", None), ("mfic", 0.7)):
            h0 = build_h0(SpinChainModel(kind, 4, B=b)).mat
            off = h0 - np.diag(np.diag(h0))
            assert np.abs(off).max() == 0.0

    @pytest.mark.parametrize("kind,b", [("tfic", None), ("qxyc", None), ("mfic", 0.7)])
    def test_matches_pauli_string_oracle(self, kind, b):
        model = SpinChainModel(kind, 4, B=b)
        assert np.allclose(build_h0(model).mat, oracle.dense_h0(kind, 4, b=b or 0.0), atol=1e-14)

    def test_spectrum_matches_enumeration(self):
        model = SpinChainModel("mfic", 5, J=1.0, B=0.7)
        assert np.allclose(
            np.sort(classical_energies(model)), oracle.ring_config_energies(5, b=0.7)
        )


class TestDrive:
    @pytest.mark.parametrize("kind,b", [("tfic", None), ("qxyc", None), ("mfic", 0.7)])
    def test_traceless(self, kind, b):
        v = build_v(SpinChainModel(kind, 3, B=b))
        assert np.trace(v.mat) == 0.0

    @pytest.mark.parametrize("kind,b", [("tfic", None), ("qxyc", None), ("mfic", 0.7)])
    def test_chain_matrices_are_real(self, kind, b):
        model = SpinChainModel(kind, 4, B=b)
        assert build_h0(model).mat.dtype == np.float64
        assert build_v(model).mat.dtype == np.float64

    def test_tfic_two_site_hs_norm(self):
        # V = -J(X1 + X2): 2 sites x 4 unit entries each -> ||V||^2 = 8 J^2
        v = build_v(SpinChainModel("tfic", 2, J=1.0))
        assert hs_norm(v.mat) ** 2 == pytest.approx(8.0)

    @pytest.mark.parametrize("kind,b", [("tfic", None), ("qxyc", None), ("mfic", 0.7)])
    def test_matches_kron_oracle(self, kind, b):
        model = SpinChainModel(kind, 4, B=b)
        assert np.allclose(build_v(model).mat, oracle.dense_v(kind, 4), atol=1e-14)

    @pytest.mark.parametrize("j", [1.0, 0.7])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("kind,b", [("tfic", None), ("qxyc", None), ("mfic", 0.7)])
    def test_bitwise_equal_to_kron_oracle(self, kind, b, n, j):
        model = SpinChainModel(kind, n, J=j, B=b)
        assert np.array_equal(build_v(model).mat, oracle.dense_v(kind, n, j=j))

    @pytest.mark.parametrize("n", [3, 4, 6])
    @pytest.mark.parametrize("kind,b", [("tfic", None), ("qxyc", None), ("mfic", 0.7)])
    def test_drive_does_not_commute_with_h0(self, kind, b, n):
        model = SpinChainModel(kind, n, B=b)
        h0, v = build_h0(model).mat, build_v(model).mat
        assert np.abs(h0 @ v - v @ h0).max() > 0.1

    def test_qxyc_two_site_exception(self):
        # the doubled bonds of the 2-ring make the XX - ZZ drive commute
        # with H0; cross-model statements therefore start at N = 3
        model = SpinChainModel("qxyc", 2)
        h0, v = build_h0(model).mat, build_v(model).mat
        assert np.abs(h0 @ v - v @ h0).max() <= 1e-12

    @pytest.mark.parametrize("kind,b", [("tfic", None), ("qxyc", None), ("mfic", 0.7)])
    def test_translation_symmetry(self, kind, b):
        model = SpinChainModel(kind, 5, B=b)
        t = translation_operator(5)
        for op in (build_h0(model).mat, build_v(model).mat):
            assert np.abs(t @ op - op @ t).max() <= 1e-12


class TestFlipTerms:
    @pytest.mark.parametrize("kind,b", [("tfic", None), ("mfic", 0.7)])
    def test_single_site_flips(self, kind, b):
        terms = flip_terms(SpinChainModel(kind, 5, J=0.5, B=b))
        assert sorted(mask for mask, _ in terms) == [1, 2, 4, 8, 16]
        assert all(amplitude == -0.5 for _, amplitude in terms)

    def test_qxyc_adjacent_pair_flips(self):
        terms = flip_terms(SpinChainModel("qxyc", 4))
        assert sorted(mask for mask, _ in terms) == [0b0011, 0b0110, 0b1001, 0b1100]
        assert all(amplitude == -1.0 for _, amplitude in terms)

    def test_qxyc_two_site_bonds_merge(self):
        # both bonds of the 2-ring flip sites 1 and 2: |V_mn|^2 = 4 J^2
        assert flip_terms(SpinChainModel("qxyc", 2, J=0.5)) == ((0b11, -1.0),)


class TestHamiltonianAt:
    def test_lambda_zero_is_h0(self):
        model = SpinChainModel("tfic", 3)
        assert np.array_equal(hamiltonian_at(model, 0.0).mat, build_h0(model).mat)

    def test_tfic_unit_lambda_is_unit_transverse_field(self):
        model = SpinChainModel("tfic", 3, J=1.0)
        expected = oracle.dense_h0("tfic", 3)
        for site in range(1, 4):
            expected -= oracle.site_op(oracle.SX, site, 3)
        assert np.allclose(hamiltonian_at(model, 1.0).mat, expected, atol=1e-14)

    def test_qxyc_half_lambda_is_isotropic_xy(self):
        # lambda = 1/2 balances the XX and ZZ weights: H = -(J/2) sum (XX + ZZ)
        model = SpinChainModel("qxyc", 3, J=1.0)
        expected = np.zeros((8, 8), dtype=complex)
        for site in range(1, 4):
            nxt = site % 3 + 1
            expected -= 0.5 * oracle.site_op(oracle.SX, site, 3) @ oracle.site_op(oracle.SX, nxt, 3)
            expected -= 0.5 * oracle.site_op(oracle.SZ, site, 3) @ oracle.site_op(oracle.SZ, nxt, 3)
        assert np.allclose(hamiltonian_at(model, 0.5).mat, expected, atol=1e-14)

    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    def test_rejects_non_finite_lambda(self, lam):
        with pytest.raises(ValueError, match="lambda must be finite"):
            hamiltonian_at(SpinChainModel("tfic", 3), lam)

    def test_negative_lambda_allowed_for_finite_differences(self):
        model = SpinChainModel("tfic", 3)
        h = hamiltonian_at(model, -0.01)
        assert np.allclose(h.mat, build_h0(model).mat - 0.01 * build_v(model).mat)
