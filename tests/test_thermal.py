import math
import warnings

import numpy as np
import pytest

from adiatherm.models import SpinChainModel, build_h0, build_v
from adiatherm.operators import DensityMatrix, eigh, hs_norm
from adiatherm.susceptibility import chi_f_thermal
from adiatherm.thermal import (
    ContinuationWarning,
    EigenbasisContinuation,
    QuasiGibbsSweep,
    boltzmann_weights,
    escort_state,
    gibbs_state,
    quasi_gibbs_at,
    thermal_overlap,
)

import oracle


def spec_for(model):
    return eigh(build_h0(model))


def continuation_for(model):
    return EigenbasisContinuation(build_h0(model).mat, build_v(model).mat)


def sigma_of(cont, beta):
    """Quasi-Gibbs matrix of the continuation's current labeled basis."""
    u = cont.vectors
    return (u * boltzmann_weights(cont.origin_energies, beta)) @ u.conj().T


class TestGibbsState:
    def test_infinite_temperature_is_maximally_mixed(self):
        spec = spec_for(SpinChainModel("tfic", 3))
        rho = gibbs_state(spec, 0.0)
        assert np.allclose(rho.mat, np.eye(8) / 8.0, atol=1e-15)

    def test_large_beta_is_ground_projector(self):
        model = SpinChainModel("mfic", 3, J=1.0, B=0.7)
        spec = spec_for(model)
        rho = gibbs_state(spec, 50.0)
        ground = spec.eigenvectors[:, 0]
        assert hs_norm(rho.mat - np.outer(ground, ground.conj())) <= 1e-12

    def test_weights_match_enumeration(self):
        # ring at N=3: Z0 = 2 e^{3K} + 6 e^{-K}
        model = SpinChainModel("tfic", 3, J=1.0)
        beta = 0.5
        z_expected = 2 * math.exp(3 * beta) + 6 * math.exp(-beta)
        assert oracle.ring_partition_function(3, beta) == pytest.approx(z_expected)
        rho = gibbs_state(spec_for(model), beta)
        diag = np.sort(np.real(np.diag(rho.mat)))[::-1]
        assert np.allclose(diag[:2], math.exp(3 * beta) / z_expected, atol=1e-12)
        assert np.allclose(diag[2:], math.exp(-beta) / z_expected, atol=1e-12)

    def test_negative_beta_rejected(self):
        spec = spec_for(SpinChainModel("tfic", 2))
        with pytest.raises(ValueError, match=">= 0"):
            gibbs_state(spec, -0.1)

    def test_weights_keep_order_one_terms_at_wide_span(self):
        # beta * span = 1000: the two low weights are order one, the third underflows
        w = boltzmann_weights([0.0, 0.01, 1000.0], 1.0)
        z = 1.0 + math.exp(-0.01)
        assert np.allclose(w, [1.0 / z, math.exp(-0.01) / z, 0.0], rtol=0.0, atol=1e-15)

    def test_beta_cap_returns_ground_multiplet(self):
        spec = spec_for(SpinChainModel("tfic", 3))
        rho = gibbs_state(spec, 1e6)  # far beyond the underflow cap
        evals = np.sort(np.linalg.eigvalsh(rho.mat))
        assert np.allclose(evals[-2:], 0.5, atol=1e-12)  # twofold ground ring


class TestEscortState:
    def test_pure_state_fixed_point(self):
        vec = np.array([1.0, 2.0j, -1.0])
        vec /= np.linalg.norm(vec)
        rho = DensityMatrix(mat=np.outer(vec, vec.conj()))
        assert hs_norm(escort_state(rho).mat - rho.mat) <= 1e-14

    def test_maximally_mixed_fixed_point(self):
        rho = DensityMatrix(mat=np.eye(4) / 4.0)
        assert hs_norm(escort_state(rho).mat - rho.mat) <= 1e-15

    @pytest.mark.parametrize("beta", [0.0, 0.3, 1.0, 5.0])
    @pytest.mark.parametrize("kind,b", [("tfic", None), ("qxyc", None), ("mfic", 0.7)])
    def test_escort_doubles_beta(self, kind, b, beta):
        spec = spec_for(SpinChainModel(kind, 4, B=b))
        diff = escort_state(gibbs_state(spec, beta)).mat - gibbs_state(spec, 2 * beta).mat
        assert hs_norm(diff) <= 1e-12


class TestContinuation:
    def test_zero_target_resolves_degenerate_blocks(self):
        model = SpinChainModel("tfic", 4)
        cont = continuation_for(model)
        spec = spec_for(model)
        assert np.allclose(np.sort(cont.origin_energies), spec.eigenvalues, atol=1e-9)
        # projected drive is diagonal inside each degenerate block
        v = build_v(model).mat
        vm = cont.vectors.conj().T @ v @ cont.vectors
        e = cont.origin_energies
        for i in range(len(e)):
            for j in range(i + 1, len(e)):
                if abs(e[i] - e[j]) < 1e-9:
                    assert abs(vm[i, j]) < 1e-10

    def test_weights_reproduce_partition_function_at_any_lambda(self):
        model = SpinChainModel("tfic", 3)
        beta = 0.7
        cont = continuation_for(model)
        for lam in np.linspace(0.0, 0.08, 61)[1:]:
            cont.advance(lam)
        z_from_labels = np.sum(np.exp(-beta * cont.origin_energies))
        assert z_from_labels == pytest.approx(oracle.ring_partition_function(3, beta), rel=1e-12)

    def test_negative_lambda_target(self):
        # P = prod Z commutes with the diagonal H0 and takes X to -X, so it
        # maps H0 + lambda V to H0 - lambda V and sigma(lambda) to sigma(-lambda)
        parity = np.diag([(-1.0) ** bin(s).count("1") for s in range(16)])
        for model in (SpinChainModel("tfic", 4), SpinChainModel("mfic", 4, B=0.7)):
            for lam in (0.02, 0.3):
                forward = quasi_gibbs_at(model, 1.0, lam).mat
                backward = quasi_gibbs_at(model, 1.0, -lam).mat
                assert hs_norm(backward - parity @ forward @ parity) <= 1e-12
                assert hs_norm(backward - forward) > 1e-4

    def test_advance_records_ties(self):
        # one step from lambda = 0 rotates the states of labels 0 and 1
        # (different weights) by 45 degrees + 1e-8: each fresh level takes
        # a different label, but its two projector masses tie within
        # AMBIGUITY_TOL, so both levels are ambiguous
        angle = math.pi / 4 + 1e-8
        rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
        h1 = np.zeros((3, 3))
        h1[:2, :2] = rot @ np.diag([-0.5, 1.5]) @ rot.T
        h1[2, 2] = 3.0
        h0 = np.diag([0.0, 1.0, 3.0])
        cont = EigenbasisContinuation(h0, h1 - h0)
        cont.advance(1.0)
        assert cont.ambiguous_steps == [(1.0, 2)]
        assert sorted(cont.origin_energies) == [0.0, 1.0, 3.0]
        cont.restart()
        assert cont.ambiguous_steps == [] and cont.lam == 0.0

    def test_ambiguous_steps_recorded_with_warning(self):
        # two levels of different weight meet in a narrow avoided crossing
        # at lambda = 0.5, where eigh's columns sit at 45 degrees to the ones
        # just before, so every march ties there; the accepted one warns
        # once, and the ties of the rejected coarser marches are not kept
        h0 = np.diag([0.0, 1.0, 3.0])
        v = np.diag([1.0, -1.0, 0.0])
        v[0, 1] = v[1, 0] = 5e-9
        with pytest.warns(ContinuationWarning, match="ambiguous level match") as caught:
            sweep = QuasiGibbsSweep(h0, v, np.array([0.0, 0.5, 1.0]), 1.0)
        assert len(caught) == 1
        assert sweep.per_interval > 1
        tied_at = [lam for lam, _ in sweep.ambiguous_steps]
        assert 0.5 in tied_at and tied_at == sorted(set(tied_at))

    def test_exact_crossing_keeps_labels_on_their_states(self):
        # V commutes with H0 in a rotated basis, so every eigenvector of H0
        # stays an eigenvector and the quasi-Gibbs state never changes.  At
        # lambda = 0.5 the first two levels cross exactly and eigh returns an
        # arbitrary basis of the merged level; the labels must still follow
        # their states through the crossing, on orthonormal columns.
        q, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((3, 3)))
        h0 = q @ np.diag([0.0, 1.0, 5.0]) @ q.T
        v = q @ np.diag([1.0, -1.0, 0.0]) @ q.T
        cont = EigenbasisContinuation(h0, v)
        expected = q @ np.diag(boltzmann_weights([0.0, 1.0, 5.0], 1.0)) @ q.T
        for lam in (0.25, 0.5, 0.75, 1.0):
            cont.advance(lam)
            assert hs_norm(sigma_of(cont, 1.0) - expected) <= 1e-12
            assert cont.rotated == (lam == 0.5)
            u = cont.vectors
            assert np.abs(u.conj().T @ u - np.eye(3)).max() <= 1e-12
        assert not cont.ambiguous_steps

    @pytest.mark.parametrize("n_sites", [4, 5, 6])
    @pytest.mark.parametrize("kind,b", [("tfic", None), ("qxyc", None), ("mfic", 0.7)])
    def test_records_independent_of_step_count(self, kind, b, n_sites):
        # sigma at a record comes from the eigendecomposition there and the
        # labels, so the steps between records only have to resolve labels
        cont = continuation_for(SpinChainModel(kind, n_sites, B=b))
        records = np.linspace(0.0, 0.2, 11)
        marches = []
        for per_interval in (1, 2, 6):
            cont.restart()
            sigmas = []
            for a, end in zip(records[:-1], records[1:]):
                for s in range(1, per_interval):
                    cont.advance(a + (end - a) * s / per_interval)
                cont.advance(end)
                sigmas.append(sigma_of(cont, 1.0))
            assert not cont.ambiguous_steps
            marches.append(sigmas)
        for sigmas in marches[1:]:
            assert max(hs_norm(x - y) for x, y in zip(sigmas, marches[0])) <= 1e-14


class TestQuasiGibbs:
    def test_cache_counts_real_snapshots_at_eight_bytes(self, monkeypatch):
        import adiatherm.thermal as thermal

        model = SpinChainModel("tfic", 4)
        lambdas = np.linspace(0.0, 0.1, 11)
        entries = lambdas.size * model.dim**2
        # room for float64 snapshots, not for complex ones
        monkeypatch.setattr(thermal, "_SIGMA_CACHE_BYTES", entries * 12)
        sweep = QuasiGibbsSweep(build_h0(model).mat, build_v(model).mat, lambdas, 1.0)
        assert sweep._cache is not None
        assert sum(sigma.nbytes for sigma in sweep.records()) == entries * 8

    def test_lambda_zero_recovers_gibbs(self):
        model = SpinChainModel("mfic", 4, B=0.7)
        beta = 1.3
        sigma = quasi_gibbs_at(model, beta, 0.0)
        assert hs_norm(sigma.mat - gibbs_state(spec_for(model), beta).mat) <= 1e-12

    def test_infinite_temperature_stays_maximally_mixed(self):
        sigma = quasi_gibbs_at(SpinChainModel("tfic", 3), 0.0, 0.3)
        assert hs_norm(sigma.mat - np.eye(8) / 8.0) <= 1e-12

    def test_unit_trace_and_purity_preserved_along_path(self):
        model = SpinChainModel("tfic", 4)
        beta = 0.8
        base_purity = gibbs_state(spec_for(model), beta).purity
        for lam in (0.02, 0.05, 0.1):
            sigma = quasi_gibbs_at(model, beta, lam)
            assert abs(np.trace(sigma.mat) - 1.0) < 1e-12
            assert abs(sigma.purity - base_purity) <= 1e-10

    def test_adaptive_step_doubling_wrapper(self):
        # the doubled two-record sweep agrees with a fine fixed-step march
        model = SpinChainModel("tfic", 3)
        cont = continuation_for(model)
        for lam in np.linspace(0.0, 0.05, 201)[1:]:
            cont.advance(lam)
        sigma = quasi_gibbs_at(model, 1.0, 0.05)
        assert hs_norm(sigma.mat - sigma_of(cont, 1.0)) <= 1e-8

    @pytest.mark.parametrize("n_sites,lam", [(5, 0.3), (6, 0.25), (6, 0.3)])
    def test_rejected_coarse_march_does_not_warn(self, n_sites, lam):
        # the one-step march ties here and is rejected; the accepted
        # two-step march has no tie, so no ContinuationWarning may escape
        model = SpinChainModel("mfic", n_sites, B=0.7)
        one_step = continuation_for(model)
        one_step.advance(lam)
        assert one_step.ambiguous_steps
        with warnings.catch_warnings():
            warnings.simplefilter("error", ContinuationWarning)
            quasi_gibbs_at(model, 1.0, lam)


class TestThermalOverlap:
    def test_unity_at_lambda_zero(self):
        assert thermal_overlap(SpinChainModel("tfic", 3), 1.0, 0.0) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_unity_at_infinite_temperature(self):
        assert thermal_overlap(SpinChainModel("tfic", 3), 0.0, 0.25) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_bounded_by_one(self):
        c = thermal_overlap(SpinChainModel("mfic", 3, B=0.7), 1.0, 0.1)
        assert 0.0 < c <= 1.0

    def test_quadratic_decay_rate_matches_susceptibility(self):
        # ln C(lambda) = -chi_F lambda^2 / 2 + O(lambda^4): quadratic +
        # quartic fit over a small window recovers chi_F
        model = SpinChainModel("tfic", 6)
        beta = 1.0
        lams = np.array([0.005, 0.01, 0.015, 0.02, 0.025, 0.03])
        log_c = np.array([math.log(thermal_overlap(model, beta, lam)) for lam in lams])
        design = np.column_stack([lams**2, lams**4])
        coef, *_ = np.linalg.lstsq(design, log_c, rcond=None)
        chi_fit = -2.0 * coef[0]
        chi = chi_f_thermal(spec_for(model), build_v(model), beta)
        assert chi_fit == pytest.approx(chi, rel=1e-3)

    def test_even_to_leading_order(self):
        # first derivative of S(lambda) = Tr(rho0 sigma_lambda) vanishes at 0
        model = SpinChainModel("tfic", 4)
        beta = 1.0
        h = 1e-4
        rho0 = gibbs_state(spec_for(model), beta).mat
        s_plus = np.real(np.vdot(rho0, quasi_gibbs_at(model, beta, h).mat))
        s_minus = np.real(np.vdot(rho0, quasi_gibbs_at(model, beta, -h).mat))
        s_zero = np.real(np.vdot(rho0, rho0))
        assert abs(s_plus - s_minus) / (2 * h) <= 1e-8 * s_zero
