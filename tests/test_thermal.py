import math
import warnings

import numpy as np
import pytest

from adiatherm.models import (
    SpinChainModel,
    build_h0,
    build_v,
    classical_energies,
    symmetry_sectors,
)
from adiatherm.acceptance import criterion_11
from adiatherm.operators import DensityMatrix, eigh, hs_fidelity_from_overlap, hs_norm
from adiatherm.susceptibility import chi_f_thermal
import adiatherm.thermal as thermal
from adiatherm.thermal import (
    ContinuationWarning,
    EigenbasisContinuation,
    QuasiGibbsSweep,
    BlockEigensolver,
    _require_state,
    boltzmann_weights,
    escort_state,
    gibbs_state,
    quasi_gibbs_at,
    quasi_gibbs_states,
    thermal_overlap,
)

import oracle


def spec_for(model):
    return eigh(build_h0(model))


def continuation_for(model):
    return EigenbasisContinuation([(build_h0(model).mat, build_v(model).mat)])


def sigma_of(cont, beta):
    """Quasi-Gibbs matrix of the continuation's current labeled basis, in block order."""
    u = cont.solver.dense(cont.vectors)
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

    def test_weights_reproduce_partition_function_at_any_lambda(self):
        model = SpinChainModel("tfic", 3)
        beta = 0.7
        cont = continuation_for(model)
        for lam in np.linspace(0.0, 0.08, 61)[1:]:
            cont.advance(cont.solver.solve([lam]))
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
        cont = EigenbasisContinuation([(h0, h1 - h0)])
        cont.advance(cont.solver.solve([1.0]))
        assert cont.ambiguous_steps == [(1.0, 2)]
        assert sorted(cont.origin_energies) == [0.0, 1.0, 3.0]
        cont.restart()
        assert cont.ambiguous_steps == [] and cont.origin_energies.tolist() == [0.0, 1.0, 3.0]

    def test_ambiguous_steps_recorded_with_warning(self):
        # two levels of different weight meet in a narrow avoided crossing
        # at lambda = 0.5, where eigh's columns sit at 45 degrees to the ones
        # just before, so every march ties there; the accepted one warns
        # once, and the ties of the rejected coarser marches are not kept
        h0 = np.diag([0.0, 1.0, 3.0])
        v = np.diag([1.0, -1.0, 0.0])
        v[0, 1] = v[1, 0] = 5e-9
        with pytest.warns(ContinuationWarning, match="ambiguous level match") as caught:
            sweep = QuasiGibbsSweep([(h0, v)], np.array([0.0, 0.5, 1.0]), 1.0)
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
        cont = EigenbasisContinuation([(h0, v)])
        expected = q @ np.diag(boltzmann_weights([0.0, 1.0, 5.0], 1.0)) @ q.T
        for lam in (0.25, 0.5, 0.75, 1.0):
            _, rotations = cont.advance(cont.solver.solve([lam]))
            assert hs_norm(sigma_of(cont, 1.0) - expected) <= 1e-12
            assert list(rotations) == ([0] if lam == 0.5 else [])
            u = cont.solver.dense(cont.vectors)
            assert np.abs(u.conj().T @ u - np.eye(3)).max() <= 1e-12
        assert not cont.ambiguous_steps

    def test_levels_stay_inside_sectors(self):
        # levels are formed inside the solver's blocks, so equal eigenvalues
        # of different sectors are never one level: the qxyc N=4 march
        # rotates only at the exact crossing inside one block at lambda = 1,
        # and every column keeps a label of its own block
        cont = EigenbasisContinuation(symmetry_sectors(SpinChainModel("qxyc", 4)).blocks)
        edges = cont.solver.edges
        block_of = np.searchsorted(edges, np.arange(cont.solver.dim), side="right")
        lambdas = np.linspace(0.0, 1.5, 301)[1:]
        labels, rotations = cont.advance(cont.solver.solve(lambdas))
        assert np.array_equal(block_of[labels], np.broadcast_to(block_of, labels.shape))
        assert [lambdas[step] for step in rotations] == [pytest.approx(1.0, abs=1e-12)]
        assert not cont.ambiguous_steps

    @pytest.mark.parametrize(
        "case", ["tfic", "qxyc", "mfic", "qxyc-crossing", "exact-crossing", "tie", "mfic-lost"]
    )
    def test_chunked_advance_matches_single_steps(self, case):
        # a whole path in one solve and one advance takes the same march as
        # one lambda per solve and advance: the same labels and rotated flag
        # after every step, the same ambiguous and lost steps and the same
        # final columns
        if case in ("tfic", "qxyc", "mfic"):
            blocks = symmetry_sectors(SpinChainModel(case, 4, B=0.7)).blocks
            path = np.linspace(0.0, 1.2, 49)[1:]
        elif case == "qxyc-crossing":  # the exact crossing at lambda = 1 is a step
            blocks = symmetry_sectors(SpinChainModel("qxyc", 4)).blocks
            path = np.linspace(0.0, 1.5, 61)[1:]
        elif case == "exact-crossing":  # as in test_exact_crossing_keeps_labels_on_their_states
            q, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((3, 3)))
            blocks = [(q @ np.diag([0.0, 1.0, 5.0]) @ q.T, q @ np.diag([1.0, -1.0, 0.0]) @ q.T)]
            path = np.array([0.25, 0.5, 0.75, 1.0])
        elif case == "tie":  # as in test_advance_records_ties
            angle = math.pi / 4 + 1e-8
            rot = np.array([[math.cos(angle), -math.sin(angle)],
                            [math.sin(angle), math.cos(angle)]])
            h1 = np.zeros((3, 3))
            h1[:2, :2] = rot @ np.diag([-0.5, 1.5]) @ rot.T
            h1[2, 2] = 3.0
            h0 = np.diag([0.0, 1.0, 3.0])
            blocks = [(h0, h1 - h0)]
            path = np.array([1.0, 0.5, 1.0, 1.5])
        else:  # test_rejected_coarse_march_does_not_warn's march, which loses a label
            model = SpinChainModel("mfic", 5, B=0.7)
            blocks = [(build_h0(model).mat, build_v(model).mat)]
            path = np.array([0.3, 0.6, 0.3])
        single = EigenbasisContinuation(blocks)
        steps = []
        for lam in path:
            labels, rotations = single.advance(single.solver.solve([lam]))
            assert labels.shape == (1, single.solver.dim)
            assert list(rotations) in ([], [0])
            steps.append((single.labels, bool(rotations)))
        chunked = EigenbasisContinuation(blocks)
        labels, rotations = chunked.advance(chunked.solver.solve(path))
        for t, (expected_labels, expected_rotated) in enumerate(steps):
            assert np.array_equal(labels[t], expected_labels)
            assert (t in rotations) == expected_rotated
        assert np.array_equal(chunked.labels, single.labels)
        assert chunked.ambiguous_steps == single.ambiguous_steps
        assert chunked.lost_steps == single.lost_steps
        for a, b in zip(chunked.vectors, single.vectors):
            assert np.array_equal(a, b)
        if case in ("qxyc-crossing", "exact-crossing"):
            crossing = 1.0 if case == "qxyc-crossing" else 0.5
            assert [path[t] for t in rotations] == [pytest.approx(crossing, abs=1e-12)]
        if case == "tie":
            assert chunked.ambiguous_steps and not chunked.lost_steps
        if case == "mfic-lost":
            assert chunked.lost_steps == [0.3] and not chunked.ambiguous_steps

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
                    cont.advance(cont.solver.solve([a + (end - a) * s / per_interval]))
                cont.advance(cont.solver.solve([end]))
                sigmas.append(sigma_of(cont, 1.0))
            assert not cont.ambiguous_steps
            marches.append(sigmas)
        for sigmas in marches[1:]:
            assert max(hs_norm(x - y) for x, y in zip(sigmas, marches[0])) <= 1e-14


class TestBlockEigensolver:
    @pytest.mark.parametrize("kind,b", [("tfic", None), ("qxyc", None), ("mfic", 0.7)])
    def test_eigenpairs_do_not_depend_on_the_stack_size(self, monkeypatch, kind, b):
        import adiatherm.models as models

        blocks = symmetry_sectors(SpinChainModel(kind, 6, B=b)).blocks
        lambdas = np.linspace(-0.5, 1.5, 41)

        def joined(chunks):
            chunks = list(chunks)
            return len(chunks), [
                np.concatenate(parts) for parts in zip(*((c.values, *c.vectors) for c in chunks))
            ]

        n_stacked, stacked = joined(BlockEigensolver(blocks).eigenpairs(lambdas))
        assert n_stacked < lambdas.size  # the default budget stacks several lambdas
        monkeypatch.setattr(models, "_STACK_BYTES", 1)  # one lambda per stack
        n_single, one_by_one = joined(BlockEigensolver(blocks).eigenpairs(lambdas))
        assert n_single == lambdas.size
        for whole, single in zip(stacked, one_by_one):
            assert np.array_equal(whole, single)

    @pytest.mark.parametrize("kind,b", [("tfic", None), ("qxyc", None), ("mfic", 0.7)])
    def test_sector_eigenpairs_diagonalize_the_dense_hamiltonian(self, kind, b):
        # eigenpairs come in block order: ascending inside each block's
        # columns; dense() repeats a partner's for its twin, in basis order
        model = SpinChainModel(kind, 5, B=b)
        sectors = symmetry_sectors(model)
        solver = BlockEigensolver(sectors.blocks, sectors.multiplicity)
        edges = solver.edges
        assert edges[0] == 0 and edges[-1] == solver.dim and np.all(np.diff(edges) > 0)
        pairs = solver.solve([0.0, 0.3, -1.2])
        for t, lam in enumerate(pairs.lambdas):
            evals, vecs = pairs.values[t], solver.dense([u[t] for u in pairs.vectors])
            for lo, hi in zip(edges[:-1], edges[1:]):
                assert np.all(np.diff(evals[lo:hi]) >= 0)
            repeated = np.concatenate([
                np.tile(evals[lo:hi], count)
                for lo, hi, count in zip(edges[:-1], edges[1:], sectors.multiplicity)
            ])
            h = oracle.dense_h0(kind, 5, b=b or 0.0) + lam * oracle.dense_v(kind, 5)
            assert np.allclose(np.sort(repeated), np.linalg.eigvalsh(h), rtol=0.0, atol=1e-12)
            states = sectors.basis @ vecs
            assert np.abs(h @ states - states * repeated).max() <= 1e-12
        # lambda = 0 gives H0's classical energies exactly
        first = np.repeat(pairs.values[0], solver.multiplicity)
        assert np.array_equal(np.sort(first), np.sort(classical_energies(model)))

    def test_blocks_keep_the_given_order(self):
        # a run of one size is one stack, so sizes (2, 1, 2) make three groups
        rng = np.random.default_rng(3)
        blocks = []
        for m in (2, 1, 2):
            h0, v = rng.normal(size=(2, m, m))
            blocks.append((np.diag(np.diag(h0)), v + v.T))
        solver = BlockEigensolver(blocks)
        assert list(solver.edges) == [0, 2, 3, 5]
        assert list(solver.group_edges) == [0, 2, 3, 5]
        pairs = solver.solve([0.0, 0.7])
        for t, lam in enumerate(pairs.lambdas):
            expected = [np.linalg.eigvalsh(h0 + lam * v) for h0, v in blocks]
            assert np.allclose(pairs.values[t], np.concatenate(expected), rtol=0.0, atol=1e-14)
            dense = solver.dense([u[t] for u in pairs.vectors])
            ham = solver.dense([h[t] for h in solver.hamiltonians(pairs.lambdas)])
            assert np.abs(ham @ dense - dense * pairs.values[t]).max() <= 1e-14


class TestQuasiGibbs:
    def test_real_blocks_give_float64_records(self):
        model = SpinChainModel("tfic", 4)
        lambdas = np.linspace(0.0, 0.1, 11)
        sweep = QuasiGibbsSweep([(build_h0(model).mat, build_v(model).mat)], lambdas, 1.0)
        chunks = list(sweep.records())
        assert sum(chunk[0].shape[0] for chunk in chunks) == lambdas.size
        assert all(stack.dtype == np.float64 for chunk in chunks for stack in chunk)

    @pytest.mark.parametrize(
        "lambdas", [[0.3, 0.6], [0.0, math.nan], [0.0, math.inf], [math.nan, 0.1], []]
    )
    def test_rejects_grid_not_finite_from_zero(self, lambdas):
        # a grid that does not start at 0 would take its first record from
        # the lambda = 0 labels, and a non-finite lambda has no eigenbasis
        blocks = symmetry_sectors(SpinChainModel("tfic", 4)).blocks
        with pytest.raises(ValueError, match="finite and start at 0"):
            QuasiGibbsSweep(blocks, lambdas, 1.0)

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
            cont.advance(cont.solver.solve([lam]))
        sigma = quasi_gibbs_at(model, 1.0, 0.05)
        assert hs_norm(sigma.mat - sigma_of(cont, 1.0)) <= 1e-8

    @pytest.mark.parametrize("kind,b", [("tfic", None), ("mfic", 0.7)])
    def test_repeated_calls_bitwise_equal(self, kind, b):
        # the second call reads the cached sectors of the first
        model = SpinChainModel(kind, 4, B=b)
        first = quasi_gibbs_at(model, 0.8, 0.3).mat
        for _ in range(2):
            assert np.array_equal(quasi_gibbs_at(model, 0.8, 0.3).mat, first)

    @pytest.mark.parametrize("n_sites,lam", [(5, 0.3), (6, 0.25), (6, 0.3)])
    def test_rejected_coarse_march_does_not_warn(self, n_sites, lam):
        # the one-step march loses a label here and is rejected; the
        # accepted march has no tie, so no ContinuationWarning may escape
        model = SpinChainModel("mfic", n_sites, B=0.7)
        one_step = continuation_for(model)
        one_step.advance(one_step.solver.solve([lam]))
        assert one_step.lost_steps == [lam]
        with warnings.catch_warnings():
            warnings.simplefilter("error", ContinuationWarning)
            quasi_gibbs_at(model, 1.0, lam)

    @pytest.mark.parametrize("b,n_sites,beta,lam", [(0.7, 7, 0.5, 0.37), (0.3, 4, 5.0, 1.0)])
    def test_march_that_loses_a_label_is_not_accepted(self, b, n_sites, beta, lam):
        # the 2-step march gives one label to two levels here, yet its
        # change from the 1-step march is within the stability tolerance (0
        # at the first point, where both lose the same label): the doubling
        # goes on to a march that carries every label
        model = SpinChainModel("mfic", n_sites, B=b)
        sectors = symmetry_sectors(model)
        sweep = QuasiGibbsSweep(sectors.blocks, [0.0, lam], beta, sectors.multiplicity)
        _, two_step, change = sweep._march(2, None)
        assert two_step.lost_steps and change <= thermal.CONTINUATION_STABILITY_TOL
        assert sweep.per_interval > 2
        assert np.array_equal(np.sort(sweep._labels[1]), np.sort(sweep._labels[0]))
        # trace 0.99962 and 1 + 2.9e-10 with the lost label
        assert 0.0 < thermal_overlap(model, beta, lam) < 1.0

    @pytest.mark.parametrize("func", [quasi_gibbs_at, thermal_overlap])
    def test_rejects_negative_beta_before_building_sectors(self, monkeypatch, func):
        import adiatherm.thermal as thermal

        def refuse(model):
            raise AssertionError("symmetry_sectors called")

        monkeypatch.setattr(thermal, "symmetry_sectors", refuse)
        with pytest.raises(ValueError, match="beta must be >= 0"):
            func(SpinChainModel("tfic", 3), -1.0, 0.1)


class TestThermalOverlap:
    def test_held_only_by_the_sector_guard(self, monkeypatch):
        # at 8 GB of physical memory, a dense budget of 2^20 complex 64x64
        # matrices (69 GB) refuses N = 6 while the sectors' two real 64x64
        # arrays fit: thermal_overlap forms no d x d matrix, quasi_gibbs_at does
        from adiatherm import models

        model = SpinChainModel("mfic", 6, B=0.7)
        expected = thermal_overlap(model, 1.0, 0.2)
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 8 * 2**30 // 4096}
        monkeypatch.setattr(models.os, "sysconf", pages.__getitem__)
        monkeypatch.setattr(models, "_DENSE_MATRICES", 1 << 20)
        models.require_sectors_fit(model)
        assert thermal_overlap(model, 1.0, 0.2).hex() == expected.hex()
        with pytest.raises(ValueError, match="N=6 is too large for the dense route"):
            quasi_gibbs_at(model, 1.0, 0.2)

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


def two_record_sweep(model, beta, lam):
    """A QuasiGibbsSweep over [0, lam] on the sectors and its records, one
    (2, g, m, m) stack per group: a test-only copy of the one-lambda
    preparation behind quasi_gibbs_at and thermal_overlap."""
    sectors = symmetry_sectors(model)
    sweep = QuasiGibbsSweep(sectors.blocks, np.array([0.0, lam]), beta, sectors.multiplicity)
    return sweep, [np.concatenate(stacks) for stacks in zip(*sweep.records())]


def one_lambda_state(model, beta, lam):
    sweep, records = two_record_sweep(model, beta, lam)
    sigma = sweep.solver.dense([stack[1] for stack in records])
    basis = symmetry_sectors(model).basis
    return basis @ sigma @ basis.T


def one_lambda_overlap(model, beta, lam):
    sweep, records = two_record_sweep(model, beta, lam)
    rho0, sigma = [stack[0] for stack in records], [stack[1] for stack in records]
    overlap = sweep.solver.inner(sigma, rho0)
    return float(hs_fidelity_from_overlap(overlap, sweep.purity, sweep.purity))


def rotated_lambdas(model, beta, lams):
    """The lambdas of lams at which a level was rotated: in the sweep over
    [0, *lams] or in the two-record sweep of that lambda alone."""
    blocks = symmetry_sectors(model).blocks
    grid = np.array([0.0, *lams])
    rotated = {grid[k] for k in QuasiGibbsSweep(blocks, grid, beta)._rotated}
    return rotated | {lam for lam in lams if QuasiGibbsSweep(blocks, [0.0, lam], beta)._rotated}


STATE_DRIVES = [("tfic", None), ("qxyc", None), ("mfic", 0.7)]
STATE_LAMBDAS = [(1e-3, 0.0, -1e-3), (0.05, 0.0, -0.05), (0.1, 0.3, 0.5)]


class TestQuasiGibbsStates:
    @pytest.mark.parametrize("lams", STATE_LAMBDAS)
    @pytest.mark.parametrize("beta", [0.0, 1.0, 5.0])
    @pytest.mark.parametrize("n_sites", range(3, 7))
    @pytest.mark.parametrize("kind,b", STATE_DRIVES)
    def test_equal_to_one_call_per_lambda(self, kind, b, n_sites, beta, lams):
        model = SpinChainModel(kind, n_sites, B=b)
        states = list(quasi_gibbs_states(model, beta, lams))
        assert len(states) == len(lams)
        rotated = rotated_lambdas(model, beta, lams)
        for lam, state in zip(lams, states):
            one = quasi_gibbs_at(model, beta, lam).mat
            if lam in rotated:
                # a level crossing exactly at lam is rotated onto the previous
                # step's columns, which differ between the two paths by rounding
                assert np.max(np.abs(state.mat - one)) <= 1e-15
            else:
                assert np.array_equal(state.mat, one)

    def test_only_the_exact_crossing_is_rotated(self):
        # qxyc at N=6 has levels crossing exactly at lambda = 0.5; no other
        # record of the grids above rotates a level
        for kind, b in STATE_DRIVES:
            for n_sites in range(3, 7):
                model = SpinChainModel(kind, n_sites, B=b)
                for lams in STATE_LAMBDAS:
                    expected = {0.5} if (kind, n_sites, lams[-1]) == ("qxyc", 6, 0.5) else set()
                    assert rotated_lambdas(model, 1.0, lams) == expected

    @pytest.mark.parametrize(
        "lams", [(math.nan,), (0.1, math.inf, 0.2), (0.1, 0.2, -math.inf), (0.0, math.nan, 0.0)]
    )
    def test_rejects_non_finite_lambda_before_building_sectors(self, monkeypatch, lams):
        import adiatherm.thermal as thermal

        def refuse(model):
            raise AssertionError("symmetry_sectors called")

        monkeypatch.setattr(thermal, "symmetry_sectors", refuse)
        with pytest.raises(ValueError, match="lambda must be finite"):
            quasi_gibbs_states(SpinChainModel("tfic", 3), 1.0, lams)

    def test_no_lambdas_give_no_states(self):
        assert list(quasi_gibbs_states(SpinChainModel("tfic", 3), 1.0, ())) == []

    @pytest.mark.parametrize("lam", [-0.05, 0.0, 1e-3, 0.3])
    @pytest.mark.parametrize("kind,b", STATE_DRIVES)
    def test_one_lambda_calls_unchanged(self, kind, b, lam):
        model = SpinChainModel(kind, 5, B=b)
        assert np.array_equal(quasi_gibbs_at(model, 1.0, lam).mat, one_lambda_state(model, 1.0, lam))
        assert thermal_overlap(model, 1.0, lam).hex() == one_lambda_overlap(model, 1.0, lam).hex()

    def test_ac11_value_unchanged(self):
        # AC11 with one quasi_gibbs_at call per lambda, as it ran before it
        # took its three states from one sweep
        h, beta, expected = 1e-3, 1.0, []
        for model in (SpinChainModel("tfic", 4), SpinChainModel("mfic", 4, B=0.7)):
            spec = spec_for(model)
            rho0 = gibbs_state(spec, beta).mat
            log_s = [
                math.log(float(np.real(np.vdot(rho0, quasi_gibbs_at(model, beta, lam).mat))))
                for lam in (h, 0.0, -h)
            ]
            chi_fd = -2.0 * (log_s[0] - 2.0 * log_s[1] + log_s[2]) / h**2
            chi = chi_f_thermal(spec, build_v(model), beta)
            expected.append(abs(chi_fd / chi - 1.0).hex())
        assert [check.measured.hex() for check in criterion_11().checks] == expected


class TestTwinsOfTheStates:
    @pytest.mark.parametrize("lam", [-0.4, 1e-3, 0.7])
    @pytest.mark.parametrize("kind,b", STATE_DRIVES)
    def test_equal_to_every_twin_marched_for_itself(self, monkeypatch, every_block, kind, b,
                                                    lam):
        # each twin as a block of its own, with its V block from its derived
        # columns: the assembled state and the overlap move only by rounding
        model = SpinChainModel(kind, 6, B=b)
        state, overlap = quasi_gibbs_at(model, 1.0, lam).mat, thermal_overlap(model, 1.0, lam)
        expanded = every_block(model)
        monkeypatch.setattr(thermal, "symmetry_sectors", lambda _: expanded)
        assert np.abs(quasi_gibbs_at(model, 1.0, lam).mat - state).max() <= 1e-12
        assert abs(thermal_overlap(model, 1.0, lam) - overlap) <= 1e-13


BAD_BLOCKS = {
    "hermiticity": r"density matrix not Hermitian \(defect 1\.000e-09\)",
    "trace": "differs from 1 beyond tolerance",
    "eigenvalue": "negative eigenvalue -1.000e-09",
    "purity": r"purity .* outside \(0, 1\]",
}


class TestStateChecks:
    @pytest.mark.parametrize("defect", BAD_BLOCKS)
    def test_one_bad_block_fails_as_the_dense_form(self, defect):
        # the blocks of the Gibbs state with one block spoiled: the block
        # checks raise what DensityMatrix raises on the repeated dense form
        model = SpinChainModel("mfic", 5, B=0.7)
        beta = 40.0 if defect == "purity" else 1.0
        sweep, records = two_record_sweep(model, beta, 0.0)
        solver = sweep.solver
        state = [stack[0].copy() for stack in records]
        _require_state(solver, state)
        DensityMatrix(mat=solver.dense(state))
        # the first block is a partner, counted twice
        assert solver.group_multiplicity[0][0] == 2
        block = state[0][0]
        if defect == "hermiticity":
            block[0, 1] += 1e-9
        elif defect == "trace":
            # under TRACE_TOL for one copy, over it for the two counted
            block[0, 0] += 0.7e-12
        elif defect == "eigenvalue":
            evals, vecs = np.linalg.eigh(block)
            shift = evals[0] + 1e-9
            block += shift * (np.outer(vecs[:, 1], vecs[:, 1]) - np.outer(vecs[:, 0], vecs[:, 0]))
        else:
            # the pure ground state, its weight raised within TRACE_TOL: the
            # purity exceeds 1 + TRACE_TOL
            group, at = next((g, np.unravel_index(np.argmax(x), x.shape))
                             for g, x in enumerate(state) if x.max() > 0.5)
            assert solver.total([np.trace(x, axis1=-2, axis2=-1) for x in state]) == 1.0
            state[group][at] *= 1.0 + 0.9e-12
        with pytest.raises(ValueError, match=BAD_BLOCKS[defect]):
            _require_state(solver, state)
        with pytest.raises(ValueError, match=BAD_BLOCKS[defect]):
            DensityMatrix(mat=solver.dense(state))
