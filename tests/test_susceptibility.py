import logging
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adiatherm import closed_forms as cf
from adiatherm import models
from adiatherm.closed_forms import chi_f_tfic_closed, gamma_n_mfic, gamma_n_tfic
from adiatherm.models import SpinChainModel, build_h0, build_v
from adiatherm.operators import (
    SpectralDecomposition,
    degeneracy_tolerance,
    eigh,
    level_starts,
)
from adiatherm.qsl import qsl_radius_constant_rate
from adiatherm.susceptibility import (
    chi_f_thermal,
    delta_v_thermal,
    dense_sums,
    dense_sums_sweep,
    flip_sums,
    flip_sums_sweep,
    ground_chi_f,
    ground_delta_v,
    high_temp_coefficient,
    low_temp_coefficients,
    threshold_report,
    threshold_sweep,
)
from adiatherm.thermal import gibbs_state, quasi_gibbs_at, thermal_overlap

import oracle

logger = logging.getLogger(__name__)


def setup(kind, n, b=None):
    model = SpinChainModel(kind, n, B=b)
    return model, eigh(build_h0(model)), build_v(model)


class TestChiThermal:
    def test_vanishes_at_infinite_temperature(self):
        _, spec, v = setup("tfic", 4)
        assert chi_f_thermal(spec, v, 0.0) == 0.0

    def test_matches_closed_form(self):
        _, spec, v = setup("tfic", 6)
        assert chi_f_thermal(spec, v, 1.0) == pytest.approx(
            chi_f_tfic_closed(6, 1.0, 1.0), rel=1e-9
        )

    def test_qxyc_equals_tfic(self):
        _, spec_t, v_t = setup("tfic", 5)
        _, spec_q, v_q = setup("qxyc", 5)
        assert chi_f_thermal(spec_q, v_q, 0.8) == pytest.approx(
            chi_f_thermal(spec_t, v_t, 0.8), rel=1e-10
        )

    def test_against_brute_force_double_loop(self):
        h0 = oracle.dense_h0("mfic", 3, b=0.7)
        v = oracle.dense_v("mfic", 3)
        _, spec, vop = setup("mfic", 3, b=0.7)
        tol = degeneracy_tolerance(spec.eigenvalues)
        expected = oracle.brute_chi_f(h0, v, 0.9, tol)
        assert chi_f_thermal(spec, vop, 0.9) == pytest.approx(expected, rel=1e-12)

    def test_stable_under_spectrum_perturbation(self):
        _, spec, v = setup("tfic", 5)
        base = chi_f_thermal(spec, v, 1.0)
        rng = np.random.default_rng(31)
        jitter = rng.choice([-1e-12, 1e-12], size=spec.eigenvalues.size)
        bumped = SpectralDecomposition(
            eigenvalues=np.sort(spec.eigenvalues + jitter), eigenvectors=spec.eigenvectors
        )
        assert abs(chi_f_thermal(bumped, v, 1.0) - base) < 1e-8

    def test_rejects_negative_beta(self):
        _, spec, v = setup("tfic", 3)
        with pytest.raises(ValueError):
            chi_f_thermal(spec, v, -1.0)


class TestDeltaVThermal:
    def test_matches_escort_route_at_moderate_beta(self):
        model, spec, v = setup("mfic", 4, b=0.7)
        for beta in (0.3, 1.0, 2.0):
            composed = oracle.delta_v(gibbs_state(spec, beta).mat, v.mat)
            assert delta_v_thermal(spec, v, beta) == pytest.approx(composed, rel=1e-10)

    def test_zero_at_infinite_temperature(self):
        _, spec, v = setup("tfic", 4)
        assert delta_v_thermal(spec, v, 0.0) == 0.0

    def test_ground_limit(self):
        _, spec, v = setup("tfic", 5)
        assert delta_v_thermal(spec, v, 50.0) == pytest.approx(math.sqrt(10.0), rel=1e-12)


class TestChiGround:
    def test_matches_large_beta_thermal(self):
        _, spec, v = setup("mfic", 4, b=0.7)
        assert ground_chi_f(spec, v) == pytest.approx(chi_f_thermal(spec, v, 40.0), rel=1e-8)

    def test_mfic_closed_value(self):
        # N single-flip states at gap 2(2J + B): chi0 = N J^2 / (2J + B)^2
        _, spec, v = setup("mfic", 5, b=0.7)
        assert ground_chi_f(spec, v) == pytest.approx(5.0 / 2.7**2, rel=1e-12)

    def test_diagonal_drive_gives_zero(self):
        model, spec, _ = setup("mfic", 3, b=0.7)
        assert ground_chi_f(spec, build_h0(model)) == 0.0

    def test_matches_overlap_curvature(self):
        # -d^2/dlambda^2 ln |<E0|E0(lambda)>|^4 by central difference
        model, spec, v = setup("mfic", 4, b=0.7)
        h = 1e-3
        h0, vm = build_h0(model).mat, v.mat
        ground = spec.eigenvectors[:, 0]

        def log_c0(lam):
            _, vecs = np.linalg.eigh(h0 + lam * vm)
            overlap = abs(np.vdot(vecs[:, 0], ground))
            return 4.0 * math.log(overlap)

        chi_fd = -(log_c0(h) - 2.0 * log_c0(0.0) + log_c0(-h)) / h**2
        assert ground_chi_f(spec, v) == pytest.approx(chi_fd, rel=1e-4)


class TestGroundLimitsDegenerate:
    def test_tfic_values_from_two_ground_states(self):
        # twofold ferromagnetic multiplet: chi0 = N/4, deltaV0 = sqrt(2N) J
        _, spec, v = setup("tfic", 6)
        assert ground_chi_f(spec, v) == pytest.approx(6.0 / 4.0, rel=1e-12)
        assert ground_delta_v(spec, v) == pytest.approx(math.sqrt(12.0), rel=1e-12)


class TestDenseOracle:
    @pytest.mark.parametrize("kind,b", [("tfic", None), ("qxyc", None), ("mfic", 0.7)])
    def test_invariant_under_rotation_inside_levels(self, kind, b):
        # the dense sums run over whole degenerate levels, so any orthonormal
        # basis eigh might return inside a level gives the same values
        _, spec, v = setup(kind, 5, b=b)
        rng = np.random.default_rng(17)
        rotated = spec.eigenvectors.astype(complex)
        edges = np.flatnonzero(level_starts(spec.eigenvalues))
        for start, stop in zip(edges[:-1], edges[1:]):
            unitary = oracle.random_unitary(stop - start, rng)
            rotated[:, start:stop] = rotated[:, start:stop] @ unitary
        other = SpectralDecomposition(eigenvalues=spec.eigenvalues, eigenvectors=rotated)
        for beta in (0.0, 0.3, 1.0, 3.0):
            record = dense_sums(spec, v, beta)
            assert dense_sums(other, v, beta) == pytest.approx(record, rel=1e-12)
            assert record == (
                delta_v_thermal(spec, v, beta),
                chi_f_thermal(spec, v, beta),
                ground_delta_v(spec, v),
                ground_chi_f(spec, v),
                *record[4:],
            )


class TestLowTempCoefficients:
    def test_mfic_exact_ratios(self):
        # all ground-coupled weight sits in the single-flip level:
        # a = 1/2, b = 1/4, W = 1/2, c1 = 1, Delta = 2(2J + |B|)
        for n in range(3, 9):
            for b in (0.7, 1.0, -0.4, 2.5):
                co = low_temp_coefficients(SpinChainModel("mfic", n, B=b))
                assert co.a == pytest.approx(0.5, abs=1e-12)
                assert co.b == pytest.approx(0.25, abs=1e-12)
                assert co.W == pytest.approx(0.5, abs=1e-12)
                assert co.c1 == pytest.approx(1.0, abs=1e-12)
                assert co.gap_delta == pytest.approx(2 * (2.0 + abs(b)), rel=1e-12)
                # the single-flip drive couples the ground state to exactly
                # one level, so there is no second coupled gap
                assert co.gap_delta2 is None

    @pytest.mark.parametrize("kind", ["tfic", "qxyc"])
    def test_degenerate_ground_rejected(self, kind):
        with pytest.raises(ValueError, match="degenerate ground state"):
            low_temp_coefficients(SpinChainModel(kind, 4))

    def test_tiny_field_exploratory(self):
        # near-degenerate ground: the two-level ratios stay at c1 = 1 even as
        # B -> 0, while the thermodynamic ferromagnet carries coefficient 2;
        # logged rather than asserted because the fixed-N expansion regime
        # collapses with the splitting
        co = low_temp_coefficients(SpinChainModel("mfic", 4, B=1e-3))
        logger.info("tiny-splitting c1 = %.6f (thermodynamic ferromagnet: 2)", co.c1)
        assert 0.0 < co.c1 <= 2.0


class TestHighTempCoefficient:
    @pytest.mark.parametrize("kind,b", [("tfic", None), ("qxyc", None), ("mfic", 0.7)])
    def test_positive(self, kind, b):
        assert high_temp_coefficient(SpinChainModel(kind, 4, B=b)) > 0.0

    def test_tfic_value_matches_asymptote(self):
        # high-T law f ~ c2 / beta with c2 = 1/(2J) for the transverse drive
        for j in (1.0, 0.5, 2.0):
            c2 = high_temp_coefficient(SpinChainModel("tfic", 6, J=j))
            assert c2 == pytest.approx(0.5 / j, rel=1e-12)

    def test_vanishing_offdiagonal_weight_rejected(self):
        # the 2-ring qxyc drive only couples states of equal energy
        with pytest.raises(ValueError, match="off-diagonal"):
            high_temp_coefficient(SpinChainModel("qxyc", 2))

    def test_high_temperature_laws(self):
        beta = 0.01
        for kind, b in (("tfic", None), ("mfic", 0.7)):
            model, spec, v = setup(kind, 4, b=b)
            d = model.dim
            sums = flip_sums(model, beta)
            chi = chi_f_thermal(spec, v, beta)
            assert chi == pytest.approx(beta**2 * (2.0 / d) * sums.offdiag_square_sum, rel=1e-3)
            law = lambda bb: bb / math.sqrt(d) * sums.commutator_norm
            rel = abs(delta_v_thermal(spec, v, beta) / law(beta) - 1.0)
            if kind == "tfic":
                # symmetric spectrum: leading correction is O(beta^2)
                assert rel <= 1e-3
            else:
                # longitudinal field leaves an O(beta) correction: verify the
                # law by its convergence order instead of a flat tolerance
                rel_half = abs(delta_v_thermal(spec, v, beta / 2) / law(beta / 2) - 1.0)
                assert rel < 2e-2
                assert rel / rel_half == pytest.approx(2.0, rel=0.05)


class TestThresholdReport:
    def test_identities_hold(self):
        report = threshold_report(SpinChainModel("tfic", 5), 1.2, alpha=1.5)
        assert report.gamma_th == pytest.approx(1.5 * report.delta_v / report.chi_f, rel=1e-14)
        assert report.f_n == pytest.approx(report.gamma_th / report.gamma_n, rel=1e-14)

    def test_alpha_linearity(self):
        base = threshold_report(SpinChainModel("mfic", 4, B=0.7), 0.8, alpha=1.0)
        doubled = threshold_report(SpinChainModel("mfic", 4, B=0.7), 0.8, alpha=2.0)
        assert doubled.gamma_th == pytest.approx(2.0 * base.gamma_th, rel=1e-14)
        assert doubled.f_n == pytest.approx(base.f_n, rel=1e-14)

    def test_infinite_temperature_marker(self):
        report = threshold_report(SpinChainModel("tfic", 4), 0.0)
        assert report.undefined_at_infinite_temperature
        assert report.delta_v == 0.0 and report.chi_f == 0.0
        assert math.isnan(report.gamma_th) and math.isnan(report.f_n)

    def test_unresolvable_tiny_beta_marked_like_infinite_temperature(self):
        # chi_F ~ beta^2 is subnormal at beta = 1e-160 and 0 at 1e-200, so
        # both rows are undefined as at beta = 0, while deltaV keeps its digits
        sub, zero = threshold_sweep(SpinChainModel("tfic", 6), (1e-160, 1e-200))
        assert 0.0 < sub.chi_f < sys.float_info.min and zero.chi_f == 0.0
        for report in (sub, zero):
            assert report.undefined_at_infinite_temperature
            closed = cf.delta_v_tfic_closed(6, report.beta, 1.0)
            assert report.delta_v == pytest.approx(closed, rel=1e-15)
            assert math.isnan(report.gamma_th) and math.isnan(report.f_n)

    def test_zero_temperature_reference_values(self):
        for n in (4, 6):
            report = threshold_report(SpinChainModel("tfic", n), 1.0)
            assert report.gamma_n == pytest.approx(gamma_n_tfic(n, 1.0), rel=1e-12)
            report = threshold_report(SpinChainModel("mfic", n, B=0.7), 1.0)
            assert report.gamma_n == pytest.approx(gamma_n_mfic(n, 1.0, 0.7), rel=1e-12)

    @pytest.mark.parametrize("kind,b", [("tfic", None), ("qxyc", None), ("mfic", 0.7)])
    def test_f_n_approaches_one_at_low_temperature(self, kind, b):
        report = threshold_report(SpinChainModel(kind, 6, B=b), 40.0)
        assert abs(report.f_n - 1.0) <= 1e-6

    def test_rejects_non_positive_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            threshold_report(SpinChainModel("tfic", 4), 1.0, alpha=0.0)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_rejects_non_finite_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha must be finite"):
            threshold_report(SpinChainModel("tfic", 4), 1.0, alpha=alpha)

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_beta(self, beta):
        with pytest.raises(ValueError, match="beta must be finite"):
            threshold_report(SpinChainModel("tfic", 4), beta)

    def test_rejects_negative_beta(self):
        with pytest.raises(ValueError, match="beta must be >= 0"):
            threshold_report(SpinChainModel("tfic", 4), -1.0)

    def test_uncoupled_ground_level_rejected(self):
        # the 2-ring qxyc drive commutes with H0, so Gamma_N = 0/0
        with pytest.raises(ValueError, match="Gamma_N undefined"):
            threshold_report(SpinChainModel("qxyc", 2), 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize(
    "name,call",
    [
        pytest.param("beta", lambda x: flip_sums(SpinChainModel("tfic", 3), x), id="flip_sums"),
        pytest.param("beta", lambda x: chi_f_thermal(*setup("tfic", 3)[1:], x), id="chi_f_thermal"),
        pytest.param(
            "beta", lambda x: delta_v_thermal(*setup("tfic", 3)[1:], x), id="delta_v_thermal"
        ),
        pytest.param(
            "lambda", lambda x: quasi_gibbs_at(SpinChainModel("tfic", 3), 1.0, x), id="quasi_gibbs_at"
        ),
        pytest.param(
            "lambda", lambda x: thermal_overlap(SpinChainModel("tfic", 3), 1.0, x), id="thermal_overlap"
        ),
        pytest.param("delta_v", lambda x: qsl_radius_constant_rate(x, 0.1, 1.0), id="qsl_delta_v"),
        pytest.param("lambda", lambda x: qsl_radius_constant_rate(1.0, x, 1.0), id="qsl_lambda"),
        pytest.param("gamma", lambda x: qsl_radius_constant_rate(1.0, 0.1, x), id="qsl_gamma"),
    ],
)
def test_entry_points_reject_non_finite_input(name, call, bad):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        call(bad)


DRIVES = [("tfic", None), ("qxyc", None), ("mfic", 0.7), ("mfic", 1.0)]


def oracle_sums(model, betas):
    """The six flip_sums fields: the four spectral ones from the package's
    dense_sums, the two beta-independent ones from the oracle matrices."""
    spec, v = eigh(build_h0(model)), build_v(model)
    h0 = oracle.dense_h0(model.kind, model.n_sites, j=model.J, b=model.B or 0.0)
    vm = oracle.dense_v(model.kind, model.n_sites, j=model.J)
    # H0 is diagonal, so a pair sum over whole levels needs no eigenbasis
    e = np.real(np.diag(h0))
    coupled = np.abs(e[:, None] - e[None, :]) > degeneracy_tolerance(e)
    commutator = float(np.linalg.norm(h0 @ vm - vm @ h0))
    fixed = (float(np.sum(np.abs(vm[coupled]) ** 2)), commutator)
    return [sums[:4] + fixed for sums in dense_sums_sweep(spec, v, betas)]


def closed_sums(model, beta):
    n, j, b = model.n_sites, model.J, model.B
    if model.kind == "mfic":
        return (
            cf.delta_v_mfic_closed(n, beta, j, b),
            cf.chi_f_mfic_closed(n, beta, j, b),
            cf.gamma_n_mfic(n, j, b),
        )
    return cf.delta_v_tfic_closed(n, beta, j), cf.chi_f_tfic_closed(n, beta, j), cf.gamma_n_tfic(n, j)


def assert_rel_close(got, expected, rel):
    for g, e in zip(got, expected):
        assert abs(g - e) <= rel * abs(e), (got, expected)


BETAS = (0.0, 0.3, 1.0, 3.0, 40.0)


class TestFlipSums:
    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("kind,b", DRIVES)
    def test_match_dense_route(self, kind, b, n):
        model = SpinChainModel(kind, n, B=b)
        for beta, dense in zip(BETAS, oracle_sums(model, BETAS)):
            assert_rel_close(flip_sums(model, beta), dense, 1e-12)

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("kind,b", DRIVES)
    def test_dense_record_matches_flip_sums(self, kind, b, n):
        model = SpinChainModel(kind, n, B=b)
        spec, v = eigh(build_h0(model)), build_v(model)
        for beta in BETAS:
            assert_rel_close(dense_sums(spec, v, beta), flip_sums(model, beta), 1e-12)

    @pytest.mark.parametrize("n", [14, 16])
    @pytest.mark.parametrize("kind,b", [("tfic", None), ("qxyc", None), ("mfic", 0.7)])
    def test_threshold_report_builds_no_dense_matrix(self, monkeypatch, kind, b, n):
        def refuse(*args, **kwargs):
            raise AssertionError("dense path taken")

        for name, module in list(sys.modules.items()):
            if name.startswith("adiatherm"):
                for attr in ("build_h0", "build_v", "eigh"):
                    if hasattr(module, attr):
                        monkeypatch.setattr(module, attr, refuse)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        model = SpinChainModel(kind, n, B=b)
        for beta in (0.3, 1.0, 3.0):
            report = threshold_report(model, beta)
            got = (report.delta_v, report.chi_f, report.gamma_n)
            assert_rel_close(got, closed_sums(model, beta), 1e-12)

    def test_huge_beta_gives_the_ground_fields(self):
        # -2 beta overflows to -inf at beta = 1e308, and -inf times the ground's
        # zero energy is nan; -beta (2 E) keeps Z0(2 beta) at the ground count
        model = SpinChainModel("tfic", 4)
        spec, v = eigh(build_h0(model)), build_v(model)
        for sums in (flip_sums(model, 1e308), dense_sums(spec, v, 1e308)):
            got, ground = (sums.delta_v, sums.chi_f), (sums.ground_delta_v, sums.ground_chi_f)
            assert_rel_close(got, ground, 1e-12)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        kind=st.sampled_from(["tfic", "qxyc", "mfic"]),
        n=st.integers(3, 7),
        beta=st.floats(0.05, 5.0),
        j=st.floats(0.5, 2.0),
        b_over_j=st.floats(0.1, 1.9),
    )
    def test_flip_dense_and_closed_forms_agree(self, kind, n, beta, j, b_over_j):
        model = SpinChainModel(kind, n, J=j, B=b_over_j * j if kind == "mfic" else None)
        flip = flip_sums(model, beta)
        assert_rel_close(flip, oracle_sums(model, [beta])[0], 1e-12)
        closed = closed_sums(model, beta)
        assert_rel_close(flip[:2], closed[:2], 1e-9)
        assert_rel_close([flip.ground_delta_v / flip.ground_chi_f], closed[2:], 1e-12)


SWEEP_DRIVES = [("tfic", None), ("qxyc", None), ("mfic", 0.7)]
SWEEP_BETAS = (0.0, 1e-3, 0.1, 1.0, 3.0, 40.0)


def float_hexes(records):
    return [[x.hex() for x in record] for record in records]


def per_mask_sums(model, beta):
    """The six flip_sums fields at one beta from one pass over the 2^N
    states per flip_terms mask: the reference for flip_sums_sweep's one
    pass per translation orbit."""
    e = models.classical_energies(model)
    shifted = e - e.min()
    tol = degeneracy_tolerance(e)
    ground = shifted <= tol
    idx = np.arange(model.dim)
    with np.errstate(over="ignore"):
        w = np.exp(-beta * shifted)
        z2 = float(np.sum(np.exp(-beta * (2.0 * shifted))))
    dv2 = chi = dv0_2 = chi0 = offdiag = commutator = 0.0
    for mask, amplitude in models.flip_terms(model):
        a2 = amplitude * amplitude
        partner = idx ^ mask
        de = shifted[partner] - shifted
        coupled = np.abs(de) > tol
        dw2 = (w[partner] - w) ** 2
        dv2 += a2 * float(np.sum(dw2))
        chi += a2 * float(np.sum(dw2[coupled] / de[coupled] ** 2))
        leaves_ground = ground & ~ground[partner]
        dv0_2 += a2 * float(np.count_nonzero(leaves_ground))
        chi0 += a2 * float(np.sum(shifted[partner[leaves_ground]] ** -2.0))
        offdiag += a2 * float(np.count_nonzero(coupled))
        commutator += a2 * float(de @ de)
    g0 = np.count_nonzero(ground)
    return (math.sqrt(dv2 / z2), 2.0 * chi / z2, math.sqrt(2.0 * dv0_2 / g0),
            4.0 / g0 * chi0, offdiag, math.sqrt(commutator))


class TestFlipSumsSweep:
    @pytest.mark.parametrize("n", range(3, 11))
    @pytest.mark.parametrize("kind,b", SWEEP_DRIVES)
    def test_bitwise_equal_to_one_beta_calls(self, kind, b, n):
        model = SpinChainModel(kind, n, B=b)
        one_by_one = [flip_sums(model, beta) for beta in SWEEP_BETAS]
        assert float_hexes(flip_sums_sweep(model, SWEEP_BETAS)) == float_hexes(one_by_one)

    @pytest.mark.parametrize("kind,b", SWEEP_DRIVES)
    def test_rows_unchanged_at_one_beta_per_chunk(self, monkeypatch, stacks, kind, b):
        # at N = 8 a beta costs three arrays of 11 classes (tfic, qxyc) or
        # 64 (mfic), so the default budget takes 496 or 85 betas a chunk and
        # 1000 betas make 3 or 12 chunks, against 1000 with the budget patched down
        model = SpinChainModel(kind, 8, B=b)
        betas = np.geomspace(1e-3, 40.0, 1000)
        chunked = flip_sums_sweep(model, betas)
        assert 1 < len(stacks) < betas.size
        monkeypatch.setattr(models, "_STACK_BYTES", 1)
        stacks.clear()
        assert float_hexes(flip_sums_sweep(model, betas)) == float_hexes(chunked)
        assert len(stacks) == betas.size

    @pytest.mark.parametrize("bad,match", [(-1.0, "beta must be >= 0"), (math.nan, "finite")])
    def test_every_beta_checked_before_allocating(self, monkeypatch, bad, match):
        def refuse(*args, **kwargs):
            raise AssertionError("allocated before checking every beta")

        monkeypatch.setattr(np, "arange", refuse)
        with pytest.raises(ValueError, match=match):
            flip_sums_sweep(SpinChainModel("tfic", 4), [0.1, 0.5, 1.0, bad, 2.0])

    @pytest.mark.parametrize("n", range(2, 11))
    @pytest.mark.parametrize("kind,b", DRIVES + [("mfic", 1e-12), ("mfic", 2 - 1e-12)])
    def test_matches_a_pass_per_mask(self, kind, b, n):
        model = SpinChainModel(kind, n, B=b)
        betas = SWEEP_BETAS + (1e308,)
        for beta, got in zip(betas, flip_sums_sweep(model, betas)):
            for g, e in zip(got, per_mask_sums(model, beta)):
                assert g == 0.0 if e == 0.0 else abs(g - e) <= 1e-13 * abs(e), (beta, got)

    @pytest.mark.parametrize("kind,b", SWEEP_DRIVES)
    def test_threshold_sweep_repeats_threshold_report(self, kind, b):
        # repr round-trips every float, so equal reprs are bitwise equal reports
        model = SpinChainModel(kind, 6, B=b)
        swept = threshold_sweep(model, SWEEP_BETAS, alpha=1.5)
        assert [repr(r) for r in swept] == [
            repr(threshold_report(model, beta, alpha=1.5)) for beta in SWEEP_BETAS
        ]


DENSE_SWEEP_BETAS = (0.0, 1e-3, 0.3, 1.0, 3.0, 40.0, 1e308)


def per_beta_chi_f(spec, v, beta):
    """chi_F of the dense route at one beta from the d x d pair arrays: the
    reference for the reduction over eigenvalue classes."""
    e, u = spec.eigenvalues, spec.eigenvectors
    shifted = e - e.min()
    tol = degeneracy_tolerance(e)
    v2 = np.abs(u.conj().T @ v.mat @ u) ** 2
    with np.errstate(over="ignore"):
        w = np.exp(-beta * shifted)
        z2 = float(np.sum(np.exp(-beta * (2.0 * shifted))))
    de = shifted[:, None] - shifted[None, :]
    # the weight of the lower end times expm1 of minus beta the gap
    dw = np.maximum(w[:, None], w[None, :]) * np.expm1(-beta * np.abs(de))
    contrib = np.zeros_like(de)
    np.divide(dw * dw * v2, de * de, out=contrib, where=np.abs(de) > tol)
    return 2.0 * float(contrib.sum()) / z2


class TestDenseSumsSweep:
    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("kind,b", SWEEP_DRIVES)
    def test_bitwise_equal_to_one_beta_calls(self, kind, b, n):
        _, spec, v = setup(kind, n, b)
        one_by_one = [dense_sums(spec, v, beta) for beta in DENSE_SWEEP_BETAS]
        swept = dense_sums_sweep(spec, v, DENSE_SWEEP_BETAS)
        assert float_hexes(swept) == float_hexes(one_by_one)

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("kind,b", SWEEP_DRIVES)
    def test_chi_f_matches_the_per_beta_pair_array(self, kind, b, n):
        # the class reduction's chi_F against the d x d pair sum at each beta
        _, spec, v = setup(kind, n, b)
        betas = (0.0, 1e-3, 0.3, 1.0, 3.0, 40.0)
        for beta, sums in zip(betas, dense_sums_sweep(spec, v, betas)):
            expected = per_beta_chi_f(spec, v, beta)
            assert sums.chi_f == 0.0 if expected == 0.0 else (
                abs(sums.chi_f - expected) <= 1e-14 * abs(expected)
            ), (beta, sums.chi_f, expected)

    @pytest.mark.parametrize("bad,match", [(-1.0, "beta must be >= 0"), (math.nan, "finite")])
    def test_every_beta_checked_before_rotating(self, bad, match):
        class UnreadV:
            @property
            def mat(self):
                raise AssertionError("V read before checking every beta")

        _, spec, _ = setup("tfic", 4)
        with pytest.raises(ValueError, match=match):
            dense_sums_sweep(spec, UnreadV(), [0.1, 0.5, 1.0, bad, 2.0])
