import logging
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adiatherm import closed_forms as cf
from adiatherm.closed_forms import chi_f_tfic_closed, gamma_n_mfic, gamma_n_tfic
from adiatherm.models import SpinChainModel, build_h0, build_v
from adiatherm.operators import (
    HermitianOperator,
    SpectralDecomposition,
    commutator_hs_norm,
    degeneracy_tolerance,
    eigh,
    level_edges,
)
from adiatherm.qsl import delta_v, qsl_radius_constant_rate
from adiatherm.susceptibility import (
    chi_f_thermal,
    delta_v_thermal,
    flip_sums,
    ground_chi_f,
    ground_delta_v,
    high_temp_coefficient,
    low_temp_coefficients,
    threshold_report,
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
            composed = delta_v(gibbs_state(spec, beta), v)
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
        edges = level_edges(spec.eigenvalues)
        for start, stop in zip(edges[:-1], edges[1:]):
            unitary = oracle.random_unitary(stop - start, rng)
            rotated[:, start:stop] = rotated[:, start:stop] @ unitary
        other = SpectralDecomposition(eigenvalues=spec.eigenvalues, eigenvectors=rotated)
        for beta in (0.3, 1.0, 3.0):
            for fn in (chi_f_thermal, delta_v_thermal):
                assert fn(other, v, beta) == pytest.approx(fn(spec, v, beta), rel=1e-12)
        for fn in (ground_chi_f, ground_delta_v):
            assert fn(other, v) == pytest.approx(fn(spec, v), rel=1e-12)


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


def dense_sums(model, betas):
    """The six flip_sums fields from the dense route and the oracle matrices."""
    spec, v = eigh(build_h0(model)), build_v(model)
    h0 = oracle.dense_h0(model.kind, model.n_sites, j=model.J, b=model.B or 0.0)
    vm = oracle.dense_v(model.kind, model.n_sites, j=model.J)
    # H0 is diagonal, so a pair sum over whole levels needs no eigenbasis
    e = np.real(np.diag(h0))
    coupled = np.abs(e[:, None] - e[None, :]) > degeneracy_tolerance(e)
    commutator = commutator_hs_norm(
        HermitianOperator(model.n_sites, h0), HermitianOperator(model.n_sites, vm)
    )
    fixed = (
        ground_delta_v(spec, v),
        ground_chi_f(spec, v),
        float(np.sum(np.abs(vm[coupled]) ** 2)),
        commutator,
    )
    return [(delta_v_thermal(spec, v, b), chi_f_thermal(spec, v, b)) + fixed for b in betas]


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


class TestFlipSums:
    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("kind,b", DRIVES)
    def test_match_dense_route(self, kind, b, n):
        model = SpinChainModel(kind, n, B=b)
        betas = (0.0, 0.3, 1.0, 3.0, 40.0)
        for beta, dense in zip(betas, dense_sums(model, betas)):
            assert_rel_close(flip_sums(model, beta), dense, 1e-12)

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
        assert_rel_close(flip, dense_sums(model, [beta])[0], 1e-12)
        closed = closed_sums(model, beta)
        assert_rel_close(flip[:2], closed[:2], 1e-9)
        assert_rel_close([flip.ground_delta_v / flip.ground_chi_f], closed[2:], 1e-12)
