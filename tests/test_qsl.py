import math

import numpy as np
import pytest

from adiatherm.closed_forms import delta_v_tfic_closed
from adiatherm.models import SpinChainModel, build_h0, build_v
from adiatherm.operators import eigh, hs_norm
from adiatherm.qsl import (
    QslRadius,
    bound_strong,
    bound_weak,
    qsl_radius_constant_rate,
    qsl_radius_general,
)
from adiatherm.susceptibility import flip_sums
from adiatherm.thermal import escort_state, gibbs_state

import oracle
from oracle import delta_v, wy_skew_info


def tfic_setup(n, beta):
    model = SpinChainModel("tfic", n)
    spec = eigh(build_h0(model))
    return model, gibbs_state(spec, beta), build_v(model)


# The oracle's skew information and deltaV, the one definition of deltaV as
# sqrt(2 I_WY) that dense_sums and flip_sums are compared against
class TestSkewInformation:
    def test_commuting_pair_vanishes(self):
        model, rho, _ = tfic_setup(3, 1.0)
        h0 = build_h0(model)
        assert wy_skew_info(escort_state(rho).mat, h0.mat) <= 1e-12

    def test_pure_state_gives_variance(self):
        rng = np.random.default_rng(2)
        vec = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        vec /= np.linalg.norm(vec)
        rho = np.outer(vec, vec.conj())
        g = rng.standard_normal((8, 8))
        h = (g + g.T) / 2.0
        expected = np.real(vec.conj() @ h @ h @ vec) - np.real(vec.conj() @ h @ vec) ** 2
        assert wy_skew_info(rho, h) == pytest.approx(expected, rel=1e-12)

    def test_equals_half_square_commutator_norm(self):
        model, rho, v = tfic_setup(4, 1.0)
        escort = escort_state(rho).mat
        evals, evecs = np.linalg.eigh(escort)
        sqrt_escort = (evecs * np.sqrt(np.clip(evals, 0.0, None))) @ evecs.conj().T
        comm = sqrt_escort @ v.mat - v.mat @ sqrt_escort
        assert wy_skew_info(escort, v.mat) == pytest.approx(0.5 * hs_norm(comm) ** 2, abs=1e-10)

    @pytest.mark.parametrize("lam", [0.1, 0.6, -0.3])
    @pytest.mark.parametrize("beta", [0.8, 5.0])
    @pytest.mark.parametrize("kind,b", [("tfic", None), ("qxyc", None), ("mfic", 0.7)])
    def test_gibbs_escort_scales_quadratically_in_lambda(self, kind, b, beta, lam):
        # the escort of a Gibbs state commutes with H0, so
        # I_WY(escort, H0 + lambda V) = lambda^2 I_WY(escort, V): the identity
        # behind qsl_radius_general's scalar integral
        model = SpinChainModel(kind, 5, B=b)
        h0, v = build_h0(model), build_v(model).mat
        escort = escort_state(gibbs_state(eigh(h0), beta)).mat
        h = h0.mat + lam * v
        expected = lam * lam * wy_skew_info(escort, v)
        assert wy_skew_info(escort, h) == pytest.approx(expected, rel=1e-11)

    def test_never_negative(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            rho = oracle.random_density_matrix(8, rng, rank=2)
            g = rng.standard_normal((8, 8))
            h = (g + g.T) / 2.0
            assert wy_skew_info(rho, h) >= 0.0


class TestDeltaV:
    def test_vanishes_at_infinite_temperature(self):
        _, rho, v = tfic_setup(3, 0.0)
        assert delta_v(rho.mat, v.mat) <= 1e-12

    def test_matches_closed_form(self):
        _, rho, v = tfic_setup(6, 0.7)
        expected = delta_v_tfic_closed(6, 0.7, 1.0)
        assert delta_v(rho.mat, v.mat) == pytest.approx(expected, rel=1e-10)

    def test_ground_state_limit(self):
        _, rho, v = tfic_setup(4, 60.0)
        assert delta_v(rho.mat, v.mat) == pytest.approx(math.sqrt(8.0), rel=1e-9)

    def test_monotone_in_beta(self):
        model = SpinChainModel("tfic", 5)
        spec = eigh(build_h0(model))
        v = build_v(model).mat
        betas = [0.2, 0.5, 1.0, 2.0, 3.0]
        values = [delta_v(gibbs_state(spec, b).mat, v) for b in betas]
        assert all(y > x for x, y in zip(values, values[1:]))
        closed = [delta_v_tfic_closed(5, b, 1.0) for b in betas]
        assert np.allclose(values, closed, rtol=1e-10)


class TestQslRadius:
    def test_zero_lambda(self):
        r = qsl_radius_constant_rate(3.0, 0.0, 2.0)
        assert r.value == 0.0
        assert r.clamped_half_pi == 0.0

    def test_arithmetic_example(self):
        # lambda^2 deltaV / (2 Gamma) = 0.01 * sqrt(12) / 4
        r = qsl_radius_constant_rate(math.sqrt(12.0), 0.1, 2.0)
        assert r.value == pytest.approx(8.660254037844387e-3, abs=1e-15)

    def test_doubling_rate_halves_radius(self):
        r1 = qsl_radius_constant_rate(2.5, 0.2, 1.0)
        r2 = qsl_radius_constant_rate(2.5, 0.2, 2.0)
        assert r1.value == pytest.approx(2.0 * r2.value, rel=1e-15)

    def test_rejects_non_positive_rate(self):
        with pytest.raises(ValueError, match="positive"):
            qsl_radius_constant_rate(1.0, 0.1, 0.0)

    def test_clamps(self):
        r = QslRadius(lam=1.0, value=2.0)
        assert r.clamped_half_pi == pytest.approx(math.pi / 2)
        assert r.clamped_quarter_pi == pytest.approx(math.pi / 4)


class TestQslRadiusGeneral:
    def test_agrees_with_constant_rate_closed_form(self):
        # Simpson is exact on the linear integrand lambda' / Gamma
        dv = delta_v_tfic_closed(4, 1.0, 1.0)
        for lam, gamma in ((0.3, 2.0), (0.05, 0.5), (-0.7, 1.3), (2.0, 0.1)):
            general = qsl_radius_general(dv, lam, lambda x: gamma)
            closed = qsl_radius_constant_rate(dv, lam, gamma)
            assert general.value == pytest.approx(closed.value, abs=1e-12)

    @pytest.mark.parametrize("lam", [0.1, 0.6, 1.5])
    def test_quadratic_rate_gives_logarithm(self, lam):
        # int_0^lambda x / (1 + 3 x^2) dx = ln(1 + 3 lambda^2) / 6
        dv = delta_v_tfic_closed(5, 0.8, 1.0)
        r = qsl_radius_general(dv, lam, lambda x: 1.0 + 3.0 * x * x)
        assert r.value == pytest.approx(dv * math.log1p(3.0 * lam * lam) / 6.0, abs=1e-9)

    def test_zero_lambda(self):
        assert qsl_radius_general(2.0, 0.0, lambda x: 1.0).value == 0.0

    def test_infinite_temperature_gives_zero(self):
        # deltaV vanishes at beta = 0
        dv = flip_sums(SpinChainModel("tfic", 3), 0.0).delta_v
        assert dv == 0.0
        assert qsl_radius_general(dv, 0.4, lambda x: 1.0 + x).value == 0.0

    def test_negative_lambda_mirrors_even_rate(self):
        def rate(x):
            return 1.0 + 3.0 * x * x

        r_neg = qsl_radius_general(2.5, -0.6, rate)
        r_pos = qsl_radius_general(2.5, 0.6, rate)
        assert r_neg.lam == -0.6
        assert r_neg.value == pytest.approx(r_pos.value, abs=1e-12)

    def test_rejects_non_positive_rate_function(self):
        with pytest.raises(ValueError, match="non-positive"):
            qsl_radius_general(1.0, 0.2, lambda x: 1.0 - 10.0 * x)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["delta_v", "lambda"])
    def test_rejects_non_finite_input(self, name, bad):
        args = {"delta_v": (bad, 0.2), "lambda": (1.0, bad)}[name]
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            qsl_radius_general(*args, lambda x: 1.0)


class TestFidelityBounds:
    def test_zero_radius(self):
        r = QslRadius(lam=0.0, value=0.0)
        assert bound_weak(r) == 0.0
        assert bound_strong(r, 0.5) == 0.0

    def test_weak_clamps_to_one(self):
        assert bound_weak(QslRadius(lam=1.0, value=5.0)) == pytest.approx(1.0)

    def test_weak_sine_value(self):
        assert bound_weak(QslRadius(lam=1.0, value=math.pi / 6)) == pytest.approx(0.5)

    def test_strong_at_extreme_overlaps(self):
        r = QslRadius(lam=1.0, value=0.7)
        for c in (0.0, 1.0):
            assert bound_strong(r, c) == pytest.approx(math.sin(0.7) ** 2)

    def test_strong_midpoint_example(self):
        # C = 1/2, R = pi/4: g1 = 0, g2 = sin(pi/2) * 1/2
        r = QslRadius(lam=1.0, value=math.pi / 4)
        assert bound_strong(r, 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_strong_never_exceeds_weak_below_quarter_pi(self):
        # g = sin R sin(R + phi) <= sin R is an identity for R <= pi/4, where
        # both clamps are inactive; dynamics records live in this regime
        for r_val in np.arange(0.0, math.pi / 4 + 1e-9, 0.005):
            r = QslRadius(lam=1.0, value=float(r_val))
            weak = bound_weak(r)
            for c in np.arange(0.0, 1.0 + 1e-12, 0.01):
                assert bound_strong(r, float(c)) <= weak + 1e-12

    def test_clamps_invert_the_ordering_beyond_quarter_pi(self):
        # beyond R = pi/4 the pi/4 clamp makes g exceed sin(R) for some C:
        # both stay valid upper bounds, but the dominance is regime-limited
        r = QslRadius(lam=1.0, value=0.8)
        c_grid = np.arange(0.0, 1.0 + 1e-12, 0.001)
        max_g = max(bound_strong(r, float(c)) for c in c_grid)
        assert max_g > bound_weak(r)

    def test_rejects_overlap_outside_unit_interval(self):
        r = QslRadius(lam=1.0, value=0.3)
        with pytest.raises(ValueError, match="outside"):
            bound_strong(r, 1.2)
