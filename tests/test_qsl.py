import math

import numpy as np
import pytest

from adiatherm.closed_forms import delta_v_tfic_closed
from adiatherm.models import SpinChainModel, build_h0, build_v
from adiatherm.operators import eigh, hs_norm
from adiatherm.qsl import bound_strong, bound_weak, qsl_radius_constant_rate
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
        # behind the closed-form radius lambda^2 deltaV / (2 Gamma)
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
        assert qsl_radius_constant_rate(3.0, 0.0, 2.0) == 0.0

    def test_arithmetic_example(self):
        # lambda^2 deltaV / (2 Gamma) = 0.01 * sqrt(12) / 4
        r = qsl_radius_constant_rate(math.sqrt(12.0), 0.1, 2.0)
        assert r == pytest.approx(8.660254037844387e-3, abs=1e-15)

    def test_doubling_rate_halves_radius(self):
        r1 = qsl_radius_constant_rate(2.5, 0.2, 1.0)
        r2 = qsl_radius_constant_rate(2.5, 0.2, 2.0)
        assert r1 == pytest.approx(2.0 * r2, rel=1e-15)

    def test_rejects_non_positive_rate(self):
        with pytest.raises(ValueError, match="positive"):
            qsl_radius_constant_rate(1.0, 0.1, 0.0)

    def test_rejects_negative_delta_v(self):
        with pytest.raises(ValueError, match="delta_v must be >= 0"):
            qsl_radius_constant_rate(-1e-300, 0.1, 1.0)

    def test_infinite_temperature_gives_zero(self):
        # deltaV vanishes at beta = 0
        dv = flip_sums(SpinChainModel("tfic", 3), 0.0).delta_v
        assert dv == 0.0
        assert qsl_radius_constant_rate(dv, 0.4, 1.5) == 0.0

    def test_array_matches_scalar_calls(self):
        lams = np.linspace(-0.7, 2.0, 28)
        radius = qsl_radius_constant_rate(2.5, lams, 0.3)
        assert radius.shape == lams.shape
        assert radius.tolist() == [qsl_radius_constant_rate(2.5, float(x), 0.3) for x in lams]

    def test_checks_every_element(self):
        lams = np.array([0.0, 0.1, math.nan, 0.3])
        with pytest.raises(ValueError, match="lambda must be finite, got nan"):
            qsl_radius_constant_rate(1.0, lams, 1.0)
        with pytest.raises(ValueError, match="positive"):
            qsl_radius_constant_rate(1.0, 0.1, np.array([1.0, -2.0]))

    def test_clamps(self):
        # the bounds read R through min(R, pi/2) and min(R, pi/4), so
        # beyond pi/2 neither moves
        assert bound_weak(np.array([2.0, 40.0])).tolist() == [1.0, 1.0]
        g = bound_strong(np.array([math.pi / 2, 2.0, 40.0]), 0.3)
        assert g.tolist() == [g[0]] * 3
        assert g[0] == pytest.approx(0.4 + math.sqrt(0.21), rel=1e-15)


class TestFidelityBounds:
    def test_zero_radius(self):
        assert bound_weak(0.0) == 0.0
        assert bound_strong(0.0, 0.5) == 0.0

    def test_weak_clamps_to_one(self):
        assert bound_weak(5.0) == pytest.approx(1.0)

    def test_weak_sine_value(self):
        assert bound_weak(math.pi / 6) == pytest.approx(0.5)

    def test_strong_at_extreme_overlaps(self):
        for c in (0.0, 1.0):
            assert bound_strong(0.7, c) == pytest.approx(math.sin(0.7) ** 2)

    def test_strong_midpoint_example(self):
        # C = 1/2, R = pi/4: g1 = 0, g2 = sin(pi/2) * 1/2
        assert bound_strong(math.pi / 4, 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_strong_never_exceeds_weak_below_quarter_pi(self):
        # g = sin R sin(R + phi) <= sin R is an identity for R <= pi/4, where
        # both clamps are inactive; dynamics records live in this regime
        for r in np.arange(0.0, math.pi / 4 + 1e-9, 0.005).tolist():
            weak = bound_weak(r)
            for c in np.arange(0.0, 1.0 + 1e-12, 0.01):
                assert bound_strong(r, float(c)) <= weak + 1e-12

    def test_clamps_invert_the_ordering_beyond_quarter_pi(self):
        # beyond R = pi/4 the pi/4 clamp makes g exceed sin(R) for some C:
        # both stay valid upper bounds, but the dominance is regime-limited
        r = 0.8
        c_grid = np.arange(0.0, 1.0 + 1e-12, 0.001)
        max_g = max(bound_strong(r, float(c)) for c in c_grid)
        assert max_g > bound_weak(r)

    def test_rejects_overlap_outside_unit_interval(self):
        with pytest.raises(ValueError, match="outside"):
            bound_strong(0.3, 1.2)

    def test_rejects_any_overlap_of_an_array_outside_unit_interval(self):
        c = np.array([0.0, 0.4, 1.0 + 1e-15, 1.0])
        with pytest.raises(ValueError, match=r"C=1\.000000000000001 outside"):
            bound_strong(np.full(4, 0.3), c)
        with pytest.raises(ValueError, match="outside"):
            bound_strong(0.3, np.array([0.5, math.nan]))

    def test_arrays_match_scalar_calls(self):
        # radii on both sides of both clamps, overlaps across [0, 1]
        rng = np.random.default_rng(4)
        r = np.concatenate([[0.0, math.pi / 4, math.pi / 2], rng.uniform(0.0, 3.0, 40)])
        c = rng.uniform(0.0, 1.0, r.size)
        c[:2] = 0.0, 1.0
        assert bound_weak(r).tolist() == [bound_weak(x) for x in r.tolist()]
        assert bound_strong(r, c).tolist() == [
            bound_strong(x, y) for x, y in zip(r.tolist(), c.tolist())
        ]

