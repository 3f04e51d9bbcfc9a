import logging
import math

import numpy as np
import pytest

from adiatherm.closed_forms import (
    _split_coefficients,
    chi_f_mfic_closed,
    chi_f_tfic_closed,
    delta_v_mfic_closed,
    delta_v_tfic_closed,
    f_mfic,
    f_mfic_asymptotics,
    f_n_tfic,
    f_tfic_asymptotics,
    gamma_n_mfic,
    gamma_n_tfic,
    mfic_coefficients,
    mfic_threshold_forms,
)
from adiatherm.models import SpinChainModel, build_h0, build_v
from adiatherm.operators import eigh
from adiatherm.susceptibility import (
    chi_f_thermal,
    delta_v_thermal,
    flip_sums,
    flip_sums_sweep,
    ground_chi_f,
)

logger = logging.getLogger(__name__)


class TestPartitionFunctions:
    """The closed forms are partition-function ratios of rings with N >= 3."""

    def test_size_validation(self):
        with pytest.raises(ValueError, match="n_sites"):
            delta_v_tfic_closed(2, 1.0, 1.0)
        with pytest.raises(ValueError, match="n_sites"):
            chi_f_mfic_closed(2, 1.0, 1.0, 0.7)

    # each closed form rejects a bad ring size or coupling with SpinChainModel's message
    BAD_CHAINS = {
        "mfic nan B": (lambda: delta_v_mfic_closed(6, 1.0, 1.0, math.nan),
                       ("mfic", 6, 1.0, math.nan)),
        "mfic limit nan J": (lambda: f_mfic(None, 1.0, math.nan, 0.7), ("mfic", 6, math.nan, 0.7)),
        "tfic nan J": (lambda: delta_v_tfic_closed(6, 1.0, math.nan), ("tfic", 6, math.nan)),
        "tfic negative J": (lambda: chi_f_tfic_closed(6, 1.0, -1.0), ("tfic", 6, -1.0)),
        "tfic fractional N": (lambda: delta_v_tfic_closed(3.5, 1.0, 1.0), ("tfic", 3.5, 1.0)),
        "gamma_n infinite J": (lambda: gamma_n_tfic(6, math.inf), ("tfic", 6, math.inf)),
    }

    @pytest.mark.parametrize("case", sorted(BAD_CHAINS))
    def test_ring_and_couplings_validated(self, case):
        call, model_args = self.BAD_CHAINS[case]
        with pytest.raises(ValueError) as closed:
            call()
        with pytest.raises(ValueError) as model:
            SpinChainModel(*model_args)
        assert str(closed.value) == str(model.value)

    ENTRY_POINTS = {
        "delta_v_tfic_closed": lambda beta: delta_v_tfic_closed(6, beta, 1.0),
        "chi_f_tfic_closed": lambda beta: chi_f_tfic_closed(6, beta, 1.0),
        "f_n_tfic": lambda beta: f_n_tfic(6, beta, 1.0),
        "f_tfic_asymptotics": lambda beta: f_tfic_asymptotics(beta, 1.0, "high"),
        "mfic_coefficients": lambda beta: mfic_coefficients(beta, 1.0, 0.7),
        "delta_v_mfic_closed": lambda beta: delta_v_mfic_closed(6, beta, 1.0, 0.7),
        "chi_f_mfic_closed": lambda beta: chi_f_mfic_closed(6, beta, 1.0, 0.7),
        "f_mfic": lambda beta: f_mfic(6, beta, 1.0, 0.7),
        "f_mfic_thermodynamic": lambda beta: f_mfic(None, beta, 1.0, 0.7),
        "f_mfic_asymptotics": lambda beta: f_mfic_asymptotics(beta, 1.0, 0.7, "high"),
    }
    FACTORS = ("f_n_tfic", "f_tfic_asymptotics", "f_mfic", "f_mfic_thermodynamic",
               "f_mfic_asymptotics")

    @pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf, -1.0, 0.0])
    def test_beta_validated(self, name, beta):
        call = self.ENTRY_POINTS[name]
        if beta == 0 and name not in self.FACTORS:
            call(beta)
            return
        message = {0.0: "beta must be > 0", -1.0: "beta must be >= 0"}.get(
            beta, "beta must be finite"
        )
        with pytest.raises(ValueError, match=message):
            call(beta)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, 0.0, -2.0])
    @pytest.mark.parametrize(
        "gamma_n", [lambda a: gamma_n_tfic(6, 1.0, a), lambda a: gamma_n_mfic(6, 1.0, 0.7, a)],
        ids=["gamma_n_tfic", "gamma_n_mfic"],
    )
    def test_alpha_validated(self, gamma_n, alpha):
        # threshold_report's check and messages (models.require_alpha)
        message = "alpha must be finite" if not math.isfinite(alpha) else "alpha must be positive"
        with pytest.raises(ValueError, match=message):
            gamma_n(alpha)


class TestTficClosedForms:
    def test_delta_v_infinite_temperature(self):
        assert delta_v_tfic_closed(6, 0.0, 1.0) == 0.0

    def test_delta_v_ground_limit(self):
        assert delta_v_tfic_closed(6, 100.0, 1.0) == pytest.approx(math.sqrt(12.0), rel=1e-12)

    def test_delta_v_matches_ed(self):
        model = SpinChainModel("tfic", 6)
        spec = eigh(build_h0(model))
        assert delta_v_tfic_closed(6, 0.7, 1.0) == pytest.approx(
            delta_v_thermal(spec, build_v(model), 0.7), rel=1e-10
        )

    def test_chi_limits(self):
        assert chi_f_tfic_closed(8, 0.0, 1.0) == 0.0
        assert chi_f_tfic_closed(8, 50.0, 1.0) == pytest.approx(2.0, rel=1e-10)

    def test_chi_matches_ed(self):
        model = SpinChainModel("tfic", 8)
        spec = eigh(build_h0(model))
        assert chi_f_tfic_closed(8, 1.0, 1.0) == pytest.approx(
            chi_f_thermal(spec, build_v(model), 1.0), rel=1e-9
        )

    def test_f_n_is_threshold_ratio(self):
        # f_N = (deltaV/chi_F) / (Gamma_N/alpha) is an algebraic identity
        n, beta = 7, 0.9
        ratio = delta_v_tfic_closed(n, beta, 1.0) / chi_f_tfic_closed(n, beta, 1.0)
        assert f_n_tfic(n, beta, 1.0) == pytest.approx(ratio / gamma_n_tfic(n, 1.0), rel=1e-12)

    def test_f_n_thermodynamic_limit(self):
        coth1 = 1.0 / math.tanh(1.0)
        assert coth1 == pytest.approx(1.3130352854993312, abs=1e-15)
        assert abs(f_n_tfic(400, 0.5, 1.0) - coth1) < 1e-40 + 2 * math.tanh(1.0) ** 398

    def test_f_n_rejects_infinite_temperature(self):
        with pytest.raises(ValueError, match="beta"):
            f_n_tfic(6, 0.0, 1.0)

    def test_f_n_thermodynamic_limit_is_coth(self):
        for beta, j in ((0.3, 1.0), (1e-12, 0.7), (40.0, 0.7), (1e300, 1.0)):
            assert f_n_tfic(None, beta, j) == 1.0 / math.tanh(2.0 * beta * j)
        with pytest.raises(ValueError, match="beta must be > 0"):
            f_n_tfic(None, 0.0, 1.0)
        for j in (math.nan, math.inf):
            with pytest.raises(ValueError, match="J must be finite"):
                f_n_tfic(None, 0.5, j)

    def test_low_temperature_asymptote_bound(self):
        # coth(x) - 1 - 2 e^{-2x} = 2 e^{-4x}/(1 - e^{-2x}) exactly
        # (geometric tail), so the bound is met with equality
        beta = 2.0
        coth = 1.0 / math.tanh(2 * beta)
        tail = 2 * math.exp(-8 * beta) / (1 - math.exp(-4 * beta))
        assert abs(coth - f_tfic_asymptotics(beta, 1.0, "low")) == pytest.approx(tail, rel=1e-9)

    def test_high_temperature_asymptote_bound(self):
        for x in (0.02, 0.05, 0.1):
            beta = x / 2
            diff = abs(1.0 / math.tanh(x) - f_tfic_asymptotics(beta, 1.0, "high"))
            assert diff <= x / 3.0

    def test_unknown_regime_rejected(self):
        with pytest.raises(ValueError, match="regime"):
            f_tfic_asymptotics(1.0, 1.0, "warm")


class TestTwoEigTrace:
    """_split_coefficients: Tr(T^n M) = a_+ Lambda_+^n + a_- Lambda_-^n."""

    def test_degenerate_eigenvalues_rejected(self):
        # T = [[2, 1], [1, 2]] has eigenvalues 3 and 1
        a_plus, a_minus = _split_coefficients((2.0, 1.0, 2.0), (1.0, 0.0, 1.0), 3.0, 1.0)
        assert a_plus * 3.0**3 + a_minus * 1.0**3 == pytest.approx(28.0)  # Tr(T^3)
        split = 1e-14
        nearly = (2.0 + split, 1e-200, 2.0 - split)
        with pytest.raises(ValueError, match="degenerate"):
            _split_coefficients(nearly, (1.0, 0.0, 1.0), 2.0 + split, 2.0 - split)


class TestMficCoefficients:
    """The coefficients belong to the ground-shifted matrices, T e^{-(K+H)}."""

    def test_gapped_flip_matrix_trace(self):
        beta, j, b = 0.8, 1.0, 0.7
        co = mfic_coefficients(beta, j, b)
        # e+ + e- = Tr(M_e), the diagonal flip entries times (2y)^2: y = B - 2J
        # at shift 2|B| + min(2|B|, 4J) and y = B + 2J at shift 0
        entry = [32.0 * math.exp(-2 * beta * (s + abs(y))) * math.sinh(beta * y) ** 2
                 for y, s in ((b - 2 * j, 2 * b + min(2 * b, 4 * j)), (b + 2 * j, 0.0))]
        assert co.e_plus + co.e_minus == pytest.approx(sum(entry), rel=1e-12)

    def test_determinant_identity(self):
        co = mfic_coefficients(1.1, 1.0, 1.3)
        det = math.exp(-2 * co.H) * (1 - math.exp(-4 * co.K))
        assert co.lambda_plus * co.lambda_minus == pytest.approx(det, rel=1e-12)

    def test_small_field_reduces_to_ising(self):
        co = mfic_coefficients(0.9, 1.0, 1e-6)
        # 2 cosh(K) e^{-K} = 1 + e^{-2K}
        assert co.lambda_plus == pytest.approx(1 + math.exp(-2 * co.K), abs=1e-5)

    @pytest.mark.parametrize("bad", [0.0, 2.0, -2.0, 1e-10])
    def test_excluded_fields_rejected(self, bad):
        with pytest.raises(ValueError, match="B != 0"):
            mfic_coefficients(1.0, 1.0, bad)


class TestMficClosedForms:
    def test_delta_v_small_field_matches_tfic(self):
        a = delta_v_mfic_closed(6, 1.0, 1.0, 1e-6)
        b = delta_v_tfic_closed(6, 1.0, 1.0)
        assert abs(a / b - 1.0) < 1e-5

    def test_delta_v_matches_ed(self):
        model = SpinChainModel("mfic", 6, B=0.7)
        spec = eigh(build_h0(model))
        assert delta_v_mfic_closed(6, 1.0, 1.0, 0.7) == pytest.approx(
            delta_v_thermal(spec, build_v(model), 1.0), rel=1e-9
        )

    def test_infinite_temperature_limits(self):
        assert delta_v_mfic_closed(5, 0.0, 1.0, 0.7) == 0.0
        assert chi_f_mfic_closed(5, 0.0, 1.0, 0.7) == 0.0

    def test_chi_matches_ed(self):
        model = SpinChainModel("mfic", 6, B=0.7)
        spec = eigh(build_h0(model))
        assert chi_f_mfic_closed(6, 1.0, 1.0, 0.7) == pytest.approx(
            chi_f_thermal(spec, build_v(model), 1.0), rel=1e-9
        )

    @pytest.mark.parametrize("beta", [60.0, 100.0, 200.0, 1e3, 1e4])
    def test_low_temperature_matches_flip_sums(self, beta):
        # the shifted matrices have no positive exponent, so nothing
        # overflows however large beta J and beta |B| get
        for j in (0.5, 1.0, 3.7):
            for b in (0.3, 0.7, 1.3, 2.5, -0.7):
                for n in (3, 4, 6, 8):
                    sums = flip_sums(SpinChainModel("mfic", n, j, b * j), beta)
                    dv = delta_v_mfic_closed(n, beta, j, b * j)
                    chi = chi_f_mfic_closed(n, beta, j, b * j)
                    assert dv == pytest.approx(sums.delta_v, rel=1e-12)
                    assert chi == pytest.approx(sums.chi_f, rel=1e-12)

    @pytest.mark.parametrize("b", [0.3, 0.7, 1.3])
    @pytest.mark.parametrize("n", [6, 12])
    def test_delta_v_matches_flip_sums_at_small_beta(self, n, b):
        # deltaV^2 is a sum of positive flip entries, with no 1 - Q / Z0
        # difference, so it keeps its digits as beta -> 0; 1e-12 at
        # beta = 1e-4 leaves room for the flip route's own w_m - w_n
        betas = (1e-4, 1e-2, 1.0, 40.0)
        for beta, sums in zip(betas, flip_sums_sweep(SpinChainModel("mfic", n, B=b), betas)):
            rel = abs(delta_v_mfic_closed(n, beta, 1.0, b) / sums.delta_v - 1.0)
            assert rel <= (1e-12 if beta < 1e-3 else 1e-13), (beta, rel)

    def test_chi_ground_limit(self):
        model = SpinChainModel("mfic", 5, B=0.7)
        spec = eigh(build_h0(model))
        assert chi_f_mfic_closed(5, 40.0, 1.0, 0.7) == pytest.approx(
            ground_chi_f(spec, build_v(model)), rel=1e-6
        )


class TestMficTemperatureFactor:
    def test_approaches_one_at_low_temperature(self):
        for n in (6, None):
            for beta in (30.0, 200.0, 1e4):
                assert f_mfic(n, beta, 1.0, 0.7) == pytest.approx(1.0, abs=1e-9)

    def test_finite_n_approaches_thermodynamic(self):
        assert f_mfic(200, 1.5, 1.0, 0.7) == pytest.approx(
            f_mfic(None, 1.5, 1.0, 0.7), rel=1e-12
        )

    def test_low_temperature_asymptote(self):
        beta, b = 2.5, 0.7
        diff = abs(f_mfic(None, beta, 1.0, b) - f_mfic_asymptotics(beta, 1.0, b, "low"))
        assert diff <= 50.0 * math.exp(-4 * beta * (2 + b))

    def test_high_temperature_asymptote(self):
        beta, b = 0.01, 0.7
        rel = abs(f_mfic(None, beta, 1.0, b) / f_mfic_asymptotics(beta, 1.0, b, "high") - 1.0)
        assert rel <= 0.05

    def test_high_temperature_asymptote_at_tiny_beta(self):
        beta, b = 1e-10, 0.7
        rel = abs(f_mfic(None, beta, 1.0, b) / f_mfic_asymptotics(beta, 1.0, b, "high") - 1.0)
        assert rel <= 1e-8

    def test_finite_n_computes_the_coefficients_once(self, monkeypatch):
        # f_mfic(N) forms deltaV and chi_F from its one coefficient record, and
        # a threshold row takes all four of its closed forms from one record
        import adiatherm.closed_forms as cf
        from adiatherm.cli import _threshold_row
        from adiatherm.susceptibility import threshold_sweep

        model = SpinChainModel("mfic", 6, B=0.7)
        [report] = threshold_sweep(model, [1.0], 1.0)
        calls = []
        coefficients = cf.mfic_coefficients

        def counted(*args):
            calls.append(args)
            return coefficients(*args)

        monkeypatch.setattr(cf, "mfic_coefficients", counted)
        f_mfic(6, 1.0, 1.0, 0.7)
        assert len(calls) == 1
        calls.clear()
        _threshold_row(model, report)
        assert len(calls) == 1

    @pytest.mark.parametrize("b", [0.3, 0.7, 1.3])
    @pytest.mark.parametrize("beta", [0.0, 1e-20, 1e-3, 0.1, 1.0, 40.0, 1e308])
    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_threshold_forms_equal_the_separate_forms(self, n, beta, b):
        # f_mfic refuses beta = 0, where the row's factors are nan
        separate = [delta_v_mfic_closed(n, beta, 1.0, b), chi_f_mfic_closed(n, beta, 1.0, b)]
        if beta == 0:
            separate += [math.nan, math.nan]
        else:
            separate += [f_mfic(n, beta, 1.0, b), f_mfic(None, beta, 1.0, b)]
        # float.hex spells every nan "nan", so nan compares equal
        got = mfic_threshold_forms(n, beta, 1.0, b)
        assert [x.hex() for x in got] == [x.hex() for x in separate]

    def test_threshold_forms_leave_underflowed_factors_nan(self):
        # chi_F and d_+ underflow to 0 here, where f_mfic refuses
        n, beta, b = 4, 1e-300, 0.7
        with pytest.raises(ValueError, match="chi_F underflows to 0"):
            f_mfic(n, beta, 1.0, b)
        dv, chi, f_n, f_inf = mfic_threshold_forms(n, beta, 1.0, b)
        assert (dv, chi) == (delta_v_mfic_closed(n, beta, 1.0, b), chi_f_mfic_closed(n, beta, 1.0, b))
        assert math.isnan(f_n) and math.isnan(f_inf)

    @pytest.mark.parametrize("n", [4, None])
    def test_underflowed_factor_raises_value_error(self, n):
        # the denominator of f_N (chi_F) or of f (d_+) is 0 at beta = 1e-300
        name = "chi_F" if n else "d_\\+"
        with pytest.raises(ValueError, match=f"{name} underflows to 0 at beta=1e-300"):
            f_mfic(n, 1e-300, 1.0, 0.7)

    @pytest.mark.parametrize("b", [0.3, 0.7, 1.3])
    def test_finite_at_the_largest_beta(self, b):
        # e^{-2 beta s} at s = 0 is 1, not e^{-inf * 0}: every form reaches
        # its zero-temperature value, chi_F0 = N J^2 / (2J + |B|)^2 and f = 1
        n, beta = 6, 1e308
        assert chi_f_mfic_closed(n, beta, 1.0, b) == pytest.approx(n / (2.0 + b) ** 2, rel=1e-14)
        assert delta_v_mfic_closed(n, beta, 1.0, b) == pytest.approx(math.sqrt(2 * n), rel=1e-14)
        for sites in (n, None):
            assert f_mfic(sites, beta, 1.0, b) == pytest.approx(1.0, rel=1e-14)
        assert chi_f_mfic_closed(n, beta, 1.0, b) == pytest.approx(
            flip_sums(SpinChainModel("mfic", n, B=b), beta).chi_f, rel=1e-13
        )

    @pytest.mark.parametrize("b", [2.0, 2.0000000001, -2.0, 1e-12])
    def test_row_in_excluded_window_keeps_its_reason(self, b):
        from adiatherm.cli import UNDEFINED_AT_BETA_ZERO, _threshold_row
        from adiatherm.susceptibility import threshold_sweep

        model = SpinChainModel("mfic", 4, B=b)
        undefined, row = (_threshold_row(model, r) for r in threshold_sweep(model, [0.0, 1.0]))
        assert undefined[-1] == UNDEFINED_AT_BETA_ZERO
        assert row[-1] == (
            f"B={b} is within 1e-09 of an excluded value; the mixed-field "
            "closed forms assume B != 0, +-2J"
        )
        # every closed-form column of the row (and its relative errors) is empty
        assert all(math.isnan(row[i]) for i in (2, 4, 8, 9, 10, 11))
        assert row[1] > 0  # the flip route is unaffected

    def test_finite_n_is_threshold_ratio(self):
        n, beta, b = 6, 0.8, 1.3
        ratio = delta_v_mfic_closed(n, beta, 1.0, b) / chi_f_mfic_closed(n, beta, 1.0, b)
        assert f_mfic(n, beta, 1.0, b) == pytest.approx(
            ratio / gamma_n_mfic(n, 1.0, b), rel=1e-12
        )

    def test_monotonicity_sweep_recorded(self):
        # the transverse-drive factor coth(2 beta J) is strictly decreasing;
        # the mixed-field factor may lose monotonicity at intermediate
        # temperatures, so any non-monotonic window is logged, not asserted
        betas = np.geomspace(0.02, 5.0, 120)
        tfic_vals = [1.0 / math.tanh(2 * b) for b in betas]
        assert all(y < x for x, y in zip(tfic_vals, tfic_vals[1:]))
        for b_field in (0.3, 0.7, 1.3, 1.9):
            vals = np.array([f_mfic(None, b, 1.0, b_field) for b in betas])
            rising = np.where(np.diff(vals) > 0)[0]
            if rising.size:
                lo, hi = betas[rising[0]], betas[rising[-1] + 1]
                logger.info(
                    "mfic B=%.1fJ: non-monotonic window betaJ in [%.3f, %.3f]", b_field, lo, hi
                )

    def test_master_equivalence_grid(self):
        # closed forms vs exact diagonalization across the full small grid
        for n in (3, 4, 5, 6, 7, 8):
            model = SpinChainModel("tfic", n)
            spec = eigh(build_h0(model))
            v = build_v(model)
            for beta in (0.1, 0.3, 1.0, 3.0):
                assert delta_v_thermal(spec, v, beta) == pytest.approx(
                    delta_v_tfic_closed(n, beta, 1.0), rel=1e-9
                )
                assert chi_f_thermal(spec, v, beta) == pytest.approx(
                    chi_f_tfic_closed(n, beta, 1.0), rel=1e-9
                )
