import logging
import math

import numpy as np
import pytest

from adiatherm.dynamics import (
    BoundTrace,
    MeanFreePath,
    adiabatic_mean_free_path,
    cfm4_propagator,
    evolve,
)
from adiatherm.models import SpinChainModel, build_h0, build_v
from adiatherm.operators import eigh, hs_norm
from adiatherm.thermal import QuasiGibbsSweep, gibbs_state, thermal_overlap

logger = logging.getLogger(__name__)


@pytest.fixture(scope="module")
def medium_trace():
    return evolve(SpinChainModel("tfic", 5), beta=1.0, gamma=1.0, lambda_max=0.15, n_records=40)


class TestEvolve:
    def test_infinite_temperature_stays_put(self):
        trace = evolve(SpinChainModel("tfic", 4), 0.0, 2.0, 0.1, 21)
        assert np.allclose(trace.adiabatic_fidelity, 1.0, atol=1e-12)
        assert np.allclose(trace.thermal_overlap, 1.0, atol=1e-12)

    def test_zero_ramp_gives_single_record(self):
        model = SpinChainModel("tfic", 3)
        gibbs_purity = gibbs_state(eigh(build_h0(model)), 1.0).purity
        # a zero ramp, and one record of a nonzero ramp: both hold only lambda = 0
        for lambda_max, n_records in ((0.0, 50), (0.3, 1)):
            trace = evolve(model, 1.0, 1.0, lambda_max, n_records)
            assert trace.n_records == 1
            assert trace.lambdas[0] == 0.0
            assert trace.adiabatic_fidelity[0] == 1.0
            assert trace.thermal_overlap[0] == 1.0
            for column in (trace.qsl_radius, trace.hs_angle, trace.bound_weak,
                           trace.bound_strong, trace.trace_defect, trace.herm_defect):
                assert column[0] == 0.0
            assert trace.purity[0] == pytest.approx(gibbs_purity, abs=1e-14)
            # no interval: the levels of 1 and 2 steps, both with F = 1
            assert trace.n_substeps_per_interval == 2
            assert trace.fidelity_history == (1.0, 1.0)

    @pytest.mark.parametrize("cache_bytes", [None, 0])
    def test_one_sweep_pass_per_halving_level(self, monkeypatch, cache_bytes):
        import adiatherm.thermal as thermal

        if cache_bytes is not None:
            monkeypatch.setattr(thermal, "_SIGMA_CACHE_BYTES", cache_bytes)
        requests = []
        records = QuasiGibbsSweep.records

        def counted(sweep):
            requests.append(sweep)
            return records(sweep)

        monkeypatch.setattr(QuasiGibbsSweep, "records", counted)
        trace = evolve(SpinChainModel("tfic", 4), 1.0, 1.0, 0.1, 11)
        assert len(requests) == len(trace.fidelity_history)

    @pytest.mark.parametrize(
        "kind,b,lambda_max",
        [("tfic", None, 0.2), ("mfic", 0.7, 0.2), ("qxyc", None, 1.5)],
    )
    def test_thermal_overlap_matches_c_column_exactly(self, kind, b, lambda_max):
        # qxyc N=4 has an exact level crossing at lambda = 1, inside its ramp
        model = SpinChainModel(kind, 4, B=b)
        trace = evolve(model, 1.0, 2.0, lambda_max, 41)
        for k in (1, 7, 20, 40):
            assert thermal_overlap(model, 1.0, trace.lambdas[k]) == trace.thermal_overlap[k]

    def test_records_start_at_origin(self, medium_trace):
        assert medium_trace.lambdas[0] == 0.0
        assert np.all(np.diff(medium_trace.lambdas) > 0)
        assert medium_trace.adiabatic_fidelity[0] == 1.0
        assert medium_trace.thermal_overlap[0] == 1.0
        assert medium_trace.hs_angle[0] == 0.0
        assert medium_trace.qsl_radius[0] == 0.0

    def test_qsl_holds_at_every_record(self, medium_trace):
        assert np.all(medium_trace.hs_angle <= medium_trace.qsl_radius + 1e-9)

    def test_fidelity_bounds_hold_at_every_record(self, medium_trace):
        gap = np.abs(medium_trace.adiabatic_fidelity - medium_trace.thermal_overlap)
        assert np.all(gap <= medium_trace.bound_strong + 1e-9)
        assert np.all(medium_trace.bound_strong <= medium_trace.bound_weak + 1e-9)

    def test_conservation_laws(self, medium_trace):
        assert np.max(np.abs(medium_trace.purity - medium_trace.purity[0])) <= 1e-9
        assert np.max(medium_trace.trace_defect) <= 1e-10
        assert np.max(medium_trace.herm_defect) <= 1e-10

    def test_purity_drift_deeper_ramp(self):
        trace = evolve(SpinChainModel("tfic", 6), 5.0, 2.0, 0.12, 30)
        assert np.max(np.abs(trace.purity - trace.purity[0])) <= 1e-9

    def test_near_coincidence_diagnostic_reported(self, medium_trace, caplog):
        assert medium_trace.max_abs_f_minus_c < 0.05
        with caplog.at_level(logging.INFO, logger="adiatherm.dynamics"):
            evolve(SpinChainModel("tfic", 3), 1.0, 2.0, 0.05, 5)
        assert any("max |F - C|" in rec.message for rec in caplog.records)

    def test_rejects_bad_arguments(self):
        model = SpinChainModel("tfic", 3)
        with pytest.raises(ValueError, match="Gamma"):
            evolve(model, 1.0, 0.0, 0.1, 10)
        with pytest.raises(ValueError, match="lambda_max"):
            evolve(model, 1.0, 1.0, -0.1, 10)
        with pytest.raises(ValueError, match="n_records"):
            evolve(model, 1.0, 1.0, 0.1, 0)

    @pytest.mark.parametrize(
        "name,args",
        [
            ("beta", (math.nan, 1.0, 0.1)),
            ("beta", (math.inf, 1.0, 0.1)),
            ("gamma", (1.0, math.nan, 0.1)),
            ("gamma", (1.0, math.inf, 0.1)),
            ("lambda_max", (1.0, 1.0, math.nan)),
        ],
    )
    def test_rejects_non_finite_arguments(self, name, args):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            evolve(SpinChainModel("tfic", 3), *args, 10)

    @pytest.mark.parametrize("kind,b", [("qxyc", None), ("mfic", 0.7)])
    def test_other_drives_satisfy_bounds(self, kind, b):
        trace = evolve(SpinChainModel(kind, 4, B=b), 1.0, 1.5, 0.1, 15)
        assert np.all(trace.hs_angle <= trace.qsl_radius + 1e-9)
        gap = np.abs(trace.adiabatic_fidelity - trace.thermal_overlap)
        assert np.all(gap <= trace.bound_strong + 1e-9)
        assert np.max(np.abs(trace.purity - trace.purity[0])) <= 1e-9

    def test_sigma_regeneration_path_matches_cache(self, monkeypatch):
        import adiatherm.thermal as thermal

        model = SpinChainModel("tfic", 4)
        cached = evolve(model, 1.0, 2.0, 0.08, 9)
        monkeypatch.setattr(thermal, "_SIGMA_CACHE_BYTES", 0)
        regenerated = evolve(model, 1.0, 2.0, 0.08, 9)
        assert np.allclose(cached.adiabatic_fidelity, regenerated.adiabatic_fidelity, atol=1e-13)
        assert np.allclose(cached.thermal_overlap, regenerated.thermal_overlap, atol=1e-13)


class TestCFM4:
    def test_fourth_order_convergence(self):
        # halving the step must cut the state error by about 2^4; with the
        # two exponentials applied in the other order the ratio is 2^2
        model = SpinChainModel("tfic", 4)
        h0 = build_h0(model).mat
        v = build_v(model).mat
        rho0 = gibbs_state(eigh(build_h0(model)), 0.5).mat

        def evolved(steps):
            u = cfm4_propagator(h0, v, 0.0, 0.4, 0.5, steps)
            return u @ rho0 @ u.conj().T

        reference = evolved(512)
        errors = [hs_norm(evolved(n) - reference) for n in (2, 4, 8, 16)]
        ratios = [coarse / fine for coarse, fine in zip(errors, errors[1:])]
        logger.info("CFM4 errors %s, ratios %s", errors, ratios)
        assert min(ratios) >= 12.0

    def test_propagator_is_unitary(self):
        model = SpinChainModel("mfic", 4, B=0.7)
        h0 = build_h0(model).mat
        v = build_v(model).mat
        u = cfm4_propagator(h0, v, 0.1, 0.3, 0.7, 3)
        assert np.abs(u.conj().T @ u - np.eye(16)).max() <= 1e-13


class TestSigmaSweep:
    def test_continuous_into_exact_crossing(self):
        # qxyc N=4 has an exact crossing of levels of different weight at
        # lambda = 1: sigma there must be the limit from below, not the
        # weights spread over an arbitrary basis of the merged level
        model = SpinChainModel("qxyc", 4)
        h0 = build_h0(model).mat
        v = build_v(model).mat

        def last_sigma(lambda_max):
            sweep = QuasiGibbsSweep(h0, v, np.linspace(0.0, lambda_max, 11), 1.0)
            return list(sweep.records())[-1]

        assert hs_norm(last_sigma(1.0) - last_sigma(1.0 - 1e-6)) <= 1e-5


def synthetic_trace(lambdas, fidelities):
    n = len(lambdas)
    zeros = np.zeros(n)
    return BoundTrace(
        lambdas=np.asarray(lambdas, dtype=float),
        adiabatic_fidelity=np.asarray(fidelities, dtype=float),
        thermal_overlap=np.ones(n),
        qsl_radius=zeros.copy(),
        hs_angle=zeros.copy(),
        bound_weak=zeros.copy(),
        bound_strong=zeros.copy(),
        purity=np.ones(n),
        trace_defect=zeros.copy(),
        herm_defect=zeros.copy(),
        beta=1.0,
        gamma=1.0,
        delta_v_value=1.0,
    )


class TestMeanFreePath:
    def test_censored_when_fidelity_never_drops(self):
        trace = evolve(SpinChainModel("tfic", 3), 0.0, 1.0, 0.1, 11)
        result = adiabatic_mean_free_path(trace)
        assert result == MeanFreePath(value=0.1, censored=True)

    def test_linear_interpolation_between_records(self):
        e1 = math.exp(-1.0)
        trace = synthetic_trace([0.0, 0.1, 0.2], [1.0, e1 + 0.1, e1 - 0.1])
        result = adiabatic_mean_free_path(trace)
        assert not result.censored
        assert result.value == pytest.approx(0.15)

    def test_monotonicity_sweep_logged(self):
        # direction of lambda* vs Gamma depends on the regime; the sweep is
        # recorded as a diagnostic, not asserted
        model = SpinChainModel("tfic", 4)
        values = {}
        for gamma in (0.5, 1.0, 2.0, 4.0):
            trace = evolve(model, 5.0, gamma, 2.5, 26)
            values[gamma] = adiabatic_mean_free_path(trace)
            assert 0.0 < values[gamma].value <= 2.5
        logger.info("mean-free-path sweep over Gamma: %s", values)
