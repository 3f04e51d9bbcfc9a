import logging
import math

import numpy as np
import pytest

from adiatherm.dynamics import BoundTrace, MeanFreePath, adiabatic_mean_free_path, evolve
from adiatherm.models import SpinChainModel

logger = logging.getLogger(__name__)

pytestmark = pytest.mark.filterwarnings("ignore::adiatherm.thermal.ContinuationWarning")


@pytest.fixture(scope="module")
def medium_trace():
    return evolve(SpinChainModel("tfic", 5), beta=1.0, gamma=1.0, lambda_max=0.15, n_records=40)


class TestEvolve:
    def test_infinite_temperature_stays_put(self):
        trace = evolve(SpinChainModel("tfic", 4), 0.0, 2.0, 0.1, 21)
        assert np.allclose(trace.adiabatic_fidelity, 1.0, atol=1e-12)
        assert np.allclose(trace.thermal_overlap, 1.0, atol=1e-12)

    def test_zero_ramp_gives_single_record(self):
        trace = evolve(SpinChainModel("tfic", 3), 1.0, 1.0, 0.0, 50)
        assert trace.n_records == 1
        assert trace.adiabatic_fidelity[0] == 1.0
        assert trace.qsl_radius[0] == 0.0

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
        import adiatherm.dynamics as dyn

        model = SpinChainModel("tfic", 4)
        cached = evolve(model, 1.0, 2.0, 0.08, 9)
        monkeypatch.setattr(dyn, "_SIGMA_CACHE_BYTES", 0)
        regenerated = evolve(model, 1.0, 2.0, 0.08, 9)
        assert np.allclose(cached.adiabatic_fidelity, regenerated.adiabatic_fidelity, atol=1e-13)
        assert np.allclose(cached.thermal_overlap, regenerated.thermal_overlap, atol=1e-13)


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
