import logging
import math

import numpy as np
import pytest

import adiatherm.dynamics as dynamics
from adiatherm.dynamics import (
    _exp_minus_i,
    _interval_propagators,
    _run_levels,
    evolve,
)
from adiatherm.models import (
    SpinChainModel,
    SymmetrySectors,
    build_h0,
    build_v,
    symmetry_sectors,
)
from adiatherm.operators import eigh, hs_norm
from adiatherm.qsl import qsl_radius_constant_rate
from adiatherm.thermal import (
    BlockEigensolver,
    ContinuationWarning,
    EigenbasisContinuation,
    QuasiGibbsSweep,
    _sigma,
    gibbs_state,
    thermal_overlap,
)
from oracle import exp_minus_i

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

    @staticmethod
    def count_passes(monkeypatch):
        """One list per records() pass, of the CFM4 step counts of every
        propagator stack built in it."""
        passes = []
        records, propagators = QuasiGibbsSweep.records, dynamics._interval_propagators

        def counted_records(sweep):
            passes.append([])
            return records(sweep)

        def counted_propagators(solver, lambdas, gamma, level_steps):
            passes[-1].append(tuple(level_steps))
            return propagators(solver, lambdas, gamma, level_steps)

        monkeypatch.setattr(QuasiGibbsSweep, "records", counted_records)
        monkeypatch.setattr(dynamics, "_interval_propagators", counted_propagators)
        return passes

    def test_one_sweep_pass_per_halving_level(self, monkeypatch):
        # the first two levels share one pass
        passes = self.count_passes(monkeypatch)
        trace = evolve(SpinChainModel("tfic", 4), 1.0, 1.0, 0.1, 11)
        assert len(passes) == len(trace.fidelity_history) - 1

    def test_each_level_after_the_second_costs_one_pass(self, monkeypatch):
        # one step per interval of 0.5 needs several halvings
        monkeypatch.setattr(dynamics, "_INITIAL_DELTA_LAMBDA", 1.0)
        passes = self.count_passes(monkeypatch)
        trace = evolve(SpinChainModel("tfic", 4), 1.0, 1.0, 1.0, 3)
        n_levels = len(trace.fidelity_history)
        assert n_levels >= 3
        assert trace.n_substeps_per_interval == 2 ** (n_levels - 1)
        # the first pass runs levels 1 and 2, every later pass one more level,
        # each in every propagator stack of its pass
        assert [set(stacks) for stacks in passes] == (
            [{(1, 2)}] + [{(2**k,)} for k in range(2, n_levels)]
        )

    def test_unconverged_halving_reports_both_first_levels(self, monkeypatch):
        monkeypatch.setattr(dynamics, "_MAX_HALVINGS", 1)
        monkeypatch.setattr(dynamics, "FINAL_FIDELITY_TOL", 0.0)
        # the final-record F of the levels of 1 and 2 steps
        history = r"after 1 halvings; final-record history=\[[^,]+, [^,]+\]$"
        with pytest.raises(RuntimeError, match=history):
            evolve(SpinChainModel("tfic", 3), 1.0, 1.0, 0.1, 5)

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

    def test_radius_column_is_the_closed_form(self):
        gamma = 0.5
        trace = evolve(SpinChainModel("tfic", 4), 0.5, gamma, 0.2, 21)
        for lam, radius in zip(trace.lambdas, trace.qsl_radius):
            assert radius == qsl_radius_constant_rate(trace.delta_v_value, lam, gamma)

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
        model = SpinChainModel("tfic", 3)
        with caplog.at_level(logging.INFO, logger="adiatherm.dynamics"):
            trace = evolve(model, 1.0, 2.0, 0.05, 5)
        [message] = [rec.message for rec in caplog.records if "max |F - C|" in rec.message]
        sweep = QuasiGibbsSweep(symmetry_sectors(model).blocks, trace.lambdas, 1.0)
        assert message.endswith(
            f"over 5 records; {trace.n_substeps_per_interval} CFM4 steps per interval "
            f"at the last of {len(trace.fidelity_history)} halving levels, "
            f"{sweep.per_interval} sweep steps per interval, "
            f"{len(sweep.ambiguous_steps)} ambiguous steps"
        )

    def test_rejects_bad_arguments(self):
        model = SpinChainModel("tfic", 3)
        with pytest.raises(ValueError, match="Gamma"):
            evolve(model, 1.0, 0.0, 0.1, 10)
        with pytest.raises(ValueError, match="lambda_max"):
            evolve(model, 1.0, 1.0, -0.1, 10)
        for n_records in (0, 2.5, "5"):
            with pytest.raises(ValueError, match="n_records"):
                evolve(model, 1.0, 1.0, 0.1, n_records)

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

    def test_rejects_negative_beta_before_building_sectors(self, monkeypatch):
        def refuse(model):
            raise AssertionError("symmetry_sectors called")

        monkeypatch.setattr(dynamics, "symmetry_sectors", refuse)
        with pytest.raises(ValueError, match="beta must be >= 0"):
            evolve(SpinChainModel("tfic", 3), -1.0, 1.0, 0.1, 10)

    def test_huge_beta_weights_do_not_overflow(self):
        # RuntimeWarning is an error here: the overflow of -beta E to -inf is
        # ignored, and the two-fold ground level takes the weights
        trace = evolve(SpinChainModel("tfic", 4), 1e308, 0.5, 0.1, 5)
        assert trace.purity[0] == 0.5

    def test_huge_beta_cli_run_is_silent(self, tmp_path):
        import os
        import subprocess
        import sys

        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "adiatherm", "dynamics", "--n-sites", "4", "--beta", "1e308",
             "--gamma", "0.5", "--lambda-max", "0.1", "--n-records", "5",
             "--out", str(tmp_path / "dyn.csv")],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert result.returncode == 0 and result.stderr == ""

    @pytest.mark.parametrize("kind,b", [("qxyc", None), ("mfic", 0.7)])
    def test_other_drives_satisfy_bounds(self, kind, b):
        trace = evolve(SpinChainModel(kind, 4, B=b), 1.0, 1.5, 0.1, 15)
        assert np.all(trace.hs_angle <= trace.qsl_radius + 1e-9)
        gap = np.abs(trace.adiabatic_fidelity - trace.thermal_overlap)
        assert np.all(gap <= trace.bound_strong + 1e-9)
        assert np.max(np.abs(trace.purity - trace.purity[0])) <= 1e-9

    @pytest.mark.parametrize(
        "kind,b,lambda_max",
        [("tfic", None, 0.2), ("mfic", 0.7, 0.2), ("qxyc", None, 1.5)],
    )
    def test_sector_blocks_match_the_dense_pair(self, monkeypatch, kind, b, lambda_max):
        # the same code given H0 and V as one dense block: the sector basis
        # is an orthogonal change of basis, under which no column changes
        import adiatherm.dynamics as dynamics

        model = SpinChainModel(kind, 4, B=b)
        by_sector = evolve(model, 1.0, 2.0, lambda_max, 21)
        dense = SymmetrySectors(
            labels=(None,),
            basis=np.eye(model.dim),
            blocks=((build_h0(model).mat, build_v(model).mat),),
            multiplicity=(1,),
        )
        monkeypatch.setattr(dynamics, "symmetry_sectors", lambda _: dense)
        by_dense = evolve(model, 1.0, 2.0, lambda_max, 21)
        for sector_row, dense_row in zip(by_sector.rows(), by_dense.rows()):
            assert np.abs(np.subtract(sector_row, dense_row)).max() <= 1e-12
        assert by_sector.fidelity_history == pytest.approx(by_dense.fidelity_history, abs=1e-12)

    @pytest.mark.parametrize("kind,b,lambda_max", [("tfic", None, 0.2), ("qxyc", None, 1.5)])
    @pytest.mark.parametrize("lambdas_per_stack", [1, 3])
    def test_rows_do_not_depend_on_the_stack_budget(self, monkeypatch, stacks, kind, b,
                                                    lambda_max, lambdas_per_stack):
        # every stack runs matrix by matrix, every factor takes its own
        # scaling exponent and every per-record sum runs over its own row,
        # so one lambda per stack (or three, which splits a CFM4 interval
        # across stacks) gives the default budget's rows bit for bit
        import adiatherm.models as models

        model = SpinChainModel(kind, 4, B=b)
        by_default = evolve(model, 1.0, 2.0, lambda_max, 21)
        default_stacks = len(stacks)
        complex_bytes = 16 * sum(h0.size for h0, _ in symmetry_sectors(model).blocks)
        assert models._STACK_BYTES >= 2 * by_default.n_substeps_per_interval * complex_bytes
        monkeypatch.setattr(models, "_STACK_BYTES", lambdas_per_stack * complex_bytes)
        stacks.clear()
        by_budget = evolve(model, 1.0, 2.0, lambda_max, 21)
        assert len(stacks) > default_stacks
        assert by_budget.counters() == by_default.counters()
        assert list(by_budget.rows()) == list(by_default.rows())
        for column in ("trace_defect", "herm_defect"):
            assert np.array_equal(getattr(by_default, column), getattr(by_budget, column))


    @pytest.mark.parametrize("kind,b,lambda_max", [("tfic", None, 0.2), ("qxyc", None, 1.5)])
    def test_coarse_level_keeps_only_f(self, kind, b, lambda_max):
        # a two-level pass gives each level's F, bit for bit the F of that
        # level run on its own, and every other column of its fine level
        blocks = symmetry_sectors(SpinChainModel(kind, 4, B=b)).blocks
        sweep = QuasiGibbsSweep(blocks, np.linspace(0.0, lambda_max, 9), 1.0)
        both = _run_levels(sweep, 2.0, 3, 6)
        alone = _run_levels(sweep, 2.0, 3)
        fine_alone = _run_levels(sweep, 2.0, 6)
        assert both.keys() == alone.keys() == {"F", "C", "theta", "purity", "trace", "herm"}
        assert both["F"].shape == (2, 9) and alone["F"].shape == (1, 9)
        assert np.array_equal(both["F"][0], alone["F"][0])
        assert np.array_equal(both["F"][1], fine_alone["F"][0])
        for name, column in both.items():
            if name != "F":
                assert np.array_equal(column, fine_alone[name])

    def test_rows_are_python_floats(self, medium_trace):
        rows = list(medium_trace.rows())
        assert len(rows) == medium_trace.n_records
        assert all(type(cell) is float for row in rows for cell in row)
        assert rows[-1][1] == medium_trace.adiabatic_fidelity[-1]


class TestCFM4:
    def test_fourth_order_convergence(self):
        # halving the step must cut the state error by about 2^4; with the
        # two exponentials applied in the other order the ratio is 2^2
        model = SpinChainModel("tfic", 4)
        h0 = build_h0(model).mat
        v = build_v(model).mat
        rho0 = gibbs_state(eigh(build_h0(model)), 0.5).mat

        def evolved(steps):
            [u] = _interval_propagators(BlockEigensolver([(h0, v)]), [0.0, 0.4], 0.5, [steps])
            u = u[0, 0, 0]  # the one level's one interval's one block
            return u @ rho0 @ u.conj().T

        reference = evolved(512)
        errors = [hs_norm(evolved(n) - reference) for n in (2, 4, 8, 16)]
        ratios = [coarse / fine for coarse, fine in zip(errors, errors[1:])]
        logger.info("CFM4 errors %s, ratios %s", errors, ratios)
        assert min(ratios) >= 12.0

    @pytest.mark.parametrize("norm", [1e-6, 1e-3, 0.05, 1.0, 50.0])
    @pytest.mark.parametrize("m", [1, 4, 18])
    def test_factor_matches_the_eigh_factor(self, m, norm):
        # every 1-norm above 0.05 takes the squaring branch, 50 with ten squarings
        rng = np.random.default_rng(m)
        a = rng.standard_normal((6, m, m))
        a += a.swapaxes(-1, -2)
        a *= norm / np.abs(a).sum(axis=-2).max()
        u = _exp_minus_i(a)
        assert np.abs(u - exp_minus_i(a)).max() <= 1e-13
        assert np.abs(u.conj().swapaxes(-1, -2) @ u - np.eye(m)).max() <= 1e-13

    def test_each_factor_as_if_computed_alone(self):
        # every matrix takes its own scaling exponent and squarings (0, 0,
        # 5 and 10 here), so a factor's bits do not depend on its stack
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 6, 6))
        a += a.swapaxes(-1, -2)
        a *= (np.array([1e-6, 0.05, 1.0, 50.0]) / np.abs(a).sum(axis=-2).max(axis=-1))[:, None, None]
        stacked = _exp_minus_i(a)
        for k in range(4):
            assert np.array_equal(stacked[k], _exp_minus_i(a[k : k + 1])[0])

    def test_levels_share_their_factor_stacks(self, monkeypatch):
        # both first levels in the same _exp_minus_i stacks: one builder per
        # level took 210 calls for this run
        calls = []
        exp = dynamics._exp_minus_i

        def counted(a):
            calls.append(a.shape[0])
            return exp(a)

        monkeypatch.setattr(dynamics, "_exp_minus_i", counted)
        trace = evolve(SpinChainModel("tfic", 6), 0.5, 0.5, 0.2, 200)
        assert len(trace.fidelity_history) == 2
        assert len(calls) <= 210 // 2

    def test_zero_factor_is_the_identity(self):
        identity = np.broadcast_to(np.eye(5), (2, 3, 5, 5))
        assert np.array_equal(_exp_minus_i(np.zeros((2, 3, 5, 5))), identity)

    def test_propagators_call_no_eigh(self, monkeypatch):
        solver = BlockEigensolver(symmetry_sectors(SpinChainModel("tfic", 4)).blocks)

        def refused(*args, **kwargs):
            raise AssertionError("eigh called")

        monkeypatch.setattr(np.linalg, "eigh", refused)
        stacks = _interval_propagators(solver, np.linspace(0.0, 0.2, 5), 1.0, [2])
        assert all(u.shape[:2] == (1, 4) for u in stacks)

    def test_propagator_is_unitary(self):
        model = SpinChainModel("mfic", 4, B=0.7)
        h0 = build_h0(model).mat
        v = build_v(model).mat
        [u] = _interval_propagators(BlockEigensolver([(h0, v)]), [0.1, 0.3], 0.7, [3])
        u = u[0, 0, 0]  # the one level's one interval's one block
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
            sweep = QuasiGibbsSweep([(h0, v)], np.linspace(0.0, lambda_max, 11), 1.0)
            [stack] = list(sweep.records())[-1]
            return stack[-1, 0]  # the last record's one block

        assert hs_norm(last_sigma(1.0) - last_sigma(1.0 - 1e-6)) <= 1e-5

    @pytest.mark.parametrize(
        "kind,b,lambda_max",
        [("tfic", None, 0.2), ("mfic", 0.7, 0.2), ("qxyc", None, 1.5)],
    )
    def test_records_are_the_sigma_of_an_explicit_march(self, kind, b, lambda_max):
        # records() rebuilds sigma from the accepted march's column weights
        # and a fresh eigendecomposition at each record, so it must be bit
        # for bit the sigma of the continuation marched at the accepted step
        # count.  The qxyc ramp crosses levels, so some records are rotated.
        blocks = symmetry_sectors(SpinChainModel(kind, 4, B=b)).blocks
        lambdas = np.linspace(0.0, lambda_max, 7)
        sweep = QuasiGibbsSweep(blocks, lambdas, 1.0)
        cont = EigenbasisContinuation(blocks)

        def sigma():
            weights = cont.solver.split(sweep.weights[cont.labels])
            return [(u * w[..., None, :]) @ u.swapaxes(-1, -2) for u, w in zip(cont.vectors, weights)]

        expected = [sigma()]
        for a, end in zip(lambdas[:-1], lambdas[1:]):
            for step in range(1, sweep.per_interval):
                cont.advance(cont.solver.solve([a + (end - a) * step / sweep.per_interval]))
            cont.advance(cont.solver.solve([end]))
            expected.append(sigma())
        records = [[s[k] for s in chunk] for chunk in sweep.records() for k in range(len(chunk[0]))]
        assert len(records) == lambdas.size
        for record, march in zip(records, expected):
            assert all(np.array_equal(a, b) for a, b in zip(record, march))

    def test_records_never_advance_the_continuation(self, monkeypatch):
        steps = []
        advance = EigenbasisContinuation.advance

        def counted(cont, *args):
            steps.append(args[0])
            return advance(cont, *args)

        monkeypatch.setattr(EigenbasisContinuation, "advance", counted)
        blocks = symmetry_sectors(SpinChainModel("tfic", 4)).blocks
        sweep = QuasiGibbsSweep(blocks, np.linspace(0.0, 0.2, 11), 1.0)
        marched = len(steps)
        assert marched > 0
        for _ in range(2):
            assert sum(chunk[0].shape[0] for chunk in sweep.records()) == 11
        assert len(steps) == marched


def separate_march(blocks, lambdas, per_interval):
    """One march on its own continuation: per-record labels, rotated columns
    {record: per-group columns} and ambiguous steps."""
    cont = EigenbasisContinuation(blocks)
    a, b = lambdas[:-1, None], lambdas[1:, None]
    path = a + (b - a) * np.arange(1, per_interval + 1) / per_interval
    path[:, -1] = lambdas[1:]
    labels, rotated = cont.labels[None], {}
    if path.size:
        steps, rotations = cont.advance(cont.solver.solve(path.reshape(-1)))
        ends = np.arange(per_interval - 1, path.size, per_interval)
        labels = np.concatenate((labels, steps[ends]))
        rotated = {(t + 1) // per_interval: cols for t, cols in rotations.items()
                   if t % per_interval == per_interval - 1}
    return labels, rotated, cont.ambiguous_steps


FUSED_CASES = [
    (kind, b, n, np.linspace(0.0, 0.2, 11))
    for kind, b in (("tfic", None), ("mfic", 0.7), ("qxyc", None))
    for n in (4, 5, 6)
] + [
    ("qxyc", None, 4, np.linspace(0.0, 1.5, 7)),  # both marches rotate at lambda = 1
    ("tfic", None, 4, np.array([0.0, 0.2])),
    ("tfic", None, 4, np.array([0.0])),
]


class TestFusedRound:
    @pytest.mark.parametrize(
        "kind,b,n_sites,lambdas", FUSED_CASES,
        ids=[f"{k}-{n}-{lam.size}x{lam[-1]:g}" for k, _, n, lam in FUSED_CASES],
    )
    def test_matches_two_separate_marches(self, kind, b, n_sites, lambdas):
        # the first round's 1-step march runs alongside the 2-step one, on
        # the 2-step path's record points: each must be the march it replaces
        blocks = symmetry_sectors(SpinChainModel(kind, n_sites, B=b)).blocks
        sweep = QuasiGibbsSweep(blocks, lambdas, 1.0)
        coarse, fine, change = sweep._march(2, None)
        for march, per_interval in ((coarse, 1), (fine, 2)):
            labels, rotated, ambiguous = separate_march(blocks, lambdas, per_interval)
            assert np.array_equal(march.labels, labels)
            assert march.rotated.keys() == rotated.keys()
            for k, columns in rotated.items():
                assert all(np.array_equal(x, y) for x, y in zip(march.rotated[k], columns))
            assert march.ambiguous_steps == ambiguous
        if lambdas[-1] == 1.5:
            assert list(coarse.rotated) == list(fine.rotated) == [4]

        # the round's change is the largest HS change of sigma at a record
        def sigma(march, k):
            if k in march.rotated:
                columns = march.rotated[k]
            else:
                columns = [u[0] for u in sweep.solver.solve([lambdas[k]]).vectors]
            return _sigma(sweep.solver, columns, sweep.weights[march.labels[k]])

        def change_at(k):
            diff = [x - y for x, y in zip(sigma(fine, k), sigma(coarse, k))]
            return math.sqrt(sweep.solver.inner(diff, diff))

        expected = max(change_at(k) for k in range(lambdas.size))
        assert change == pytest.approx(expected, abs=1e-13)

    def test_each_lambda_solved_once_per_round(self, monkeypatch):
        # accepted at 2 steps: the round solves its 20 path points once for
        # both marches, and records() the 11 records, after the one
        # lambda = 0 solve (1 + 10 + 20 + 11 with two separate marches)
        blocks = symmetry_sectors(SpinChainModel("tfic", 4)).blocks
        solved = {}
        eigh = np.linalg.eigh

        def counted(h):
            solved.setdefault(h.shape[1:], []).append(h.shape[0])
            return eigh(h)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        sweep = QuasiGibbsSweep(blocks, np.linspace(0.0, 0.2, 11), 1.0)
        assert sweep.per_interval == 2
        list(sweep.records())
        assert len(solved) == 3
        assert all(counts == [1, 20, 11] for counts in solved.values())

    @pytest.mark.parametrize(
        "kind,b,n_sites,lambda_max", [("qxyc", None, 4, 1.5), ("mfic", 0.7, 5, 0.2)]
    )
    def test_records_do_not_depend_on_the_stack_budget(self, monkeypatch, stacks, kind, b,
                                                       n_sites, lambda_max):
        # one lambda per stack: many chunks hold no record point of the
        # 2-step path, and each record's coarse step is its chunk's only one
        import adiatherm.models as models

        blocks = symmetry_sectors(SpinChainModel(kind, n_sites, B=b)).blocks
        lambdas = np.linspace(0.0, lambda_max, 7)

        def run():
            sweep = QuasiGibbsSweep(blocks, lambdas, 1.0)
            records = [np.concatenate(stacks) for stacks in zip(*sweep.records())]
            return sweep, records

        by_default, default_records = run()
        default_stacks = len(stacks)
        monkeypatch.setattr(models, "_STACK_BYTES", 1)
        stacks.clear()
        by_budget, budget_records = run()
        assert len(stacks) > default_stacks
        assert all(at.stop - at.start == 1 for at in stacks)
        assert by_budget.per_interval == by_default.per_interval
        assert by_budget.ambiguous_steps == by_default.ambiguous_steps
        assert np.array_equal(by_budget._labels, by_default._labels)
        assert all(np.array_equal(x, y) for x, y in zip(budget_records, default_records))


def tie_block():
    """A 3-level block whose two lowest levels of different weight meet in
    a narrow avoided crossing at lambda = 0.5, where every march ties."""
    h0 = np.diag([0.0, 1.0, 3.0])
    v = np.diag([1.0, -1.0, 0.0])
    v[0, 1] = v[1, 0] = 5e-9
    return h0, v


class TestMultiplicity:
    def test_a_doubled_block_is_counted_as_two_copies(self):
        # one block counted twice must give what two copies of it give:
        # the partition function, the purity, the doubling test's weight
        # norm, the trace defect and the tie counts all count copies
        block, lambdas = tie_block(), np.array([0.0, 0.5, 1.0])
        with pytest.warns(ContinuationWarning):
            copies = QuasiGibbsSweep([block, block], lambdas, 1.0)
        with pytest.warns(ContinuationWarning):
            doubled = QuasiGibbsSweep([block], lambdas, 1.0, (2,))
        assert np.array_equal(copies.solver.multiplicity, np.ones(6))
        assert np.array_equal(doubled.solver.multiplicity, np.full(3, 2.0))
        assert doubled.weights == pytest.approx(copies.weights[:3], rel=1e-15, abs=0.0)
        assert doubled.purity == pytest.approx(copies.purity, rel=1e-15, abs=0.0)
        assert doubled.per_interval == copies.per_interval > 1
        assert doubled.ambiguous_steps == copies.ambiguous_steps
        assert [count for _, count in doubled.ambiguous_steps] == [4, 4]
        # the first round's change, a weight-change norm of about 0.3
        first_round = [sweep._march(2, None)[2] for sweep in (copies, doubled)]
        assert first_round[0] > 0.1
        assert first_round[1] == pytest.approx(first_round[0], rel=1e-15, abs=0.0)

        def traces(sweep):
            return np.concatenate([
                sweep.solver.total([np.trace(s, axis1=-2, axis2=-1) for s in chunk])
                for chunk in sweep.records()
            ])

        assert np.abs(traces(copies) - 1.0).max() <= 1e-15
        assert np.abs(traces(doubled) - 1.0).max() <= 1e-15
        for copies_record, doubled_record in zip(copies.records(), doubled.records()):
            for k in range(copies_record[0].shape[0]):
                dense = doubled.solver.dense([s[k] for s in doubled_record])
                assert dense.shape == (6, 6)
                expected = copies.solver.dense([s[k] for s in copies_record])
                assert np.abs(dense - expected).max() <= 1e-15
        by_copies = _run_levels(copies, 1.0, 4)
        by_doubling = _run_levels(doubled, 1.0, 4)
        assert by_copies.keys() == by_doubling.keys()
        for name, column in by_copies.items():
            assert np.abs(by_doubling[name] - column).max() <= 1e-15, name


TWIN_EVOLVE_CASES = [
    (kind, b, n, 1.0, 2.0, 0.2, 21)
    for kind, b in (("tfic", None), ("qxyc", None), ("mfic", 0.7))
    for n in (5, 6, 7)
] + [
    ("qxyc", None, 6, 1.0, 2.0, 1.5, 31),  # across the exact crossing at lambda = 1
    ("tfic", None, 6, 5.0, 2.0, 2.5, 26),
]


class TestReflectionTwins:
    @pytest.mark.parametrize(
        "kind,b,n_sites,beta,gamma,lambda_max,n_records", TWIN_EVOLVE_CASES,
        ids=[f"{c[0]}-{c[2]}-{c[5]:g}" for c in TWIN_EVOLVE_CASES],
    )
    def test_evolving_each_twin_once_matches_every_block(self, monkeypatch, every_block, kind,
                                                         b, n_sites, beta, gamma, lambda_max,
                                                         n_records):
        # each twin as a block of its own, formed from its derived columns
        model = SpinChainModel(kind, n_sites, B=b)
        twice = evolve(model, beta, gamma, lambda_max, n_records)
        expanded = every_block(model)
        assert len(expanded.blocks) > len(symmetry_sectors(model).blocks)
        monkeypatch.setattr(dynamics, "symmetry_sectors", lambda _: expanded)
        every = evolve(model, beta, gamma, lambda_max, n_records)
        assert twice.counters() == every.counters()
        for twice_row, every_row in zip(twice.rows(), every.rows()):
            assert np.abs(np.subtract(twice_row, every_row)).max() <= 1e-13
        for column in ("trace_defect", "herm_defect"):
            assert np.abs(getattr(twice, column) - getattr(every, column)).max() <= 1e-13

