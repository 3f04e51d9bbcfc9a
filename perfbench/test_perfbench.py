"""Tests of the benchmark itself: tracer hygiene, repeatable counts, the gates.

Run with: python3 -m pytest perfbench
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from tracer import Tracer, install_layers  # noqa: E402
from worker import Runner, layer_metrics, per_layer_names  # noqa: E402

THRESHOLD = workloads.threshold_step("mfic", 5, [0.2, 1.0, 2.5], 0.7)
DYNAMICS = workloads.dynamics_step("tfic", 4, 0.5, 0.5, lambda_max=0.05, n_records=30)
REPEATED_COUNTS = ("numpy.eigh.calls", "thermal.advance.calls", "kernels.greedy_match.calls",
                   "dynamics.substeps", "cli.write_table.bytes")


@pytest.fixture
def runner(tmp_path):
    r = Runner(tmp_path)
    yield r
    r.close()


def _bindings():
    import numpy

    import adiatherm.acceptance
    import adiatherm.cli
    from adiatherm.thermal import EigenbasisContinuation

    found = {("numpy.linalg", "eigh"): numpy.linalg.eigh}
    found.update({("ALL_CRITERIA", k): v for k, v in adiatherm.acceptance.ALL_CRITERIA.items()})
    found.update({("EigenbasisContinuation", k): v for k, v in vars(EigenbasisContinuation).items()})
    for name, mod in sys.modules.items():
        if name.startswith("adiatherm"):
            found.update({(name, k): v for k, v in vars(mod).items()})
    return found


def _traced_pass(runner, steps, tag):
    with Tracer() as tracer:
        install_layers(tracer)
        _, outcomes = runner.run_pass(steps, tag)
    return tracer, outcomes, layer_metrics(tracer, outcomes, 0.0)


def test_restore_puts_back_every_binding(runner):
    before = _bindings()
    with Tracer() as tracer:
        install_layers(tracer)
        during = _bindings()
        assert sum(during[key] is not before[key] for key in before) > 40
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_traced_and_plain_threshold_write_identical_csv(runner):
    _, plain = runner.run_pass([THRESHOLD], "plain")
    tracer, traced, _ = _traced_pass(runner, [THRESHOLD], "traced")
    assert plain[0][1].read_bytes() == traced[0][1].read_bytes()
    assert runner.failures(plain[0]) == runner.failures(traced[0]) == []
    ops = {span[4] for span in tracer.spans if span[0] == "cli.threshold_row"}
    assert len(ops) == THRESHOLD.ops


def test_deterministic_counts_repeat_across_traced_runs(runner):
    _, outcomes, first = _traced_pass(runner, [THRESHOLD, DYNAMICS], "one")
    _, _, second = _traced_pass(runner, [THRESHOLD, DYNAMICS], "two")
    assert [runner.failures(o) for o in outcomes] == [[], []]
    for name in REPEATED_COUNTS:
        assert first[name]["value"] == second[name]["value"] > 0, name
    assert list(first) == [name for name, _ in per_layer_names()]


def test_threshold_gate_counts_bad_rows(tmp_path):
    import adiatherm.cli as cli

    step = workloads.threshold_step("tfic", 4, [0.5, 1.0])
    col = cli.THRESHOLD_COLUMNS
    good = ["0"] * len(col)
    rows = [dict(zip(col, good), beta="0.5", reason=""),
            dict(zip(col, good), beta="1.0", rel_err_chi_f="1e-6", reason="")]
    path = tmp_path / "t.csv"
    path.write_text("# meta\n" + ",".join(col) + "\n"
                    + "".join(",".join(r[c] for c in col) + "\n" for r in rows))
    assert len(workloads.check_threshold(step, path, col)) == 1
    assert len(workloads.check_threshold(step, path, col[:-1])) == 2


def test_verify_gate_expects_ac10_to_fail(tmp_path):
    step = workloads.verify_step(("AC01", "AC10"))
    path = tmp_path / "r.json"
    path.write_text(json.dumps({"criteria": [{"id": "AC01", "passed": True},
                                             {"id": "AC10", "passed": False}]}))
    assert workloads.check_verify(step, path) == []
    path.write_text(json.dumps({"criteria": [{"id": "AC01", "passed": True},
                                             {"id": "AC10", "passed": True}]}))
    assert len(workloads.check_verify(step, path)) == 1


def test_inputs_follow_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.make_steps(name, 3) == workloads.make_steps(name, 3)
    assert workloads.make_steps("grid-small", 3) != workloads.make_steps("grid-small", 4)
    assert workloads.make_steps("dynamics", 3) == workloads.make_steps("dynamics", 4)


def test_benchmark_json_lists_what_the_runner_reports():
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == per_layer_names()
