"""One benchmark process: set up, then run a workload through ``adiatherm.cli.main``.

Usage (started by run.py with PYTHONPATH pointing at the checkout's src/):

    python3 perfbench/worker.py --workload NAME --seed N [--step I] --out DIR

The last line of standard output is one JSON object.  ``ready_at`` is the
CLOCK_MONOTONIC time at which set-up finished: the package is imported, the
inputs are generated and the warm-up call on the smallest input has run.
With ``--step I`` the process then runs step I of the workload body, one CLI
call; without it, it makes a plain, a traced and a second plain pass over the
body.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from tracer import Tracer, install_layers  # noqa: E402

PER_LAYER_UNITS = {"calls": "count", "s": "s", "self_s": "s"}
# (span name, fields); names follow the package's modules, with the private
# _kernels module reported as "kernels" (a metric name starts with a letter).
LAYER_FIELDS = [
    ("models.build_h0", ("calls", "s")),
    ("models.build_v", ("calls", "s")),
    ("operators.eigh", ("calls", "s")),
    ("numpy.eigh", ("calls", "s")),
    ("susceptibility.threshold_report", ("calls", "s", "self_s")),
    ("susceptibility.delta_v_thermal", ("calls", "s")),
    ("susceptibility.chi_f_thermal", ("calls", "s")),
    ("susceptibility.ground_delta_v", ("calls", "s")),
    ("susceptibility.ground_chi_f", ("calls", "s")),
    ("kernels.chi_pair_sum", ("s",)),
    ("kernels.pair_weight_sum", ("s",)),
    ("kernels.match_columns", ("calls", "s")),
    ("kernels.greedy_match", ("calls", "s")),
    ("thermal.advance", ("calls", "s")),
    ("dynamics.evolve", ("calls", "s", "self_s")),
    ("qsl", ("calls", "s")),
    ("closed_forms", ("calls", "s")),
    ("cli.write_table", ("calls", "s")),
]


def per_layer_names():
    """Every per-layer metric name with its unit, in report order."""
    names = [(f"{prefix}.{f}", PER_LAYER_UNITS[f]) for prefix, fields in LAYER_FIELDS for f in fields]
    names += [
        ("kernels.match_fast_ratio", "ratio"),
        ("thermal.marches", "count"),
        ("dynamics.halvings", "count"),
        ("dynamics.substeps", "count"),
        ("cli.write_table.bytes", "B"),
    ]
    names += [(f"acceptance.{cid}.s", "s") for cid in workloads.GRID_CRITERIA]
    names.append(("trace.overhead_s", "s"))
    return names


class Runner:
    """Runs workload steps through ``cli.main`` and gates their outputs.

    ``cli.evolve`` is rebound to a capture that keeps each returned
    BoundTrace for the dynamics gate; it calls ``dynamics.evolve`` at call
    time, so a tracer's rebinding of that name still sees every call.
    """

    def __init__(self, out_dir):
        import adiatherm.cli as cli
        import adiatherm.dynamics as dynamics

        self.cli = cli
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.traces = []

        def capture(*args, **kwargs):
            trace = dynamics.evolve(*args, **kwargs)
            self.traces.append(trace)
            return trace

        self._evolve = cli.evolve
        cli.evolve = capture

    def close(self):
        self.cli.evolve = self._evolve

    def run_pass(self, steps, tag):
        """Run every step; returns (per-step wall seconds, per-step outcomes)."""
        walls, outcomes = [], []
        for index, step in enumerate(steps):
            ext = "json" if step.command == "verify" else "csv"
            path = self.out_dir / f"{tag}-{index:02d}.{ext}"
            if path.exists():
                path.unlink()
            self.traces.clear()
            code, error = None, None
            started = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = self.cli.main(step.cli_args(path))
            except Exception as exc:  # a failed operation, counted below
                error = f"{type(exc).__name__}: {exc}"
            walls.append(time.perf_counter() - started)
            outcomes.append((step, path, code, error, list(self.traces)))
        return walls, outcomes

    def failures(self, outcome):
        """Messages for the failed operations of one step (at most step.ops)."""
        step, path, code, error, traces = outcome
        if error is not None:
            return [error] * step.ops
        try:
            if step.command == "verify":
                found = workloads.check_verify(step, path)
            elif code != 0:
                found = [f"{step.command} {step.argv}: exit code {code}"] * step.ops
            elif step.command == "threshold":
                found = workloads.check_threshold(step, path, self.cli.THRESHOLD_COLUMNS)
            else:
                trace = traces[0] if len(traces) == 1 else None
                found = workloads.check_dynamics(step, path, self.cli.DYNAMICS_COLUMNS, trace)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            found = [f"{step.command} {step.argv}: unreadable output ({exc})"] * step.ops
        return found[: step.ops]


def substeps_and_halvings(traces):
    """Midpoint substeps over every halving level, and the halvings, per evolve.

    Level l of L integrates each of the n_records - 1 intervals with
    final / 2**(L - 1 - l) substeps, where final = n_substeps_per_interval.
    """
    substeps = halvings = 0
    for trace in traces:
        levels = len(trace.fidelity_history)
        final = trace.n_substeps_per_interval
        per_interval = sum(final >> (levels - 1 - level) for level in range(levels))
        substeps += per_interval * (trace.n_records - 1)
        halvings += levels - 1
    return substeps, halvings


def layer_metrics(tracer, outcomes, overhead_s):
    """Per-layer metrics of one traced pass, given that pass's step outcomes."""
    traces = [t for outcome in outcomes for t in outcome[4]]
    totals = tracer.layer_totals()
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0}
    values = {}
    for span, fields in LAYER_FIELDS:
        entry = totals.get(span, empty)
        for f in fields:
            values[f"{span}.{f}"] = entry[f]
    matches = totals.get("kernels.match_columns", empty)["calls"]
    greedy = totals.get("kernels.greedy_match", empty)["calls"]
    values["kernels.match_fast_ratio"] = 1.0 - greedy / matches if matches else 0.0
    values["thermal.marches"] = totals.get("thermal.march", empty)["calls"]
    values["dynamics.substeps"], values["dynamics.halvings"] = substeps_and_halvings(traces)
    # The tables that write_table wrote; verify's JSON report is not one.
    values["cli.write_table.bytes"] = sum(
        path.stat().st_size for step, path, *_ in outcomes if step.command != "verify")
    for cid in workloads.GRID_CRITERIA:
        values[f"acceptance.{cid}.s"] = totals.get(f"acceptance.{cid}", empty)["s"]
    values["trace.overhead_s"] = overhead_s
    return {name: {"value": values[name], "unit": unit} for name, unit in per_layer_names()}


def _blas_threads():
    """OpenBLAS thread count read from the loaded library, or None."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record():
    import platform

    import mpmath
    import numpy

    from adiatherm import _kernels, dynamics, thermal

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "kernels_backend": _kernels.backend_name(),
        "tolerances": {
            "FINAL_FIDELITY_TOL": dynamics.FINAL_FIDELITY_TOL,
            "CONTINUATION_STABILITY_TOL": thermal.CONTINUATION_STABILITY_TOL,
            "gate": workloads.gate_tolerances(),
        },
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--step", type=int, help="measure this body step; default: trace the body")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    import adiatherm.cli  # noqa: F401  (imports numpy and mpmath)

    steps = workloads.make_steps(args.workload, args.seed)
    runner = Runner(args.out)
    _, warm = runner.run_pass([workloads.warmup_step(args.workload)], "warmup")
    ready_at = time.monotonic()
    failed = sum(len(runner.failures(o)) for o in warm)
    result = {"ready_at": ready_at, "warmup_failed": failed}
    result.update(run_body(runner, steps, args))
    result["machine"] = machine_record()
    runner.close()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


def run_body(runner, steps, args):
    """With --step: that step.  Without: a plain, a traced and a second plain pass."""
    passes, attempted, messages = [], 0, []

    def run_pass(tag, steps=steps):
        nonlocal attempted
        walls, outcomes = runner.run_pass(steps, tag)
        for outcome in outcomes:
            attempted += outcome[0].ops
            messages.extend(runner.failures(outcome))
        passes.append(walls)
        return outcomes

    result = {"walls": passes}
    if args.step is not None:
        run_pass(f"step{args.step:02d}", [steps[args.step]])
    else:
        run_pass("body")
        with Tracer() as tracer:
            install_layers(tracer)
            outcomes = run_pass("traced")
        run_pass("body")
        tracer.write_spans(os.path.join(args.out, "spans.jsonl"))
        plain, traced, plain_again = map(sum, passes)
        result["per_layer"] = layer_metrics(tracer, outcomes, traced - (plain + plain_again) / 2)
    result.update(attempted=attempted, failures=messages)
    return result


if __name__ == "__main__":
    sys.exit(main())
