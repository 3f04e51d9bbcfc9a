#!/usr/bin/env python3
"""End-to-end benchmark of adiatherm's two verification routes.

Run from the root of a checkout:

    python3 perfbench/run.py --workload threshold-n10|dynamics|grid-small|all \
        --seed N --seconds S --trace 0|1

Each workload runs in fresh processes started from the checkout's ``src/``
(see worker.py).  With ``--trace 0`` a run repeats passes over the workload
body until it has spent about ``--seconds``; each CLI
call of a pass runs in its own fresh process, after that process's set-up.
It reports the end-to-end metrics ``setup_s`` (median over every process of
the run, so the samples are spread over the same seconds as the calls),
``wall_s`` (one pass: the sum over its CLI calls of each call's median time
across passes) and ``peak_rss_mb`` (the largest over the processes).  With
``--trace 1`` one process makes a plain, a traced and a second plain pass,
which give the per-layer metrics.
Every operation's result is gated (workloads.py).  The last line of standard
output is one JSON object; the full record, with the machine and the
tolerances in force, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

RUN_BUDGET_S = 170.0  # one workload, every process included
BLAS_THREADS = 1
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


class BenchmarkError(RuntimeError):
    pass


def worker_env():
    src = ROOT / "src"
    if not (src / "adiatherm" / "__init__.py").is_file():
        raise BenchmarkError(f"no adiatherm package under {src}; run from a full checkout")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    # Single-threaded BLAS: on a small shared machine a second BLAS thread
    # waits on whatever else runs on its core, and run-to-run spread grows.
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = str(BLAS_THREADS)
    return env


def launch(args, out_dir, env, deadline, step=None):
    """Start one worker, wait for it, and return its result with setup_s.

    With a step the worker measures that CLI call; without, it traces the body.
    """
    command = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--out", str(out_dir),
    ]
    what = "trace" if step is None else f"step {step}"
    if step is not None:
        command += ["--step", str(step)]
    launched = time.monotonic()
    try:
        proc = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - launched))
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{args.workload} {what} worker timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"{args.workload} {what} worker exited with {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready_at"] - launched
    return result


def measure(args, out_dir, env, deadline):
    """Passes over the body, one process per CLI call, until --seconds is spent."""
    n_steps = len(workloads.make_steps(args.workload, args.seed))
    started = time.monotonic()
    calls, durations = [], []
    while True:
        pass_started = time.monotonic()
        calls += [launch(args, out_dir, env, deadline, step) for step in range(n_steps)]
        durations.append(time.monotonic() - pass_started)
        # Stop where the run ends nearest to --seconds.
        if time.monotonic() - started + statistics.median(durations) / 2 > args.seconds:
            break
    walls = [[call["walls"][0][0] for call in calls[i:i + n_steps]]
             for i in range(0, len(calls), n_steps)]
    values = {
        "setup_s": statistics.median(call["setup_s"] for call in calls),
        "wall_s": sum(statistics.median(step) for step in zip(*walls)),
        "peak_rss_mb": max(call["peak_rss_mb"] for call in calls),
    }
    summary = {
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()},
        "attempted": sum(call["attempted"] for call in calls),
        "failures": [m for call in calls for m in call["failures"]],
        "warmup_failed": sum(call["warmup_failed"] for call in calls),
        "machine": calls[0]["machine"],
        "walls": walls,
    }
    return summary, [call["setup_s"] for call in calls]


def run_workload(args):
    deadline = time.monotonic() + RUN_BUDGET_S
    env = worker_env()
    out_dir = ROOT / "perfbench" / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    if args.trace:
        worker, setups = launch(args, out_dir, env, deadline), []
        worker["metrics"] = worker["per_layer"]
    else:
        worker, setups = measure(args, out_dir, env, deadline)
    machine = worker["machine"]
    if machine["blas_threads"] is not None and machine["blas_threads"] > machine["nproc"]:
        raise BenchmarkError(f"BLAS uses {machine['blas_threads']} threads on {machine['nproc']} cores")
    failed = len(worker["failures"])
    result = {
        "correct": failed == 0 and worker["warmup_failed"] == 0,
        "attempted": worker["attempted"],
        "failed": failed,
        "metrics": worker["metrics"],
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, setup_samples_s=setups, step_walls_s=worker["walls"],
                  failures=worker["failures"][:20], machine=machine)
    with open(f"{out_dir}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return result


def report(workload, result):
    for name, metric in result["metrics"].items():
        print(f"{workload}: {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"{workload}: ops_attempted = {result['attempted']}, ops_failed = {result['failed']}, "
          f"correct = {result['correct']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description="adiatherm end-to-end benchmark")
    parser.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(argparse.Namespace(**dict(vars(args), workload=name)))
            report(name, results[name])
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
