"""Benchmark of end-to-end ``run_al`` at the published layouts.

    python3 perfbench/run.py --workload ood-flcmi --seed 0 --seconds 10 --trace 0

Closed loop, sequential: each repetition is one experiment in a fresh
child interpreter (``experiment.py``), started only after the previous
one has exited, with BLAS threads capped at the usable CPU count.
Repetitions continue until ``--seconds`` have elapsed (at least one).
Extra set-up-only children bring the set-up samples to
``SETUP_SAMPLES``.

``--trace 0`` reports the end-to-end metrics (median over
repetitions); ``--trace 1`` wraps the layer entry points and reports
the per-layer metrics instead.  A table of every metric is printed
first; the last line is one JSON object.  Spans and raw repetitions go
to ``perfbench/out/``.  Exit code 0 when every check passed, 1 when a
run failed or a check failed, 2 when the package source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from experiment import SRC, WORKLOADS
from spans import LAYER_UNITS

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
# Nine set-up samples: a median of five spread 0.10-0.31 over ten seeds.
# Each set-up child costs about 1.5 s of wall time, and 70 runs of the
# three workloads (the slowest about 60 s) must fit in 57 minutes.
SETUP_SAMPLES = 9
DEADLINE_S = 170.0  # a run must end within 180 s

UNITS = {
    "setup_s": "s", "run_s": "s", "round_max_s": "s", "peak_rss_mb": "MiB",
    "objective_total": "value", "final_accuracy": "share", "target_picks": "count",
    "error_rate": "share",
}
# The end-to-end metrics in BENCHMARK.json.  The table also prints
# round_max_s (one round is too short a window for a steady median on a
# shared 2-core box), objective_total (negative for logdetcg),
# target_picks (13% seed-to-seed spread on rare-logdetmi) and error_rate
# (0, carried by the final line's failed / attempted); the traced run
# repeats the first three as harness.round_max_s, greedy.objective and
# harness.target_picks.
REPORTED = ("setup_s", "run_s", "peak_rss_mb", "final_accuracy")


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def run_child(spec: dict, timeout: float) -> dict:
    """One fresh interpreter; returns its JSON result or a failure record."""
    cmd = [sys.executable, "-B", str(HERE / "experiment.py"), json.dumps(spec)]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, env=child_env(), capture_output=True, text=True, timeout=max(timeout, 1.0)
        )
    except subprocess.TimeoutExpired:
        return {"failures": [f"child exceeded {timeout:.0f} s"], "wall_s": time.perf_counter() - t0}
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-5:]
        return {"failures": [f"child exit {proc.returncode}: " + " | ".join(tail)], "wall_s": wall}
    out = json.loads(lines[-1])
    out["wall_s"] = wall
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "submodal" / "__init__.py").is_file():
        print(f"perfbench: package source not found under {SRC}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    deadline = start + DEADLINE_S
    spec = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    reps: list[dict] = []
    while True:
        rep = run_child(spec, deadline - time.perf_counter())
        reps.append(rep)
        now = time.perf_counter()
        if rep["failures"] or now - start >= args.seconds or now + rep["wall_s"] > deadline:
            break
    setups = [r["setup_s"] for r in reps if "setup_s" in r]
    while not args.trace and len(setups) < SETUP_SAMPLES and not reps[-1]["failures"]:
        probe = run_child({**spec, "setup_only": True}, deadline - time.perf_counter())
        if "setup_s" not in probe:
            reps.append(probe)
            break
        setups.append(probe["setup_s"])

    good = [r for r in reps if not r["failures"]]
    failed = len(reps) - len(good)
    if args.trace:
        metrics = {k: statistics.median(r["layers"][k] for r in good)
                   for k in LAYER_UNITS} if good else {}
        units = LAYER_UNITS
    else:
        metrics = {k: statistics.median(r["metrics"][k] for r in good)
                   for k in good[0]["metrics"]} if good else {}
        if setups:
            metrics["setup_s"] = statistics.median(setups)
        metrics["error_rate"] = failed / len(reps)
        units = UNITS

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"repetitions={len(reps)} failed={failed} setup_samples={len(setups)}")
    for name, value in metrics.items():
        label = f" ({good[0]['variant']})" if name == "greedy.variant" else ""
        print(f"  {name:32s} {value:14.6g} {units[name]}{label}")
    for r in reps:
        for msg in r["failures"]:
            print(f"  FAILED: {msg}")
    if good:
        ctx = good[0]["context"]
        print("  context: " + " ".join(f"{k}={v}" for k, v in ctx.items()))

    OUT_DIR.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "metrics": metrics, "setup_samples": setups,
              "repetitions": reps}
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record))

    keep = REPORTED if not args.trace else metrics
    result = {
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in keep if k in metrics},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
