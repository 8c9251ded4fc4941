"""Record the benchmark baseline: the spread over seeds and the traced split.

    python3 perfbench/baseline.py

For each workload in ``BENCHMARK.json`` it runs ``run.py`` untraced
once per seed in ``SEEDS`` and reports each end-to-end metric's median
and quartile spread ((Q3 - Q1) / median, from
``statistics.quantiles(n=4)``) next to the bound in ``BENCHMARK.json``.
It also runs the untuned second seed, and for each of ``TRACED_SEEDS``
runs ``run.py --trace 1`` and records the per-layer metrics, the
tracing overhead (traced ``run_s`` minus untraced ``run_s`` on the same
seed) and how much of ``run_s`` the layer self times cover.  Runs are
sequential, each ``run_seconds`` long.  The result, with the run
context, is written to ``perfbench/baseline.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

from spans import SELF_TIMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "baseline.json"
SEEDS = list(range(10))
SECOND_SEED = 2107  # never used while tuning the benchmark
TRACED_SEEDS = [0, SECOND_SEED]


def run(workload: str, seed: int, trace: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        sys.stdout.write(proc.stdout)
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    record = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {"metrics": values, "all": record["metrics"],
            "context": record["repetitions"][0]["context"]}


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(statistics.median(values)), "n": len(values)}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report: dict = {"seconds": seconds, "seeds": SEEDS, "traced_seeds": TRACED_SEEDS,
                    "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        untraced = {}
        for seed in SEEDS + [SECOND_SEED]:
            r = run(workload, seed, 0, seconds)
            report["context"] = r["context"]
            untraced[seed] = r["all"]
            print(f"{workload} seed={seed} " + " ".join(
                f"{k}={v:.6g}" for k, v in r["metrics"].items()), flush=True)
        summary = {
            name: spread([untraced[s][name] for s in SEEDS])
            for name in list(bounds) + ["objective_total", "target_picks"]
        }
        entry = {"untraced": untraced, "summary": summary, "traced": {}}
        for name, st in summary.items():
            bound = bounds.get(name)
            flag = "" if bound is None or st["spread"] < bound / 3 else "  <-- spread >= bound/3"
            print(f"  {name:16s} median={st['median']:.6g} spread={st['spread']:.4f} "
                  f"bound={bound}{flag}", flush=True)
        for seed in TRACED_SEEDS:
            layers = run(workload, seed, 1, seconds)["metrics"]
            run_s = layers["trace.run_s"]
            covered = sum(layers[k] for k in SELF_TIMES if k != "harness.self_s")
            entry["traced"][seed] = {
                "layers": layers,
                "overhead_s": run_s - untraced[seed]["run_s"],
                "overhead_excluding_check_s": run_s - layers["bench.check_s"]
                - untraced[seed]["run_s"],
                "self_time_sum_s": sum(layers[k] for k in SELF_TIMES),
                "named_layer_share": covered / run_s,
                "remainder_share": layers["harness.self_s"] / run_s,
            }
            t = entry["traced"][seed]
            print(f"  traced seed={seed} run_s={run_s:.3f} overhead_s={t['overhead_s']:.3f} "
                  f"check_s={layers['bench.check_s']:.3f} "
                  f"named-layer share={t['named_layer_share']:.4f} "
                  f"remainder (harness.self_s) share={t['remainder_share']:.4f}", flush=True)
        report["workloads"][workload] = entry
    OUT.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
