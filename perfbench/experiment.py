"""One benchmark repetition: a single ``run_al`` experiment in this process.

Run as a child of ``run.py``, one fresh interpreter per repetition::

    python3 -B perfbench/experiment.py '{"workload": "rare-logdetmi", "seed": 0, "trace": 0}'

It times ``import submodal`` plus ``harness.build_scenario`` (set-up),
then ``run_al`` end to end, checks every round's output from outside
and prints one JSON object as its last line.  With ``"setup_only":
true`` it stops after set-up.  Only the standard library is imported
before the timed ``import submodal``, so set-up includes NumPy and
SciPy import as a user pays it.
"""

from __future__ import annotations

import json
import math
import os
import resource
import sys
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# The configs of acceptance criteria 5-7 with default optimizer, model,
# function and scenario parameters.  Each stresses a different layer:
# ood-flcmi spends its greedy time on facility-location gain evaluations,
# redundancy-logdetcg on log-det commits against a growing conditioning
# set, rare-logdetmi on the 16.5k x 16.5k cosine kernel (memory peak).
WORKLOADS = {
    "ood-flcmi": {"scenario": "ood", "method": "flcmi", "rounds": 5, "budget": 250},
    "redundancy-logdetcg": {
        "scenario": "redundancy", "method": "logdetcg", "rounds": 5, "budget": 500,
    },
    "rare-logdetmi": {
        "scenario": "rare", "scenario_params": {"rho": 10.0}, "method": "logdetmi",
        "rounds": 3, "budget": 125,
    },
}

# The scenario's own count of useful picks, read from each RoundRecord.
TARGET_FIELD = {"ood": "id_selected", "rare": "rare_selected", "redundancy": "unique_selected"}


def check_rounds(config, split, result) -> list[str]:
    """Outside checks of every round against the initial split.

    Each batch has exactly ``budget`` unique indices drawn from the
    current unlabeled pool and disjoint from the labeled set; the
    objective is finite; the per-scenario counts in the record match a
    recount from ground truth; no label was read outside the guard.
    """
    import numpy as np

    failures = []
    labeled = set(int(i) for i in split.labeled)
    unlabeled = set(int(i) for i in split.unlabeled)
    cumulative: list[int] = []
    if len(result.records) != config.rounds:
        failures.append(f"{len(result.records)} rounds recorded, expected {config.rounds}")
    for rec in result.records:
        sel = [int(i) for i in rec.selected]
        where = f"round {rec.round}"
        if len(sel) != config.budget:
            failures.append(f"{where}: {len(sel)} picks, budget {config.budget}")
        if len(set(sel)) != len(sel):
            failures.append(f"{where}: duplicate picks")
        if not set(sel) <= unlabeled:
            failures.append(f"{where}: picks outside the unlabeled pool")
        if set(sel) & labeled:
            failures.append(f"{where}: picks already labeled")
        if rec.objective is None or not math.isfinite(rec.objective):
            failures.append(f"{where}: objective {rec.objective!r} is not finite")
        labeled |= set(sel)
        unlabeled -= set(sel)
        cumulative.extend(sel)
        if rec.labeled_size != len(labeled):
            failures.append(f"{where}: labeled size {rec.labeled_size} != {len(labeled)}")
        picked = split.labels[np.asarray(sel, dtype=np.intp)]
        recount = {
            "id_selected": int(np.isin(picked, split.id_classes).sum()) if split.ood_classes else None,
            "rare_selected": int(np.isin(picked, split.rare_classes).sum()) if split.rare_classes else None,
            "unique_selected": int(len(np.unique(split.duplication_map[cumulative]))),
        }
        for key, want in recount.items():
            if getattr(rec, key) != want:
                failures.append(f"{where}: {key} {getattr(rec, key)!r} != recount {want!r}")
        if not 0.0 <= rec.accuracy <= 1.0:
            failures.append(f"{where}: accuracy {rec.accuracy!r} outside [0, 1]")
    if result.guard_violations:
        failures.append(f"{result.guard_violations} label-guard violations")
    return failures


def end_to_end(config, result, run_s: float) -> dict[str, float]:
    records = result.records
    field = TARGET_FIELD[config.scenario]
    counts = [getattr(r, field) for r in records]
    return {
        "run_s": run_s,
        "round_max_s": max(r.elapsed for r in records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "objective_total": float(sum(r.objective for r in records)),
        "final_accuracy": float(result.summary["final_accuracy"]),
        # unique_selected is already cumulative; the other counts are per round.
        "target_picks": float(counts[-1] if field == "unique_selected" else sum(counts)),
    }


def run_experiment(config, split, trace: bool) -> dict:
    """Run ``run_al`` once, untraced or traced, and check its output."""
    from submodal import greedy, harness

    import spans

    out: dict = {"failures": []}
    tracer = spans.Tracer() if trace else None
    try:
        if tracer is None:
            t0 = time.perf_counter()
            result = harness.run_al(config)
            run_s = time.perf_counter() - t0
        else:
            with spans.instrument(tracer, out["failures"]):
                root = tracer.open("harness.run")
                result = harness.run_al(config, on_record=spans.round_hook(tracer, config.rounds))
                tracer.close(root)
            run_s = tracer.spans[root]["end"] - tracer.spans[root]["start"]
    except Exception as exc:  # a raising run (NumericalError included) counts as failed
        out["failures"].append(f"{type(exc).__name__}: {exc}")
        out["traceback"] = traceback.format_exc()
        return out
    out["failures"] += check_rounds(config, split, result)
    out["metrics"] = end_to_end(config, result, run_s)
    out["round_s"] = [r.elapsed for r in result.records]
    if tracer is not None:
        out["spans"] = tracer.spans
        out["layers"] = spans.summarize(
            out["spans"], result.guard_violations, out["metrics"]["target_picks"]
        )
        out["variant"] = greedy.VARIANTS[out["layers"]["greedy.variant"]]
    return out


def run_context() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
    }


def main(spec: dict) -> dict:
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import submodal
    from submodal import harness
    import_s = time.perf_counter() - t0
    if not Path(submodal.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"imported submodal from {submodal.__file__}, not from {SRC}")

    t1 = time.perf_counter()
    config = harness.RunConfig.from_dict({**WORKLOADS[spec["workload"]], "seed": spec["seed"]})
    split, _, _ = harness.build_scenario(config)
    setup_s = import_s + time.perf_counter() - t1

    out = {"setup_s": setup_s}
    if not spec.get("setup_only"):
        out.update(run_experiment(config, split, bool(spec["trace"])))
        out["context"] = run_context()
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
