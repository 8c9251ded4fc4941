"""Fast self-test of the span arithmetic, the summariser and the checks.

    python3 -m pytest -q perfbench
"""

import dataclasses
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import experiment  # noqa: E402
import spans  # noqa: E402

sys.path.insert(0, str(experiment.SRC))

from submodal import harness  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = {"scenario": "rare", "scenario_params": {"rho": 10.0, "unlabeled_common": 200},
        "method": "logdetmi", "rounds": 2, "budget": 10, "seed": 3}


def _span(name, start, end, parent):
    return {"name": name, "start": start, "end": end, "parent": parent, "round": 0, "attrs": {}}


def test_self_time_is_duration_minus_children():
    tree = [
        _span("root", 0.0, 10.0, None),
        _span("a", 1.0, 4.0, 0),
        _span("a.child", 2.0, 2.5, 1),
        _span("b", 5.0, 9.0, 0),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.5, 0.5, 4.0])
    assert sum(spans.self_times(tree)) == pytest.approx(10.0)


def test_overlapping_children_are_counted_once():
    tree = [_span("root", 0.0, 10.0, None), _span("a", 1.0, 6.0, 0), _span("b", 4.0, 12.0, 0)]
    assert spans.self_times(tree)[0] == pytest.approx(1.0)


@pytest.fixture(scope="module")
def tiny_runs():
    config = harness.RunConfig.from_dict(TINY)
    split, _, _ = harness.build_scenario(config)
    traced = experiment.run_experiment(config, split, trace=True)
    plain = experiment.run_experiment(config, split, trace=False)
    return config, split, traced, plain


def test_traced_run_reports_every_layer_metric(tiny_runs):
    config, _, traced, _ = tiny_runs
    assert traced["failures"] == []
    layers = traced["layers"]
    assert list(layers) == [m["name"] for m in BENCH["per_layer"]]
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == spans.LAYER_UNITS
    assert layers["functions.commits"] == config.rounds * config.budget
    assert layers["surrogate.train_calls"] == config.rounds
    assert layers["harness.guard_violations"] == 0
    assert layers["scenarios.pool_size"] == 5 * 200 + 5 * 20
    assert layers["greedy.commit_ratio"] == pytest.approx(
        layers["functions.commits"] / layers["greedy.evaluations"])


def test_layer_self_times_sum_to_the_run(tiny_runs):
    _, _, traced, _ = tiny_runs
    own = spans.self_times(traced["spans"])
    root = traced["spans"][0]
    assert root["name"] == "harness.run"
    assert sum(own) == pytest.approx(root["end"] - root["start"], abs=1e-9)
    layers = traced["layers"]
    assert sum(layers[k] for k in spans.SELF_TIMES) == pytest.approx(
        layers["trace.run_s"], abs=1e-9)
    rounds = {s["round"] for s in traced["spans"] if s["name"] == "harness.round"}
    assert rounds == {1, 2}


def test_tracing_does_not_change_results(tiny_runs):
    _, _, traced, plain = tiny_runs
    assert plain["failures"] == []
    for name in ("objective_total", "final_accuracy", "target_picks"):
        assert traced["metrics"][name] == plain["metrics"][name]
    assert traced["layers"]["greedy.objective"] == pytest.approx(
        plain["metrics"]["objective_total"])
    e2e = {m["name"] for m in BENCH["end_to_end"]} - {"setup_s"}
    assert e2e <= set(plain["metrics"])


def test_checks_catch_bad_batches(tiny_runs):
    config, split, _, _ = tiny_runs
    result = harness.run_al(config)
    first = result.records[0]
    labeled = int(split.labeled[0])
    bad = dataclasses.replace(first, selected=(labeled,) + first.selected[1:])
    dup = dataclasses.replace(first, selected=(first.selected[0],) * config.budget)
    for rec in (bad, dup):
        broken = dataclasses.replace(result, records=[rec] + result.records[1:])
        assert experiment.check_rounds(config, split, broken)
    assert experiment.check_rounds(config, split, result) == []


def test_value_tolerances():
    assert spans.value_matches(100.0, 100.0 + 1e-9, logdet=False)
    assert not spans.value_matches(100.0, 100.0 + 1e-6, logdet=False)
    assert spans.value_matches(100.0, 100.0 + 1e-5, logdet=True)
    assert not spans.value_matches(100.0, math.nan, logdet=True)


def test_a_raising_run_counts_as_failed(tiny_runs):
    config, split, _, _ = tiny_runs
    too_big = dataclasses.replace(config, budget=10_000)
    out = experiment.run_experiment(too_big, split, trace=False)
    assert out["failures"] and out["failures"][0].startswith("ValueError")
    assert "metrics" not in out


def test_a_partitioned_traced_run_fails(tiny_runs):
    _, split, _, _ = tiny_runs
    parted = harness.RunConfig.from_dict({**TINY, "optimizer": {"partitions": 2}})
    out = experiment.run_experiment(parted, split, trace=True)
    assert out["failures"][0].startswith("RuntimeError: traced runs support one partition")
    assert harness.partitioned_select.__module__ == "submodal.greedy"
