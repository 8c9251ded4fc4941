import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submodal import functions, harness, similarity
from submodal.cli import cli_main
from submodal.functions import ALL_KINDS, NumericalError
from submodal.harness import (
    SCENARIOS,
    LabelGuard,
    OptimizerConfig,
    RunConfig,
    _resolve_partitions,
    _resolve_variant,
    build_scenario,
    penalty_matrix,
    run_al,
    table1_fields,
)

TINY_RARE = {
    "scenario": "rare",
    "scenario_params": {"rho": 5.0, "unlabeled_common": 60, "dim": 12},
    "rounds": 2,
    "budget": 12,
    "test_per_class": 30,
    "model": {"learning_rate": 0.5, "epochs": 80, "l2": 1e-4},
}


def tiny_config(**over):
    return RunConfig.from_dict({**TINY_RARE, **over})


class TestRunConfig:
    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown config fields"):
            RunConfig.from_dict({"scenario": "rare", "budgett": 3})

    def test_bad_scenario_rejected(self):
        with pytest.raises(ValueError, match="scenario"):
            RunConfig(scenario="imbalance")

    def test_bad_method_rejected(self):
        with pytest.raises(ValueError, match="unknown function kind"):
            RunConfig(method="badge")

    def test_method_names_case_insensitive(self):
        assert RunConfig(method="FLQMI").method == "flqmi"
        assert RunConfig(method="LogDetMI").method == "logdetmi"

    def test_json_roundtrip(self, tmp_path):
        cfg = tiny_config(method="flqmi", seed=9)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        assert RunConfig.from_json(path) == cfg

    def test_budget_times_rounds_bounded_by_pool(self):
        cfg = tiny_config(method="random", rounds=100, budget=50)
        with pytest.raises(ValueError, match="exceeds the"):
            run_al(cfg)

    @pytest.mark.parametrize("method", ["logdetmi", "logdetcmi"])
    def test_lazy_rejected_on_non_submodular_kinds(self, method):
        with pytest.raises(ValueError, match=f"{method} is not submodular"):
            tiny_config(method=method, optimizer={"variant": "lazy"})
        for variant in ("auto", "naive", "stochastic"):
            tiny_config(method=method, optimizer={"variant": variant})
        tiny_config(method="logdetcg", optimizer={"variant": "lazy"})
        tiny_config(method="random", optimizer={"variant": "lazy"})


class TestResolveVariant:
    @pytest.mark.parametrize("kind", ["logdet", "logdetmi", "logdetcg", "logdetcmi"])
    def test_auto_runs_logdet_kinds_naive_at_every_size(self, kind):
        for n in (1000, 50000):
            assert _resolve_variant(RunConfig(), kind, n) == "naive"

    def test_auto_runs_other_kinds_lazy_then_stochastic(self):
        assert _resolve_variant(RunConfig(), "flcmi", 14000) == "lazy"
        assert _resolve_variant(RunConfig(), "flcmi", 50000) == "stochastic"

    def test_explicit_variant_is_kept(self):
        cfg = RunConfig(optimizer=OptimizerConfig(variant="stochastic"))
        assert _resolve_variant(cfg, "logdetmi", 1000) == "stochastic"

    def test_auto_logdetmi_run_records_naive(self):
        res = run_al(tiny_config(method="logdetmi", rounds=1))
        assert [r.variant for r in res.records] == ["naive"]


# Table 1: the split fields feeding each kind's query set Q and
# conditioning set P, written out kind by kind.
_WIRING = {
    "fl": (None, None),
    "gc": (None, None),
    "logdet": (None, None),
    "flvmi": ("rare_query", None),
    "flqmi": ("rare_query", None),
    "gcmi": ("rare_query", None),
    "logdetmi": ("rare_query", None),
    "div_gcmi": ("rare_query", None),
    "flcg": (None, "labeled"),
    "gccg": (None, "labeled"),
    "logdetcg": (None, "labeled"),
    "flcmi": ("rare_query", "labeled"),
    "logdetcmi": ("rare_query", "labeled"),
}
_OOD_WIRING = {
    "fl": (None, None),
    "gc": (None, None),
    "logdet": (None, None),
    "flvmi": ("labeled_id", None),
    "flqmi": ("labeled_id", None),
    "gcmi": ("labeled_id", None),
    "logdetmi": ("labeled_id", None),
    "div_gcmi": ("labeled_id", None),
    "flcg": (None, "labeled"),
    "gccg": (None, "labeled"),
    "logdetcg": (None, "labeled"),
    "flcmi": ("labeled_id", "labeled_ood"),
    "logdetcmi": ("labeled_id", "labeled_ood"),
}


def test_table1_wiring_pinned_for_every_scenario_and_kind():
    assert set(SCENARIOS) == {"standard", "rare", "redundancy", "ood"}
    for scenario in SCENARIOS:
        expected = _OOD_WIRING if scenario == "ood" else _WIRING
        assert {kind: table1_fields(scenario, kind) for kind in ALL_KINDS} == expected, scenario


class TestLabelGuard:
    def test_counts_reads_outside_permitted_set(self):
        guard = LabelGuard(np.arange(10), permitted=[0, 1, 2])
        guard.fetch([0, 2])
        assert guard.violations == 0
        guard.fetch([3, 4, 1])
        assert guard.violations == 2
        guard.permit([3, 4])
        guard.fetch([3, 4])
        assert guard.violations == 2

    @pytest.mark.parametrize(
        "scenario,params,method",
        [
            ("rare", {"rho": 5.0, "unlabeled_common": 60, "dim": 12}, "flqmi"),
            ("rare", {"rho": 5.0, "unlabeled_common": 60, "dim": 12}, "entropy"),
            ("redundancy", {"unique_count": 120, "labeled_count": 30, "redundancy_factor": 4, "dim": 12}, "flcg"),
            ("ood", {"labeled_per_id": 6, "unlabeled_per_id": 20, "unlabeled_per_ood": 60, "valid_per_id": 2, "dim": 12}, "logdetcmi"),
        ],
    )
    def test_runs_never_touch_unlabeled_labels(self, scenario, params, method):
        cfg = RunConfig.from_dict(
            {
                "scenario": scenario,
                "scenario_params": params,
                "method": method,
                "rounds": 2,
                "budget": 10,
                "test_per_class": 20,
                "model": {"learning_rate": 0.5, "epochs": 60, "l2": 1e-4},
            }
        )
        assert run_al(cfg).guard_violations == 0


class TestRunAl:
    def test_labeled_set_grows_by_budget_each_round(self):
        cfg = tiny_config(method="flqmi", rounds=3, budget=10)
        res = run_al(cfg)
        sizes = [r.labeled_size for r in res.records]
        assert sizes[1] - sizes[0] == 10 and sizes[2] - sizes[1] == 10
        assert all(len(r.selected) == 10 for r in res.records)

    def test_standard_scenario_runs_plain_submodular_kinds(self):
        cfg = RunConfig.from_dict(
            {
                "scenario": "standard",
                "scenario_params": {"num_classes": 4, "dim": 8, "labeled_per_class": 6, "unlabeled_per_class": 25},
                "method": "fl",
                "rounds": 2,
                "budget": 8,
                "test_per_class": 25,
                "model": {"epochs": 60},
            }
        )
        res = run_al(cfg)
        assert len(res.records) == 2
        assert res.records[-1].objective is not None

    def test_smi_kind_in_standard_scenario_rejected(self):
        cfg = RunConfig.from_dict(
            {
                "scenario": "standard",
                "scenario_params": {"num_classes": 3, "dim": 8, "labeled_per_class": 5, "unlabeled_per_class": 20},
                "method": "flqmi",
                "rounds": 1,
                "budget": 5,
                "test_per_class": 10,
            }
        )
        with pytest.raises(ValueError, match="rare query"):
            run_al(cfg)

    def test_records_count_gain_evaluations_and_variant(self):
        cfg = tiny_config(method="flvmi", optimizer={"variant": "naive"})
        split, _, _ = build_scenario(cfg)
        b = cfg.budget
        # naive greedy scans every unchosen point at each of its b steps
        pools = [len(split.unlabeled) - b * r for r in range(cfg.rounds)]
        want = [b * n - b * (b - 1) // 2 for n in pools]
        res = run_al(cfg)
        assert [(r.evaluations, r.variant) for r in res.records] == [(w, "naive") for w in want]
        assert res.summary["evaluations"] == sum(want)
        base = run_al(tiny_config(method="random"))
        assert {(r.evaluations, r.variant) for r in base.records} == {(None, None)}
        assert base.summary["evaluations"] == 0

    def test_records_count_pivot_floor_hits(self):
        # Ten originals, each in the pool four times: with eps=0 the 11th
        # pick must be a duplicate, whose residual pivot is ~0.
        cfg = RunConfig.from_dict(
            {
                "scenario": "redundancy",
                "scenario_params": {
                    "unique_count": 10, "dup_fraction": 1.0, "redundancy_factor": 4,
                    "labeled_count": 6, "num_classes": 3, "dim": 8,
                },
                "method": "logdet",
                "rounds": 1,
                "budget": 12,
                "test_per_class": 10,
                "model": {"epochs": 30},
                "function": {"eps": 0.0},
            }
        )
        floored = run_al(cfg)
        assert floored.records[0].pivot_floor_hits > 0
        assert floored.summary["pivot_floor_hits"] == floored.records[0].pivot_floor_hits
        normal = run_al(RunConfig.from_dict({**cfg.to_dict(), "function": {}}))
        assert normal.records[0].pivot_floor_hits == 0
        assert normal.summary["pivot_floor_hits"] == 0
        base = run_al(tiny_config(method="random"))
        assert {r.pivot_floor_hits for r in base.records} == {None}
        assert base.summary["pivot_floor_hits"] == 0

    def test_records_report_the_coverage_block_bytes(self, monkeypatch):
        # fl keeps every column, so each round's block is n x n for a pool of n.
        cfg = tiny_config(method="fl")
        split, _, _ = build_scenario(cfg)
        pools = [len(split.unlabeled) - cfg.budget * r for r in range(cfg.rounds)]
        res = run_al(cfg)
        assert [r.block_bytes for r in res.records] == [n * n * 8 for n in pools]
        assert res.summary["block_bytes"] == pools[0] ** 2 * 8
        monkeypatch.setattr(functions, "_FLOAT64_BLOCK_BYTES", 0)
        assert [r.block_bytes for r in run_al(cfg).records] == [n * n * 4 for n in pools]
        logdet = run_al(tiny_config(method="logdet"))
        assert [r.block_bytes for r in logdet.records] == [0, 0]
        assert logdet.summary["block_bytes"] == 0
        base = run_al(tiny_config(method="random"))
        assert {r.block_bytes for r in base.records} == {None}

    def test_reproducible_records_modulo_timing(self):
        cfg = tiny_config(method="logdetmi", seed=31)
        strip = lambda recs: [
            {k: v for k, v in r.to_dict().items() if k != "elapsed"} for r in recs
        ]
        assert strip(run_al(cfg).records) == strip(run_al(cfg).records)

    def test_random_rare_fraction_matches_binomial_expectation(self):
        # one random round on an imbalance-10 split: selected rare share
        # stays inside a 3-sigma band of the pool's rare share
        total, rare_total, pool_rare_share = 0, 0, None
        for seed in range(50):
            cfg = RunConfig.from_dict(
                {
                    "scenario": "rare",
                    "scenario_params": {"rho": 10.0, "unlabeled_common": 100, "dim": 8},
                    "method": "random",
                    "rounds": 1,
                    "budget": 50,
                    "seed": seed,
                    "test_per_class": 10,
                    "model": {"epochs": 30},
                }
            )
            res = run_al(cfg)
            rare_total += res.records[0].rare_selected
            total += len(res.records[0].selected)
            if pool_rare_share is None:
                split, _, _ = build_scenario(cfg)
                labels = split.labels[split.unlabeled]
                pool_rare_share = np.isin(labels, split.rare_classes).mean()
        expected = total * pool_rare_share
        sigma = np.sqrt(total * pool_rare_share * (1 - pool_rare_share))
        assert abs(rare_total - expected) <= 3 * sigma

    def test_rare_metrics_absent_outside_rare_scenario(self):
        cfg = RunConfig.from_dict(
            {
                "scenario": "standard",
                "scenario_params": {"num_classes": 3, "dim": 8, "labeled_per_class": 5, "unlabeled_per_class": 20},
                "method": "random",
                "rounds": 1,
                "budget": 5,
                "test_per_class": 10,
                "model": {"epochs": 30},
            }
        )
        rec = run_al(cfg).records[0]
        assert rec.rare_accuracy is None
        assert rec.rare_selected is None
        assert rec.id_selected is None

    def test_duplicate_and_original_count_once(self):
        cfg = RunConfig.from_dict(
            {
                "scenario": "redundancy",
                "scenario_params": {"unique_count": 60, "labeled_count": 20, "redundancy_factor": 5, "dup_fraction": 0.5, "dim": 8},
                "method": "random",
                "rounds": 2,
                "budget": 30,
                "test_per_class": 10,
                "model": {"epochs": 30},
                "seed": 4,
            }
        )
        res = run_al(cfg)
        # cumulative distinct originals can never exceed cumulative picks
        assert res.records[0].unique_selected <= 30
        assert res.records[1].unique_selected <= 60
        assert res.records[1].unique_selected >= res.records[0].unique_selected


class TestFactoredKernels:
    def test_logdet_kinds_never_partition(self):
        cfg = RunConfig(budget=500)
        for kind in ("logdetmi", "gc", "gccg", "flqmi"):
            assert _resolve_partitions(cfg, kind, 50000) == 1
        assert _resolve_partitions(cfg, "fl", 50000) == 3

    @staticmethod
    def run_without_pool_kernel(cfg, monkeypatch):
        """run_al with similarity.cosine_kernel raising on any pool x pool request."""
        split, _, _ = build_scenario(cfg)
        smallest_pool = len(split.unlabeled) - cfg.budget * (cfg.rounds - 1)
        dense = similarity.cosine_kernel

        def guarded(a, b=None):
            cols = a.rows if b is None else b.rows
            if min(a.rows, cols) >= smallest_pool:
                raise AssertionError(f"pool x pool kernel requested: {a.rows} x {cols}")
            return dense(a, b)

        monkeypatch.setattr(similarity, "cosine_kernel", guarded)
        res = run_al(cfg)
        assert [len(r.selected) for r in res.records] == [cfg.budget] * cfg.rounds
        return res

    @pytest.mark.parametrize("method", ["logdet", "logdetmi", "logdetcg", "logdetcmi"])
    def test_logdet_kinds_build_no_pool_by_pool_kernel(self, method, monkeypatch):
        res = self.run_without_pool_kernel(tiny_config(method=method), monkeypatch)
        assert res.summary["function_metadata"]["eps"] == similarity.DEFAULT_LOGDET_EPS

    @pytest.mark.parametrize("method", ["logdetmi", "logdetcg", "logdetcmi"])
    def test_conditioned_logdet_kinds_build_no_dense_kernel(self, method, monkeypatch):
        def refuse(a, b=None):
            cols = a.rows if b is None else b.rows
            raise AssertionError(f"dense kernel requested: {a.rows} x {cols}")

        monkeypatch.setattr(similarity, "cosine_kernel", refuse)
        scenario, params = {
            "logdetmi": ("rare", TINY_RARE["scenario_params"]),
            "logdetcg": ("redundancy", {}),
            "logdetcmi": ("ood", {}),
        }[method]
        cfg = tiny_config(scenario=scenario, scenario_params=params, method=method)
        res = run_al(cfg)
        assert [len(r.selected) for r in res.records] == [cfg.budget] * cfg.rounds

    @pytest.mark.parametrize("method", ["fl", "flvmi", "flcg", "flcmi", "div_gcmi"])
    def test_fl_kinds_build_no_pool_by_pool_kernel(self, method, monkeypatch):
        res = self.run_without_pool_kernel(tiny_config(method=method), monkeypatch)
        assert res.summary["function_metadata"]["kind"] == method

    @pytest.mark.parametrize("method", ["gc", "gccg", "flqmi", "gcmi"])
    def test_gc_and_rectangular_kinds_build_no_pool_by_pool_kernel(self, method, monkeypatch):
        res = self.run_without_pool_kernel(tiny_config(method=method), monkeypatch)
        assert res.summary["function_metadata"]["kind"] == method

    def test_only_the_query_and_conditioning_sets_are_embedded(self, monkeypatch):
        # The pool's factor comes from the gradient parts: the flattened
        # embedding is formed only for Q and P, |Q| + |P| rows a round.
        rows = []
        embed = harness.gradient_embeddings

        def counted(model, features, labels):
            rows.append(len(features))
            return embed(model, features, labels)

        monkeypatch.setattr(harness, "gradient_embeddings", counted)
        cfg = tiny_config(method="logdetcmi")
        split, _, _ = build_scenario(cfg)
        q, p = len(split.rare_query), len(split.labeled)
        run_al(cfg)
        assert rows == [q, p, q, p + cfg.budget]
        assert q + p + cfg.budget < len(split.unlabeled) - cfg.budget

    def test_summary_reports_the_functions_metadata(self):
        res = run_al(tiny_config(method="flqmi"))
        meta = res.summary["function_metadata"]
        assert (meta["kind"], meta["eps"], meta["gc_lambda"]) == ("flqmi", 0.0, 1.0)
        assert run_al(tiny_config(method="random")).summary.get("function_metadata") is None

    def test_partitioned_summary_reports_the_pool_size(self):
        cfg = tiny_config(method="flvmi", optimizer={"partitions": 5})
        split, _, _ = build_scenario(cfg)
        last_pool = len(split.unlabeled) - cfg.budget * (cfg.rounds - 1)
        meta = run_al(cfg).summary["function_metadata"]
        assert (meta["kind"], meta["ground_size"]) == ("flvmi", last_pool)


class TestPenaltyMatrix:
    def test_hand_computed_fixture(self):
        a = np.array([[0.50, 0.60, 0.70], [0.52, 0.61, 0.69], [0.48, 0.59, 0.71]])
        b = np.array([[0.45, 0.58, 0.71], [0.47, 0.57, 0.70], [0.43, 0.56, 0.72]])
        # round 1: d = .05,.05,.05 -> zero variance, positive -> t = +inf
        # round 2: d = .02,.04,.03 -> t = .03 / (.01/sqrt(3)) = 5.196 > 4.3027
        # round 3: d = -.01 thrice -> t = -inf
        pm = penalty_matrix({"a": a, "b": b}, alpha=0.05)
        expected = np.array([[0.0, 2.0 / 3.0], [1.0 / 3.0, 0.0]])
        assert np.allclose(pm.matrix, expected, atol=1e-12)

    def test_identical_traces_give_zero_matrix(self):
        a = np.array([[0.5, 0.6], [0.52, 0.62]])
        pm = penalty_matrix({"x": a, "y": a.copy()})
        assert not pm.matrix.any()

    def test_uniformly_better_with_tiny_variance_fills_row(self, rng):
        base = 0.6 + 0.001 * rng.standard_normal((4, 5))
        pm = penalty_matrix({"good": base + 0.2, "bad": base})
        assert pm.matrix[0, 1] == pytest.approx(1.0, abs=1e-12)
        assert pm.matrix[1, 0] == 0.0

    def test_single_seed_rejected(self):
        with pytest.raises(ValueError, match="2 seeds"):
            penalty_matrix({"a": np.array([[0.5, 0.6]]), "b": np.array([[0.4, 0.5]])})

    @pytest.mark.parametrize("alpha", [1.5, 5.0, 0.0, 1.0, -0.1, float("nan")])
    def test_alpha_outside_the_unit_interval_rejected(self, alpha):
        a = np.array([[0.5, 0.6], [0.52, 0.62]])
        with pytest.raises(ValueError, match="alpha"):
            penalty_matrix({"x": a, "y": a.copy()}, alpha=alpha)

    def test_misaligned_rounds_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            penalty_matrix({"a": np.zeros((2, 3)), "b": np.zeros((2, 4))})

    def test_csv_layout(self, tmp_path):
        pm = penalty_matrix(
            {"m1": np.array([[0.5, 0.6], [0.5, 0.6]]), "m2": np.array([[0.4, 0.5], [0.4, 0.5]])}
        )
        path = tmp_path / "pm.csv"
        pm.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "method,m1,m2"
        assert lines[1].startswith("m1,") and lines[2].startswith("m2,")

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        seeds=st.integers(2, 5),
        rounds=st.integers(1, 6),
        methods=st.integers(2, 4),
    )
    def test_entries_are_penalty_fractions(self, seed, seeds, rounds, methods):
        g = np.random.default_rng(seed)
        traces = {f"m{i}": g.uniform(0, 1, size=(seeds, rounds)) for i in range(methods)}
        pm = penalty_matrix(traces)
        m = pm.matrix
        assert np.all(np.diag(m) == 0.0)
        assert np.all((m >= 0) & (m <= 1 + 1e-12))
        # each entry is an integer multiple of 1/rounds
        assert np.allclose(np.round(m * rounds), m * rounds, atol=1e-9)
        # a pair cannot award more than the full round budget
        assert np.all(m + m.T <= 1 + 1e-12)

    def test_import_leaves_scipy_stats_unloaded(self):
        # The t quantile comes from scipy.special; scipy.stats would add
        # about a second to every interpreter that imports the package.
        code = "import sys, submodal; print('scipy.stats' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"


class TestCli:
    def test_run_twice_is_byte_identical_modulo_timing(self, tmp_path):
        args = [
            "run", "--scenario", "rare", "--function", "FLQMI", "--rounds", "2",
            "--budget", "10", "--seed", "5",
            "--set", "scenario_params.unlabeled_common=60",
            "--set", "scenario_params.dim=10",
            "--set", "test_per_class=20",
            "--set", 'model={"epochs": 60}',
        ]
        assert cli_main(args + ["--output-dir", str(tmp_path / "a")]) == 0
        assert cli_main(args + ["--output-dir", str(tmp_path / "b")]) == 0

        def stripped(path):
            out = []
            for line in (path / "records.jsonl").read_text().splitlines():
                rec = json.loads(line)
                rec.pop("elapsed")
                out.append(json.dumps(rec, sort_keys=True))
            return out

        assert stripped(tmp_path / "a") == stripped(tmp_path / "b")
        summary = json.loads((tmp_path / "a" / "summary.json").read_text())
        assert summary["guard_violations"] == 0

    def test_malformed_config_exits_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli_main(["run", "--config", str(bad)]) == 2

    def test_unknown_field_exits_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"scenario": "rare", "wat": 1}))
        assert cli_main(["run", "--config", str(bad)]) == 2

    def test_numerical_failure_exits_three(self, monkeypatch, tmp_path):
        import submodal.cli as cli

        def boom(*a, **k):
            raise NumericalError("singular query block")

        monkeypatch.setattr(cli.hn, "run_al", boom)
        rc = cli_main(
            ["run", "--scenario", "rare", "--function", "flqmi",
             "--output-dir", str(tmp_path)]
        )
        assert rc == 3

    def test_lazy_on_a_non_submodular_kind_exits_two(self, tmp_path, capsys):
        rc = cli_main(
            ["run", "--scenario", "rare", "--function", "logdetmi", "--optimizer", "lazy",
             "--output-dir", str(tmp_path)]
        )
        assert rc == 2
        assert "logdetmi is not submodular" in capsys.readouterr().err
        assert not (tmp_path / "records.jsonl").exists()

    def test_verify_is_no_command(self):
        assert cli_main(["verify"]) == 2

    def test_sweep_produces_penalty_csv(self, tmp_path):
        rc = cli_main(
            ["sweep", "--scenario", "rare", "--methods", "random,flqmi",
             "--num-seeds", "2", "--rounds", "2", "--budget", "10",
             "--set", "scenario_params.unlabeled_common=60",
             "--set", "scenario_params.dim=10",
             "--set", "test_per_class=20",
             "--set", 'model={"epochs": 60}',
             "--metric", "rare_accuracy",
             "--output-dir", str(tmp_path)]
        )
        assert rc == 0
        lines = (tmp_path / "penalty_matrix.csv").read_text().splitlines()
        assert lines[0] == "method,random,flqmi"
        rows = {l.split(",")[0]: [float(v) for v in l.split(",")[1:]] for l in lines[1:]}
        assert sum(rows["flqmi"]) >= sum(rows["random"])
        assert (tmp_path / "flqmi-s0.jsonl").exists()

    def test_sweep_prints_per_round_count_means(self, tmp_path, capsys):
        rc = cli_main(
            ["sweep", "--scenario", "rare", "--methods", "random,flqmi",
             "--num-seeds", "2", "--rounds", "2", "--budget", "10",
             "--set", "scenario_params.unlabeled_common=60",
             "--set", "scenario_params.dim=10",
             "--set", "test_per_class=20",
             "--set", 'model={"epochs": 60}',
             "--metric", "rare_accuracy",
             "--output-dir", str(tmp_path)]
        )
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        for method in ("random", "flqmi"):
            runs = [
                [json.loads(l) for l in (tmp_path / f"{method}-s{s}.jsonl").read_text().splitlines()]
                for s in (0, 1)
            ]
            line = next(l for l in lines if l.startswith(f"{method} "))
            for name in ("rare_selected", "unique_selected"):
                means = np.mean([[r[name] for r in recs] for recs in runs], axis=0)
                assert f"{name}/round={np.round(means, 2).tolist()}" in line
            assert "id_selected" not in line
            finals = [recs[-1]["rare_accuracy"] for recs in runs]
            assert f"final rare_accuracy={np.mean(finals):.4f} +/- {np.std(finals):.4f}" in line

    def test_sweep_with_two_jobs_matches_one_job(self, tmp_path):
        outputs = {}
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            rc = cli_main(
                ["sweep", "--scenario", "rare", "--methods", "random,flqmi",
                 "--num-seeds", "2", "--rounds", "2", "--budget", "10",
                 "--set", "scenario_params.unlabeled_common=60",
                 "--set", "scenario_params.dim=10",
                 "--set", "test_per_class=20",
                 "--set", 'model={"epochs": 60}',
                 "--metric", "rare_accuracy",
                 "--jobs", str(jobs),
                 "--output-dir", str(out)]
            )
            assert rc == 0
            records = {}
            for path in sorted(out.glob("*.jsonl")):
                recs = [json.loads(l) for l in path.read_text().splitlines()]
                records[path.name] = [{k: v for k, v in r.items() if k != "elapsed"} for r in recs]
            outputs[jobs] = ((out / "penalty_matrix.csv").read_text(), records)
        assert len(outputs[1][1]) == 4
        assert outputs[2] == outputs[1]


class TestConfigSections:
    @pytest.mark.parametrize("section", ["optimizer", "model", "function"])
    def test_unknown_section_field_rejected(self, section):
        with pytest.raises(ValueError, match=f"unknown {section} fields: \\['bogus'\\]"):
            RunConfig.from_dict({section: {"bogus": 1}})

    @pytest.mark.parametrize("section", ["optimizer", "model", "function"])
    def test_non_mapping_section_rejected(self, section):
        with pytest.raises(ValueError, match=f"{section} must be a mapping"):
            RunConfig.from_dict({section: 3})

    def test_negative_partitions_rejected(self):
        with pytest.raises(ValueError, match="partitions must be >= 0"):
            OptimizerConfig(partitions=-3)

    @pytest.mark.parametrize(
        "flags",
        [
            ["--function", "flqmi", "--set", "optimizer.bogus=1"],
            ["--function", "flqmi", "--set", "model.bogus=1"],
            ["--function", "flqmi", "--set", "function.bogus=1"],
            ["--function", "flqmi", "--set", "optimizer=3"],
            ["--function", "random", "--set", "optimizer=3"],
            ["--function", "flqmi", "--partitions", "-3"],
            ["--function", "random", "--set", "rounds.x=1"],
            ["--function", "random", "--rounds", "2", "--set", "rounds.x=1"],
            ["--function", "random", "--set", 'budget="abc"'],
            ["--function", "random", "--set", "optimizer.variant=bogus"],
            ["--function", "random", "--set", "model.epochs=-1"],
            ["--function", "random", "--set", "acquisition={}"],
            ["--function", "random", "--set", "test_per_class=0"],
        ],
    )
    def test_bad_section_exits_two_before_running(self, flags, monkeypatch, tmp_path, capsys):
        import submodal.cli as cli

        calls = []
        monkeypatch.setattr(cli.hn, "run_al", lambda *a, **k: calls.append(a))
        rc = cli_main(["run", "--scenario", "rare", *flags, "--output-dir", str(tmp_path)])
        assert rc == 2
        assert calls == []
        assert "config error" in capsys.readouterr().err

    def test_config_file_that_is_no_mapping_exits_two(self, monkeypatch, tmp_path, capsys):
        import submodal.cli as cli

        calls = []
        monkeypatch.setattr(cli.hn, "run_al", lambda *a, **k: calls.append(a))
        path = tmp_path / "list.json"
        path.write_text("[1]")
        rc = cli_main(["run", "--config", str(path), "--output-dir", str(tmp_path)])
        assert rc == 2
        assert calls == []
        assert "not a mapping" in capsys.readouterr().err


def test_sweep_with_one_seed_exits_two_before_any_run(monkeypatch, tmp_path):
    import submodal.cli as cli

    calls = []
    monkeypatch.setattr(cli.hn, "run_al", lambda *a, **k: calls.append(a))
    rc = cli_main(
        ["sweep", "--scenario", "rare", "--methods", "random,flqmi", "--num-seeds", "1",
         "--output-dir", str(tmp_path)]
    )
    assert rc == 2
    assert calls == []


@pytest.mark.parametrize("alpha", ["5", "1.5", "0", "-0.1"])
def test_sweep_with_an_alpha_outside_the_unit_interval_exits_two_before_any_run(
    alpha, monkeypatch, tmp_path, capsys
):
    import submodal.cli as cli

    calls = []
    monkeypatch.setattr(cli.hn, "run_al", lambda *a, **k: calls.append(a))
    rc = cli_main(
        ["sweep", "--scenario", "rare", "--methods", "random,flqmi", "--alpha", alpha,
         "--output-dir", str(tmp_path / "out")]
    )
    assert rc == 2
    assert calls == []
    assert "--alpha" in capsys.readouterr().err
