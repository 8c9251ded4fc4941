import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submodal import similarity
from submodal.cli import cli_main
from submodal.functions import NumericalError
from submodal.harness import (
    AcquisitionSpec,
    LabelGuard,
    OptimizerConfig,
    RunConfig,
    _resolve_partitions,
    build_scenario,
    default_acquisition,
    penalty_matrix,
    run_al,
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


class TestAcquisitionSpec:
    def test_scg_requires_conditioning(self):
        with pytest.raises(ValueError, match="conditioning"):
            AcquisitionSpec(kind="flcg", query_source="full_unlabeled")

    def test_scg_query_must_be_full_unlabeled_or_none(self):
        with pytest.raises(ValueError, match="full unlabeled"):
            AcquisitionSpec(kind="flcg", query_source="rare_set", conditioning_source="labeled")

    def test_smi_needs_proper_query(self):
        with pytest.raises(ValueError, match="query"):
            AcquisitionSpec(kind="flqmi", query_source="full_unlabeled")

    def test_sf_takes_no_conditioning(self):
        with pytest.raises(ValueError):
            AcquisitionSpec(kind="fl", query_source="none", conditioning_source="labeled")

    def test_default_wiring_matches_scenarios(self):
        assert default_acquisition("rare", "flqmi").query_source == "rare_set"
        assert default_acquisition("ood", "flqmi").query_source == "labeled_id"
        scg = default_acquisition("redundancy", "logdetcg")
        assert scg.conditioning_source == "labeled"
        cmi = default_acquisition("ood", "flcmi")
        assert (cmi.query_source, cmi.conditioning_source) == ("labeled_id", "labeled_ood")


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
        assert _resolve_partitions(cfg, "logdetmi", 50000) == 1
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

    @pytest.mark.parametrize("method", ["fl", "flvmi", "flcg", "flcmi", "div_gcmi"])
    def test_fl_kinds_build_no_pool_by_pool_kernel(self, method, monkeypatch):
        res = self.run_without_pool_kernel(tiny_config(method=method), monkeypatch)
        assert res.summary["function_metadata"]["kind"] == method

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

    def test_verify_passes_on_fresh_checkout(self, capsys):
        assert cli_main(["verify"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 5 and "FAIL" not in out

    def test_verify_failure_exits_four(self, monkeypatch):
        import submodal.cli as cli

        monkeypatch.setattr(cli, "_verify_penalty", lambda rng: (False, "forced"))
        assert cli_main(["verify"]) == 4

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
