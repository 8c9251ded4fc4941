import gc
import hashlib
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import submodal
from submodal import functions, harness, scenarios, similarity, surrogate
from submodal.cli import cli_main
from submodal.functions import ALL_KINDS, NumericalError
from submodal.harness import (
    SCENARIOS,
    LabelGuard,
    OptimizerConfig,
    RunConfig,
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


def child_env() -> dict:
    """The environment for a child interpreter, with the directory that
    holds the imported ``submodal`` first on its path, so the child
    imports the same package from an uninstalled checkout too."""
    env = dict(os.environ)
    paths = [str(Path(submodal.__file__).parents[1]), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return env


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
        assert RunConfig.from_dict(json.loads(path.read_text())) == cfg

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

    def test_auto_logdetmi_run_records_naive(self):
        res = run_al(tiny_config(method="logdetmi", rounds=1))
        assert [r.variant for r in res.records] == ["naive"]

    def test_partitioned_records_carry_the_variant_that_ran(self):
        res = run_al(tiny_config(method="flvmi", optimizer={"partitions": 3}))
        assert {r.variant for r in res.records} == {"lazy"}

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

    @pytest.mark.parametrize("scenario, method", [
        ("rare", "logdetcmi"), ("ood", "flcmi"), ("ood", "logdetcmi"),
    ])
    def test_query_and_conditioning_factors_come_from_gradient_parts(
        self, scenario, method, monkeypatch
    ):
        # No run forms a flattened embedding: Q's and P's factors are built
        # from their true-label gradient parts, as the pool's are, and match
        # the dense-embedding reference, cosine_factors(gradient_embeddings).
        def refuse(*args):
            raise AssertionError("gradient_embeddings called")

        models, blocks = [], []
        train, info = harness.train, harness.InfoFunction

        def trained(*args, **kwargs):
            models.append(train(*args, **kwargs))
            return models[-1]

        def received(*args, uq=None, up=None, **kwargs):
            blocks.append({"uq": uq, "up": up})
            return info(*args, uq=uq, up=up, **kwargs)

        monkeypatch.setattr(harness, "gradient_embeddings", refuse)
        monkeypatch.setattr(harness, "train", trained)
        monkeypatch.setattr(harness, "InfoFunction", received)
        params = TINY_RARE["scenario_params"] if scenario == "rare" else {}
        cfg = tiny_config(scenario=scenario, scenario_params=params, method=method)
        split, _, _ = build_scenario(cfg)
        res = run_al(cfg)
        assert len(models) == len(blocks) == cfg.rounds
        fields = dict(zip(("uq", "up"), table1_fields(scenario, method)))
        for rnd, (model, got, rec) in enumerate(zip(models, blocks, res.records, strict=True)):
            rank = 1 + model.num_classes * (split.dim + 1)
            for block, name in fields.items():
                ids = getattr(split, name)
                labels = harness._collapse(split.labels[ids], split)
                want = similarity.cosine_factors(
                    surrogate.gradient_embeddings(model, split.features[ids], labels)
                )
                assert got[block].right.shape == want.shape == (len(ids), rank)
                assert np.max(np.abs(got[block].right - want), initial=0.0) <= 1e-15
            if scenario == "ood" and rnd == 0:
                assert got["up"].right.shape == (0, rank)  # no OOD point labeled yet
            split = scenarios.update_ood_sets(split, rec.selected)

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

    def test_runs_on_khatri_rao_pools_are_pinned_by_digest(self, monkeypatch):
        # The harness's pool factor carries Khatri-Rao parts; each kind runs
        # once with float64 coverage blocks and once with float32 ones (the
        # limit patched to 0), across several 64- and 256-row blocks.
        def picks(cfg):
            return [
                [list(r.selected), f"{r.objective:.12g}", r.block_bytes] for r in run_al(cfg).records
            ]

        kinds = ("fl", "flvmi", "flcg", "flcmi", "div_gcmi", "flqmi", "logdetmi", "logdetcg")
        runs = [picks(tiny_config(method="flvmi", optimizer={"partitions": 3}))]
        for limit in (functions._FLOAT64_BLOCK_BYTES, 0):
            monkeypatch.setattr(functions, "_FLOAT64_BLOCK_BYTES", limit)
            runs += [picks(tiny_config(method=kind)) for kind in kinds]
        assert hashlib.sha256(repr(runs).encode()).hexdigest()[:16] == "4b1f254552b897f2"


class TestPoolWithCopies:
    """A pool with exact copies is embedded once per distinct feature row,
    and a chunk of a partitioned round is cut from the round's kernel on
    its own rows."""

    TINY_REDUNDANCY = {"unique_count": 200, "labeled_count": 40, "dim": 12}

    def test_a_partitioned_logdet_round_builds_each_chunk_on_its_rows(self, monkeypatch):
        kernels, chunks = [], []
        khatri_rao, info = similarity.khatri_rao_factors, harness.InfoFunction

        def built(resid, xb, index=None):
            kernels.append(khatri_rao(resid, xb, index))
            return kernels[-1]

        def received(*args, uu, **kwargs):
            chunks.append(uu)
            return info(*args, uu=uu, **kwargs)

        monkeypatch.setattr(similarity, "khatri_rao_factors", built)
        monkeypatch.setattr(harness, "InfoFunction", received)
        cfg = tiny_config(scenario="redundancy", scenario_params=self.TINY_REDUNDANCY,
                          method="logdetcg", optimizer={"partitions": 2})
        split, _, _ = build_scenario(cfg)
        res = run_al(cfg)
        assert [len(set(r.selected)) for r in res.records] == [cfg.budget] * cfg.rounds
        assert res.summary["function_metadata"]["ground_size"] == len(split.unlabeled) - cfg.budget
        # The pool's kernel is the one with a row index over its copies; the
        # other build of each round is P's factor, from the labeled set.
        pools = [k for k in kernels if k.index is not None]
        assert len(pools) == cfg.rounds  # one pool kernel a round, chunks cut from it
        assert len(kernels) == 2 * cfg.rounds
        assert len(chunks) == 2 * cfg.rounds
        pool = len(split.unlabeled)
        for rnd in range(cfg.rounds):
            assert kernels[2 * rnd] is pools[rnd]
            assert kernels[2 * rnd + 1].shape[0] == len(split.labeled) + rnd * cfg.budget
            assert pools[rnd].shape[0] == pool - rnd * cfg.budget
            round_chunks = chunks[2 * rnd : 2 * rnd + 2]
            assert sum(k.shape[0] for k in round_chunks) == pool - rnd * cfg.budget
            for k in round_chunks:
                assert k.index is not None and np.unique(k.index).size == k.parts[0].shape[0]
                assert similarity.distinct_rows(np.hstack(k.parts)) == (None, None)

    def test_only_the_pool_kernel_outlives_the_pool_arrays(self, monkeypatch):
        # The features and gradient parts the round's kernels are built
        # from, the pool's and P's, are gone when selection starts,
        # partitioned or not.
        seen, alive = [], []
        parts = harness.gradient_parts

        def recorded(model, features, labels):
            resid, xb = parts(model, features, labels)
            seen.extend(weakref.ref(a) for a in (features, resid, xb))
            return resid, xb

        def checked(name, select):
            def run(*args, **kwargs):
                gc.collect()
                alive.append((name, sum(ref() is not None for ref in seen), len(seen)))
                seen.clear()
                return select(*args, **kwargs)
            return run

        monkeypatch.setattr(harness, "gradient_parts", recorded)
        for name in ("greedy_select", "partitioned_select"):
            monkeypatch.setattr(harness, name, checked(name, getattr(harness, name)))
        runs = [tiny_config(method="logdetcg", optimizer={"partitions": p}) for p in (1, 2)]
        runs += [tiny_config(scenario="redundancy", scenario_params=self.TINY_REDUNDANCY,
                             method="logdetcg", optimizer={"partitions": p}) for p in (1, 2)]
        for cfg in runs:
            run_al(cfg)
        # Three arrays from each of the round's two calls, the pool's and P's.
        rounds = [("greedy_select", 0, 6)] * 2 + [("partitioned_select", 0, 6)] * 2
        assert alive == rounds * 2

    def test_partitioned_runs_over_a_pool_with_copies_are_pinned_by_digest(self):
        def records(cfg):
            out = []
            for r in run_al(cfg).records:
                d = r.to_dict()
                del d["elapsed"]
                d["objective"] = f"{d['objective']:.12g}"
                out.append(sorted(d.items()))
            return out

        runs = [
            records(tiny_config(scenario="redundancy", scenario_params=self.TINY_REDUNDANCY,
                                method=kind, optimizer={"partitions": parts}))
            for kind in ("logdetcg", "flcg", "gccg") for parts in (2, 3)
        ]
        assert hashlib.sha256(repr(runs).encode()).hexdigest()[:16] == "f7b46c5b21bfe2b5"

    def test_gradients_are_computed_once_per_distinct_row(self, monkeypatch):
        rows = []
        parts = harness.gradient_parts

        def counted(model, features, labels):
            rows.append(len(features))
            return parts(model, features, labels)

        monkeypatch.setattr(harness, "gradient_parts", counted)
        cfg = tiny_config(scenario="redundancy", scenario_params=self.TINY_REDUNDANCY,
                          method="logdetcg")
        split, _, _ = build_scenario(cfg)
        res = run_al(cfg)
        assert len(rows) == 2 * cfg.rounds  # each round: the pool's call, then P's
        unlabeled = set(split.unlabeled.tolist())
        for n_rows, rec in zip(rows[::2], res.records, strict=True):
            feats = split.features[sorted(unlabeled)]
            assert n_rows == len(np.unique(feats, axis=0)) < len(unlabeled)
            unlabeled -= set(rec.selected)


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

    def test_a_single_method_rejected(self):
        with pytest.raises(ValueError, match="needs at least two methods"):
            penalty_matrix({"a": np.array([[0.5, 0.6], [0.52, 0.62]])})

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
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=child_env()
        )
        assert out.stdout.strip() == "False"

    def test_the_run_path_leaves_scipy_unloaded(self):
        # import submodal and the factored runs need numpy alone; scipy
        # serves the sweep's t quantile and the entropy baseline.
        code = """if True:
            import json, sys
            import numpy as np
            from submodal import harness

            def scipy_loaded():
                return any(m.split(".")[0] == "scipy" for m in sys.modules)

            def run(scenario, params, method):
                cfg = harness.RunConfig.from_dict(
                    {"scenario": scenario, "scenario_params": params, "method": method,
                     "rounds": 2, "budget": 10, "test_per_class": 20, "model": {"epochs": 60}}
                )
                return harness.run_al(cfg).summary["final_accuracy"]

            out = {"import": scipy_loaded()}
            runs = json.loads(sys.argv[1])
            for scenario, params, method in runs[:-1]:
                run(scenario, params, method)
                out[method] = scipy_loaded()
            traces = {"a": np.array([[0.5, 0.6], [0.4, 0.7]]), "b": np.zeros((2, 2))}
            out["penalty_matrix"] = harness.penalty_matrix(traces).matrix.tolist()
            out["after_penalty_matrix"] = scipy_loaded()
            out["entropy_accuracy"] = run(*runs[-1])
            print(json.dumps(out))
        """
        runs = [
            ("rare", TINY_RARE["scenario_params"], "logdetmi"),
            ("redundancy", {"unique_count": 120, "labeled_count": 30, "redundancy_factor": 4, "dim": 12},
             "logdetcg"),
            ("ood", {"labeled_per_id": 6, "unlabeled_per_id": 20, "unlabeled_per_ood": 60,
                     "valid_per_id": 2, "dim": 12}, "flcmi"),
            ("rare", TINY_RARE["scenario_params"], "entropy"),
        ]
        proc = subprocess.run(
            [sys.executable, "-c", code, json.dumps(runs)], capture_output=True, text=True,
            env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert [out[k] for k in ("import", "logdetmi", "logdetcg", "flcmi")] == [False] * 4
        # t = 9.0 in round 1 and 13.0 in round 2, against t_crit(1 dof) = 12.71.
        assert out["penalty_matrix"] == [[0.0, 0.5], [0.0, 0.0]]
        assert out["after_penalty_matrix"] is True
        assert 0.0 < out["entropy_accuracy"] <= 1.0


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

    def test_a_linear_algebra_failure_exits_three(self, monkeypatch, tmp_path, capsys):
        # np.linalg.LinAlgError subclasses ValueError, yet it is no config error.
        def singular(*a, **k):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(functions, "_correction", singular)
        rc = cli_main(
            ["run", "--scenario", "redundancy", "--function", "logdetcg", "--rounds", "1",
             "--budget", "5", "--set", "scenario_params.unique_count=120",
             "--set", "scenario_params.labeled_count=30", "--set", "test_per_class=20",
             "--output-dir", str(tmp_path)]
        )
        assert rc == 3
        assert "numerical failure: Singular matrix" in capsys.readouterr().err

    def test_a_numerical_failure_in_a_round_exits_three_with_its_round(self, tmp_path, capsys):
        # 40 conditioning points on the rank-31 factors of a dim-2 pool, unregularized.
        rc = cli_main(
            ["run", "--scenario", "redundancy", "--function", "logdetcg", "--rounds", "1",
             "--budget", "5", "--set", "scenario_params.unique_count=200",
             "--set", "scenario_params.labeled_count=40", "--set", "scenario_params.dim=2",
             "--set", "function.eps=0", "--set", "test_per_class=10",
             "--output-dir", str(tmp_path)]
        )
        assert rc == 3
        assert (
            "numerical failure: round 1: singular pp block: 40 points on rank-31 factors "
            "with eps = 0" in capsys.readouterr().err
        )
        assert not (tmp_path / "records.jsonl").exists()

    def test_run_without_an_output_dir_writes_under_runs(self, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        rc = cli_main(
            ["run", "--scenario", "rare", "--function", "random", "--rounds", "1", "--budget", "5",
             "--set", "scenario_params.unlabeled_common=60", "--set", "test_per_class=10"]
        )
        assert rc == 0
        assert (tmp_path / "runs" / "rare-random-s0" / "records.jsonl").read_text().count("\n") == 1

    def test_lazy_on_a_non_submodular_kind_exits_two(self, tmp_path, capsys):
        rc = cli_main(
            ["run", "--scenario", "rare", "--function", "logdetmi", "--optimizer", "lazy",
             "--output-dir", str(tmp_path)]
        )
        assert rc == 2
        assert "logdetmi is not submodular" in capsys.readouterr().err
        assert not (tmp_path / "records.jsonl").exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--scenario", "rare", "--function", "random", "--rounds", "100", "--budget", "50",
              "--set", "scenario_params.unlabeled_common=60"], "exceeds the unlabeled pool"),
            (["--scenario", "standard", "--function", "flqmi", "--rounds", "1", "--budget", "5"],
             "flqmi needs a query set"),
        ],
        ids=["budget-over-pool", "empty-query-set"],
    )
    def test_a_run_level_config_error_exits_two_before_any_round_or_record(
        self, flags, message, monkeypatch, tmp_path, capsys
    ):
        import submodal.harness as harness

        def no_round(*a, **k):
            raise AssertionError("a round started")

        monkeypatch.setattr(harness, "train", no_round)
        rc = cli_main(["run", *flags, "--output-dir", str(tmp_path)])
        assert rc == 2
        assert message in capsys.readouterr().err
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

    # Integer fields of every section, given a float or a bool.
    _NON_INTEGERS = [
        "optimizer.partitions=1.5", "rounds=1.5", "model.epochs=2.5", "seed=1.5",
        "scenario_params.num_classes=4.0", "scenario_params.unlabeled_common=200.5",
        "budget=2.5", "budget=true",
    ]

    @staticmethod
    def rejected_before_running(item, noun, tmp_path, capsys):
        """``--set item`` raises from ``RunConfig.from_dict`` and exits 2
        from the CLI without writing records."""
        from submodal.cli import _assign

        key, _, raw = item.partition("=")
        payload = {"scenario": "rare", "method": "flqmi", "scenario_params": {"unlabeled_common": 200}}
        _assign(payload, key, json.loads(raw))
        with pytest.raises(ValueError, match=f"{key.split('.')[-1]} must be {noun}"):
            RunConfig.from_dict(payload)
        rc = cli_main(
            ["run", "--scenario", "rare", "--function", "flqmi",
             "--set", "scenario_params.unlabeled_common=200", "--set", item,
             "--output-dir", str(tmp_path / "out")]
        )
        assert rc == 2
        assert f"must be {noun}" in capsys.readouterr().err
        assert not (tmp_path / "out" / "records.jsonl").exists()

    @pytest.mark.parametrize("item", _NON_INTEGERS)
    def test_integer_field_rejects_a_non_integer(self, item, tmp_path, capsys):
        self.rejected_before_running(item, "an integer", tmp_path, capsys)

    # Float fields of the scenario, model and function sections, given a
    # string or a bool.
    _NON_NUMBERS = [
        'scenario_params.rho="20"', "scenario_params.rho=true", "model.learning_rate=true",
        "function.gc_lambda=true",
    ]

    @pytest.mark.parametrize("item", _NON_NUMBERS)
    def test_float_field_rejects_a_non_number(self, item, tmp_path, capsys):
        self.rejected_before_running(item, "a number", tmp_path, capsys)

    @pytest.mark.parametrize("item", ["function.gc_lambda=-1", "function.eta=-1", "function.eta=-0.5"])
    def test_weight_field_rejects_a_negative_value(self, item, tmp_path, capsys):
        self.rejected_before_running(item, ">= 0", tmp_path, capsys)
        weights = RunConfig.from_dict({"function": {"gc_lambda": 0, "eta": 0}}).function
        assert (weights.gc_lambda, weights.eta) == (0, 0)

    # Float fields of every section, given NaN or an infinity (JSON's
    # NaN and Infinity, as --set parses them).
    _NON_FINITE = [
        "model.learning_rate=NaN", "model.l2=NaN", "model.l2=Infinity", "function.eps=NaN",
        "function.eps=Infinity", "function.eps=-Infinity", "function.gc_lambda=Infinity",
        "scenario_params.spread=NaN", "scenario_params.rho=Infinity", "optimizer.sg_epsilon=NaN",
    ]

    @pytest.mark.parametrize("item", _NON_FINITE)
    def test_float_field_rejects_a_non_finite_value(self, item, monkeypatch, tmp_path, capsys):
        def no_round(*a, **k):
            raise AssertionError("a round started")

        monkeypatch.setattr(harness, "train", no_round)
        self.rejected_before_running(item, "finite", tmp_path, capsys)

    def test_eps_takes_a_number_or_null(self):
        assert RunConfig.from_dict({"function": {"eps": 1}}).function.eps == 1
        assert RunConfig.from_dict({"function": {"eps": None}}).function.eps is None
        with pytest.raises(ValueError, match="eps must be a number or null"):
            RunConfig.from_dict({"function": {"eps": False}})

    @pytest.mark.parametrize("raw", ["3", "true", "[1]"])
    def test_output_dir_takes_a_string_or_null(self, raw, monkeypatch, tmp_path, capsys):
        assert RunConfig.from_dict({"output_dir": "out"}).output_dir == "out"
        assert RunConfig.from_dict({"output_dir": None}).output_dir is None
        with pytest.raises(ValueError, match="output_dir must be a string or null"):
            RunConfig.from_dict({"output_dir": json.loads(raw)})
        monkeypatch.chdir(tmp_path)
        rc = cli_main(["run", "--scenario", "rare", "--function", "random", "--set", f"output_dir={raw}"])
        assert rc == 2
        assert "output_dir must be a string or null" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--set", "scenario_params.rho=0.5"], "imbalance factor must be >= 1"),
            (["--set", "scenario_params.dim=1"], "dim must be >= 2"),
            (["--scenario", "redundancy", "--set", "scenario_params.dup_fraction=1.5"], "dup_fraction"),
            (["--scenario", "redundancy", "--set", "scenario_params.redundancy_factor=0"],
             "redundancy factor must be >= 1"),
            (["--scenario", "ood", "--set", "scenario_params.dim=1"], "dim must be >= 2"),
            (["--scenario", "standard", "--set", "scenario_params.dim=0"], "dim must be >= 2"),
            (["--set", "scenario_params.spread=0"], "spread must be > 0, got 0"),
            (["--scenario", "ood", "--set", "scenario_params.spread=-0.5"],
             "spread must be > 0, got -0.5"),
            (["--set", "scenario_params.valid_per_class=-1"], "valid_per_class must be >= 0, got -1"),
            (["--scenario", "redundancy", "--set", "scenario_params.labeled_count=-5"],
             "labeled_count must be >= 0, got -5"),
            (["--seed", "-1"], "seed must be >= 0, got -1"),
        ],
    )
    def test_scenario_range_checks_run_before_any_output(self, flags, message, tmp_path, capsys):
        out = tmp_path / "out"
        rc = cli_main(
            ["run", "--scenario", "rare", "--function", "random", "--rounds", "1", "--budget", "5",
             *flags, "--output-dir", str(out)]
        )
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (out / "records.jsonl").exists()

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
            ["--function", "random", "--set", "rounds"],
            ["--function", "random", "--rounds", "0"],
            ["--function", "random", "--budget", "0"],
            ["--function", "random", "--set", "model.learning_rate=0"],
            ["--function", "random", "--set", "model.l2=-1"],
            ["--function", "flqmi", "--sg-epsilon", "1.5"],
            ["--function", "logdetmi", "--set", "function.eps=-1"],
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


def test_sweep_forks_no_more_workers_than_it_has_runs(monkeypatch, tmp_path):
    import submodal.cli as cli

    seen = []

    class InProcessExecutor:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessExecutor)
    rc = cli_main(
        ["sweep", "--scenario", "rare", "--methods", "random,flqmi", "--num-seeds", "2",
         "--rounds", "1", "--budget", "5", "--set", "scenario_params.unlabeled_common=60",
         "--set", "test_per_class=10", "--jobs", "64", "--output-dir", str(tmp_path)]
    )
    assert rc == 0
    assert seen == [4]


def test_a_run_that_fails_its_checks_makes_no_output_dir(tmp_path, capsys):
    rc = cli_main(
        ["run", "--scenario", "rare", "--function", "random", "--rounds", "100", "--budget", "50",
         "--set", "scenario_params.unlabeled_common=60", "--output-dir", str(tmp_path / "out" / "run")]
    )
    assert rc == 2
    assert "exceeds the unlabeled pool" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--methods", "random,nope"], "unknown function kind 'nope'"),
        (["--methods", "random,random"], "sweep lists a method twice"),
        (["--methods", "flqmi,FLQMI"], "sweep lists a method twice"),
        (["--methods", "random,logdetmi", "--optimizer", "lazy"], "logdetmi is not submodular"),
        (["--scenario", "ood", "--methods", "random,entropy", "--metric", "rare_accuracy"],
         "metric 'rare_accuracy' is absent in scenario 'ood'"),
        (["--scenario", "redundancy", "--methods", "random,flqmi", "--metric", "rare_accuracy"],
         "metric 'rare_accuracy' is absent in scenario 'redundancy'"),
        (["--methods", "random"], "sweep needs at least two methods"),
    ],
)
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_with_a_bad_method_list_or_metric_exits_two_before_any_run(
    flags, message, jobs, monkeypatch, tmp_path, capsys
):
    import submodal.cli as cli

    calls = []
    monkeypatch.setattr(cli.hn, "run_al", lambda *a, **k: calls.append(a))
    monkeypatch.setattr(cli, "ProcessPoolExecutor", lambda *a, **k: calls.append(k))
    rc = cli_main(["sweep", "--scenario", "rare", *flags, "--jobs", jobs, "--output-dir", str(tmp_path)])
    assert rc == 2
    assert calls == []
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_with_fewer_than_one_job_exits_two_before_any_run(jobs, monkeypatch, tmp_path, capsys):
    import submodal.cli as cli

    calls = []
    monkeypatch.setattr(cli.hn, "run_al", lambda *a, **k: calls.append(a))
    monkeypatch.setattr(cli, "ProcessPoolExecutor", lambda *a, **k: calls.append(k))
    rc = cli_main(
        ["sweep", "--scenario", "rare", "--methods", "random,flqmi", "--jobs", jobs,
         "--output-dir", str(tmp_path / "out")]
    )
    assert rc == 2
    assert calls == []
    assert f"--jobs must be >= 1, got {jobs}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
