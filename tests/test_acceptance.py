"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live;
the directional criteria (5-7) replay the three scenario experiments at
their full-published layouts and take several minutes each; they carry
the ``slow`` marker, so ``pytest -m "not slow"`` leaves them out.
"""

import math
import time
from itertools import combinations

import numpy as np
import pytest

from submodal import functions as fn
from submodal import greedy as gr
from submodal import similarity as sim
from submodal.harness import RunConfig, penalty_matrix, run_al
from submodal.scenarios import make_blobs
from submodal.surrogate import SurrogateModel, TrainConfig, gradient_embeddings, predict_proba, train
from tests.conftest import rescaled_cosine


def _report(num, name, ok, detail):
    line = f"[acceptance] criterion {num:02d} ({name}): {'PASS' if ok else 'FAIL'} — {detail}"
    print(line, flush=True)
    assert ok, line


def _run(scenario, params, method, rounds, budget, seed):
    cfg = RunConfig.from_dict(
        {
            "scenario": scenario,
            "scenario_params": params,
            "method": method,
            "rounds": rounds,
            "budget": budget,
            "seed": seed,
        }
    )
    return run_al(cfg)


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    cases = {
        "flvmi": ("fl", "smi"),
        "gcmi": ("gc", "smi"),
        "logdetmi": ("logdet", "smi"),
        "flcg": ("fl", "scg"),
        "gccg": ("gc", "scg"),
        "logdetcg": ("logdet", "scg"),
        "flcmi": ("fl", "scmi"),
        "logdetcmi": ("logdet", "scmi"),
    }
    worst = 0.0
    checked = 0
    for _ in range(200):
        n = int(rng.integers(5, 11))
        joint = rescaled_cosine(rng, n, d=int(rng.integers(2, 9)))
        perm = rng.permutation(n)
        q = sorted(int(i) for i in perm[: rng.integers(1, 4)])
        p = sorted(int(i) for i in perm[3 : 3 + rng.integers(1, 4)])
        pool = [i for i in range(n) if i not in q and i not in p]
        oracles = {
            "fl": fn.GroundTruthOracle("fl", joint),
            "gc": fn.GroundTruthOracle("gc", joint),
            "logdet": fn.GroundTruthOracle("logdet", joint, eps=sim.DEFAULT_LOGDET_EPS),
        }
        for kind, (base, comp) in cases.items():
            f = fn.from_joint(kind, joint, query=q, conditioning=p)
            oracle = oracles[base]
            for r in range(len(pool) + 1):
                for A in combinations(pool, r):
                    ref = {
                        "smi": lambda: oracle.smi(A, q),
                        "scg": lambda: oracle.scg(A, p),
                        "scmi": lambda: oracle.scmi(A, q, p),
                    }[comp]()
                    got = fn.evaluate(f, A)
                    err = abs(got - ref)
                    tol = 1e-6 * max(1.0, abs(ref)) if kind.startswith("logdet") else 1e-9
                    worst = max(worst, err / max(1.0, abs(ref)))
                    if err > tol:
                        _report(1, "oracle equivalence", False,
                                f"{kind} off by {err:.2e} at A={A}, Q={q}, P={p}")
                    checked += 1
    elapsed = time.perf_counter() - start
    _report(1, "oracle equivalence", elapsed < 30.0,
            f"{checked} values over 200 kernels, worst rel dev {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_table1_reductions():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    joint = rescaled_cosine(rng, 8, d=5)
    q = [5, 6, 7]
    pairs = [
        ("flcmi(P=empty)", fn.from_joint("flcmi", joint, query=q, conditioning=[]),
         fn.from_joint("flvmi", joint, query=q), 1e-9),
        ("flcmi(Q=U)", fn.from_joint("flcmi", joint, query=list(range(8)), conditioning=q),
         fn.from_joint("flcg", joint, conditioning=q), 1e-9),
        ("logdetcmi(P=empty)", fn.from_joint("logdetcmi", joint, query=q, conditioning=[]),
         fn.from_joint("logdetmi", joint, query=q), 1e-6),
    ]
    worst = 0.0
    for name, a, b, tol in pairs:
        for r in range(9):
            for A in combinations(range(8), r):
                va, vb = fn.evaluate(a, A), fn.evaluate(b, A)
                err = abs(va - vb) / max(1.0, abs(vb))
                worst = max(worst, err)
                if err > tol:
                    _report(2, "Table-1 reductions", False, f"{name} off by {err:.2e} at A={A}")
    elapsed = time.perf_counter() - start
    _report(2, "Table-1 reductions", elapsed < 10.0,
            f"3 reductions exhaustive at n=8, worst rel dev {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_greedy_guarantee():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    bound = 1.0 - 1.0 / math.e
    kinds = [
        ("flvmi", dict(query=[10, 11])),
        ("flqmi", dict(query=[10, 11])),
        ("gcmi", dict(query=[10, 11])),
        ("flcg", dict(conditioning=[10, 11])),
    ]
    violations = 0
    mismatches = 0
    for i in range(200):
        joint = rescaled_cosine(rng, 12, d=int(rng.integers(2, 8)))
        kind, kw = kinds[i % 4]
        f = fn.from_joint(kind, joint, **kw)
        naive = gr.greedy_select(f, gr.GreedyConfig(budget=3, variant="naive"))
        lazy = gr.greedy_select(f, gr.GreedyConfig(budget=3, variant="lazy"))
        if naive.chosen != lazy.chosen or naive.gains != lazy.gains:
            mismatches += 1
        opt = gr.exhaustive_opt(f, 3)
        if naive.value < bound * opt.value:
            violations += 1
    elapsed = time.perf_counter() - start
    _report(3, "greedy guarantee", violations == 0 and mismatches == 0 and elapsed < 60.0,
            f"200 instances: {violations} bound violations, {mismatches} lazy/naive "
            f"mismatches, {elapsed:.1f}s")


def test_criterion_4_stochastic_greedy_quality_speed():
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    emb = sim.EmbeddingMatrix.from_array(rng.standard_normal((2000, 32)))
    embq = sim.EmbeddingMatrix.from_array(rng.standard_normal((40, 32)))
    f = fn.InfoFunction(
        kind="flvmi",
        uu=sim.cosine_kernel(emb).data,
        uq=sim.cosine_kernel(emb, embq).data,
    )
    naive = gr.greedy_select(f, gr.GreedyConfig(budget=50, variant="naive"))
    values, evals = [], []
    for seed in range(20):
        res = gr.greedy_select(
            f, gr.GreedyConfig(budget=50, variant="stochastic", epsilon=0.01, seed=seed)
        )
        values.append(res.value)
        evals.append(res.evaluations)
    ratio = float(np.mean(values)) / naive.value
    speedup = naive.evaluations / float(np.mean(evals))
    elapsed = time.perf_counter() - start
    _report(4, "stochastic greedy", ratio >= 0.95 and speedup >= 5.0 and elapsed < 120.0,
            f"objective ratio {ratio:.4f} (need >= 0.95), {speedup:.1f}x fewer "
            f"evaluations (need >= 5x), {elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_5_rare_class_direction():
    start = time.perf_counter()
    seeds = range(5)
    rare_counts = {}
    final_rare_acc = {}
    for method in ("flqmi", "logdetmi", "random", "entropy"):
        totals, finals = [], []
        for seed in seeds:
            res = _run("rare", {"rho": 10.0}, method, rounds=3, budget=125, seed=seed)
            totals.append(sum(r.rare_selected for r in res.records))
            finals.append(res.records[-1].rare_accuracy)
        rare_counts[method] = float(np.mean(totals))
        final_rare_acc[method] = float(np.mean(finals))
    ok = (
        rare_counts["flqmi"] >= 3.0 * rare_counts["random"]
        and rare_counts["logdetmi"] >= 3.0 * rare_counts["random"]
        and final_rare_acc["flqmi"] > final_rare_acc["random"]
        and final_rare_acc["flqmi"] > final_rare_acc["entropy"]
        and final_rare_acc["logdetmi"] > final_rare_acc["random"]
        and final_rare_acc["logdetmi"] > final_rare_acc["entropy"]
    )
    elapsed = time.perf_counter() - start
    _report(5, "rare-class direction", ok and elapsed < 600.0,
            f"rare selected {rare_counts}, final rare acc "
            f"{ {k: round(v, 4) for k, v in final_rare_acc.items()} }, {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_6_redundancy_direction():
    start = time.perf_counter()
    seeds = range(5)
    curves = {}
    for method in ("flcg", "logdetcg", "random", "entropy"):
        per_seed = []
        for seed in seeds:
            res = _run("redundancy", {}, method, rounds=5, budget=500, seed=seed)
            per_seed.append([r.unique_selected for r in res.records])
        curves[method] = np.mean(per_seed, axis=0)
    ok = True
    for method in ("flcg", "logdetcg"):
        for r in range(1, 5):
            if not (
                curves[method][r] > curves["random"][r]
                and curves[method][r] > curves["entropy"][r]
            ):
                ok = False
    elapsed = time.perf_counter() - start
    _report(6, "redundancy direction", ok and elapsed < 600.0,
            f"mean cumulative uniques "
            f"{ {k: np.round(v, 1).tolist() for k, v in curves.items()} }, {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_7_ood_direction():
    start = time.perf_counter()
    seeds = range(5)
    id_rates = {}
    final_std = {}
    for method in ("flcmi", "logdetcmi", "random", "entropy"):
        ids, finals = [], []
        for seed in seeds:
            res = _run("ood", {}, method, rounds=5, budget=250, seed=seed)
            ids.extend(r.id_selected for r in res.records)
            finals.append(res.records[-1].accuracy)
        id_rates[method] = float(np.mean(ids))
        final_std[method] = float(np.std(finals))
    ok = (
        id_rates["flcmi"] > id_rates["random"]
        and id_rates["logdetcmi"] > id_rates["random"]
        and final_std["flcmi"] <= final_std["entropy"]
        and final_std["logdetcmi"] <= final_std["entropy"]
    )
    elapsed = time.perf_counter() - start
    _report(7, "OOD direction", ok and elapsed < 900.0,
            f"mean ID/round { {k: round(v, 1) for k, v in id_rates.items()} }, "
            f"final-acc std { {k: round(v, 5) for k, v in final_std.items()} }, {elapsed:.0f}s")


def test_criterion_8_penalty_matrix_fidelity():
    start = time.perf_counter()
    a = np.array([[0.50, 0.60, 0.70], [0.52, 0.61, 0.69], [0.48, 0.59, 0.71]])
    b = np.array([[0.45, 0.58, 0.71], [0.47, 0.57, 0.70], [0.43, 0.56, 0.72]])
    pm = penalty_matrix({"a": a, "b": b}, alpha=0.05)
    expected = np.array([[0.0, 2.0 / 3.0], [1.0 / 3.0, 0.0]])
    fixture_ok = bool(np.allclose(pm.matrix, expected, atol=1e-12))

    rng = np.random.default_rng(808)
    props_ok = True
    for _ in range(50):
        rounds = int(rng.integers(1, 7))
        n_seeds = int(rng.integers(2, 6))
        traces = {
            f"m{i}": rng.uniform(0, 1, size=(n_seeds, rounds))
            for i in range(int(rng.integers(2, 5)))
        }
        m = penalty_matrix(traces).matrix
        if not (
            np.allclose(np.round(m * rounds), m * rounds, atol=1e-9)
            and np.all(m + m.T <= 1 + 1e-12)
            and np.all(np.diag(m) == 0)
        ):
            props_ok = False
    elapsed = time.perf_counter() - start
    _report(8, "penalty matrix fidelity", fixture_ok and props_ok and elapsed < 1.0,
            f"hand fixture matched to 1e-12: {fixture_ok}, properties on 50 random "
            f"trace sets: {props_ok}, {elapsed:.2f}s")


def test_criterion_9_scalability():
    rng = np.random.default_rng(909)

    def kernel(a, b=None):
        ea = sim.EmbeddingMatrix.from_array(a)
        eb = sim.EmbeddingMatrix.from_array(b) if b is not None else None
        return sim.cosine_kernel(ea, eb).data

    emb = rng.standard_normal((100000, 64))
    embq = rng.standard_normal((50, 64))
    t0 = time.perf_counter()
    f = fn.InfoFunction(kind="flqmi", uq=kernel(emb, embq))
    res1 = gr.greedy_select(
        f, gr.GreedyConfig(budget=1000, variant=gr.default_variant(100000), seed=0)
    )
    t_flqmi = time.perf_counter() - t0

    emb = rng.standard_normal((50000, 64))
    embq = rng.standard_normal((25, 64))
    qq = kernel(embq)

    def make(ids):
        chunk = emb[ids]
        return fn.InfoFunction(kind="logdetmi", uu=kernel(chunk), uq=kernel(chunk, embq), qq=qq)

    t0 = time.perf_counter()
    res2 = gr.partitioned_select(
        make,
        50000,
        gr.GreedyConfig(budget=1000, variant=gr.default_variant(1000), partitions=50, seed=0),
    )
    t_logdet = time.perf_counter() - t0
    ok = (
        t_flqmi < 60.0
        and len(res1.chosen) == 1000
        and t_logdet < 300.0
        and len(res2.chosen) == 1000
        and len(set(res2.chosen)) == 1000
    )
    _report(9, "scalability", ok,
            f"flqmi n=100000 B=1000 in {t_flqmi:.1f}s (< 60s), partitioned logdetmi "
            f"n=50000 p=50 in {t_logdet:.1f}s (< 300s) returning "
            f"{len(set(res2.chosen))} distinct indices")


def test_criterion_10_gradient_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(1010)
    x, y = make_blobs([30, 30, 30], dim=4, spread=0.6, seed=10)
    model = train(x, y, TrainConfig(epochs=60, seed=0))
    pick = rng.choice(len(y), size=20, replace=False)
    emb = gradient_embeddings(model, x[pick], y[pick])
    step = 1e-6
    worst = 0.0
    for row, i in enumerate(pick):
        numeric = np.zeros_like(model.weights)
        for a in range(model.weights.shape[0]):
            for b in range(model.weights.shape[1]):
                wp, wm = model.weights.copy(), model.weights.copy()
                wp[a, b] += step
                wm[a, b] -= step
                pp = predict_proba(SurrogateModel(wp, 3, model.config), x[i : i + 1])
                pm = predict_proba(SurrogateModel(wm, 3, model.config), x[i : i + 1])
                numeric[a, b] = (-np.log(pp[0, y[i]]) + np.log(pm[0, y[i]])) / (2 * step)
        flat = numeric.ravel()
        rel = np.abs(emb[row] - flat).max() / max(np.abs(flat).max(), 1e-8)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    _report(10, "gradient correctness", worst < 1e-5 and elapsed < 1.0,
            f"20 points vs central differences, worst rel dev {worst:.2e}, {elapsed:.2f}s")
