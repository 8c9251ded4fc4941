"""Command-line front end: run, sweep, verify.

Exit codes: 0 success, 2 config error, 3 numerical failure (singular
kernel), 4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import functions as fn
from . import greedy as gr
from . import harness as hn
from . import similarity as sim
from . import surrogate as sg

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VERIFY = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="submodal",
        description="Submodular information measures for batch active learning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute one active-learning run")
    _add_config_flags(run)

    sweep = sub.add_parser("sweep", help="method grid -> penalty matrix CSV")
    _add_config_flags(sweep)
    sweep.add_argument("--methods", required=True, help="comma-separated method list")
    sweep.add_argument("--num-seeds", type=int, default=3)
    sweep.add_argument("--metric", choices=["accuracy", "rare_accuracy"], default="accuracy")
    sweep.add_argument("--alpha", type=float, default=0.05)
    sweep.add_argument("--jobs", type=int, default=1)

    sub.add_parser("verify", help="brute-force oracle suites; exit 0 iff all pass")

    return parser


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="PATH", help="JSON config mirroring RunConfig fields")
    p.add_argument("--scenario", choices=hn.SCENARIOS)
    p.add_argument("--function", "--method", dest="method", help="function kind or baseline name")
    p.add_argument("--rounds", type=int)
    p.add_argument("--budget", type=int)
    p.add_argument("--optimizer", dest="optimizer.variant", choices=hn.OPTIMIZERS)
    p.add_argument("--partitions", dest="optimizer.partitions", type=int)
    p.add_argument("--sg-epsilon", dest="optimizer.sg_epsilon", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--output-dir")
    p.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=JSON",
        help="override any config field, e.g. --set scenario_params.rho=10",
    )


# The dests of the dedicated config flags: each is the dotted key it sets.
_FLAG_KEYS = (
    "scenario", "method", "rounds", "budget", "optimizer.variant", "optimizer.partitions",
    "optimizer.sg_epsilon", "seed", "output_dir",
)


def _load_config(args) -> hn.RunConfig:
    """The ``--config`` file, then the dedicated flags, then every
    ``--set`` item, each assigned to its dotted key in that order."""
    payload: dict = {}
    if args.config:
        with open(args.config) as fh:
            payload = json.load(fh)
    overrides = [(key, getattr(args, key)) for key in _FLAG_KEYS if getattr(args, key) is not None]
    for item in args.set:
        key, sep, raw = item.partition("=")
        if not sep:
            raise ValueError(f"--set expects KEY=VALUE, got {item!r}")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        overrides.append((key, value))
    for key, value in overrides:
        _assign(payload, key, value)
    return hn.RunConfig.from_dict(payload)


def _assign(payload, key: str, value) -> None:
    """Set dotted ``key`` of ``payload`` to ``value``, creating the missing
    mappings on the way; a node on the way that is no mapping is a config
    error."""
    parts = key.split(".")
    node = payload
    for depth, part in enumerate(parts):
        if not isinstance(node, dict):
            where = ".".join(parts[:depth]) or "the config"
            raise ValueError(f"cannot set {key}: {where} is {node!r}, not a mapping")
        if depth < len(parts) - 1:
            node = node.setdefault(part, {})
        else:
            node[part] = value


def _default_output_dir(config: hn.RunConfig) -> Path:
    return Path("runs") / f"{config.scenario}-{config.method}-s{config.seed}"


def _execute_run(config: hn.RunConfig) -> hn.RunResult:
    out = Path(config.output_dir) if config.output_dir else _default_output_dir(config)
    out.mkdir(parents=True, exist_ok=True)
    jsonl = open(out / "records.jsonl", "w")
    try:
        def flush_record(rec):
            jsonl.write(hn.records_to_jsonl_line(rec) + "\n")
            jsonl.flush()

        result = hn.run_al(config, on_record=flush_record)
    finally:
        jsonl.close()
    with open(out / "summary.json", "w") as fh:
        json.dump(result.summary, fh, indent=2, sort_keys=True)
    return result


def _cmd_run(args) -> int:
    config = _load_config(args)
    result = _execute_run(config)
    last = result.records[-1]
    print(
        f"{config.scenario}/{config.method}: rounds={len(result.records)} "
        f"accuracy={last.accuracy:.4f} guard_violations={result.guard_violations}"
    )
    return EXIT_OK


# Per-round selection counts a scenario records; None where it has no
# rare (resp. OOD) classes.
COUNT_FIELDS = ("rare_selected", "id_selected", "unique_selected")


def _sweep_worker(payload):
    cfg_dict, method, seed, metric = payload
    config = hn.RunConfig.from_dict({**cfg_dict, "method": method, "seed": seed, "output_dir": None})
    result = hn.run_al(config)
    trace = [getattr(r, metric) for r in result.records]
    if any(v is None for v in trace):
        raise ValueError(f"metric {metric!r} is absent in scenario {config.scenario!r}")
    return method, seed, trace, [r.to_dict() for r in result.records]


def _cmd_sweep(args) -> int:
    config = _load_config(args)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if len(methods) < 2:
        raise ValueError("sweep needs at least two methods")
    if args.num_seeds < 2:
        raise ValueError("sweep needs --num-seeds >= 2 (the penalty t-test is undefined on one seed)")
    seeds = [config.seed + i for i in range(args.num_seeds)]
    out = Path(config.output_dir) if config.output_dir else Path("runs") / f"sweep-{config.scenario}"
    out.mkdir(parents=True, exist_ok=True)

    jobs = [(config.to_dict(), m, s, args.metric) for m in methods for s in seeds]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            outputs = list(pool.map(_sweep_worker, jobs))
    else:
        outputs = [_sweep_worker(j) for j in jobs]

    traces = {m: [] for m in methods}
    counts = {m: {name: [] for name in COUNT_FIELDS} for m in methods}
    for method, seed, trace, records in sorted(outputs, key=lambda o: (o[0], o[1])):
        traces[method].append(trace)
        for name in COUNT_FIELDS:
            counts[method][name].append([rec[name] for rec in records])
        with open(out / f"{method}-s{seed}.jsonl", "w") as fh:
            for rec in records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
    for method in methods:
        means = [
            f"{name}/round={np.round(np.mean(per_seed, axis=0), 2).tolist()}"
            for name, per_seed in counts[method].items()
            if None not in per_seed[0]
        ]
        finals = np.array(traces[method])[:, -1]
        print(
            f"{method:18s} {' '.join(means)} "
            f"final {args.metric}={finals.mean():.4f} +/- {finals.std():.4f}"
        )
    pm = hn.penalty_matrix({m: np.array(traces[m]) for m in methods}, alpha=args.alpha)
    pm.to_csv(out / "penalty_matrix.csv")
    print(f"penalty matrix ({args.metric}, alpha={args.alpha}) -> {out / 'penalty_matrix.csv'}")
    for name, row in zip(pm.methods, pm.matrix):
        print(f"  {name:18s} row_sum={row.sum():.3f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify: compact brute-force suites (CI gate)
# ---------------------------------------------------------------------------


def _verify_oracle_identities(rng) -> tuple[bool, str]:
    from itertools import combinations

    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(6, 9))
        joint = sim.cosine_block(rng.standard_normal((n, 6)))
        perm = rng.permutation(n)
        q = sorted(int(i) for i in perm[:2])
        p = sorted(int(i) for i in perm[2:4])
        u_sel = [i for i in range(n) if i not in q and i not in p]
        oracles = {
            "fl": fn.GroundTruthOracle("fl", joint),
            "gc": fn.GroundTruthOracle("gc", joint),
            "logdet": fn.GroundTruthOracle("logdet", joint, eps=1e-2),
        }
        cases = [
            ("flvmi", lambda A: oracles["fl"].smi(A, q), dict(query=q)),
            ("gcmi", lambda A: oracles["gc"].smi(A, q), dict(query=q)),
            ("logdetmi", lambda A: oracles["logdet"].smi(A, q), dict(query=q)),
            ("flcg", lambda A: oracles["fl"].scg(A, p), dict(conditioning=p)),
            ("gccg", lambda A: oracles["gc"].scg(A, p), dict(conditioning=p)),
            ("logdetcg", lambda A: oracles["logdet"].scg(A, p), dict(conditioning=p)),
            ("flcmi", lambda A: oracles["fl"].scmi(A, q, p), dict(query=q, conditioning=p)),
            ("logdetcmi", lambda A: oracles["logdet"].scmi(A, q, p), dict(query=q, conditioning=p)),
        ]
        for kind, oracle, kw in cases:
            f = fn.from_joint(kind, joint, **kw)
            for r in range(len(u_sel) + 1):
                for A in combinations(u_sel, r):
                    ref = oracle(list(A))
                    got = fn.evaluate(f, A)
                    tol = 1e-6 * max(1.0, abs(ref)) if kind.startswith("logdet") else 1e-9
                    worst = max(worst, abs(got - ref) / max(1.0, abs(ref)))
                    if abs(got - ref) > tol:
                        return False, f"{kind} deviates by {abs(got - ref):.2e} at A={A}"
    return True, f"worst relative deviation {worst:.2e}"


def _verify_reductions(rng) -> tuple[bool, str]:
    from itertools import combinations

    joint = sim.cosine_block(rng.standard_normal((6, 6)))
    q = [4, 5]
    pairs = [
        (fn.from_joint("flcmi", joint, query=q, conditioning=[]), fn.from_joint("flvmi", joint, query=q)),
        (fn.from_joint("flcmi", joint, query=list(range(6)), conditioning=q), fn.from_joint("flcg", joint, conditioning=q)),
        (
            fn.from_joint("logdetcmi", joint, query=q, conditioning=[]),
            fn.from_joint("logdetmi", joint, query=q),
        ),
    ]
    for a, b in pairs:
        for r in range(5):
            for A in combinations(range(4), r):
                va, vb = fn.evaluate(a, A), fn.evaluate(b, A)
                if abs(va - vb) > 1e-6 * max(1.0, abs(vb)):
                    return False, f"{a.kind}->{b.kind} deviates by {abs(va - vb):.2e}"
    return True, "flcmi/logdetcmi reduce to their SMI/SCG/SF forms"


def _verify_greedy(rng) -> tuple[bool, str]:
    bound = 1.0 - 1.0 / math.e
    for t in range(20):
        joint = sim.cosine_block(rng.standard_normal((12, 6)))
        f = fn.from_joint("flvmi", joint, query=[10, 11])
        naive = gr.greedy_select(f, gr.GreedyConfig(budget=3, variant="naive"))
        lazy = gr.greedy_select(f, gr.GreedyConfig(budget=3, variant="lazy"))
        if naive.chosen != lazy.chosen or naive.gains != lazy.gains:
            return False, f"lazy diverged from naive on instance {t}"
        opt = gr.exhaustive_opt(f, 3)
        if naive.value < bound * opt.value:
            return False, f"greedy below (1-1/e) bound on instance {t}"
    return True, "naive==lazy and (1-1/e) bound on 20 instances"


def _verify_gradients(rng) -> tuple[bool, str]:
    x = rng.standard_normal((30, 5))
    y = rng.integers(0, 3, size=30)
    model = sg.train(x, y, sg.TrainConfig(epochs=50, seed=1), num_classes=3)
    emb = sg.gradient_embeddings(model, x[:5], y[:5])
    step = 1e-6
    for i in range(5):
        num = np.zeros_like(model.weights)
        for a in range(model.weights.shape[0]):
            for b in range(model.weights.shape[1]):
                wp, wm = model.weights.copy(), model.weights.copy()
                wp[a, b] += step
                wm[a, b] -= step
                mp = sg.SurrogateModel(wp, model.num_classes, model.config)
                mm = sg.SurrogateModel(wm, model.num_classes, model.config)
                lp = -np.log(sg.predict_proba(mp, x[i : i + 1])[0, y[i]])
                lm = -np.log(sg.predict_proba(mm, x[i : i + 1])[0, y[i]])
                num[a, b] = (lp - lm) / (2 * step)
        rel = np.abs(emb[i] - num.ravel()) / np.maximum(np.abs(num.ravel()), 1e-8)
        if rel.max() > 1e-4:
            return False, f"gradient mismatch {rel.max():.2e} on point {i}"
    return True, "last-layer gradients match central differences"


def _verify_penalty(rng) -> tuple[bool, str]:
    up = np.array([[0.9, 0.92], [0.91, 0.93], [0.9, 0.92]])
    down = up - 0.1
    pm = hn.penalty_matrix({"a": up, "b": down}, alpha=0.05)
    expected = np.array([[0.0, 1.0], [0.0, 0.0]])
    if not np.allclose(pm.matrix, expected, atol=1e-12):
        return False, f"penalty fixture mismatch: {pm.matrix.tolist()}"
    same = hn.penalty_matrix({"a": up, "b": up})
    if same.matrix.any():
        return False, "identical traces produced nonzero penalties"
    return True, "penalty matrix matches hand fixture"


def _cmd_verify(_) -> int:
    rng = np.random.default_rng(2024)
    checks = [
        ("oracle-identities", _verify_oracle_identities),
        ("table1-reductions", _verify_reductions),
        ("greedy-bound", _verify_greedy),
        ("gradient-fd", _verify_gradients),
        ("penalty-matrix", _verify_penalty),
    ]
    failed = 0
    for name, check in checks:
        ok, detail = check(rng)
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failed += 0 if ok else 1
    return EXIT_OK if failed == 0 else EXIT_VERIFY


def cli_main(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "verify":
            return _cmd_verify(args)
        parser.error(f"unknown command {args.command!r}")
    except fn.NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
