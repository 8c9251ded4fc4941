"""Command-line front end: run, sweep.

Exit codes: 0 success, 2 config error, 3 numerical failure (singular
kernel, or a numpy linear-algebra error).
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import functions as fn
from . import harness as hn

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


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
    jsonl = None

    def flush_record(rec):
        # Opened at the first record: a run that fails its checks, which
        # all precede round 1, leaves no records file.
        nonlocal jsonl
        if jsonl is None:
            jsonl = open(out / "records.jsonl", "w")
        jsonl.write(hn.records_to_jsonl_line(rec) + "\n")
        jsonl.flush()

    try:
        result = hn.run_al(config, on_record=flush_record)
    finally:
        if jsonl is not None:
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
    cfg_dict, method, seed = payload
    config = hn.RunConfig.from_dict({**cfg_dict, "method": method, "seed": seed, "output_dir": None})
    return method, seed, hn.run_al(config).records


def _cmd_sweep(args) -> int:
    config = _load_config(args)
    # Each method through RunConfig: canonical names, and a bad one fails here.
    methods = [
        hn.RunConfig.from_dict({**config.to_dict(), "method": m}).method
        for m in args.methods.split(",")
        if m.strip()
    ]
    if len(set(methods)) < len(methods):
        raise ValueError(f"sweep lists a method twice: {methods}")
    if len(methods) < 2:
        raise ValueError("sweep needs at least two methods")
    if args.num_seeds < 2:
        raise ValueError("sweep needs --num-seeds >= 2 (the penalty t-test is undefined on one seed)")
    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    if not 0.0 < args.alpha < 1.0:
        raise ValueError(f"--alpha must lie in (0, 1), got {args.alpha}")
    if args.metric == "rare_accuracy" and not hn.build_scenario(config)[0].rare_classes:
        raise ValueError(f"metric 'rare_accuracy' is absent in scenario {config.scenario!r}")
    seeds = [config.seed + i for i in range(args.num_seeds)]
    out = Path(config.output_dir) if config.output_dir else Path("runs") / f"sweep-{config.scenario}"
    out.mkdir(parents=True, exist_ok=True)

    jobs = [(config.to_dict(), m, s) for m in methods for s in seeds]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            outputs = list(pool.map(_sweep_worker, jobs))
    else:
        outputs = [_sweep_worker(j) for j in jobs]

    traces = {m: [] for m in methods}
    counts = {m: {name: [] for name in COUNT_FIELDS} for m in methods}
    for method, seed, records in sorted(outputs, key=lambda o: (o[0], o[1])):
        traces[method].append([getattr(rec, args.metric) for rec in records])
        for name in COUNT_FIELDS:
            counts[method][name].append([getattr(rec, name) for rec in records])
        with open(out / f"{method}-s{seed}.jsonl", "w") as fh:
            fh.writelines(hn.records_to_jsonl_line(rec) + "\n" for rec in records)
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


def cli_main(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    command = {"run": _cmd_run, "sweep": _cmd_sweep}[args.command]
    try:
        return command(args)
    except (fn.NumericalError, np.linalg.LinAlgError) as exc:  # LinAlgError is a ValueError
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
