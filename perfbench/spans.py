"""In-memory span tracer and the per-layer instrumentation of ``run_al``.

Spans are recorded from outside the package: ``instrument`` swaps the
public functions that ``harness`` calls for timing wrappers and puts
the originals back on exit.  Each span keeps its name, start, end,
parent span and the round it belongs to.  A layer's self time is its
span duration minus the part of that interval covered by child spans,
so the self times of all spans add up to the root span.

Layers are the package modules: ``scenarios``, ``surrogate``,
``similarity``, ``functions``, ``greedy`` and ``harness``.  The greedy
loop's own self time is the time spent evaluating marginal gains (the
loop does nothing else besides state init and commits, which have
spans of their own), so it is reported as ``functions.gain_s``.
"""

from __future__ import annotations

import contextlib
import math
import time

# Float64 values one SelectionState.gain call reads or writes: vectors of
# ground-set length for the facility-location kinds, one pivot lookup per
# log-det term for the log-det kinds.  Other kinds count one value.
_GAIN_VECTORS = {"fl": 7, "div_gcmi": 7, "flvmi": 10, "flcg": 12, "flcmi": 15}
_GAIN_SCALARS = {"logdet": 1, "logdetcg": 1, "logdetmi": 2, "logdetcmi": 2}

# Per-layer metrics of a traced run and their units, in report order.
LAYER_UNITS = {
    "scenarios.build_s": "s", "scenarios.pool_size": "count",
    "surrogate.train_s": "s", "surrogate.train_calls": "count", "surrogate.train_rows": "count",
    "surrogate.embed_s": "s", "surrogate.embed_rows": "count",
    "similarity.kernel_s": "s", "similarity.kernel_calls": "count",
    "similarity.kernel_bytes": "B", "similarity.kernel_max_block_mb": "MiB",
    "similarity.kernel_gflop": "GFLOP",
    "functions.init_s": "s", "functions.state_s": "s", "functions.commit_s": "s",
    "functions.commits": "count", "functions.pivot_floor_hits": "count",
    "functions.gain_s": "s", "functions.gain_evals": "count", "functions.gain_bytes": "B",
    "greedy.select_s": "s", "greedy.evaluations": "count", "greedy.commit_ratio": "ratio",
    "greedy.partitions": "count", "greedy.variant": "index", "greedy.objective": "value",
    "harness.round_s": "s", "harness.round_max_s": "s", "harness.metrics_s": "s",
    "harness.self_s": "s",
    "harness.guard_violations": "count", "harness.target_picks": "count",
    "bench.check_s": "s", "trace.run_s": "s",
}

# Layer self times that add up to trace.run_s; harness.self_s is the
# remainder not attributed to a named module.
SELF_TIMES = (
    "scenarios.build_s", "surrogate.train_s", "surrogate.embed_s", "similarity.kernel_s",
    "functions.init_s", "functions.state_s", "functions.commit_s", "functions.gain_s",
    "harness.metrics_s", "bench.check_s", "harness.self_s",
)

# Tolerances promised by the ``functions`` module docstring for a commit
# sequence against the from-scratch value.
_ABS_TOL = 1e-8
_LOGDET_REL_TOL = 1e-6


class Tracer:
    """Single-thread span recorder; spans stay in memory until read.

    A span is a dict with ``name``, ``start``, ``end``, ``parent`` (index
    of the enclosing span or None), ``round`` (0 outside rounds) and
    ``attrs`` (counts recorded at the boundary).
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.round = 0

    def open(self, name: str, **attrs) -> int:
        self.spans.append({
            "name": name, "start": time.perf_counter(), "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "round": self.round, "attrs": attrs,
        })
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, sid: int) -> None:
        # Closing a span also closes any child left open by an exception.
        now = time.perf_counter()
        while self._stack:
            top = self._stack.pop()
            self.spans[top]["end"] = now
            if top == sid:
                break

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        sid = self.open(name, **attrs)
        try:
            yield self.spans[sid]["attrs"]
        finally:
            self.close(sid)

    def start_round(self, number: int) -> None:
        self.round = number
        self._round_sid = self.open("harness.round")

    def end_round(self) -> None:
        self.close(self._round_sid)


def self_times(spans: list[dict]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s["start"]
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s["end"] - s["start"]) - covered)
    return out


def summarize(spans: list[dict], guard_violations: int, target_picks: float) -> dict[str, float]:
    """Per-layer metrics from one traced run's spans and its result counts."""
    own = self_times(spans)
    m: dict[str, float] = dict.fromkeys(LAYER_UNITS, 0)

    def add(key, value):
        m[key] += value

    for s, self_s in zip(spans, own):
        a, dur = s["attrs"], s["end"] - s["start"]
        name = s["name"]
        if name == "harness.run":
            add("trace.run_s", dur)
            add("harness.self_s", self_s)
        elif name == "harness.round":
            add("harness.round_s", dur)
            add("harness.self_s", self_s)
            m["harness.round_max_s"] = max(m["harness.round_max_s"], dur)
        elif name == "harness.metrics":
            add("harness.metrics_s", dur)
        elif name == "scenarios.build":
            add("scenarios.build_s", dur)
            m["scenarios.pool_size"] = a["pool_size"]
        elif name == "surrogate.train":
            add("surrogate.train_s", dur)
            add("surrogate.train_calls", 1)
            add("surrogate.train_rows", a["rows"])
        elif name == "surrogate.embed":
            add("surrogate.embed_s", dur)
            add("surrogate.embed_rows", a["rows"])
        elif name == "similarity.kernel":
            add("similarity.kernel_s", dur)
            add("similarity.kernel_calls", 1)
            add("similarity.kernel_bytes", a["bytes"])
            add("similarity.kernel_gflop", 2.0 * a["rows"] * a["cols"] * a["dim"] / 1e9)
            m["similarity.kernel_max_block_mb"] = max(
                m["similarity.kernel_max_block_mb"], a["bytes"] / 2**20
            )
        elif name == "functions.init":
            add("functions.init_s", dur)
        elif name == "functions.state":
            add("functions.state_s", dur)
        elif name == "functions.commit":
            add("functions.commit_s", dur)
            add("functions.commits", 1)
        elif name == "greedy.select":
            add("greedy.select_s", dur)
            add("functions.gain_s", self_s)
            add("functions.gain_evals", a["evaluations"])
            add("functions.gain_bytes", a["gain_bytes"])
            add("functions.pivot_floor_hits", a["pivot_floor_hits"])
            add("greedy.evaluations", a["evaluations"])
            add("greedy.objective", a["value"])
            m["greedy.partitions"] = max(m["greedy.partitions"], a["partitions"])
            m["greedy.variant"] = a["variant_index"]
        elif name == "bench.check":
            add("bench.check_s", dur)
    evals = m["greedy.evaluations"]
    m["greedy.commit_ratio"] = m["functions.commits"] / evals if evals else 0.0
    m["harness.guard_violations"] = guard_violations
    m["harness.target_picks"] = target_picks
    return m


def gain_bytes(kind: str, n: int, evaluations: int) -> int:
    """Computed bytes moved by ``evaluations`` marginal-gain calls."""
    floats = n * _GAIN_VECTORS[kind] if kind in _GAIN_VECTORS else _GAIN_SCALARS.get(kind, 1)
    return 8 * floats * evaluations


def value_matches(greedy_value: float, scratch_value: float, logdet: bool) -> bool:
    rel = _LOGDET_REL_TOL if logdet else 0.0
    return math.isclose(greedy_value, scratch_value, rel_tol=rel, abs_tol=_ABS_TOL)


@contextlib.contextmanager
def instrument(tracer: Tracer, check_failures: list[str]):
    """Wrap the layer entry points ``harness`` calls; restore them on exit.

    Every greedy result is also re-evaluated from scratch with
    ``functions.evaluate`` inside a ``bench.check`` span; a mismatch is
    appended to ``check_failures``.
    """
    from submodal import functions as fn
    from submodal import greedy as gr
    from submodal import harness as hn
    from submodal import similarity as sim

    patched: list[tuple[object, str, object]] = []

    def patch(owner, attr, make):
        original = getattr(owner, attr)
        patched.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def build_scenario(orig):
        def wrapper(config):
            with tracer.span("scenarios.build") as attrs:
                out = orig(config)
                attrs["pool_size"] = int(len(out[0].unlabeled))
            tracer.start_round(1)
            return out
        return wrapper

    def plain_span(name):
        def make(orig):
            def wrapper(*args, **kwargs):
                with tracer.span(name):
                    return orig(*args, **kwargs)
            return wrapper
        return make

    def train(orig):
        def wrapper(features, *args, **kwargs):
            with tracer.span("surrogate.train", rows=int(features.shape[0])):
                return orig(features, *args, **kwargs)
        return wrapper

    def gradient_embeddings(orig):
        def wrapper(model, features, labels):
            with tracer.span("surrogate.embed", rows=int(features.shape[0])):
                return orig(model, features, labels)
        return wrapper

    def cosine_kernel(orig):
        def wrapper(a, b=None):
            cols = a.rows if b is None else b.rows
            with tracer.span("similarity.kernel", rows=a.rows, cols=cols, dim=a.dim) as attrs:
                k = orig(a, b)
                attrs["bytes"] = int(k.data.nbytes)
            return k
        return wrapper

    states = []

    def new_state(orig):
        def wrapper(f):
            with tracer.span("functions.state"):
                state = orig(f)
            states.append(state)
            return state
        return wrapper

    def commit(orig):
        def wrapper(self, x):
            with tracer.span("functions.commit"):
                return orig(self, x)
        return wrapper

    def select(orig):
        def wrapper(f, cfg):
            states.clear()
            with tracer.span("greedy.select") as attrs:
                res = orig(f, cfg)
            attrs.update(
                evaluations=int(res.evaluations),
                value=float(res.value),
                partitions=int(cfg.partitions),
                variant_index=gr.VARIANTS.index(cfg.variant),
                pivot_floor_hits=int(states[0].numerical_warnings) if states else 0,
                gain_bytes=gain_bytes(f.kind, f.n, res.evaluations),
            )
            states.clear()
            with tracer.span("bench.check"):
                scratch = fn.evaluate(f, res.chosen)
            if not value_matches(res.value, scratch, f.kind in fn.LOGDET_FAMILY):
                check_failures.append(
                    f"round {tracer.round}: greedy value {res.value!r} != "
                    f"from-scratch {scratch!r}"
                )
            return res
        return wrapper

    def partitioned(orig):
        # Partition chunks run in worker threads, which would push spans
        # onto this single-thread tracer's stack; such a run is refused.
        def wrapper(make_function, n, cfg, *args, **kwargs):
            raise RuntimeError(
                f"traced runs support one partition only; round {tracer.round} "
                f"asked for {cfg.partitions}"
            )
        return wrapper

    try:
        patch(hn, "build_scenario", build_scenario)
        patch(hn, "train", train)
        patch(hn, "gradient_embeddings", gradient_embeddings)
        patch(sim, "cosine_kernel", cosine_kernel)
        patch(hn, "InfoFunction", plain_span("functions.init"))
        patch(gr, "new_state", new_state)
        patch(fn.SelectionState, "commit", commit)
        patch(hn, "greedy_select", select)
        patch(hn, "partitioned_select", partitioned)
        patch(hn, "compute_metrics", plain_span("harness.metrics"))
        yield
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


def round_hook(tracer: Tracer, rounds: int):
    """``run_al`` callback: close the finished round's span, open the next."""
    def on_record(record):
        tracer.end_round()
        if record.round < rounds:
            tracer.start_round(record.round + 1)
    return on_record
