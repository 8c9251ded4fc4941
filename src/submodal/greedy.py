"""Cardinality-constrained greedy maximizers for InfoFunction objectives.

Three variants share one gain path (the scalar SelectionState.gain),
which makes naive and lazy greedy bit-identical on monotone submodular
instances under the lowest-index tie-break.  The random-partition
strategy trades approximation for a 1/p cut in quadratic kernel cost.
"""

from __future__ import annotations

import heapq
import math
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .functions import InfoFunction, SelectionState, evaluate, new_state

VARIANTS = ("naive", "lazy", "stochastic")

# Above this ground size the stochastic variant is the sensible default;
# below it lazy greedy wins on exactness at little cost.
STOCHASTIC_THRESHOLD = 20000


@dataclass(frozen=True)
class GreedyConfig:
    budget: int
    variant: str = "lazy"
    epsilon: float = 0.01
    seed: int = 0
    partitions: int = 1
    stop_on_negative: bool = False

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.budget <= 0:
            raise ValueError(f"budget must be positive, got {self.budget}")
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if self.partitions < 1:
            raise ValueError(f"partitions must be >= 1, got {self.partitions}")
        if self.partitions > self.budget:
            raise ValueError(
                f"partitions ({self.partitions}) exceed budget ({self.budget}); "
                "every partition needs at least one pick"
            )


@dataclass(frozen=True)
class SelectionResult:
    chosen: tuple[int, ...]
    gains: tuple[float, ...]
    value: float
    evaluations: int
    elapsed: float


def default_variant(ground_size: int) -> str:
    return "stochastic" if ground_size > STOCHASTIC_THRESHOLD else "lazy"


def stochastic_sample_size(n: int, budget: int, epsilon: float) -> int:
    return math.ceil((n / budget) * math.log(1.0 / epsilon))


def _effective_budget(n: int, budget: int) -> int:
    if budget > n:
        warnings.warn(
            f"budget {budget} exceeds ground size {n}; selecting all points",
            stacklevel=3,
        )
        return n
    return budget


def greedy_select(f: InfoFunction, cfg: GreedyConfig) -> SelectionResult:
    """Maximize f under |A| <= budget with the configured variant."""
    n = f.n
    if n == 0:
        raise ValueError("ground set is empty")
    budget = _effective_budget(n, cfg.budget)
    start = time.perf_counter()
    state = new_state(f)
    evals = 0
    gains: list[float] = []

    if cfg.variant == "naive":
        for _ in range(budget):
            cands = np.flatnonzero(~state._mask)
            step = state.gains(cands)
            evals += len(cands)
            best = int(cands[int(np.argmax(step))])
            top = float(step[np.argmax(step)])
            if cfg.stop_on_negative and top < 0.0:
                break
            gains.append(state.commit(best))

    elif cfg.variant == "lazy":
        # Heap of (-gain, index, fresh_at); an entry is fresh when its gain
        # was computed at the current selection size.  Valid because gains
        # are nonincreasing under submodularity.
        init = state.gains(np.arange(n))
        evals += n
        heap = [(-float(g), int(x), 0) for x, g in enumerate(init)]
        heapq.heapify(heap)
        while heap and len(state.chosen) < budget:
            neg, x, fresh_at = heapq.heappop(heap)
            if fresh_at == len(state.chosen):
                if cfg.stop_on_negative and -neg < 0.0:
                    break
                gains.append(state.commit(x))
            else:
                g = float(state.gains(np.array([x]))[0])
                evals += 1
                heapq.heappush(heap, (-g, x, len(state.chosen)))

    else:  # stochastic
        rng = np.random.default_rng(cfg.seed)
        s = stochastic_sample_size(n, budget, cfg.epsilon)
        for _ in range(budget):
            pool = np.flatnonzero(~state._mask)
            take = min(s, len(pool))
            sample = np.sort(rng.choice(pool, size=take, replace=False))
            step = state.gains(sample)
            evals += take
            best = int(sample[int(np.argmax(step))])
            if cfg.stop_on_negative and float(step.max()) < 0.0:
                break
            gains.append(state.commit(best))

    return SelectionResult(
        chosen=tuple(state.chosen),
        gains=tuple(gains),
        value=state.value,
        evaluations=evals,
        elapsed=time.perf_counter() - start,
    )


def partition_sizes(n: int, p: int) -> list[int]:
    base, extra = divmod(n, p)
    return [base + (1 if i < extra else 0) for i in range(p)]


def partition_quotas(budget: int, p: int) -> list[int]:
    """Per-chunk pick counts: floor(B/p) each, remainder to the lowest chunks."""
    base, extra = divmod(budget, p)
    return [base + (1 if i < extra else 0) for i in range(p)]


def partitioned_select(
    make_function: Callable[[np.ndarray], InfoFunction],
    n: int,
    cfg: GreedyConfig,
) -> SelectionResult:
    """Randomly partition [0, n) into cfg.partitions chunks, build a fresh
    function per chunk via ``make_function(chunk_indices)``, optimize each
    under its quota, and merge by chunk index.

    Chunk runs share nothing mutable and may execute concurrently.
    """
    p = cfg.partitions
    budget = _effective_budget(n, cfg.budget)
    start = time.perf_counter()

    if p == 1:
        order = np.arange(n)
    else:
        order = np.random.default_rng(cfg.seed).permutation(n)
    sizes = partition_sizes(n, p)
    quotas = partition_quotas(budget, p)

    chunks = []
    offset = 0
    for i, size in enumerate(sizes):
        ids = np.sort(order[offset : offset + size])
        offset += size
        if size < quotas[i]:
            raise ValueError(
                f"partition {i} has {size} points but a quota of {quotas[i]} "
                f"(sizes={sizes}, quotas={quotas})"
            )
        chunks.append(ids)

    def run_chunk(i: int) -> SelectionResult:
        ids = chunks[i]
        chunk_seed = int(np.random.SeedSequence((cfg.seed, i)).generate_state(1)[0])
        chunk_cfg = replace(cfg, budget=max(quotas[i], 1), partitions=1, seed=chunk_seed)
        if quotas[i] == 0:
            return SelectionResult((), (), 0.0, 0, 0.0)
        return greedy_select(make_function(ids), chunk_cfg)

    if p == 1:
        results = [run_chunk(0)]
    else:
        with ThreadPoolExecutor() as pool:
            results = list(pool.map(run_chunk, range(p)))

    chosen: list[int] = []
    gains: list[float] = []
    value = 0.0
    evals = 0
    for ids, res in zip(chunks, results):
        chosen.extend(int(ids[local]) for local in res.chosen)
        gains.extend(res.gains)
        value += res.value
        evals += res.evaluations
    return SelectionResult(
        chosen=tuple(chosen),
        gains=tuple(gains),
        value=value,
        evaluations=evals,
        elapsed=time.perf_counter() - start,
    )


def exhaustive_opt(f: InfoFunction, budget: int, limit: int = 10**6) -> SelectionResult:
    """True optimum by subset enumeration; test oracle for greedy bounds."""
    from itertools import combinations

    n = f.n
    budget = min(budget, n)
    if budget <= 0:
        raise ValueError(f"budget must be positive, got {budget}")
    if math.comb(n, budget) > limit:
        raise ValueError(
            f"enumeration of C({n}, {budget}) subsets exceeds the {limit} limit"
        )
    start = time.perf_counter()
    best_val = -math.inf
    best: tuple[int, ...] = ()
    evals = 0
    for combo in combinations(range(n), budget):
        val = evaluate(f, combo)
        evals += 1
        if val > best_val:
            best_val = val
            best = combo
    gains = []
    prev = 0.0
    for k in range(1, len(best) + 1):
        cur = evaluate(f, best[:k])
        gains.append(cur - prev)
        prev = cur
    return SelectionResult(
        chosen=best,
        gains=tuple(gains),
        value=best_val,
        evaluations=evals,
        elapsed=time.perf_counter() - start,
    )
