"""Cardinality-constrained greedy maximizers for InfoFunction objectives.

Three variants share one gain definition (SelectionState.gain; its batch
form ``gains`` returns the same floats).  Naive greedy scans every
unchosen point per pick and is exact on any objective.  Lazy greedy
(Minoux 1978) re-evaluates only the top of a heap of stale gains, which
is exact only when gains never rise: on the kinds in
``functions.SUBMODULAR`` it is bit-identical to naive under the
lowest-index tie-break.  The random-partition strategy trades
approximation for a 1/p cut in quadratic kernel cost; its chunks run one
after another.  ``plan`` alone picks a kind's variant and partition
count; ``greedy_select`` given lazy where it is not exact runs naive by
the same rule, and its result records the variant that ran.
"""

from __future__ import annotations

import heapq
import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .functions import FL_FAMILY, LOGDET_FAMILY, SUBMODULAR, InfoFunction, evaluate, new_state

VARIANTS = ("naive", "lazy", "stochastic")

# Above this chunk size ``plan`` makes stochastic greedy the ``auto``
# variant; below it lazy greedy wins on exactness at little cost.  The
# log-det kinds run naive at every size instead: their batch gains are
# one array op, cheaper than the heap and always exact.
STOCHASTIC_THRESHOLD = 20000

# Auto partitioning gives each FL chunk at most this many points (only the
# FL coverage block grows with n^2).  A chunk of 20000 with every column
# kept is a 1.6 GB coverage block (float32; 3.2 GB in float64).
_CHUNK_TARGET = 20000


@dataclass(frozen=True)
class GreedyConfig:
    budget: int
    variant: str = "lazy"
    epsilon: float = 0.01
    seed: int = 0
    partitions: int = 1

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
    pivot_floor_hits: int = 0  # log-det commits whose pivot hit the floor
    variant: str | None = None  # greedy variant that ran; None for exhaustive_opt
    block_bytes: int = 0  # bytes of the largest coverage block built (0 without one)


# How each count of several selections (a round's chunks, a run's rounds)
# combines into one.  Round records carry these counts under the same names.
TOTALS = {"evaluations": sum, "pivot_floor_hits": sum, "block_bytes": max}


def totals(results) -> dict:
    """The ``TOTALS`` counts of ``results``; 0 each when there are none."""
    return {name: rule([0, *(getattr(r, name) for r in results)]) for name, rule in TOTALS.items()}


def default_variant(ground_size: int) -> str:
    return "stochastic" if ground_size > STOCHASTIC_THRESHOLD else "lazy"


def _exact_variant(kind: str, variant: str) -> str:
    """``variant``, or naive where it is lazy and lazy is not exact on ``kind``."""
    return "naive" if variant == "lazy" and kind not in SUBMODULAR else variant


def plan(kind: str, n: int, budget: int, variant: str = "auto", partitions: int = 0,
         epsilon: float = 0.01, seed: int = 0) -> GreedyConfig:
    """The concrete config for a ``kind`` function over ``n`` points.
    ``partitions`` 0 splits only the FL kinds, into chunks of at most
    ``_CHUNK_TARGET`` points; any count is clamped to [1, min(budget, n)].
    ``auto`` runs the log-det kinds naive, the others ``default_variant``
    of the chunk size.  ``stochastic`` runs on any kind as the caller's
    choice, though its (1 - 1/e - epsilon) guarantee holds only on
    ``SUBMODULAR``; ``auto`` never picks it for a log-det kind, and the
    result's ``variant`` says that it ran."""
    if partitions == 0:
        partitions = math.ceil(n / _CHUNK_TARGET) if kind in FL_FAMILY else 1
    partitions = max(1, min(partitions, budget, n))
    if variant == "auto":
        variant = "naive" if kind in LOGDET_FAMILY else default_variant(math.ceil(n / partitions))
    return GreedyConfig(min(budget, n), _exact_variant(kind, variant), epsilon, seed, partitions)


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
    """Maximize f under |A| <= budget with the configured variant, or
    naive where lazy is configured on a kind it is not exact on."""
    variant = _exact_variant(f.kind, cfg.variant)
    n = f.n
    if n == 0:
        raise ValueError("ground set is empty")
    budget = _effective_budget(n, cfg.budget)
    state = new_state(f)
    evals = 0
    gains: list[float] = []

    if variant == "lazy":
        # Heap of (-gain, index, fresh_at); an entry is fresh when its gain
        # was computed at the current selection size.  Valid because gains
        # are nonincreasing under submodularity.
        init = state.gains(np.arange(n))
        evals += n
        heap = [(-float(g), int(x), 0) for x, g in enumerate(init)]
        heapq.heapify(heap)
        while heap and len(state.chosen) < budget:
            _, x, fresh_at = heapq.heappop(heap)
            if fresh_at == len(state.chosen):
                gains.append(state.commit(x))
            else:
                evals += 1
                heapq.heappush(heap, (-state.gain(x), x, len(state.chosen)))

    else:  # naive scans every unchosen point, stochastic a sorted sample
        rng = np.random.default_rng(cfg.seed)
        s = stochastic_sample_size(n, budget, cfg.epsilon)
        for _ in range(budget):
            cands = np.flatnonzero(~state._mask)
            if variant == "stochastic":
                cands = np.sort(rng.choice(cands, size=min(s, len(cands)), replace=False))
            step = state.gains(cands)
            evals += len(cands)
            best = int(np.argmax(step))
            gains.append(state.commit(int(cands[best])))

    return SelectionResult(
        chosen=tuple(state.chosen),
        gains=tuple(gains),
        value=state.value,
        evaluations=evals,
        pivot_floor_hits=state.numerical_warnings,
        variant=variant,
        block_bytes=f.block_bytes,
    )


def partition_sizes(n: int, p: int) -> list[int]:
    """Even split of n into p parts, the remainder to the lowest parts."""
    base, extra = divmod(n, p)
    return [base + (1 if i < extra else 0) for i in range(p)]


def partitioned_select(
    make_function: Callable[[np.ndarray], InfoFunction],
    n: int,
    cfg: GreedyConfig,
) -> SelectionResult:
    """Randomly partition [0, n) into cfg.partitions chunks, build a fresh
    function per chunk via ``make_function(chunk_indices)``, optimize each
    under its quota, and merge by chunk index.

    Chunks run one after another, each function released before the next
    is built.
    """
    p = cfg.partitions
    budget = _effective_budget(n, cfg.budget)
    order = np.random.default_rng(cfg.seed).permutation(n)

    chosen: list[int] = []
    results: list[SelectionResult] = []
    value, offset = 0.0, 0
    # The same even split of budget <= n and of n: quota <= size (0 only when empty).
    for i, (size, quota) in enumerate(zip(partition_sizes(n, p), partition_sizes(budget, p))):
        ids = np.sort(order[offset : offset + size])
        offset += size
        if quota == 0:
            continue
        chunk_seed = int(np.random.SeedSequence((cfg.seed, i)).generate_state(1)[0])
        chunk_cfg = replace(cfg, budget=quota, partitions=1, seed=chunk_seed)
        res = greedy_select(make_function(ids), chunk_cfg)
        chosen.extend(int(ids[local]) for local in res.chosen)
        value += res.value
        results.append(res)
    return SelectionResult(
        chosen=tuple(chosen),
        gains=tuple(g for res in results for g in res.gains),
        value=value,
        variant=results[0].variant if results else cfg.variant,  # one kind: one variant
        **totals(results),
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
    )
