"""Cardinality-constrained greedy maximizers for InfoFunction objectives.

Three variants share one gain definition (SelectionState.gain; its batch
form ``gains`` returns the same floats).  Naive greedy scans every
unchosen point per pick and is exact on any objective.  Lazy greedy
(Minoux 1978) re-evaluates only the top of a heap of stale gains, which
is exact only when gains never rise: on the kinds in
``functions.SUBMODULAR`` it is bit-identical to naive under the
lowest-index tie-break.  ``greedy_select`` runs whichever variant it is
given; the harness rejects lazy on the other kinds.  The random-partition
strategy trades approximation for a 1/p cut in quadratic kernel cost;
its chunks run one after another, so one chunk's blocks are alive at a
time.
"""

from __future__ import annotations

import heapq
import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .functions import InfoFunction, SelectionState, evaluate, new_state

VARIANTS = ("naive", "lazy", "stochastic")

# Above this ground size the stochastic variant is the default for the
# submodular kinds; below it lazy greedy wins on exactness at little cost.
# The harness runs the log-det kinds naive at every size instead: their
# batch gains are one array op, cheaper than the heap and always exact.
STOCHASTIC_THRESHOLD = 20000


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
    state = new_state(f)
    evals = 0
    gains: list[float] = []

    if cfg.variant == "lazy":
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
            if cfg.variant == "stochastic":
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
    )


def partition_sizes(n: int, p: int) -> list[int]:
    """Even split of n into p parts, the remainder to the lowest parts."""
    base, extra = divmod(n, p)
    return [base + (1 if i < extra else 0) for i in range(p)]


def partition_quotas(budget: int, p: int) -> list[int]:
    """Per-chunk pick counts: floor(B/p) each, remainder to the lowest chunks."""
    return partition_sizes(budget, p)


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
    gains: list[float] = []
    value = 0.0
    evals = hits = offset = 0
    # The same even split of budget <= n and of n: quota <= size (0 only when empty).
    for i, (size, quota) in enumerate(zip(partition_sizes(n, p), partition_quotas(budget, p))):
        ids = np.sort(order[offset : offset + size])
        offset += size
        if quota == 0:
            continue
        chunk_seed = int(np.random.SeedSequence((cfg.seed, i)).generate_state(1)[0])
        chunk_cfg = replace(cfg, budget=quota, partitions=1, seed=chunk_seed)
        res = greedy_select(make_function(ids), chunk_cfg)
        chosen.extend(int(ids[local]) for local in res.chosen)
        gains.extend(res.gains)
        value += res.value
        evals += res.evaluations
        hits += res.pivot_floor_hits
    return SelectionResult(
        chosen=tuple(chosen),
        gains=tuple(gains),
        value=value,
        evaluations=evals,
        pivot_floor_hits=hits,
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
