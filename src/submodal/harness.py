"""End-to-end active-learning loop over the synthetic scenarios.

One round: retrain the surrogate from scratch on the labeled set,
embed the unlabeled pool with hypothesized-label gradients (labeled
query/conditioning sets use their true labels), build the kernel blocks
the acquisition kind needs, greedy-maximize under the batch budget,
reveal the batch labels, and record metrics against a fixed held-out
test draw.  Ground-truth labels flow through an access guard so a run
can prove it never peeked at unlabeled labels.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from . import scenarios as sc
from . import similarity as sim
from .functions import (
    READS_P,
    READS_Q,
    SUBMODULAR,
    InfoFunction,
    NumericalError,
    canonical_kind,
)
from .greedy import TOTALS, VARIANTS, greedy_select, partitioned_select, plan, totals
from .surrogate import (
    SurrogateModel,
    TrainConfig,
    gradient_embeddings,  # not called here: perfbench's spans.instrument wraps this name
    gradient_parts,
    hypothesized_labels,
    predict_proba,
    train,
)

SCENARIOS = tuple(sc.SPLITS)
OPTIMIZERS = ("auto",) + VARIANTS


@dataclass(frozen=True)
class OptimizerConfig:
    variant: str = "auto"  # auto | naive | lazy (submodular kinds only) | stochastic
    sg_epsilon: float = 0.01
    partitions: int = 0  # 0 = auto: greedy.plan partitions only the FL kinds' large pools

    def __post_init__(self):
        if self.variant not in OPTIMIZERS:
            raise ValueError(f"optimizer variant must be one of {OPTIMIZERS}, got {self.variant!r}")
        if not 0.0 < self.sg_epsilon < 1.0:
            raise ValueError(f"sg_epsilon must lie in (0, 1), got {self.sg_epsilon}")
        if self.partitions < 0:
            raise ValueError(f"partitions must be >= 0 (0 = auto), got {self.partitions}")


@dataclass(frozen=True)
class ModelConfig:
    learning_rate: float = 0.5
    epochs: int = 300
    l2: float = 1e-4

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.l2 < 0:
            raise ValueError(f"l2 must be >= 0, got {self.l2}")


@dataclass(frozen=True)
class FunctionConfig:
    eps: float | None = None  # None = per-kind default
    gc_lambda: float = 1.0
    eta: float = 1.0

    def __post_init__(self):
        if self.eps is not None and not self.eps >= 0:
            raise ValueError(f"eps must be >= 0, got {self.eps}")
        for name in ("gc_lambda", "eta"):  # a negative weight breaks submodularity
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")


def table1_fields(scenario: str, kind: str) -> tuple[str | None, str | None]:
    """The split fields that feed ``kind``'s query set Q and conditioning
    set P, or None for a set the kind does not read (Table-1 wiring).

    Q is the held-out rare exemplars, or the labeled ID points in ``ood``.
    P is the labeled set, or for the kinds that also read Q in ``ood``
    the labeled OOD points.
    """
    ood = scenario == "ood"
    q = ("labeled_id" if ood else "rare_query") if kind in READS_Q else None
    p = ("labeled_ood" if ood and q else "labeled") if kind in READS_P else None
    return q, p


@dataclass(frozen=True)
class RunConfig:
    scenario: str = "rare"
    scenario_params: dict = field(default_factory=dict)
    method: str = "random"
    rounds: int = 3
    budget: int = 125
    optimizer: OptimizerConfig = OptimizerConfig()
    model: ModelConfig = ModelConfig()
    function: FunctionConfig = FunctionConfig()
    seed: int = 0
    test_per_class: int = 500
    output_dir: str | None = None

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}; expected one of {SCENARIOS}")
        self.scenario_config()  # a bad scenario_params field fails here, before any run
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if self.budget < 1:
            raise ValueError(f"budget must be >= 1, got {self.budget}")
        if self.test_per_class < 1:
            raise ValueError(f"test_per_class must be >= 1, got {self.test_per_class}")
        method = self.method.strip().lower().replace("-", "_")
        if method not in sc.BASELINES:
            method = canonical_kind(method)
            if self.optimizer.variant == "lazy" and method not in SUBMODULAR:
                raise ValueError(
                    f"lazy greedy is exact only on submodular kinds and {method} is "
                    "not submodular; use the naive or auto optimizer"
                )
        object.__setattr__(self, "method", method)

    @classmethod
    def from_dict(cls, payload: Mapping) -> "RunConfig":
        if not isinstance(payload, Mapping):
            raise ValueError(f"config must be a mapping of fields, got {payload!r}")
        payload = dict(payload)
        for key, sub in (("optimizer", OptimizerConfig), ("model", ModelConfig), ("function", FunctionConfig)):
            if key in payload:
                payload[key] = _from_fields(sub, payload[key], key)
        return _from_fields(cls, payload, "config")

    def to_dict(self) -> dict:
        return asdict(self)

    def scenario_config(self):
        """The scenario's config: ``scenario_params`` over its defaults."""
        cfg_cls = sc.SPLITS[self.scenario][0]
        return _from_fields(cfg_cls, self.scenario_params, f"{self.scenario} scenario", seed=self.seed)


# The values each numeric or string field declaration takes (never a bool),
# and their name.
_TYPED = {"int": ((int,), "an integer"), "float": ((int, float), "a number"),
          "float | None": ((int, float, type(None)), "a number or null"),
          "str": ((str,), "a string"), "str | None": ((str, type(None)), "a string or null")}


def _from_fields(cls, params, what: str, **defaults):
    """``cls(**defaults, **params)``, with a ValueError (exit 2) for a
    ``params`` that is no mapping, names a field ``cls`` lacks, gives a
    numeric or string field (``_TYPED``) a value of another type or gives
    a float field NaN or an infinity."""
    if not isinstance(params, Mapping):
        raise ValueError(f"{what} must be a mapping of fields, got {params!r}")
    unknown = set(params) - set(cls.__dataclass_fields__)
    if unknown:
        raise ValueError(f"unknown {what} fields: {sorted(unknown)}")
    for name, value in params.items():
        types, noun = _TYPED.get(cls.__dataclass_fields__[name].type, (object, None))
        if noun and (isinstance(value, bool) or not isinstance(value, types)):
            raise ValueError(f"{what} field {name} must be {noun}, got {value!r}")
        if noun and isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{what} field {name} must be finite, got {value!r}")
    try:
        return cls(**{**defaults, **params})
    except (TypeError, AttributeError) as exc:  # a value of the wrong type
        raise ValueError(f"bad {what} value: {exc}") from exc


@dataclass(frozen=True)
class RoundRecord:
    round: int
    labeled_size: int
    accuracy: float
    rare_accuracy: float | None
    rare_selected: int | None
    unique_selected: int
    id_selected: int | None
    selected: tuple[int, ...]
    objective: float | None
    elapsed: float
    evaluations: int | None  # marginal-gain evaluations; None for baselines
    variant: str | None  # greedy variant that ran; None for baselines
    pivot_floor_hits: int | None  # log-det pivots clamped to the floor; None for baselines
    # SelectionResult.block_bytes: the largest coverage block over all chunks
    # (float32 above functions._FLOAT64_BLOCK_BYTES); 0 without one, None for baselines.
    block_bytes: int | None

    def to_dict(self) -> dict:
        d = asdict(self)
        d["selected"] = list(self.selected)
        return d


@dataclass
class RunResult:
    records: list[RoundRecord]
    model: SurrogateModel
    guard_violations: int
    summary: dict


class LabelGuard:
    """Counts ground-truth label reads outside the permitted index set.

    Permitted starts at L, V, R; newly labeled batches are permitted at
    reveal time.  A clean run ends with zero violations.
    """

    def __init__(self, labels: np.ndarray, permitted: Sequence[int]):
        self._labels = labels
        self._permitted = np.zeros(len(labels), dtype=bool)
        self._permitted[np.asarray(permitted, dtype=np.intp)] = True
        self.violations = 0

    def permit(self, indices: Sequence[int]) -> None:
        self._permitted[np.asarray(indices, dtype=np.intp)] = True

    def fetch(self, indices: Sequence[int]) -> np.ndarray:
        idx = np.asarray(indices, dtype=np.intp)
        self.violations += int((~self._permitted[idx]).sum())
        return self._labels[idx]


def build_scenario(config: RunConfig):
    """Construct the split plus a matched balanced test draw."""
    scenario_cfg = config.scenario_config()
    split = sc.SPLITS[config.scenario][1](scenario_cfg)

    eval_classes = list(split.id_classes) if split.ood_classes else list(range(split.num_classes))
    counts = [config.test_per_class if c in eval_classes else 0 for c in range(split.num_classes)]
    test_seed = _derive(scenario_cfg.seed, 9, 0)
    test_x, test_y = sc.make_blobs(
        counts, split.dim, split.spread, test_seed, mean_seed=split.mean_seed
    )
    return split, test_x, test_y


def _derive(seed: int, tag: int, rnd: int) -> int:
    return int(np.random.SeedSequence((seed, tag, rnd)).generate_state(1)[0])


def _collapse(labels: np.ndarray, split: sc.ScenarioSplit) -> np.ndarray:
    if not split.ood_classes:
        return labels
    out = labels.copy()
    out[np.isin(labels, split.ood_classes)] = len(split.id_classes)
    return out


def compute_metrics(
    model: SurrogateModel,
    split: sc.ScenarioSplit,
    selected: np.ndarray,
    cumulative: np.ndarray,
    test_features: np.ndarray,
    test_labels: np.ndarray,
) -> dict:
    """Test accuracy plus the per-scenario selection counts.

    In the OOD scenario the appended OOD class is ignored at test time:
    predictions argmax over the ID classes only.  Rare accuracy is the
    mean of per-rare-class accuracies; absent (None) when the scenario
    has no rare classes.
    """
    probs = predict_proba(model, test_features)
    if split.ood_classes:
        preds = np.argmax(probs[:, : len(split.id_classes)], axis=1)
    else:
        preds = np.argmax(probs, axis=1)
    accuracy = float(np.mean(preds == test_labels))

    rare_accuracy = None
    rare_selected = None
    if split.rare_classes:
        per_class = []
        for cls in split.rare_classes:
            mask = test_labels == cls
            if mask.any():
                per_class.append(float(np.mean(preds[mask] == cls)))
        rare_accuracy = float(np.mean(per_class)) if per_class else None
        rare_selected = int(np.isin(split.labels[selected], split.rare_classes).sum())

    unique_selected = int(len(np.unique(split.duplication_map[cumulative])))
    id_selected = None
    if split.ood_classes:
        id_selected = int(np.isin(split.labels[selected], split.id_classes).sum())
    return {
        "accuracy": accuracy,
        "rare_accuracy": rare_accuracy,
        "rare_selected": rare_selected,
        "unique_selected": unique_selected,
        "id_selected": id_selected,
    }


def _pool_kernel(model: SurrogateModel, features: np.ndarray) -> sim.FactoredKernel:
    """The pool's Khatri-Rao kernel, from the gradient parts of its distinct
    feature rows (exact copies have equal gradients); only the kernel
    outlives the call, and the n x C(d+1) embedding is never formed."""
    first, index = sim.distinct_rows(features)
    features = features if first is None else features[first]
    resid, xb = gradient_parts(model, features, hypothesized_labels(model, features))
    return sim.khatri_rao_factors(resid, xb, index)


def _submodular_select(
    config: RunConfig,
    split: sc.ScenarioSplit,
    model: SurrogateModel,
    guard: LabelGuard,
    rnd: int,
):
    kind = config.method
    q_field, p_field = table1_fields(config.scenario, kind)
    pool = np.sort(split.unlabeled)
    pool_uu = _pool_kernel(model, split.features[pool])
    # Rank-(D+1) factors of the query and conditioning sets, built from
    # their true-label gradient parts as the pool's are; an empty set
    # (labeled_ood before any OOD pick) gives zero rows.
    side_factors = {}
    for block, name in (("uq", q_field), ("up", p_field)):
        if name:
            ids = getattr(split, name)
            side_factors[block] = sim.khatri_rao_factors(*gradient_parts(
                model, split.features[ids], _collapse(guard.fetch(ids), split))).left

    # Chunks differ only in their ground set; the summary reports the pool.
    metadata = {}

    def make_function(local_ids: np.ndarray | None) -> InfoFunction:
        # Every kind gets rank-(D+1) factors of the pool, query and
        # conditioning kernels, never a dense n x n or |P| x |P| block;
        # None is the whole pool, and a chunk is cut from it.
        uu = pool_uu if local_ids is None else pool_uu.points(local_ids)
        blocks = {name: uu.cross(fs) for name, fs in side_factors.items()}
        f = InfoFunction(kind=kind, uu=uu, **blocks, **asdict(config.function))
        metadata.update(f.metadata, ground_size=len(pool))
        return f

    opt = config.optimizer
    gcfg = plan(kind, len(pool), config.budget, opt.variant, opt.partitions, opt.sg_epsilon,
                _derive(config.seed, 2, rnd))
    try:
        if gcfg.partitions == 1:
            res = greedy_select(make_function(None), gcfg)
        else:
            res = partitioned_select(make_function, len(pool), gcfg)
    except NumericalError as exc:
        raise NumericalError(f"round {rnd}: {exc}") from exc
    selected = np.sort(pool[np.asarray(res.chosen, dtype=np.intp)])
    return selected, res, metadata


def run_al(
    config: RunConfig,
    on_record: Callable[[RoundRecord], None] | None = None,
) -> RunResult:
    """Algorithm-1 style loop: N rounds of retrain / embed / select / label."""
    split, test_x, test_y = build_scenario(config)
    if config.budget * config.rounds > len(split.unlabeled):
        raise ValueError(
            f"budget*rounds = {config.budget * config.rounds} exceeds the "
            f"unlabeled pool of {len(split.unlabeled)}"
        )
    # Query sets only grow over the rounds: an empty one fails before round 1.
    kind = config.method
    q_field = None if kind in sc.BASELINES else table1_fields(config.scenario, kind)[0]
    if q_field and len(getattr(split, q_field)) == 0:
        name = q_field.replace("_", " ")
        raise ValueError(f"{kind} needs a query set, but the split's {name} set is empty")
    guard = LabelGuard(
        split.labels,
        np.concatenate([split.labeled, split.validation, split.rare_query]),
    )

    records: list[RoundRecord] = []
    selections = []  # the rounds' SelectionResults (none for a baseline)
    cumulative: list[int] = []
    model = None
    function_metadata = None
    start = time.perf_counter()
    for rnd in range(1, config.rounds + 1):
        t0 = time.perf_counter()
        train_labels = _collapse(guard.fetch(split.labeled), split)
        model = train(
            split.features[split.labeled],
            train_labels,
            TrainConfig(**asdict(config.model), seed=_derive(config.seed, 1, rnd)),
            num_classes=split.num_model_classes,
        )
        if config.method in sc.BASELINES:
            selected = sc.baseline_select(
                config.method, model, split, min(config.budget, len(split.unlabeled)),
                seed=_derive(config.seed, 3, rnd),
            )
            res = None
        else:
            selected, res, function_metadata = _submodular_select(
                config, split, model, guard, rnd
            )
            selections.append(res)
        guard.permit(selected)  # labels revealed for the batch
        split = sc.update_ood_sets(split, selected)
        cumulative.extend(int(i) for i in selected)
        metrics = compute_metrics(
            model, split, np.asarray(selected), np.asarray(cumulative), test_x, test_y
        )
        record = RoundRecord(
            round=rnd,
            labeled_size=int(len(split.labeled)),
            selected=tuple(int(i) for i in selected),
            objective=None if res is None else float(res.value),
            elapsed=time.perf_counter() - t0,
            **{name: None if res is None else getattr(res, name) for name in ("variant", *TOTALS)},
            **metrics,
        )
        records.append(record)
        if on_record is not None:
            on_record(record)

    summary = {
        "config": config.to_dict(),
        "rounds_completed": len(records),
        "final_accuracy": records[-1].accuracy,
        "final_rare_accuracy": records[-1].rare_accuracy,
        "guard_violations": guard.violations,
        **totals(selections),
        "total_elapsed": time.perf_counter() - start,
    }
    if function_metadata is not None:
        summary["function_metadata"] = function_metadata
    return RunResult(
        records=records, model=model, guard_violations=guard.violations, summary=summary
    )


# ---------------------------------------------------------------------------
# Penalty matrix (pairwise significance accounting)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PenaltyMatrix:
    methods: tuple[str, ...]
    matrix: np.ndarray

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("method," + ",".join(self.methods) + "\n")
            for name, row in zip(self.methods, self.matrix):
                fh.write(name + "," + ",".join(repr(float(v)) for v in row) + "\n")


def penalty_matrix(traces: Mapping[str, np.ndarray], alpha: float = 0.05) -> PenaltyMatrix:
    """Fraction of rounds each method beats another with two-tailed
    t-test significance across seeds.

    Cell (i, j) accumulates 1/n_rounds for every round where the mean
    accuracy difference of i over j exceeds the critical value of its
    standard error; ties and insignificant rounds contribute nothing.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    methods = tuple(traces)
    if len(methods) < 2:
        raise ValueError("penalty matrix needs at least two methods")
    arrays = [np.atleast_2d(np.asarray(traces[m], dtype=np.float64)) for m in methods]
    n_seeds, n_rounds = arrays[0].shape
    if n_seeds < 2:
        raise ValueError("penalty matrix needs >= 2 seeds per method (t-test undefined)")
    for name, arr in zip(methods, arrays):
        if arr.shape != (n_seeds, n_rounds):
            raise ValueError(f"trace for {name!r} has shape {arr.shape}, expected {(n_seeds, n_rounds)}")

    from scipy.special import stdtrit  # only sweeps need scipy here

    t_crit = float(stdtrit(n_seeds - 1, 1.0 - alpha / 2.0))
    m = np.zeros((len(methods), len(methods)))
    for r in range(n_rounds):
        for i in range(len(methods)):
            for j in range(i + 1, len(methods)):
                d = arrays[i][:, r] - arrays[j][:, r]
                mean = d.mean()
                se = d.std(ddof=1) / math.sqrt(n_seeds)
                if se == 0.0:
                    t = 0.0 if mean == 0.0 else math.copysign(math.inf, mean)
                else:
                    t = mean / se
                if t > t_crit:
                    m[i, j] += 1.0 / n_rounds
                elif t < -t_crit:
                    m[j, i] += 1.0 / n_rounds
    return PenaltyMatrix(methods=methods, matrix=m)


def records_to_jsonl_line(record: RoundRecord) -> str:
    return json.dumps(record.to_dict(), sort_keys=True)
