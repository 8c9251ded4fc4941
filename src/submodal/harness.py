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
from scipy import stats

from . import scenarios as sc
from . import similarity as sim
from .functions import (
    FACTORED_KINDS,
    LOGDET_FAMILY,
    InfoFunction,
    NumericalError,
    RECTANGULAR_ONLY,
    SCG_KINDS,
    SCMI_KINDS,
    SF_KINDS,
    SMI_KINDS,
    canonical_kind,
)
from .greedy import GreedyConfig, default_variant, greedy_select, partitioned_select
from .surrogate import (
    SurrogateModel,
    TrainConfig,
    gradient_embeddings,
    hypothesized_labels,
    predict_proba,
    train,
)

SCENARIOS = ("standard", "rare", "redundancy", "ood")

_SCENARIO_CONFIGS = {
    "standard": sc.StandardSplitConfig,
    "rare": sc.RareSplitConfig,
    "redundancy": sc.RedundantSplitConfig,
    "ood": sc.OODSplitConfig,
}
_SCENARIO_BUILDERS = {
    "standard": sc.build_standard_split,
    "rare": sc.build_rare_split,
    "redundancy": sc.build_redundant_split,
    "ood": sc.build_ood_split,
}


@dataclass(frozen=True)
class OptimizerConfig:
    variant: str = "auto"  # auto | naive | lazy | stochastic
    sg_epsilon: float = 0.01
    partitions: int = 0  # 0 = auto: partition square-kernel kinds above chunk_target
    stop_on_negative: bool = False
    chunk_target: int = 20000


@dataclass(frozen=True)
class ModelConfig:
    learning_rate: float = 0.5
    epochs: int = 300
    l2: float = 1e-4


@dataclass(frozen=True)
class FunctionConfig:
    eps: float | None = None  # None = per-kind default
    gc_lambda: float = 1.0
    eta: float = 1.0


@dataclass(frozen=True)
class AcquisitionSpec:
    """Which sets feed the query and conditioning blocks (Table-1 wiring)."""

    kind: str
    query_source: str = "none"
    conditioning_source: str = "none"

    def __post_init__(self):
        if self.query_source not in sc.QUERY_SOURCES:
            raise ValueError(f"unknown query source {self.query_source!r}")
        if self.conditioning_source not in sc.CONDITIONING_SOURCES:
            raise ValueError(f"unknown conditioning source {self.conditioning_source!r}")
        kind = canonical_kind(self.kind)
        object.__setattr__(self, "kind", kind)
        if kind in SF_KINDS and not (
            self.query_source in ("none", "full_unlabeled")
            and self.conditioning_source == "none"
        ):
            raise ValueError(f"{kind} takes the full unlabeled set as query and no conditioning")
        if kind in SMI_KINDS or kind == "div_gcmi":
            if self.query_source not in ("rare_set", "labeled_id"):
                raise ValueError(f"{kind} needs a proper query set (rare_set or labeled_id)")
            if self.conditioning_source != "none":
                raise ValueError(f"{kind} does not condition")
        if kind in SCG_KINDS:
            if self.conditioning_source == "none":
                raise ValueError(f"{kind} requires a conditioning source")
            if self.query_source not in ("none", "full_unlabeled"):
                raise ValueError(f"{kind} implicitly uses the full unlabeled set as query")
        if kind in SCMI_KINDS:
            if self.query_source not in ("rare_set", "labeled_id"):
                raise ValueError(f"{kind} needs a proper query set")
            if self.conditioning_source == "none":
                raise ValueError(f"{kind} requires a conditioning source")


def default_acquisition(scenario: str, kind: str) -> AcquisitionSpec:
    kind = canonical_kind(kind)
    if kind in SF_KINDS:
        return AcquisitionSpec(kind, "full_unlabeled", "none")
    if kind in SMI_KINDS or kind == "div_gcmi":
        source = "labeled_id" if scenario == "ood" else "rare_set"
        return AcquisitionSpec(kind, source, "none")
    if kind in SCG_KINDS:
        return AcquisitionSpec(kind, "full_unlabeled", "labeled")
    # conditional MI: OOD wiring by default, rare query + labeled otherwise
    if scenario == "ood":
        return AcquisitionSpec(kind, "labeled_id", "labeled_ood")
    return AcquisitionSpec(kind, "rare_set", "labeled")


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
    acquisition: dict | None = None  # optional query/conditioning override
    seed: int = 0
    test_per_class: int = 500
    output_dir: str | None = None

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}; expected one of {SCENARIOS}")
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if self.budget < 1:
            raise ValueError(f"budget must be >= 1, got {self.budget}")
        method = self.method.strip().lower().replace("-", "_")
        if method not in sc.BASELINES:
            method = canonical_kind(method)
        object.__setattr__(self, "method", method)

    @classmethod
    def from_dict(cls, payload: Mapping) -> "RunConfig":
        payload = dict(payload)
        for key, sub in (("optimizer", OptimizerConfig), ("model", ModelConfig), ("function", FunctionConfig)):
            if key in payload and isinstance(payload[key], Mapping):
                payload[key] = sub(**payload[key])
        unknown = set(payload) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**payload)

    @classmethod
    def from_json(cls, path) -> "RunConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        return asdict(self)


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
    params = dict(config.scenario_params)
    params.setdefault("seed", config.seed)
    cfg_cls = _SCENARIO_CONFIGS[config.scenario]
    unknown = set(params) - set(cfg_cls.__dataclass_fields__)
    if unknown:
        raise ValueError(f"unknown {config.scenario} scenario fields: {sorted(unknown)}")
    scenario_cfg = cfg_cls(**params)
    split = _SCENARIO_BUILDERS[config.scenario](scenario_cfg)

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


def _resolve_partitions(config: RunConfig, kind: str, n_unlabeled: int) -> int:
    p = config.optimizer.partitions
    if p <= 0:
        if kind in RECTANGULAR_ONLY or kind in LOGDET_FAMILY:
            p = 1  # no n x n block to split
        else:
            p = max(1, math.ceil(n_unlabeled / config.optimizer.chunk_target))
    return max(1, min(p, config.budget, n_unlabeled))


def _resolve_variant(config: RunConfig, chunk_size: int) -> str:
    v = config.optimizer.variant
    return default_variant(chunk_size) if v == "auto" else v


def _embed(model, split, guard, indices) -> np.ndarray:
    feats = split.features[indices]
    labels = _collapse(guard.fetch(indices), split)
    return gradient_embeddings(model, feats, labels)


def _submodular_select(
    config: RunConfig,
    split: sc.ScenarioSplit,
    model: SurrogateModel,
    guard: LabelGuard,
    rnd: int,
):
    kind = config.method
    acq = (
        AcquisitionSpec(kind=kind, **config.acquisition)
        if config.acquisition
        else default_acquisition(config.scenario, kind)
    )
    pool = np.sort(split.unlabeled)
    x_pool = split.features[pool]
    emb_u = gradient_embeddings(model, x_pool, hypothesized_labels(model, x_pool))

    emb_q = None
    if acq.query_source == "rare_set":
        if len(split.rare_query) == 0:
            raise ValueError(f"{kind} asks for the rare query set but the split has none")
        emb_q = _embed(model, split, guard, split.rare_query)
    elif acq.query_source == "labeled_id":
        if len(split.labeled_id) == 0:
            raise ValueError(f"{kind} asks for labeled ID points but the split has none")
        emb_q = _embed(model, split, guard, split.labeled_id)

    emb_p = None
    if acq.conditioning_source == "labeled":
        emb_p = _embed(model, split, guard, split.labeled)
    elif acq.conditioning_source == "labeled_ood":
        idx = split.labeled_ood
        emb_p = (
            _embed(model, split, guard, idx)
            if len(idx)
            else np.zeros((0, emb_u.shape[1]))
        )

    fn_kwargs = dict(
        gc_lambda=config.function.gc_lambda,
        eta=config.function.eta,
    )
    if config.function.eps is not None:
        fn_kwargs["eps"] = config.function.eps

    kernel = sim.cosine_block
    shared = {}
    if emb_q is not None and kind in ("logdetmi", "logdetcmi"):
        shared["qq"] = kernel(emb_q)
    if emb_p is not None and kind in ("logdetcg", "logdetcmi"):
        shared["pp"] = kernel(emb_p)
    if kind == "logdetcmi":
        shared["qp"] = kernel(emb_q, emb_p)
    # Chunks differ only in their ground set; the summary reports the pool.
    metadata = {}

    def make_function(local_ids: np.ndarray | None) -> InfoFunction:
        # Log-det and facility-location kinds get rank-(D+1) factors of the
        # pool kernel, never a dense n x n block; None is the whole pool.
        chunk = emb_u if local_ids is None else emb_u[local_ids]
        blocks = dict(shared)
        if kind in FACTORED_KINDS:
            fu = sim.cosine_factors(chunk)
            blocks["uu"] = sim.FactoredKernel(fu)
            for name, emb in (("uq", emb_q), ("up", emb_p)):
                if emb is not None:
                    blocks[name] = sim.FactoredKernel(fu, sim.cosine_factors(emb))
        else:
            if kind not in RECTANGULAR_ONLY:
                blocks["uu"] = kernel(chunk)
            for name, emb in (("uq", emb_q), ("up", emb_p)):
                if emb is not None:
                    blocks[name] = kernel(chunk, emb)
        f = InfoFunction(kind=kind, **blocks, **fn_kwargs)
        metadata.update(f.metadata, ground_size=len(pool))
        return f

    p = _resolve_partitions(config, kind, len(pool))
    gcfg = GreedyConfig(
        budget=min(config.budget, len(pool)),
        variant=_resolve_variant(config, math.ceil(len(pool) / p)),
        epsilon=config.optimizer.sg_epsilon,
        seed=_derive(config.seed, 2, rnd),
        partitions=p,
        stop_on_negative=config.optimizer.stop_on_negative,
    )
    try:
        if p == 1:
            res = greedy_select(make_function(None), gcfg)
        else:
            res = partitioned_select(make_function, len(pool), gcfg)
    except NumericalError as exc:
        raise NumericalError(f"round {rnd}: {exc}") from exc
    selected = np.sort(pool[np.asarray(res.chosen, dtype=np.intp)])
    return selected, float(res.value), res.evaluations, gcfg.variant, metadata


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
    guard = LabelGuard(
        split.labels,
        np.concatenate([split.labeled, split.validation, split.rare_query]),
    )

    records: list[RoundRecord] = []
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
            TrainConfig(
                learning_rate=config.model.learning_rate,
                epochs=config.model.epochs,
                l2=config.model.l2,
                seed=_derive(config.seed, 1, rnd),
            ),
            num_classes=split.num_model_classes,
        )
        if config.method in sc.BASELINES:
            selected = sc.baseline_select(
                config.method, model, split, min(config.budget, len(split.unlabeled)),
                seed=_derive(config.seed, 3, rnd),
            )
            objective = evaluations = variant = None
        else:
            selected, objective, evaluations, variant, function_metadata = _submodular_select(
                config, split, model, guard, rnd
            )
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
            objective=objective,
            elapsed=time.perf_counter() - t0,
            evaluations=evaluations,
            variant=variant,
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
        "evaluations": sum(r.evaluations or 0 for r in records),
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
    alpha: float
    n_rounds: int

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

    t_crit = float(stats.t.ppf(1.0 - alpha / 2.0, n_seeds - 1))
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
    return PenaltyMatrix(methods=methods, matrix=m, alpha=alpha, n_rounds=n_rounds)


def records_to_jsonl_line(record: RoundRecord) -> str:
    return json.dumps(record.to_dict(), sort_keys=True)
