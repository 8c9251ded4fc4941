"""Synthetic experimental settings: standard, rare-class, redundancy, OOD.

Each builder gives every class a layout, a list of ``(role, count)``
pairs, and ``_lay_out`` draws Gaussian blobs with exactly those counts,
handing each role its consecutive index ranges class by class.  Standard
classes, ID classes and common rare-split classes lay out labeled,
validation, unlabeled; rare classes add rare_query; OOD classes are
unlabeled only; the redundancy split lays out labeled, unlabeled and
then appends copies of a seeded share of its unlabeled points.  Realized
class ratios thus equal the configured layout with no sampling noise.
Class means live on a seeded random sphere of radius 4 * spread; a
separate point stream lets matched test sets share the means without
repeating pool points.  ``SPLITS`` maps each scenario name to its config
class and builder.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, fields, replace
from typing import Sequence

import numpy as np

from .greedy import partition_sizes
from .surrogate import SurrogateModel, uncertainty

BASELINES = ("random", "entropy", "margin", "least_confidence")


def _no_indices() -> np.ndarray:
    return np.array([], dtype=np.intp)


@dataclass(frozen=True)
class ScenarioSplit:
    """Pool of points with role bookkeeping for one AL experiment.

    Index sets (into features/labels): labeled L, unlabeled U, held-out
    rare queries R, validation V, plus the OOD bookkeeping sets I
    (labeled in-distribution, seeded with the ID validation points) and
    O (labeled out-of-distribution, initially empty).  A scenario
    without a set leaves it empty; ``duplication_map`` (each point's
    original) defaults to the identity.
    """

    features: np.ndarray
    labels: np.ndarray
    labeled: np.ndarray
    unlabeled: np.ndarray
    num_classes: int
    rare_query: np.ndarray = field(default_factory=_no_indices)
    validation: np.ndarray = field(default_factory=_no_indices)
    labeled_id: np.ndarray = field(default_factory=_no_indices)
    labeled_ood: np.ndarray = field(default_factory=_no_indices)
    duplication_map: np.ndarray = field(default=None)
    rare_classes: tuple[int, ...] = ()
    id_classes: tuple[int, ...] = ()
    ood_classes: tuple[int, ...] = ()
    spread: float = 0.5
    mean_seed: int = 0
    initial_labeled: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.duplication_map is None:
            object.__setattr__(self, "duplication_map", np.arange(len(self.labels)))
        if self.initial_labeled is None:
            object.__setattr__(self, "initial_labeled", self.labeled.copy())
        sets = [self.labeled, self.unlabeled, self.rare_query, self.validation]
        total = sum(len(s) for s in sets)
        if total != len(np.unique(np.concatenate(sets))):
            raise ValueError("L, U, R, V must be pairwise disjoint")

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def num_model_classes(self) -> int:
        """Scenario classes plus one appended OOD class when active."""
        return len(self.id_classes) + 1 if self.ood_classes else self.num_classes


def make_blobs(
    per_class_counts: Sequence[int],
    dim: int,
    spread: float,
    seed: int,
    mean_seed: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Isotropic Gaussian clusters; class means on a seeded sphere of
    radius 4 * spread.  ``mean_seed`` fixes the means independently of
    the point noise stream so pool and test draws can share geometry."""
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    if not spread > 0:
        raise ValueError(f"spread must be > 0, got {spread}")
    counts = [int(c) for c in per_class_counts]
    if any(c < 0 for c in counts):
        raise ValueError("per-class counts must be nonnegative")
    mean_rng = np.random.default_rng(seed if mean_seed is None else mean_seed)
    raw = mean_rng.standard_normal((len(counts), dim))
    means = 4.0 * spread * raw / np.linalg.norm(raw, axis=1, keepdims=True)
    point_rng = np.random.default_rng(seed)
    feats, labels = [], []
    for cls, count in enumerate(counts):
        if count == 0:
            continue
        feats.append(means[cls] + spread * point_rng.standard_normal((count, dim)))
        labels.append(np.full(count, cls, dtype=np.intp))
    if not feats:
        return np.zeros((0, dim)), np.zeros(0, dtype=np.intp)
    return np.vstack(feats), np.concatenate(labels)


# ---------------------------------------------------------------------------
# Split builders
# ---------------------------------------------------------------------------


class _SplitConfig:
    """Base of the split configs, which check their ranges before any run."""

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError(f"dim must be >= 2, got {self.dim}")
        # Counts, class numbers and the seed: 0 is a legal value of each.
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type in (int, "int") and value < 0:
                raise ValueError(f"{f.name} must be >= 0, got {value}")
        if not self.spread > 0:
            raise ValueError(f"spread must be > 0, got {self.spread}")


@dataclass(frozen=True)
class StandardSplitConfig(_SplitConfig):
    num_classes: int = 10
    dim: int = 32
    spread: float = 0.5
    seed: int = 0
    labeled_per_class: int = 25
    valid_per_class: int = 5
    unlabeled_per_class: int = 500


@dataclass(frozen=True)
class RareSplitConfig(_SplitConfig):
    """Rare-class layout; the imbalance factor ties the unlabeled counts
    (common unlabeled = rho * rare unlabeled), labeled counts follow the
    fixed per-class layout."""

    rho: float = 20.0
    num_classes: int = 10
    dim: int = 32
    spread: float = 0.5
    seed: int = 0
    labeled_rare: int = 3
    labeled_common: int = 22
    valid_per_class: int = 5
    unlabeled_common: int = 3000
    rare_query_per_class: int = 3

    def __post_init__(self):
        super().__post_init__()
        if self.rho < 1:
            raise ValueError(f"imbalance factor must be >= 1, got {self.rho}")


@dataclass(frozen=True)
class RedundantSplitConfig(_SplitConfig):
    unique_count: int = 5000
    dup_fraction: float = 0.2
    redundancy_factor: int = 10
    labeled_count: int = 500
    num_classes: int = 10
    dim: int = 32
    spread: float = 0.5
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        if not (0.0 <= self.dup_fraction <= 1.0):
            raise ValueError(f"dup_fraction must lie in [0, 1], got {self.dup_fraction}")
        if self.redundancy_factor < 1:
            raise ValueError(f"redundancy factor must be >= 1, got {self.redundancy_factor}")


@dataclass(frozen=True)
class OODSplitConfig(_SplitConfig):
    num_id_classes: int = 8
    num_ood_classes: int = 2
    labeled_per_id: int = 200
    unlabeled_per_id: int = 500
    unlabeled_per_ood: int = 5000
    valid_per_id: int = 5
    dim: int = 32
    spread: float = 0.5
    seed: int = 0


_ROLES = ("labeled", "unlabeled", "rare_query", "validation")


def _lay_out(cfg, layouts: Sequence[Sequence[tuple[str, int]]]) -> dict:
    """ScenarioSplit fields of blobs with one class per layout, each
    class's points split into consecutive role ranges in layout order.

    Returns features, labels, the blob geometry (spread, mean_seed) that
    test draws reuse, and the indices of every role in ``_ROLES``; a role
    that no layout lists comes back empty.
    """
    counts = [sum(n for _, n in layout) for layout in layouts]
    feats, labels = make_blobs(counts, cfg.dim, cfg.spread, cfg.seed, mean_seed=cfg.seed)
    idx = {role: [] for role in _ROLES}
    offset = 0
    for layout in layouts:
        for role, n in layout:
            idx[role].extend(range(offset, offset + n))
            offset += n
    roles = {role: np.array(ix, dtype=np.intp) for role, ix in idx.items()}
    return dict(features=feats, labels=labels, spread=cfg.spread, mean_seed=cfg.seed, **roles)


def build_standard_split(cfg: StandardSplitConfig) -> ScenarioSplit:
    layout = [
        ("labeled", cfg.labeled_per_class),
        ("validation", cfg.valid_per_class),
        ("unlabeled", cfg.unlabeled_per_class),
    ]
    return ScenarioSplit(**_lay_out(cfg, [layout] * cfg.num_classes), num_classes=cfg.num_classes)


def build_rare_split(cfg: RareSplitConfig) -> ScenarioSplit:
    classes = cfg.num_classes
    rare = tuple(range(classes - classes // 2, classes))
    common = [
        ("labeled", cfg.labeled_common),
        ("validation", cfg.valid_per_class),
        ("unlabeled", cfg.unlabeled_common),
    ]
    rare_layout = [
        ("labeled", cfg.labeled_rare),
        ("validation", cfg.valid_per_class),
        ("unlabeled", int(round(cfg.unlabeled_common / cfg.rho))),
        ("rare_query", cfg.rare_query_per_class),
    ]
    layouts = [rare_layout if cls in rare else common for cls in range(classes)]
    return ScenarioSplit(**_lay_out(cfg, layouts), num_classes=classes, rare_classes=rare)


def build_redundant_split(cfg: RedundantSplitConfig) -> ScenarioSplit:
    layouts = [
        [("labeled", l), ("unlabeled", u)]
        for l, u in zip(
            partition_sizes(cfg.labeled_count, cfg.num_classes),
            partition_sizes(cfg.unique_count, cfg.num_classes),
        )
    ]
    split = ScenarioSplit(**_lay_out(cfg, layouts), num_classes=cfg.num_classes)

    n_dup = int(round(cfg.unique_count * cfg.dup_fraction))
    rng = np.random.default_rng(cfg.seed + 1)
    dup_originals = np.sort(rng.choice(split.unlabeled, size=n_dup, replace=False))
    copies_per = cfg.redundancy_factor - 1
    if copies_per == 0 or n_dup == 0:
        return split
    sources = np.repeat(dup_originals, copies_per)
    n = len(split.labels)
    return replace(
        split,
        features=np.vstack([split.features, split.features[sources]]),
        labels=np.concatenate([split.labels, split.labels[sources]]),
        unlabeled=np.concatenate([split.unlabeled, np.arange(n, n + len(sources))]),
        duplication_map=np.concatenate([split.duplication_map, sources]),
    )


def build_ood_split(cfg: OODSplitConfig) -> ScenarioSplit:
    id_layout = [
        ("labeled", cfg.labeled_per_id),
        ("validation", cfg.valid_per_id),
        ("unlabeled", cfg.unlabeled_per_id),
    ]
    ood_layout = [("unlabeled", cfg.unlabeled_per_ood)]
    fields = _lay_out(cfg, [id_layout] * cfg.num_id_classes + [ood_layout] * cfg.num_ood_classes)
    num_classes = cfg.num_id_classes + cfg.num_ood_classes
    return ScenarioSplit(
        **fields,
        labeled_id=fields["validation"].copy(),  # I starts as the small ID validation set
        num_classes=num_classes,
        id_classes=tuple(range(cfg.num_id_classes)),
        ood_classes=tuple(range(cfg.num_id_classes, num_classes)),
    )


SPLITS = {
    "standard": (StandardSplitConfig, build_standard_split),
    "rare": (RareSplitConfig, build_rare_split),
    "redundancy": (RedundantSplitConfig, build_redundant_split),
    "ood": (OODSplitConfig, build_ood_split),
}


def update_ood_sets(split: ScenarioSplit, selected: Sequence[int]) -> ScenarioSplit:
    """Move newly labeled points from U to L and, in the OOD scenario,
    grow I by the ID picks and O by the OOD picks."""
    A = np.asarray(sorted(set(int(i) for i in selected)), dtype=np.intp)
    if not np.all(np.isin(A, split.unlabeled)):
        raise ValueError("selection must be a subset of the unlabeled set")
    new_labeled = np.sort(np.concatenate([split.labeled, A]))
    new_unlabeled = np.setdiff1d(split.unlabeled, A)
    labeled_id, labeled_ood = split.labeled_id, split.labeled_ood
    if split.ood_classes:
        a_labels = split.labels[A]
        new_id = A[np.isin(a_labels, split.id_classes)]
        new_ood = A[np.isin(a_labels, split.ood_classes)]
        labeled_id = np.sort(np.concatenate([labeled_id, new_id]))
        labeled_ood = np.sort(np.concatenate([labeled_ood, new_ood]))
    return replace(
        split,
        labeled=new_labeled,
        unlabeled=new_unlabeled,
        labeled_id=labeled_id,
        labeled_ood=labeled_ood,
    )


def baseline_select(
    method: str,
    model: SurrogateModel | None,
    split: ScenarioSplit,
    budget: int,
    seed: int = 0,
) -> np.ndarray:
    """Non-submodular selectors: random and the three uncertainty rules.

    Ties break toward the lowest pool index; 'margin' takes the bottom-B
    scores, the others the top-B.
    """
    if method not in BASELINES:
        raise ValueError(f"unknown baseline {method!r}; expected one of {BASELINES}")
    pool = np.sort(split.unlabeled)
    if budget > len(pool):
        warnings.warn(
            f"budget {budget} exceeds unlabeled pool of {len(pool)}; selecting all",
            stacklevel=2,
        )
        return pool.copy()
    if method == "random":
        rng = np.random.default_rng(seed)
        return np.sort(rng.choice(pool, size=budget, replace=False))
    scores = uncertainty(model, split.features[pool])
    if method == "entropy":
        order = np.lexsort((pool, -scores.entropy))
    elif method == "margin":
        order = np.lexsort((pool, scores.margin))
    else:
        order = np.lexsort((pool, -scores.least_confidence))
    return np.sort(pool[order[:budget]])
