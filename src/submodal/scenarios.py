"""Synthetic experimental settings: standard, rare-class, redundancy, OOD.

Each builder lays out Gaussian-blob data with exact integer per-class
counts and deterministic role assignment, so realized class ratios equal
the configured layout with no sampling noise.  Class means live on a
seeded random sphere of radius 4 * spread; a separate point stream lets
matched test sets share the means without repeating pool points.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .surrogate import SurrogateModel, uncertainty

BASELINES = ("random", "entropy", "margin", "least_confidence")

QUERY_SOURCES = ("none", "rare_set", "labeled_id", "full_unlabeled")
CONDITIONING_SOURCES = ("none", "labeled", "labeled_ood")


@dataclass(frozen=True)
class ScenarioSplit:
    """Pool of points with role bookkeeping for one AL experiment.

    Index sets (into features/labels): labeled L, unlabeled U, held-out
    rare queries R, validation V, plus the OOD bookkeeping sets I
    (labeled in-distribution, seeded with the ID validation points) and
    O (labeled out-of-distribution, initially empty).
    """

    features: np.ndarray
    labels: np.ndarray
    labeled: np.ndarray
    unlabeled: np.ndarray
    rare_query: np.ndarray
    validation: np.ndarray
    labeled_id: np.ndarray
    labeled_ood: np.ndarray
    duplication_map: np.ndarray
    num_classes: int
    rare_classes: tuple[int, ...] = ()
    id_classes: tuple[int, ...] = ()
    ood_classes: tuple[int, ...] = ()
    rho: float | None = None
    redundancy_factor: int | None = None
    spread: float = 0.5
    mean_seed: int = 0
    initial_labeled: np.ndarray = field(default=None)

    def __post_init__(self):
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


@dataclass(frozen=True)
class StandardSplitConfig:
    num_classes: int = 10
    dim: int = 32
    spread: float = 0.5
    seed: int = 0
    labeled_per_class: int = 25
    valid_per_class: int = 5
    unlabeled_per_class: int = 500


@dataclass(frozen=True)
class RareSplitConfig:
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


@dataclass(frozen=True)
class RedundantSplitConfig:
    unique_count: int = 5000
    dup_fraction: float = 0.2
    redundancy_factor: int = 10
    labeled_count: int = 500
    num_classes: int = 10
    dim: int = 32
    spread: float = 0.5
    seed: int = 0


@dataclass(frozen=True)
class OODSplitConfig:
    num_id_classes: int = 8
    num_ood_classes: int = 2
    labeled_per_id: int = 200
    unlabeled_per_id: int = 500
    unlabeled_per_ood: int = 5000
    valid_per_id: int = 5
    dim: int = 32
    spread: float = 0.5
    seed: int = 0


def _spread_counts(total: int, classes: int) -> list[int]:
    base, extra = divmod(total, classes)
    return [base + (1 if c < extra else 0) for c in range(classes)]


def build_standard_split(cfg: StandardSplitConfig) -> ScenarioSplit:
    per_class = cfg.labeled_per_class + cfg.valid_per_class + cfg.unlabeled_per_class
    feats, labels = make_blobs(
        [per_class] * cfg.num_classes, cfg.dim, cfg.spread, cfg.seed, mean_seed=cfg.seed
    )
    L, V, U = [], [], []
    offset = 0
    for _ in range(cfg.num_classes):
        L.extend(range(offset, offset + cfg.labeled_per_class))
        offset += cfg.labeled_per_class
        V.extend(range(offset, offset + cfg.valid_per_class))
        offset += cfg.valid_per_class
        U.extend(range(offset, offset + cfg.unlabeled_per_class))
        offset += cfg.unlabeled_per_class
    return ScenarioSplit(
        features=feats,
        labels=labels,
        labeled=np.array(L, dtype=np.intp),
        unlabeled=np.array(U, dtype=np.intp),
        rare_query=np.array([], dtype=np.intp),
        validation=np.array(V, dtype=np.intp),
        labeled_id=np.array([], dtype=np.intp),
        labeled_ood=np.array([], dtype=np.intp),
        duplication_map=np.arange(len(labels)),
        num_classes=cfg.num_classes,
        spread=cfg.spread,
        mean_seed=cfg.seed,
    )


def build_rare_split(cfg: RareSplitConfig) -> ScenarioSplit:
    if cfg.rho < 1:
        raise ValueError(f"imbalance factor must be >= 1, got {cfg.rho}")
    classes = cfg.num_classes
    rare = tuple(range(classes - classes // 2, classes))
    unlabeled_rare = int(round(cfg.unlabeled_common / cfg.rho))
    counts, roles = [], []
    for cls in range(classes):
        if cls in rare:
            layout = [
                ("labeled", cfg.labeled_rare),
                ("validation", cfg.valid_per_class),
                ("unlabeled", unlabeled_rare),
                ("rare_query", cfg.rare_query_per_class),
            ]
        else:
            layout = [
                ("labeled", cfg.labeled_common),
                ("validation", cfg.valid_per_class),
                ("unlabeled", cfg.unlabeled_common),
            ]
        counts.append(sum(n for _, n in layout))
        roles.append(layout)
    feats, labels = make_blobs(counts, cfg.dim, cfg.spread, cfg.seed, mean_seed=cfg.seed)
    if len(labels) < sum(counts):
        raise ValueError("insufficient generated points for the configured layout")
    idx = {"labeled": [], "validation": [], "unlabeled": [], "rare_query": []}
    offset = 0
    for layout in roles:
        for role, n in layout:
            idx[role].extend(range(offset, offset + n))
            offset += n
    return ScenarioSplit(
        features=feats,
        labels=labels,
        labeled=np.array(idx["labeled"], dtype=np.intp),
        unlabeled=np.array(idx["unlabeled"], dtype=np.intp),
        rare_query=np.array(idx["rare_query"], dtype=np.intp),
        validation=np.array(idx["validation"], dtype=np.intp),
        labeled_id=np.array([], dtype=np.intp),
        labeled_ood=np.array([], dtype=np.intp),
        duplication_map=np.arange(len(labels)),
        num_classes=classes,
        rare_classes=rare,
        rho=cfg.rho,
        spread=cfg.spread,
        mean_seed=cfg.seed,
    )


def build_redundant_split(cfg: RedundantSplitConfig) -> ScenarioSplit:
    if not (0.0 <= cfg.dup_fraction <= 1.0):
        raise ValueError(f"dup_fraction must lie in [0, 1], got {cfg.dup_fraction}")
    if cfg.redundancy_factor < 1:
        raise ValueError(f"redundancy factor must be >= 1, got {cfg.redundancy_factor}")
    labeled_counts = _spread_counts(cfg.labeled_count, cfg.num_classes)
    unique_counts = _spread_counts(cfg.unique_count, cfg.num_classes)
    counts = [l + u for l, u in zip(labeled_counts, unique_counts)]
    feats, labels = make_blobs(counts, cfg.dim, cfg.spread, cfg.seed, mean_seed=cfg.seed)
    L, U = [], []
    offset = 0
    for l, u in zip(labeled_counts, unique_counts):
        L.extend(range(offset, offset + l))
        offset += l
        U.extend(range(offset, offset + u))
        offset += u
    L = np.array(L, dtype=np.intp)
    U = np.array(U, dtype=np.intp)

    n_dup = int(round(cfg.unique_count * cfg.dup_fraction))
    rng = np.random.default_rng(cfg.seed + 1)
    dup_originals = np.sort(rng.choice(U, size=n_dup, replace=False))
    copies_per = cfg.redundancy_factor - 1
    dup_map = np.arange(len(labels))
    if copies_per > 0 and n_dup > 0:
        copy_sources = np.repeat(dup_originals, copies_per)
        feats = np.vstack([feats, feats[copy_sources]])
        labels = np.concatenate([labels, labels[copy_sources]])
        dup_map = np.concatenate([dup_map, copy_sources])
        U = np.concatenate([U, np.arange(len(dup_map) - len(copy_sources), len(dup_map))])
    return ScenarioSplit(
        features=feats,
        labels=labels,
        labeled=L,
        unlabeled=U,
        rare_query=np.array([], dtype=np.intp),
        validation=np.array([], dtype=np.intp),
        labeled_id=np.array([], dtype=np.intp),
        labeled_ood=np.array([], dtype=np.intp),
        duplication_map=dup_map,
        num_classes=cfg.num_classes,
        redundancy_factor=cfg.redundancy_factor,
        spread=cfg.spread,
        mean_seed=cfg.seed,
    )


def build_ood_split(cfg: OODSplitConfig) -> ScenarioSplit:
    id_classes = tuple(range(cfg.num_id_classes))
    ood_classes = tuple(range(cfg.num_id_classes, cfg.num_id_classes + cfg.num_ood_classes))
    if set(id_classes) & set(ood_classes):
        raise ValueError("ID and OOD class lists must be disjoint")
    counts = [cfg.labeled_per_id + cfg.valid_per_id + cfg.unlabeled_per_id] * len(id_classes)
    counts += [cfg.unlabeled_per_ood] * len(ood_classes)
    feats, labels = make_blobs(counts, cfg.dim, cfg.spread, cfg.seed, mean_seed=cfg.seed)
    L, V, U = [], [], []
    offset = 0
    for _ in id_classes:
        L.extend(range(offset, offset + cfg.labeled_per_id))
        offset += cfg.labeled_per_id
        V.extend(range(offset, offset + cfg.valid_per_id))
        offset += cfg.valid_per_id
        U.extend(range(offset, offset + cfg.unlabeled_per_id))
        offset += cfg.unlabeled_per_id
    for _ in ood_classes:
        U.extend(range(offset, offset + cfg.unlabeled_per_ood))
        offset += cfg.unlabeled_per_ood
    V = np.array(V, dtype=np.intp)
    return ScenarioSplit(
        features=feats,
        labels=labels,
        labeled=np.array(L, dtype=np.intp),
        unlabeled=np.array(U, dtype=np.intp),
        rare_query=np.array([], dtype=np.intp),
        validation=V,
        labeled_id=V.copy(),  # I starts as the small ID validation set
        labeled_ood=np.array([], dtype=np.intp),
        duplication_map=np.arange(len(labels)),
        num_classes=cfg.num_id_classes + cfg.num_ood_classes,
        id_classes=id_classes,
        ood_classes=ood_classes if cfg.num_ood_classes else (),
        spread=cfg.spread,
        mean_seed=cfg.seed,
    )


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
        initial_labeled=split.initial_labeled,
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


# ---------------------------------------------------------------------------
# CSV interfaces
# ---------------------------------------------------------------------------


def write_dataset_csv(split: ScenarioSplit, path) -> None:
    """Header id,label,f0..f{d-1}; one row per pool point."""
    d = split.dim
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "label"] + [f"f{i}" for i in range(d)])
        for i in range(len(split.labels)):
            writer.writerow(
                [i, int(split.labels[i])] + [repr(float(v)) for v in split.features[i]]
            )


def write_roles_csv(split: ScenarioSplit, path) -> None:
    role_of = {}
    for role, idx in (
        ("labeled", split.labeled),
        ("unlabeled", split.unlabeled),
        ("rare_query", split.rare_query),
        ("validation", split.validation),
    ):
        for i in idx:
            role_of[int(i)] = role
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "role"])
        for i in sorted(role_of):
            writer.writerow([i, role_of[i]])


def load_dataset_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (ids, labels, features) from the dataset CSV format."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[:2] != ["id", "label"]:
            raise ValueError(f"unexpected dataset header: {header[:2]}")
        ids, labels, feats = [], [], []
        for row in reader:
            ids.append(int(row[0]))
            labels.append(int(row[1]))
            feats.append([float(v) for v in row[2:]])
    return np.array(ids), np.array(labels, dtype=np.intp), np.array(feats)


def load_roles_csv(path) -> dict[str, np.ndarray]:
    roles: dict[str, list[int]] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            roles.setdefault(row[1], []).append(int(row[0]))
    return {k: np.array(sorted(v), dtype=np.intp) for k, v in roles.items()}
