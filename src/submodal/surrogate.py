"""Multinomial logistic regression standing in for the deep models.

Supplies everything the acquisition loop needs from a classifier:
softmax predictions, hypothesized labels, last-layer gradient
embeddings, and the three uncertainty scores.  Training is full-batch
deterministic gradient descent so that a seed fully determines the
weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.5
    epochs: int = 300
    l2: float = 1e-4
    seed: int = 0
    max_halvings: int = 10


@dataclass(frozen=True)
class SurrogateModel:
    """Trained classifier: weights are C x (d+1) with the bias last."""

    weights: np.ndarray
    num_classes: int
    config: TrainConfig

    @property
    def dim(self) -> int:
        return self.weights.shape[1] - 1


@dataclass(frozen=True)
class UncertaintyScores:
    entropy: np.ndarray
    margin: np.ndarray
    least_confidence: np.ndarray


def _with_bias(features: np.ndarray) -> np.ndarray:
    features = np.asarray(features, dtype=np.float64)
    return np.hstack([features, np.ones((features.shape[0], 1))])


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _loss(weights, xb, labels, l2) -> tuple[float, np.ndarray]:
    """Regularized cross-entropy and the softmax it was computed from."""
    probs = _softmax(xb @ weights.T)
    ce = -np.mean(np.log(np.maximum(probs[np.arange(len(labels)), labels], 1e-300)))
    return float(ce + 0.5 * l2 * np.sum(weights * weights)), probs


def _residual(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """The cross-entropy residual p_i - e_{y_i} of each row."""
    resid = probs.copy()
    resid[np.arange(len(labels)), labels] -= 1.0
    return resid


def train(
    features: np.ndarray,
    labels: Sequence[int],
    config: TrainConfig = TrainConfig(),
    num_classes: int | None = None,
) -> SurrogateModel:
    """Full-batch gradient descent on cross-entropy + L2.

    The accepted loss sequence is monotone decreasing; a step that would
    increase it halves the learning rate instead (training stops after
    config.max_halvings halvings).
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.intp)
    if features.ndim != 2 or features.shape[0] == 0:
        raise ValueError("training set must be a nonempty 2-D feature matrix")
    if labels.shape != (features.shape[0],):
        raise ValueError("labels must align with feature rows")
    present = np.unique(labels)
    if len(present) < 2:
        raise ValueError("training set must contain at least two classes")
    c = int(num_classes) if num_classes is not None else int(labels.max()) + 1
    if labels.min() < 0 or labels.max() >= c:
        raise ValueError(f"labels must lie in [0, {c})")

    xb = _with_bias(features)
    n, d1 = xb.shape

    rng = np.random.default_rng(config.seed)
    weights = 0.01 * rng.standard_normal((c, d1))
    lr = config.learning_rate
    halvings = 0
    loss, probs = _loss(weights, xb, labels, config.l2)

    for _ in range(config.epochs):
        grad = _residual(probs, labels).T @ xb / n + config.l2 * weights
        while True:
            candidate = weights - lr * grad
            new_loss, new_probs = _loss(candidate, xb, labels, config.l2)
            if new_loss <= loss:
                weights, loss, probs = candidate, new_loss, new_probs
                break
            lr *= 0.5
            halvings += 1
            if halvings > config.max_halvings:
                return SurrogateModel(weights=weights, num_classes=c, config=config)
    return SurrogateModel(weights=weights, num_classes=c, config=config)


def predict_proba(model: SurrogateModel, features: np.ndarray) -> np.ndarray:
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != model.dim:
        raise ValueError(
            f"feature dim {features.shape[-1] if features.ndim else '?'} does not "
            f"match model dim {model.dim}"
        )
    return _softmax(_with_bias(features) @ model.weights.T)


def hypothesized_labels(model: SurrogateModel, features: np.ndarray) -> np.ndarray:
    """Argmax class per row; lowest class index on ties."""
    return np.argmax(predict_proba(model, features), axis=1)


def gradient_parts(
    model: SurrogateModel,
    features: np.ndarray,
    labels: Sequence[int],
) -> tuple[np.ndarray, np.ndarray]:
    """The two factors of each point's last-layer gradient: the residual
    p_i - e_{y_i} (n x C) and the biased input [x_i; 1] (n x (d+1)).

    Their per-row outer product is ``gradient_embeddings``; a kernel on
    the embedding can be built from the parts without forming it.
    """
    probs = predict_proba(model, features)
    labels = np.asarray(labels, dtype=np.intp)
    if labels.shape != (probs.shape[0],):
        raise ValueError("labels must align with feature rows")
    return _residual(probs, labels), _with_bias(np.asarray(features, dtype=np.float64))


def gradient_embeddings(
    model: SurrogateModel,
    features: np.ndarray,
    labels: Sequence[int],
) -> np.ndarray:
    """Per-point cross-entropy gradient w.r.t. the last layer.

    Row i is the flattening of (p_i - e_{y_i}) outer [x_i; 1], one block
    of d+1 values per class, so the embedding dimension is C * (d + 1).
    Pass true labels for labeled points and hypothesized labels for
    unlabeled ones.
    """
    resid, xb = gradient_parts(model, features, labels)
    emb = resid[:, :, None] * xb[:, None, :]
    return emb.reshape(len(resid), model.num_classes * xb.shape[1])


def uncertainty(model: SurrogateModel, features: np.ndarray) -> UncertaintyScores:
    """Entropy, top-two margin, and least-confidence per point."""
    from scipy.special import xlogy  # only the uncertainty baselines need scipy

    probs = predict_proba(model, features)
    entropy = -xlogy(probs, probs).sum(axis=1)
    top2 = np.partition(probs, -2, axis=1)[:, -2:]
    margin = top2[:, 1] - top2[:, 0]
    least_conf = 1.0 - probs.max(axis=1)
    return UncertaintyScores(entropy=entropy, margin=margin, least_confidence=least_conf)
