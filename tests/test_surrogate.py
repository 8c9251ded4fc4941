import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submodal.scenarios import make_blobs
from submodal.surrogate import (
    SurrogateModel,
    _softmax,
    TrainConfig,
    gradient_embeddings,
    hypothesized_labels,
    predict_proba,
    train,
    uncertainty,
)


@pytest.fixture(scope="module")
def blob_model():
    x, y = make_blobs([50, 50], dim=8, spread=0.5, seed=3)
    return train(x, y, TrainConfig(seed=0)), x, y


def zero_model(num_classes, dim):
    return SurrogateModel(
        weights=np.zeros((num_classes, dim + 1)), num_classes=num_classes, config=TrainConfig()
    )


class TestTrain:
    def test_separable_blobs_reach_high_accuracy(self, blob_model):
        model, x, y = blob_model
        acc = np.mean(hypothesized_labels(model, x) == y)
        assert acc >= 0.98

    def test_single_class_rejected(self):
        x = np.random.default_rng(0).standard_normal((10, 3))
        with pytest.raises(ValueError, match="two classes"):
            train(x, np.zeros(10, dtype=int))

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            train(np.zeros((0, 3)), np.zeros(0, dtype=int))

    def test_labels_out_of_range_rejected(self):
        x = np.random.default_rng(0).standard_normal((4, 2))
        with pytest.raises(ValueError, match="labels"):
            train(x, [0, 1, 2, 5], num_classes=3)

    def test_same_seed_gives_identical_weights(self, rng):
        x, y = make_blobs([30, 30, 30], dim=6, spread=0.5, seed=5)
        a = train(x, y, TrainConfig(seed=11, epochs=50))
        b = train(x, y, TrainConfig(seed=11, epochs=50))
        assert np.array_equal(a.weights, b.weights)

    def test_permuting_rows_leaves_weights_unchanged(self, rng):
        x, y = make_blobs([30, 30], dim=5, spread=0.5, seed=6)
        perm = rng.permutation(len(y))
        a = train(x, y, TrainConfig(seed=4, epochs=80))
        b = train(x[perm], y[perm], TrainConfig(seed=4, epochs=80))
        assert np.allclose(a.weights, b.weights, atol=1e-9)

    def test_loss_decreases_or_lr_halves(self, rng):
        # adversarial lr: training still ends with a usable model
        x, y = make_blobs([20, 20], dim=4, spread=0.5, seed=7)
        model = train(x, y, TrainConfig(learning_rate=50.0, epochs=40, seed=1))
        assert np.all(np.isfinite(model.weights))


def reference_train(x, y, config, num_classes):
    """``train`` as a plain loop that recomputes the softmax of the
    current weights at the start of every epoch."""
    xb = np.hstack([x, np.ones((x.shape[0], 1))])
    n = xb.shape[0]
    onehot = np.zeros((n, num_classes))
    onehot[np.arange(n), y] = 1.0

    def loss(w):
        probs = _softmax(xb @ w.T)
        ce = -np.mean(np.log(np.maximum((probs * onehot).sum(axis=1), 1e-300)))
        return float(ce + 0.5 * config.l2 * np.sum(w * w))

    weights = 0.01 * np.random.default_rng(config.seed).standard_normal((num_classes, xb.shape[1]))
    lr, halvings, current, epochs = config.learning_rate, 0, loss(weights), 0
    for _ in range(config.epochs):
        grad = (_softmax(xb @ weights.T) - onehot).T @ xb / n + config.l2 * weights
        while True:
            candidate = weights - lr * grad
            new = loss(candidate)
            if new <= current:
                weights, current = candidate, new
                break
            lr *= 0.5
            halvings += 1
            if halvings > config.max_halvings:
                return weights, halvings, epochs
        epochs += 1
    return weights, halvings, epochs


class TestTrainMatchesReferenceLoop:
    @pytest.mark.parametrize(
        "config,halved,stopped",
        [
            (TrainConfig(seed=2, epochs=60), False, False),
            (TrainConfig(learning_rate=50.0, epochs=40, seed=1), True, False),
            (TrainConfig(learning_rate=1e4, epochs=40, seed=3, max_halvings=2), True, True),
        ],
    )
    def test_weights_are_bit_equal(self, config, halved, stopped):
        x, y = make_blobs([20, 25, 15], dim=4, spread=0.8, seed=5)
        want, halvings, epochs = reference_train(x, y, config, 3)
        assert (halvings > 0, epochs < config.epochs) == (halved, stopped)
        assert np.array_equal(train(x, y, config).weights, want)


class TestPredict:
    def test_zero_weights_give_uniform_rows(self):
        probs = predict_proba(zero_model(4, 3), np.ones((5, 3)))
        assert np.allclose(probs, 0.25)

    def test_rows_form_probability_simplex(self, blob_model):
        model, x, _ = blob_model
        probs = predict_proba(model, x)
        assert np.all(probs >= 0)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_large_logit_dominates_monotonically(self):
        got = []
        for logit in [0.0, 2.0, 5.0, 10.0, 20.0, 50.0]:
            w = np.zeros((3, 3))
            w[1, 2] = logit  # bias pushes class 1
            model = SurrogateModel(w, 3, TrainConfig())
            got.append(predict_proba(model, np.zeros((1, 2)))[0, 1])
        assert all(b > a for a, b in zip(got, got[1:]))
        assert got[-1] == pytest.approx(1.0, abs=1e-12)

    def test_dim_mismatch_rejected(self, blob_model):
        model, _, _ = blob_model
        with pytest.raises(ValueError, match="dim"):
            predict_proba(model, np.ones((2, 9)))


class TestHypothesizedLabels:
    def test_uniform_probabilities_break_to_class_zero(self):
        labels = hypothesized_labels(zero_model(5, 2), np.ones((3, 2)))
        assert np.all(labels == 0)

    def test_confident_row_maps_to_its_class(self):
        model = zero_model(3, 2)
        w = model.weights.copy()
        w[2, 2] = 30.0
        labels = hypothesized_labels(SurrogateModel(w, 3, model.config), np.zeros((2, 2)))
        assert np.all(labels == 2)

    def test_label_maximizes_probability_row(self, blob_model):
        model, x, _ = blob_model
        probs = predict_proba(model, x)
        labels = hypothesized_labels(model, x)
        assert np.all(probs[np.arange(len(x)), labels] == probs.max(axis=1))


class TestGradientEmbeddings:
    def test_embedding_dimension(self, blob_model):
        model, x, y = blob_model
        emb = gradient_embeddings(model, x[:7], y[:7])
        d = x.shape[1]
        assert emb.shape == (7, model.num_classes * (d + 1))

    def test_fully_confident_correct_prediction_has_zero_gradient(self):
        model = zero_model(2, 2)
        w = model.weights.copy()
        w[1, 2] = 1000.0  # softmax saturates exactly in float64
        model = SurrogateModel(w, 2, model.config)
        emb = gradient_embeddings(model, np.zeros((1, 2)), [1])
        assert np.all(emb == 0.0)

    def test_matches_central_finite_differences(self, rng):
        x, y = make_blobs([25, 25, 25], dim=4, spread=0.6, seed=9)
        model = train(x, y, TrainConfig(epochs=60, seed=2))
        pick = rng.choice(len(y), size=20, replace=False)
        emb = gradient_embeddings(model, x[pick], y[pick])
        step = 1e-6
        for row, i in enumerate(pick):
            numeric = np.zeros_like(model.weights)
            for a in range(model.weights.shape[0]):
                for b in range(model.weights.shape[1]):
                    wp = model.weights.copy()
                    wm = model.weights.copy()
                    wp[a, b] += step
                    wm[a, b] -= step
                    pp = predict_proba(SurrogateModel(wp, 3, model.config), x[i : i + 1])
                    pm = predict_proba(SurrogateModel(wm, 3, model.config), x[i : i + 1])
                    numeric[a, b] = (-np.log(pp[0, y[i]]) + np.log(pm[0, y[i]])) / (2 * step)
            flat = numeric.ravel()
            # vector-scale relative error: per-entry relative error on
            # near-zero entries is dominated by finite-difference roundoff
            rel = np.abs(emb[row] - flat).max() / max(np.abs(flat).max(), 1e-8)
            assert rel < 1e-5

    def test_label_alignment_enforced(self, blob_model):
        model, x, _ = blob_model
        with pytest.raises(ValueError, match="align"):
            gradient_embeddings(model, x[:4], [0, 1])

    def test_extra_class_grows_embedding_and_keeps_uniform_ordering(self):
        x = np.ones((3, 4))
        base = zero_model(5, 4)
        extended = zero_model(6, 4)
        assert gradient_embeddings(base, x, [0] * 3).shape[1] == 5 * 5
        assert gradient_embeddings(extended, x, [0] * 3).shape[1] == 6 * 5
        pb = predict_proba(base, x)
        pe = predict_proba(extended, x)
        # at zero weights every in-distribution class stays tied
        assert np.allclose(pb[:, :5], 1 / 5)
        assert np.allclose(pe[:, :5], 1 / 6)


class TestUncertainty:
    def test_uniform_row_entropy_is_log_c(self):
        scores = uncertainty(zero_model(10, 2), np.ones((1, 2)))
        assert scores.entropy[0] == pytest.approx(np.log(10), rel=1e-12)

    def test_one_hot_row(self):
        model = zero_model(3, 2)
        w = model.weights.copy()
        w[0, 2] = 1000.0
        scores = uncertainty(SurrogateModel(w, 3, model.config), np.zeros((1, 2)))
        assert scores.entropy[0] == pytest.approx(0.0, abs=1e-12)
        assert scores.margin[0] == pytest.approx(1.0)
        assert scores.least_confidence[0] == pytest.approx(0.0)

    def test_binary_row_arithmetic(self):
        # logit gap ln(0.6/0.4) produces the (0.6, 0.4) row
        model = zero_model(2, 1)
        w = model.weights.copy()
        w[0, 1] = np.log(0.6 / 0.4)
        scores = uncertainty(SurrogateModel(w, 2, model.config), np.zeros((1, 1)))
        assert scores.margin[0] == pytest.approx(0.2, rel=1e-12)
        assert scores.least_confidence[0] == pytest.approx(0.4, rel=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), c=st.integers(2, 8))
    def test_score_ranges(self, seed, c):
        g = np.random.default_rng(seed)
        model = SurrogateModel(g.standard_normal((c, 4)), c, TrainConfig())
        scores = uncertainty(model, g.standard_normal((20, 3)))
        assert np.all(scores.entropy >= -1e-12)
        assert np.all(scores.entropy <= np.log(c) + 1e-12)
        assert np.all((scores.margin >= -1e-12) & (scores.margin <= 1.0))
        assert np.all(
            (scores.least_confidence >= -1e-12)
            & (scores.least_confidence <= 1.0 - 1.0 / c + 1e-12)
        )
