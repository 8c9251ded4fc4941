import hashlib

import numpy as np
import pytest

from submodal.scenarios import (
    OODSplitConfig,
    RareSplitConfig,
    RedundantSplitConfig,
    StandardSplitConfig,
    baseline_select,
    build_ood_split,
    build_rare_split,
    build_redundant_split,
    build_standard_split,
    make_blobs,
    update_ood_sets,
)
from submodal.surrogate import SurrogateModel, TrainConfig, hypothesized_labels, train


def class_counts(labels, idx, num_classes):
    return np.bincount(labels[idx], minlength=num_classes)


class TestMakeBlobs:
    def test_same_seed_reproduces_features(self):
        a, _ = make_blobs([10, 10], dim=4, spread=0.5, seed=42)
        b, _ = make_blobs([10, 10], dim=4, spread=0.5, seed=42)
        assert np.array_equal(a, b)

    def test_zero_count_class_absent(self):
        _, labels = make_blobs([5, 0, 7], dim=3, spread=1.0, seed=1)
        assert set(labels.tolist()) == {0, 2}

    def test_separable_for_linear_model(self):
        x, y = make_blobs([50, 50], dim=8, spread=0.5, seed=2)
        model = train(x, y, TrainConfig(seed=0))
        assert np.mean(hypothesized_labels(model, x) == y) >= 0.98

    def test_class_means_on_sphere_of_radius_four_spread(self):
        x, y = make_blobs([4000], dim=16, spread=0.7, seed=3)
        assert np.linalg.norm(x[y == 0].mean(axis=0)) == pytest.approx(4 * 0.7, rel=0.05)

    def test_mean_seed_fixes_geometry_across_point_streams(self):
        a, _ = make_blobs([200], dim=8, spread=0.5, seed=1, mean_seed=9)
        b, _ = make_blobs([200], dim=8, spread=0.5, seed=2, mean_seed=9)
        assert not np.array_equal(a, b)
        assert np.allclose(a.mean(axis=0), b.mean(axis=0), atol=0.25)

    def test_rejects_dim_below_two(self):
        with pytest.raises(ValueError, match="dim"):
            make_blobs([3], dim=1, spread=1.0, seed=0)

    @pytest.mark.parametrize("spread", [0.0, -0.5])
    def test_rejects_a_spread_that_is_not_positive(self, spread):
        with pytest.raises(ValueError, match=f"spread must be > 0, got {spread}"):
            make_blobs([3], dim=2, spread=spread, seed=0)


class TestRareSplit:
    def test_cifar_layout_counts_rho_twenty(self):
        split = build_rare_split(RareSplitConfig(rho=20.0, seed=0))
        C = split.num_classes
        lab = class_counts(split.labels, split.labeled, C)
        val = class_counts(split.labels, split.validation, C)
        unl = class_counts(split.labels, split.unlabeled, C)
        rq = class_counts(split.labels, split.rare_query, C)
        for cls in range(C):
            if cls in split.rare_classes:
                assert (lab[cls], val[cls], unl[cls], rq[cls]) == (3, 5, 150, 3)
            else:
                assert (lab[cls], val[cls], unl[cls], rq[cls]) == (22, 5, 3000, 0)

    def test_rho_hundred_unlabeled_ratio(self):
        split = build_rare_split(
            RareSplitConfig(rho=100.0, unlabeled_common=4000, seed=0)
        )
        unl = class_counts(split.labels, split.unlabeled, split.num_classes)
        assert unl[split.rare_classes[0]] == 40
        assert unl[0] == 4000

    def test_rho_one_balances_unlabeled_and_keeps_rare_queries(self):
        split = build_rare_split(RareSplitConfig(rho=1.0, unlabeled_common=50, seed=0))
        unl = class_counts(split.labels, split.unlabeled, split.num_classes)
        assert unl[0] == unl[split.rare_classes[0]] == 50
        assert len(split.rare_query) == 3 * len(split.rare_classes)

    def test_rho_below_one_rejected(self):
        with pytest.raises(ValueError, match="imbalance"):
            build_rare_split(RareSplitConfig(rho=0.5))

    def test_role_sets_disjoint(self):
        split = build_rare_split(RareSplitConfig(rho=5.0, unlabeled_common=40, seed=1))
        all_idx = np.concatenate(
            [split.labeled, split.unlabeled, split.validation, split.rare_query]
        )
        assert len(all_idx) == len(np.unique(all_idx)) == len(split.labels)


class TestRedundantSplit:
    def test_paper_arithmetic_rf_ten(self):
        split = build_redundant_split(RedundantSplitConfig(seed=0))
        assert len(split.unlabeled) == 14000
        originals = split.duplication_map[split.unlabeled]
        dup_rows = sum(
            np.count_nonzero(originals == o)
            for o in np.unique(originals)
            if np.count_nonzero(originals == o) > 1
        )
        assert dup_rows == 10000
        assert len(np.unique(originals)) == 5000

    def test_small_layout_rf_twenty(self):
        split = build_redundant_split(
            RedundantSplitConfig(unique_count=500, redundancy_factor=20, labeled_count=50, seed=0)
        )
        assert len(split.unlabeled) == 2400
        originals = split.duplication_map[split.unlabeled]
        multi = [o for o in np.unique(originals) if np.count_nonzero(originals == o) > 1]
        assert sum(np.count_nonzero(originals == o) for o in multi) == 2000

    def test_rf_one_creates_no_copies(self):
        split = build_redundant_split(RedundantSplitConfig(unique_count=100, redundancy_factor=1, labeled_count=20, seed=0))
        assert len(split.unlabeled) == 100
        assert np.array_equal(split.duplication_map, np.arange(len(split.labels)))

    def test_copies_share_exact_features_and_kernel_rows(self):
        split = build_redundant_split(
            RedundantSplitConfig(unique_count=60, redundancy_factor=3, labeled_count=10, seed=0)
        )
        copies = np.where(split.duplication_map != np.arange(len(split.labels)))[0]
        assert len(copies) > 0
        for c in copies[:10]:
            o = split.duplication_map[c]
            assert np.array_equal(split.features[c], split.features[o])
            assert split.labels[c] == split.labels[o]

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError, match="dup_fraction"):
            build_redundant_split(RedundantSplitConfig(dup_fraction=1.5))


class TestOODSplit:
    def test_cifar_layout_sizes(self):
        split = build_ood_split(OODSplitConfig(seed=0))
        assert len(split.labeled) == 1600
        assert len(split.unlabeled) == 500 * 8 + 5000 * 2
        assert len(split.labeled_id) == 40

    def test_small_layout_sizes(self):
        split = build_ood_split(
            OODSplitConfig(labeled_per_id=5, unlabeled_per_id=50, valid_per_id=2, seed=0)
        )
        assert len(split.labeled) == 40
        assert len(split.labeled_id) == 16

    def test_initial_labeled_set_is_pure_id(self):
        split = build_ood_split(OODSplitConfig(seed=1))
        assert not np.isin(split.labels[split.labeled], split.ood_classes).any()
        assert len(split.labeled_ood) == 0

    def test_zero_ood_reduces_to_standard(self):
        split = build_ood_split(OODSplitConfig(num_ood_classes=0, seed=0))
        assert split.ood_classes == ()
        assert split.num_model_classes == split.num_classes


class TestUpdateOODSets:
    @pytest.fixture
    def split(self):
        return build_ood_split(
            OODSplitConfig(labeled_per_id=5, unlabeled_per_id=20, unlabeled_per_ood=30, valid_per_id=2, seed=0)
        )

    def test_all_id_selection_leaves_ood_set_unchanged(self, split):
        ids = split.unlabeled[np.isin(split.labels[split.unlabeled], split.id_classes)][:4]
        out = update_ood_sets(split, ids)
        assert len(out.labeled_ood) == 0
        assert len(out.labeled_id) == len(split.labeled_id) + 4

    def test_all_ood_selection_leaves_id_set_unchanged(self, split):
        ids = split.unlabeled[np.isin(split.labels[split.unlabeled], split.ood_classes)][:4]
        out = update_ood_sets(split, ids)
        assert np.array_equal(out.labeled_id, split.labeled_id)
        assert len(out.labeled_ood) == 4

    def test_mixed_selection_grows_both(self, split):
        id_pick = split.unlabeled[np.isin(split.labels[split.unlabeled], split.id_classes)][:3]
        ood_pick = split.unlabeled[np.isin(split.labels[split.unlabeled], split.ood_classes)][:2]
        out = update_ood_sets(split, np.concatenate([id_pick, ood_pick]))
        assert len(out.labeled_id) == len(split.labeled_id) + 3
        assert len(out.labeled_ood) == len(split.labeled_ood) + 2

    def test_selection_outside_unlabeled_rejected(self, split):
        with pytest.raises(ValueError, match="unlabeled"):
            update_ood_sets(split, [int(split.labeled[0])])

    def test_partition_preserved_and_io_tracks_reveals(self, split):
        sel = split.unlabeled[:7]
        out = update_ood_sets(split, sel)
        everything = np.concatenate([out.labeled, out.unlabeled, out.validation, out.rare_query])
        assert len(everything) == len(np.unique(everything)) == len(out.labels)
        grown = np.setdiff1d(out.labeled, out.initial_labeled)
        assert np.array_equal(
            np.sort(np.concatenate([out.labeled_id, out.labeled_ood])),
            np.sort(np.concatenate([grown, split.validation])),
        )


class TestBaselineSelect:
    @pytest.fixture
    def split(self):
        return build_standard_split(
            StandardSplitConfig(num_classes=3, dim=4, labeled_per_class=5, unlabeled_per_class=20, seed=0)
        )

    def test_budget_equal_to_pool_returns_everything(self, split):
        model = SurrogateModel(np.zeros((3, 5)), 3, TrainConfig())
        for method in ("random", "entropy", "margin", "least_confidence"):
            sel = baseline_select(method, model, split, len(split.unlabeled), seed=0)
            assert np.array_equal(sel, np.sort(split.unlabeled))

    def test_uniform_model_entropy_takes_lowest_indices(self, split):
        model = SurrogateModel(np.zeros((3, 5)), 3, TrainConfig())
        sel = baseline_select("entropy", model, split, 7)
        assert np.array_equal(sel, np.sort(split.unlabeled)[:7])

    def test_random_reproducible(self, split):
        a = baseline_select("random", None, split, 9, seed=5)
        b = baseline_select("random", None, split, 9, seed=5)
        assert np.array_equal(a, b)

    def test_margin_takes_bottom_scores(self, split, rng):
        model = train(
            split.features[split.labeled], split.labels[split.labeled], TrainConfig(seed=0)
        )
        from submodal.surrogate import uncertainty

        pool = np.sort(split.unlabeled)
        scores = uncertainty(model, split.features[pool]).margin
        sel = baseline_select("margin", model, split, 5)
        cutoff = np.sort(scores)[4]
        assert np.all(scores[np.isin(pool, sel)] <= cutoff + 1e-12)

    def test_oversized_budget_warns_and_selects_all(self, split):
        with pytest.warns(UserWarning, match="selecting all"):
            sel = baseline_select("random", None, split, len(split.unlabeled) + 5, seed=0)
        assert len(sel) == len(split.unlabeled)

    def test_unknown_method_rejected(self, split):
        with pytest.raises(ValueError, match="baseline"):
            baseline_select("badge", None, split, 3)


# First 16 hex digits of the SHA-256 of each integer output, as int64
# bytes, at the builder's default config.  The layouts are pure integer
# bookkeeping, so any change to role order, counts or class order shows.
_EMPTY = "e3b0c44298fc1c14"
LAYOUT_DIGESTS = {
    "standard": (build_standard_split, StandardSplitConfig, {
        "labeled": "12eceef6fbd48c27", "unlabeled": "2b47130a2f5e78e5",
        "rare_query": _EMPTY, "validation": "771d45b145c855e8",
        "labeled_id": _EMPTY, "labeled_ood": _EMPTY,
        "labels": "dfaf13a2a58e50b4", "duplication_map": "96e3670f2962c8d1",
    }),
    "rare": (build_rare_split, RareSplitConfig, {
        "labeled": "512df92b8a407a3a", "unlabeled": "4c3fe3178b98a067",
        "rare_query": "fa06a714bfb79341", "validation": "dd23f2c7ee6cd738",
        "labeled_id": _EMPTY, "labeled_ood": _EMPTY,
        "labels": "37d9234ad0a2b365", "duplication_map": "e0327614b0369cde",
    }),
    "redundancy": (build_redundant_split, RedundantSplitConfig, {
        "labeled": "76962ad34eb6b4cc", "unlabeled": "33fa46c4a36fd3b3",
        "rare_query": _EMPTY, "validation": _EMPTY,
        "labeled_id": _EMPTY, "labeled_ood": _EMPTY,
        "labels": "e8704d1281d62bed", "duplication_map": "1ef8fedaf0e0a262",
    }),
    "ood": (build_ood_split, OODSplitConfig, {
        "labeled": "d772a1c8d1a5a3f3", "unlabeled": "9a6f116249b2e92b",
        "rare_query": _EMPTY, "validation": "f9db2a7642513511",
        "labeled_id": "f9db2a7642513511", "labeled_ood": _EMPTY,
        "labels": "8794d30d0d2dac3e", "duplication_map": "602825bb4ecb416f",
    }),
}


@pytest.mark.parametrize("scenario", sorted(LAYOUT_DIGESTS))
def test_default_layouts_pinned_by_digest(scenario):
    build, config, expected = LAYOUT_DIGESTS[scenario]
    split = build(config())
    got = {
        name: hashlib.sha256(np.asarray(getattr(split, name), dtype=np.int64).tobytes()).hexdigest()[:16]
        for name in expected
    }
    assert got == expected
