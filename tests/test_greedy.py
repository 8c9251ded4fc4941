import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submodal.functions import SUBMODULAR, InfoFunction, evaluate, from_joint
from submodal.greedy import (
    GreedyConfig,
    SelectionResult,
    default_variant,
    exhaustive_opt,
    greedy_select,
    partition_sizes,
    partitioned_select,
    plan,
    stochastic_sample_size,
)
from tests.conftest import cosine_block, rescaled_cosine


def modular(weights):
    """GCMI with one query column encodes an arbitrary modular objective."""
    return InfoFunction(kind="gcmi", uq=0.5 * np.asarray(weights, dtype=float)[:, None])


class TestConfig:
    def test_rejects_bad_variant(self):
        with pytest.raises(ValueError, match="variant"):
            GreedyConfig(budget=2, variant="greedy")

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError, match="budget"):
            GreedyConfig(budget=0)

    def test_rejects_epsilon_outside_unit_interval(self):
        with pytest.raises(ValueError, match="epsilon"):
            GreedyConfig(budget=2, epsilon=1.5)

    def test_rejects_more_partitions_than_budget(self):
        with pytest.raises(ValueError, match="partition"):
            GreedyConfig(budget=2, partitions=3)

    def test_default_variant_switches_at_threshold(self):
        assert default_variant(20000) == "lazy"
        assert default_variant(20001) == "stochastic"


class TestPlan:
    @pytest.mark.parametrize("kind", ["logdet", "logdetmi", "logdetcg", "logdetcmi"])
    def test_auto_runs_logdet_kinds_naive_at_every_size(self, kind):
        for n in (1000, 50000):
            assert plan(kind, n, 125).variant == "naive"

    def test_auto_runs_other_kinds_lazy_then_stochastic(self):
        assert plan("flcmi", 14000, 125).variant == "lazy"
        assert plan("flcmi", 50000, 125, partitions=1).variant == "stochastic"

    def test_explicit_variant_is_kept(self):
        assert plan("logdetmi", 1000, 125, "stochastic").variant == "stochastic"

    def test_logdet_kinds_never_partition(self):
        for kind in ("logdetmi", "gc", "gccg", "flqmi"):
            assert plan(kind, 50000, 500).partitions == 1
        assert plan("fl", 50000, 500).partitions == 3

    def test_fl_chunks_below_the_threshold_run_lazy(self):
        cfg = plan("fl", 50000, 500)
        assert (cfg.partitions, cfg.variant) == (3, "lazy")  # chunks of 16667

    def test_one_gc_partition_runs_stochastic(self):
        cfg = plan("gc", 50000, 500)
        assert (cfg.partitions, cfg.variant) == (1, "stochastic")

    def test_explicit_partitions_are_clamped_to_budget_and_ground(self):
        assert plan("fl", 100, 10, partitions=50).partitions == 10
        cfg = plan("fl", 5, 10, partitions=50)
        assert (cfg.budget, cfg.partitions) == (5, 5)

    @pytest.mark.parametrize("kind", ["logdetmi", "logdetcmi"])
    def test_explicit_lazy_runs_naive_where_it_is_not_exact(self, kind):
        assert plan(kind, 1000, 125, "lazy").variant == "naive"
        assert plan("logdetcg", 1000, 125, "lazy").variant == "lazy"

    def test_seed_and_epsilon_pass_through(self):
        cfg = plan("gc", 100, 10, "stochastic", 2, 0.2, 7)
        assert (cfg.epsilon, cfg.seed, cfg.partitions) == (0.2, 7, 2)


class TestGreedySelect:
    def test_modular_weights_take_top_budget(self):
        res = greedy_select(modular([3.0, 1.0, 2.0]), GreedyConfig(budget=2, variant="naive"))
        assert res.chosen == (0, 2)
        assert res.gains == (3.0, 2.0)

    def test_naive_and_lazy_identical_on_k3(self):
        k3 = np.array([[1.0, 0.5, 0.2], [0.5, 1.0, 0.4], [0.2, 0.4, 1.0]])
        f = from_joint("flvmi", k3, query=[2], eps=0.0)
        a = greedy_select(f, GreedyConfig(budget=2, variant="naive"))
        b = greedy_select(f, GreedyConfig(budget=2, variant="lazy"))
        assert a.chosen == b.chosen
        assert a.gains == b.gains

    def test_naive_lazy_bit_identical_on_monotone_instances(self, rng):
        for _ in range(60):
            joint = rescaled_cosine(rng, 14, d=5)
            for kind, kw in [
                ("flvmi", dict(query=[12, 13])),
                ("flqmi", dict(query=[12, 13])),
                ("gcmi", dict(query=[12, 13])),
                ("flcg", dict(conditioning=[12, 13])),
            ]:
                f = from_joint(kind, joint, **kw)
                a = greedy_select(f, GreedyConfig(budget=3, variant="naive"))
                b = greedy_select(f, GreedyConfig(budget=3, variant="lazy"))
                assert a.chosen == b.chosen
                assert a.gains == b.gains

    def test_lazy_runs_naive_where_it_is_not_exact(self, rng):
        joint = rescaled_cosine(rng, 30)
        f = from_joint("logdetmi", joint, query=[28, 29])
        lazy = greedy_select(f, GreedyConfig(budget=6, variant="lazy"))
        naive = greedy_select(f, GreedyConfig(budget=6, variant="naive"))
        assert (lazy.variant, naive.variant) == ("naive", "naive")
        assert (lazy.chosen, lazy.gains, lazy.evaluations) == (
            naive.chosen, naive.gains, naive.evaluations,
        )
        flvmi = from_joint("flvmi", joint, query=[28, 29])
        assert greedy_select(flvmi, GreedyConfig(budget=6, variant="lazy")).variant == "lazy"

    def test_sample_size_formula(self):
        assert stochastic_sample_size(1000, 10, 0.01) == 461

    def test_budget_above_ground_selects_all_with_warning(self):
        f = modular([1.0, 2.0])
        with pytest.warns(UserWarning, match="selecting all"):
            res = greedy_select(f, GreedyConfig(budget=5, variant="naive"))
        assert sorted(res.chosen) == [0, 1]

    def test_value_equals_sum_of_gains(self, rng):
        joint = rescaled_cosine(rng, 10)
        f = from_joint("logdetmi", joint, query=[8, 9])
        res = greedy_select(f, GreedyConfig(budget=4, variant="lazy"))
        assert res.value == pytest.approx(sum(res.gains), rel=1e-9)
        assert len(res.chosen) == 4

    def test_stochastic_deterministic_under_seed(self, rng):
        joint = rescaled_cosine(rng, 40)
        f = from_joint("flvmi", joint, query=[38, 39])
        cfg = GreedyConfig(budget=5, variant="stochastic", seed=123)
        a = greedy_select(f, cfg)
        b = greedy_select(f, cfg)
        assert a.chosen == b.chosen
        assert a.gains == b.gains
        assert a.value == b.value
        assert a.evaluations == b.evaluations


class TestExhaustive:
    def test_modular_top_budget(self):
        res = exhaustive_opt(modular([5.0, 1.0, 4.0, 2.0]), 2)
        assert res.chosen == (0, 2)

    def test_full_set_when_budget_equals_ground(self):
        res = exhaustive_opt(modular([1.0, 1.0, 1.0]), 3)
        assert res.chosen == (0, 1, 2)

    def test_optimum_dominates_greedy(self, rng):
        for _ in range(10):
            joint = rescaled_cosine(rng, 12, d=4)
            f = from_joint("flvmi", joint, query=[10, 11])
            greedy = greedy_select(f, GreedyConfig(budget=3, variant="naive"))
            opt = exhaustive_opt(f, 3)
            assert opt.value >= greedy.value - 1e-12

    def test_oversized_instance_rejected(self):
        f = modular(np.ones(60))
        with pytest.raises(ValueError, match="enumeration"):
            exhaustive_opt(f, 20)


class TestPartitioned:
    def test_quota_arithmetic(self):
        assert partition_sizes(7, 3) == [3, 2, 2]
        assert partition_sizes(25000, 50) == [500] * 50
        assert partition_sizes(10, 3) == [4, 3, 3]

    def test_single_partition_matches_greedy_select(self, rng):
        joint = rescaled_cosine(rng, 12)
        q = [10, 11]
        f = from_joint("flvmi", joint, query=q)
        direct = greedy_select(f, GreedyConfig(budget=3, variant="lazy"))

        def make(ids):
            return InfoFunction(
                kind="flvmi", uu=joint[np.ix_(ids, ids)], uq=joint[ids][:, q]
            )

        part = partitioned_select(make, 12, GreedyConfig(budget=3, variant="lazy"))
        assert part.chosen == direct.chosen
        assert part.gains == direct.gains

    def test_result_records_the_variant_its_chunks_ran(self, rng):
        joint = rescaled_cosine(rng, 24)
        q = [22, 23]

        def make(kind):
            return lambda ids: from_joint(kind, joint[np.ix_(ids, ids)])

        cfg = GreedyConfig(budget=6, variant="lazy", partitions=3, seed=5)
        assert partitioned_select(make("fl"), 24, cfg).variant == "lazy"
        assert partitioned_select(make("logdet"), 24, cfg).variant == "lazy"

        def make_mi(ids):
            return InfoFunction(
                kind="logdetmi", uu=joint[np.ix_(ids, ids)], uq=joint[ids][:, q],
                qq=joint[np.ix_(q, q)],
            )

        assert partitioned_select(make_mi, 24, cfg).variant == "naive"

    def test_result_records_the_largest_chunk_block(self, rng):
        joint = rescaled_cosine(rng, 25)
        built = []

        def make(ids):
            built.append(from_joint("fl", joint[np.ix_(ids, ids)]))
            return built[-1]

        res = partitioned_select(make, 25, GreedyConfig(budget=6, partitions=3, seed=1))
        assert res.block_bytes == max(f.block_bytes for f in built) == 9 * 9 * 8
        assert greedy_select(built[0], GreedyConfig(budget=2)).block_bytes == 9 * 9 * 8
        gc = from_joint("gc", joint)
        assert greedy_select(gc, GreedyConfig(budget=2)).block_bytes == 0

    @pytest.mark.parametrize("kind, variant", [("logdet", "lazy"), ("fl", "naive")])
    def test_result_combines_its_chunks_by_the_totals_rule(self, rng, kind, variant):
        # Every point twice over a rank-4 kernel: with eps = 0 the log-det
        # chunks pick past the rank and clamp pivots to the floor.
        base = rescaled_cosine(rng, 12, d=3)
        joint = base[np.ix_(np.arange(25) % 12, np.arange(25) % 12)]
        built = []

        def make(ids):
            built.append((ids, from_joint(kind, joint[np.ix_(ids, ids)], eps=0.0)))
            return built[-1][1]

        cfg = GreedyConfig(budget=18, variant=variant, partitions=3, seed=4)
        res = partitioned_select(make, 25, cfg)
        own = [greedy_select(f, GreedyConfig(budget=6, variant=variant)) for _, f in built]
        value = 0.0
        for r in own:
            value += r.value
        assert len(built) == 3
        assert res.value == value
        assert res.evaluations == sum(r.evaluations for r in own)
        assert res.pivot_floor_hits == sum(r.pivot_floor_hits for r in own)
        assert res.block_bytes == max(r.block_bytes for r in own)
        assert res.gains == tuple(g for r in own for g in r.gains)
        assert res.chosen == tuple(int(ids[c]) for (ids, _), r in zip(built, own) for c in r.chosen)
        assert {r.variant for r in own} == {res.variant} == {variant}
        if kind == "logdet":
            assert res.pivot_floor_hits > 0
        else:
            assert res.block_bytes == 9 * 9 * 8 < sum(r.block_bytes for r in own)

    def test_empty_ground_set_gives_an_empty_result_with_the_configured_variant(self):
        built = []
        cfg = GreedyConfig(budget=3, variant="stochastic", partitions=3)
        with pytest.warns(UserWarning, match="selecting all"):
            res = partitioned_select(built.append, 0, cfg)
        assert built == []
        assert res == SelectionResult((), (), 0.0, 0, 0, "stochastic", 0)

    def test_returns_exact_budget_without_duplicates(self, rng):
        joint = rescaled_cosine(rng, 30)
        q = [28, 29]

        def make(ids):
            return InfoFunction(
                kind="flvmi", uu=joint[np.ix_(ids, ids)], uq=joint[ids][:, q]
            )

        cfg = GreedyConfig(budget=10, variant="lazy", partitions=4, seed=7)
        res = partitioned_select(make, 30, cfg)
        assert len(res.chosen) == 10
        assert len(set(res.chosen)) == 10
        assert all(0 <= i < 30 for i in res.chosen)

    def test_deterministic_under_seed(self, rng):
        joint = rescaled_cosine(rng, 24)

        def make(ids):
            return InfoFunction(kind="fl", uu=joint[np.ix_(ids, ids)])

        cfg = GreedyConfig(budget=6, variant="lazy", partitions=3, seed=99)
        a = partitioned_select(make, 24, cfg)
        b = partitioned_select(make, 24, cfg)
        assert a.chosen == b.chosen and a.gains == b.gains

    def test_more_partitions_than_points_degrades_gracefully(self):
        # budget capped to n leaves trailing chunks with zero size and
        # zero quota; they contribute nothing
        def make(ids):
            return InfoFunction(kind="fl", uu=np.eye(len(ids)))

        with pytest.warns(UserWarning, match="selecting all"):
            res = partitioned_select(make, 2, GreedyConfig(budget=3, partitions=3))
        assert sorted(res.chosen) == [0, 1]


class TestApproximationBound:
    def test_one_minus_inverse_e_on_monotone_instances(self, rng):
        bound = 1.0 - 1.0 / math.e
        for _ in range(30):
            joint = rescaled_cosine(rng, 12, d=4)
            for kind, kw in [
                ("flvmi", dict(query=[10, 11])),
                ("gcmi", dict(query=[10, 11])),
            ]:
                f = from_joint(kind, joint, **kw)
                greedy = greedy_select(f, GreedyConfig(budget=3, variant="naive"))
                opt = exhaustive_opt(f, 3)
                assert greedy.value >= bound * opt.value


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), budget=st.integers(1, 6))
def test_greedy_selection_size_property(seed, budget):
    g = np.random.default_rng(seed)
    joint = rescaled_cosine(g, 9, d=4)
    f = from_joint("flvmi", joint, query=[8])
    res = greedy_select(f, GreedyConfig(budget=budget, variant="lazy"))
    assert len(res.chosen) == min(budget, 9)
    assert len(res.gains) == len(res.chosen)


@pytest.mark.parametrize("kind", sorted(SUBMODULAR))
@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(4, 14),
    budget=st.integers(2, 8),
    dups=st.integers(0, 3),
)
def test_lazy_equals_naive_on_every_submodular_kind_property(kind, seed, n, budget, dups):
    # lazy greedy is exact where gains never rise: same picks, same floats
    g = np.random.default_rng(seed)
    x = g.standard_normal((n + 4, 5))
    for _ in range(dups):
        x[g.integers(n + 4)] = x[g.integers(n + 4)]
    f = from_joint(kind, cosine_block(x), query=[n, n + 1], conditioning=[n + 2, n + 3])
    budget = min(budget, n + 4)
    lazy = greedy_select(f, GreedyConfig(budget=budget, variant="lazy"))
    naive = greedy_select(f, GreedyConfig(budget=budget, variant="naive"))
    assert (lazy.chosen, lazy.gains) == (naive.chosen, naive.gains)
