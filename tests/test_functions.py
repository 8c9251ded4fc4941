import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submodal.functions import (
    ALL_KINDS,
    FL_FAMILY,
    LOGDET_FAMILY,
    GroundTruthOracle,
    InfoFunction,
    NumericalError,
    canonical_kind,
    evaluate,
    from_joint,
    new_state,
)
from submodal.greedy import GreedyConfig, greedy_select
from submodal.similarity import FactoredKernel, cosine_block, cosine_factors
from tests.conftest import rescaled_cosine

K3 = np.array([[1.0, 0.5, 0.2], [0.5, 1.0, 0.4], [0.2, 0.4, 1.0]])

# which optional sets each kind consumes, for generic parametrized tests
NEEDS_Q = {"flvmi", "flqmi", "gcmi", "logdetmi", "flcmi", "logdetcmi", "div_gcmi"}
NEEDS_P = {"flcg", "gccg", "logdetcg", "flcmi", "logdetcmi"}


def build(kind, joint, q=None, p=None, **kw):
    return from_joint(
        kind,
        joint,
        query=q if kind in NEEDS_Q else None,
        conditioning=p if kind in NEEDS_P else None,
        **kw,
    )


def tol_for(kind, ref=1.0):
    if kind.startswith("logdet"):
        return 1e-6 * max(1.0, abs(ref))
    return 1e-9


class TestClosedFormsOnK3:
    """Hand-checked values on the 3x3 kernel with Q={2}, P={1}."""

    CASES = [
        ("flvmi", -math.log(0.96) * 0 + 0.8),
        ("gcmi", 0.4),
        ("logdetmi", -math.log(0.96)),
        ("flcg", 0.5),
        ("logdetcg", math.log(0.75)),
        ("gccg", -0.3),
        ("flcmi", 0.0),
    ]

    @pytest.mark.parametrize("kind,expected", CASES)
    def test_singleton_value(self, kind, expected):
        f = build(kind, K3, q=[2], p=[1], eps=0.0)
        assert evaluate(f, [0]) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_empty_selection_is_zero(self, kind):
        f = build(kind, K3, q=[2], p=[1], eps=0.0)
        assert evaluate(f, []) == 0.0

    def test_state_agrees_with_evaluate(self):
        for kind, expected in self.CASES:
            f = build(kind, K3, q=[2], p=[1], eps=0.0)
            st_ = new_state(f)
            st_.commit(0)
            assert st_.value == pytest.approx(expected, abs=1e-12)


class TestGains:
    def test_flvmi_gain_from_empty_equals_singleton_value(self):
        f = build("flvmi", K3, q=[2], eps=0.0)
        assert new_state(f).gain(0) == pytest.approx(0.8, abs=1e-12)

    def test_gcmi_gains_never_change(self, rng):
        joint = rescaled_cosine(rng, 9)
        f = build("gcmi", joint, q=[7, 8])
        state = new_state(f)
        before = [state.gain(x) for x in range(7)]
        state.commit(3)
        after = [state.gain(x) for x in range(7) if x != 3]
        assert before[:3] + before[4:] == after  # exact equality: modular

    def test_logdetmi_gain_matches_from_scratch_difference(self):
        f = build("logdetmi", K3, q=[2], eps=0.0)
        state = new_state(f)
        state.commit(0)
        want = evaluate(f, [0, 1]) - evaluate(f, [0])
        assert state.gain(1) == pytest.approx(want, rel=1e-9)

    def test_gain_on_chosen_index_rejected(self):
        f = build("flvmi", K3, q=[2])
        state = new_state(f)
        state.commit(0)
        with pytest.raises(ValueError, match="already selected"):
            state.gain(0)


class TestCommit:
    def test_duplicate_commit_rejected(self):
        f = build("fl", K3)
        state = new_state(f)
        state.commit(1)
        with pytest.raises(ValueError, match="already selected"):
            state.commit(1)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_commit_then_value_equals_evaluate(self, kind, rng):
        joint = rescaled_cosine(rng, 8)
        f = build(kind, joint, q=[6, 7], p=[4, 5])
        state = new_state(f)
        state.commit(0)
        state.commit(2)
        assert state.value == pytest.approx(
            evaluate(f, [0, 2]), abs=tol_for(kind), rel=tol_for(kind)
        )

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_hundred_random_commit_sequences(self, kind, rng):
        for _ in range(100):
            joint = rescaled_cosine(rng, 16 + 4)
            f = build(kind, joint, q=[16, 17], p=[18, 19])
            state = new_state(f)
            order = rng.permutation(16)[: rng.integers(1, 10)]
            for x in order:
                state.commit(int(x))
            ref = evaluate(f, order.tolist())
            assert abs(state.value - ref) <= tol_for(kind, ref)

    def test_full_commit_reaches_facility_location_total(self, rng):
        joint = rescaled_cosine(rng, 10)
        f = build("fl", joint)
        state = new_state(f)
        for x in range(10):
            state.commit(x)
        assert state.value == pytest.approx(joint.max(axis=1).sum(), rel=1e-12)


class TestDefinitionalIdentities:
    """Closed forms vs set-arithmetic composites on random kernels."""

    PAIRS = [
        ("flvmi", "fl", "smi"),
        ("gcmi", "gc", "smi"),
        ("logdetmi", "logdet", "smi"),
        ("flcg", "fl", "scg"),
        ("gccg", "gc", "scg"),
        ("logdetcg", "logdet", "scg"),
        ("flcmi", "fl", "scmi"),
        ("logdetcmi", "logdet", "scmi"),
    ]

    @pytest.mark.parametrize("kind,base,composite", PAIRS)
    def test_identity_on_random_kernels(self, kind, base, composite, rng):
        for _ in range(25):
            n = int(rng.integers(5, 11))
            joint = rescaled_cosine(rng, n, d=int(rng.integers(2, 8)))
            perm = rng.permutation(n)
            q = sorted(int(i) for i in perm[: rng.integers(1, 4)])
            p = sorted(int(i) for i in perm[3 : 3 + rng.integers(1, 4)])
            oracle = GroundTruthOracle(base, joint, eps=0.01 if base == "logdet" else 0.0)
            f = build(kind, joint, q=q, p=p, eps=0.01)
            pool = [i for i in range(n) if i not in q and i not in p]
            for r in range(len(pool) + 1):
                for A in combinations(pool, r):
                    if composite == "smi":
                        ref = oracle.smi(A, q)
                    elif composite == "scg":
                        ref = oracle.scg(A, p)
                    else:
                        ref = oracle.scmi(A, q, p)
                    assert abs(evaluate(f, A) - ref) <= tol_for(kind, ref)

    def test_flqmi_symmetric_exchange(self, rng):
        # swapping the roles of ground and query on the transposed
        # cross-kernel leaves the value unchanged
        uq = rng.uniform(0.0, 1.0, size=(7, 3))
        f1 = InfoFunction(kind="flqmi", uq=uq)
        for r in range(1, 5):
            sel = sorted(int(i) for i in rng.choice(7, size=r, replace=False))
            f2 = InfoFunction(kind="flqmi", uq=uq[sel, :].T)
            assert evaluate(f1, sel) == pytest.approx(
                evaluate(f2, range(3)), rel=1e-12
            )


class TestShapeProperties:
    SUBMODULAR = [k for k in ALL_KINDS if k not in ("logdetmi", "logdetcmi")]
    MONOTONE = ["flvmi", "flqmi", "gcmi", "flcg", "flcmi", "logdetmi", "logdetcmi"]

    def _trial_sets(self, rng, pool):
        pool = list(pool)
        rng.shuffle(pool)
        b_size = int(rng.integers(1, len(pool) - 1))
        B = pool[:b_size]
        A = B[: rng.integers(0, b_size + 1)]
        x = pool[b_size]
        return A, B, x

    @pytest.mark.parametrize("kind", SUBMODULAR)
    def test_diminishing_gains(self, kind, rng):
        # 500 random (A subset B, x) trials per kind on kernels up to n=12
        trials = 0
        while trials < 500:
            n = int(rng.integers(6, 13))
            joint = rescaled_cosine(rng, n, d=int(rng.integers(2, 9)))
            perm = rng.permutation(n)
            q = sorted(int(i) for i in perm[:2])
            p = sorted(int(i) for i in perm[2:4])
            f = build(kind, joint, q=q, p=p)
            pool = [i for i in range(n) if i not in q and i not in p]
            if len(pool) < 3:
                continue
            for _ in range(5):
                A, B, x = self._trial_sets(rng, pool)
                gain_a = evaluate(f, A + [x]) - evaluate(f, A)
                gain_b = evaluate(f, B + [x]) - evaluate(f, B)
                assert gain_a >= gain_b - 1e-8, (kind, A, B, x)
                trials += 1

    @pytest.mark.parametrize("kind", ["logdetmi", "logdetcmi"])
    def test_logdet_mi_kinds_are_not_submodular_witness(self, kind):
        # near-antipodal query/ground pair plus a shared neighbor exhibits
        # explaining-away: the gain grows after conditioning on the neighbor
        emb = np.array([[-1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, -1.0]])
        emb = emb / np.linalg.norm(emb, axis=1, keepdims=True)
        joint = 0.5 * (1.0 + emb @ emb.T)
        np.fill_diagonal(joint, 1.0)
        q = [2]
        p = [3] if kind == "logdetcmi" else None
        f = from_joint(kind, joint, query=q, conditioning=p)
        x = 0
        gain_empty = evaluate(f, [x])
        gain_after = evaluate(f, [1, x]) - evaluate(f, [1])
        assert gain_after > gain_empty + 1e-3

    @pytest.mark.parametrize("kind", MONOTONE)
    def test_monotone_kinds_have_nonnegative_gains(self, kind, rng):
        for _ in range(100):
            n = int(rng.integers(6, 13))
            joint = rescaled_cosine(rng, n, d=int(rng.integers(2, 9)))
            perm = rng.permutation(n)
            q = sorted(int(i) for i in perm[:2])
            p = sorted(int(i) for i in perm[2:4])
            f = build(kind, joint, q=q, p=p)
            pool = [i for i in range(n) if i not in q and i not in p]
            A = [pool[i] for i in range(rng.integers(0, len(pool) - 1))]
            x = pool[-1]
            assert evaluate(f, A + [x]) - evaluate(f, A) >= -1e-8

    @pytest.mark.parametrize("kind", ["gc", "gccg", "logdet", "logdetcg"])
    def test_nonmonotone_kinds_witnessed_by_negative_gain(self, kind, rng):
        found = False
        for _ in range(50):
            joint = rescaled_cosine(rng, 8, d=3)
            f = build(kind, joint, q=[6, 7], p=[6, 7])
            pool = [i for i in range(8) if i not in (6, 7)]
            for r in range(1, len(pool)):
                A = pool[:r]
                x = pool[r]
                if evaluate(f, A + [x]) - evaluate(f, A) < -1e-6:
                    found = True
                    break
            if found:
                break
        assert found, f"no negative gain witnessed for {kind}"


class TestReductions:
    def test_flcmi_with_empty_conditioning_equals_flvmi(self, rng):
        joint = rescaled_cosine(rng, 8)
        q = [6, 7]
        cmi = from_joint("flcmi", joint, query=q, conditioning=[])
        vmi = from_joint("flvmi", joint, query=q)
        for r in range(7):
            for A in combinations(range(6), r):
                assert evaluate(cmi, A) == pytest.approx(evaluate(vmi, A), abs=1e-12)

    def test_flcmi_with_ground_query_equals_flcg(self, rng):
        joint = rescaled_cosine(rng, 8)
        p = [6, 7]
        cmi = from_joint("flcmi", joint, query=list(range(8)), conditioning=p)
        cg = from_joint("flcg", joint, conditioning=p)
        for r in range(7):
            for A in combinations(range(6), r):
                assert evaluate(cmi, A) == pytest.approx(evaluate(cg, A), abs=1e-12)

    def test_logdetcmi_with_empty_conditioning_equals_logdetmi(self, rng):
        joint = rescaled_cosine(rng, 8)
        q = [6, 7]
        cmi = from_joint("logdetcmi", joint, query=q, conditioning=[])
        mi = from_joint("logdetmi", joint, query=q)
        for r in range(7):
            for A in combinations(range(6), r):
                ref = evaluate(mi, A)
                assert abs(evaluate(cmi, A) - ref) <= 1e-6 * max(1.0, abs(ref))


class TestValidation:
    def test_rectangular_kinds_need_only_the_cross_block(self, rng):
        uq = rng.uniform(size=(5, 2))
        f = InfoFunction(kind="flqmi", uq=uq)
        assert f.uu is None
        g = InfoFunction(kind="gcmi", uq=uq)
        assert g.uu is None

    def test_square_kinds_require_uu(self):
        with pytest.raises(ValueError, match="square"):
            InfoFunction(kind="flvmi", uq=np.ones((3, 1)))

    def test_missing_query_square_rejected_for_logdetmi(self, rng):
        joint = rescaled_cosine(rng, 5)
        with pytest.raises(ValueError):
            InfoFunction(kind="logdetmi", uu=joint, uq=joint[:, [4]], qq=None)

    @staticmethod
    def cmi_blocks(joint, q, p):
        return dict(
            uu=joint, uq=joint[:, q], up=joint[:, p],
            qq=joint[np.ix_(q, q)], pp=joint[np.ix_(p, p)], qp=joint[np.ix_(q, p)],
        )

    def test_logdetcmi_requires_a_nonempty_qp(self, rng):
        joint = rescaled_cosine(rng, 10)
        blocks = self.cmi_blocks(joint, [8], [9])
        f = InfoFunction("logdetcmi", **blocks)
        ref = from_joint("logdetcmi", joint, query=[8], conditioning=[9])
        assert evaluate(f, [0, 1, 2]) == evaluate(ref, [0, 1, 2])
        del blocks["qp"]
        with pytest.raises(ValueError, match=r"qp block of shape \(1, 1\) is required"):
            InfoFunction("logdetcmi", **blocks)

    def test_absent_block_accepted_when_empty(self, rng):
        joint = rescaled_cosine(rng, 10)
        f = InfoFunction("logdetcmi", uu=joint, uq=joint[:, [8]], qq=joint[np.ix_([8], [8])])
        assert f.up.shape == (10, 0) and f.pp.shape == (0, 0) and f.qp.shape == (1, 0)
        ref = from_joint("logdetcmi", joint, query=[8], conditioning=[])
        assert evaluate(f, [0, 1, 2]) == evaluate(ref, [0, 1, 2])

    @pytest.mark.parametrize(
        "name,bad,expected",
        [("qq", np.eye(3), (2, 2)), ("pp", np.eye(2), (1, 1)), ("qp", np.ones((2, 5)), (2, 1))],
    )
    def test_query_and_conditioning_blocks_must_match_their_sets(self, name, bad, expected, rng):
        blocks = self.cmi_blocks(rescaled_cosine(rng, 10), [7, 8], [9])
        blocks[name] = bad
        with pytest.raises(ValueError) as err:
            InfoFunction("logdetcmi", **blocks)
        assert str(err.value) == f"{name} block must have shape {expected}, got {bad.shape}"

    def test_singular_query_block_rejected_with_condition_report(self):
        emb = np.array([[1.0, 0.0], [1.0, 0.0]])
        joint = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(NumericalError, match="condition number"):
            InfoFunction(
                kind="logdetmi",
                uu=K3,
                uq=np.ones((3, 2)) * 0.5,
                qq=joint,
                eps=0.0,
            )

    def test_asymmetric_square_block_rejected(self):
        bad = K3.copy()
        bad[0, 1] += 1e-3
        with pytest.raises(ValueError, match="symmetric"):
            InfoFunction(kind="fl", uu=bad)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown function kind"):
            canonical_kind("flqmi2")

    def test_evaluate_rejects_duplicates_and_out_of_range(self):
        f = build("fl", K3)
        with pytest.raises(ValueError, match="duplicate"):
            evaluate(f, [0, 0])
        with pytest.raises(IndexError):
            evaluate(f, [3])

    def test_factored_blocks_only_for_the_logdet_and_fl_kinds(self, rng):
        fu = cosine_factors(rng.standard_normal((5, 3)))
        with pytest.raises(ValueError, match="log-det and facility-location kinds"):
            InfoFunction(kind="gc", uu=FactoredKernel(fu))
        with pytest.raises(ValueError, match="factored qq"):
            InfoFunction(
                kind="logdetmi", uu=FactoredKernel(fu), uq=FactoredKernel(fu, fu[:1]),
                qq=FactoredKernel(fu[:1]),
            )
        with pytest.raises(ValueError, match="factored uq"):
            InfoFunction(kind="logdetmi", uu=rescaled_cosine(rng, 5), uq=FactoredKernel(fu, fu[:1]))

    def test_factored_cross_must_share_the_u_factor(self, rng):
        fu = cosine_factors(rng.standard_normal((5, 3)))
        other = cosine_factors(rng.standard_normal((5, 3)))
        with pytest.raises(ValueError, match="share the U factor"):
            InfoFunction(
                kind="logdetcg", uu=FactoredKernel(fu), up=FactoredKernel(other, fu[:2]),
                pp=cosine_block(fu[:2, 1:]),
            )
        with pytest.raises(ValueError, match="must be factored"):
            InfoFunction(kind="logdetcg", uu=FactoredKernel(fu), up=np.ones((5, 2)), pp=np.eye(2))

    def test_div_gcmi_is_flagged_heuristic(self, rng):
        joint = rescaled_cosine(rng, 5)
        f = build("div_gcmi", joint, q=[4])
        assert f.metadata["heuristic_reconstruction"] is True
        assert f.metadata["eta"] == 1.0


class TestDivGcmi:
    def test_combines_gcmi_and_facility_location(self, rng):
        joint = rescaled_cosine(rng, 7)
        q = [5, 6]
        div = from_joint("div_gcmi", joint, query=q, eta=0.5)
        gcmi = from_joint("gcmi", joint, query=q)
        fl = from_joint("fl", joint)
        for A in ([0], [1, 3], [0, 2, 4]):
            want = evaluate(gcmi, A) + 0.5 * evaluate(fl, A)
            assert evaluate(div, A) == pytest.approx(want, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(list(ALL_KINDS)),
    size=st.integers(1, 6),
)
def test_commit_sum_matches_evaluate_property(seed, kind, size):
    g = np.random.default_rng(seed)
    joint = rescaled_cosine(g, 10, d=5)
    f = build(kind, joint, q=[8, 9], p=[6, 7])
    state = new_state(f)
    order = g.permutation(6)[:size]
    for x in order:
        state.commit(int(x))
    ref = evaluate(f, order.tolist())
    assert abs(state.value - ref) <= tol_for(kind, ref)


def random_sets(g, n, d, n_q, n_p, dups):
    """Embeddings of U, Q and P with ``dups`` rounds of duplicated rows
    within U and between U and Q/P."""
    u = g.standard_normal((n, d))
    q = g.standard_normal((n_q, d))
    p = g.standard_normal((n_p, d))
    for _ in range(dups):
        u[g.integers(n)] = u[g.integers(n)]
        if n_q:
            q[g.integers(n_q)] = u[g.integers(n)]
        if n_p:
            p[g.integers(n_p)] = u[g.integers(n)]
    return u, q, p


def dense_and_factored(kind, u, q, p):
    """One function twice: on dense cosine blocks and on factors."""
    fu = cosine_factors(u)
    dense = {"uu": cosine_block(u)}
    factored = {"uu": FactoredKernel(fu)}
    for cross, square, x, needs in (("uq", "qq", q, NEEDS_Q), ("up", "pp", p, NEEDS_P)):
        if kind in needs:
            dense[cross] = cosine_block(u, x)
            factored[cross] = FactoredKernel(fu, cosine_factors(x))
            dense[square] = factored[square] = cosine_block(x)
    if kind == "logdetcmi":
        dense["qp"] = factored["qp"] = cosine_block(q, p)
    return InfoFunction(kind=kind, **dense), InfoFunction(kind=kind, **factored)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(sorted(LOGDET_FAMILY)),
    n=st.integers(2, 24),
    d=st.integers(2, 8),
    n_q=st.integers(0, 4),
    n_p=st.integers(0, 4),
    dups=st.integers(0, 3),
)
def test_factored_logdet_matches_dense_property(seed, kind, n, d, n_q, n_p, dups):
    g = np.random.default_rng(seed)
    f_dense, f_fact = dense_and_factored(kind, *random_sets(g, n, d, n_q, n_p, dups))

    s_dense, s_fact = new_state(f_dense), new_state(f_fact)
    for x in g.permutation(n):
        rest = np.flatnonzero(~s_dense._mask)
        assert np.abs(s_dense.gains(rest) - s_fact.gains(rest)).max() <= 1e-12
        s_dense.commit(int(x))
        s_fact.commit(int(x))
    for size in (1, n // 2, n):
        A = s_dense.chosen[:size]
        ref = evaluate(f_dense, A)
        assert abs(evaluate(f_fact, A) - ref) <= max(1e-8, 1e-6 * abs(ref))

    # Duplicated rows make exactly tied candidates, which rounding orders;
    # the two lazy runs then agree in their gains, and otherwise in picks.
    cfg = GreedyConfig(budget=max(1, n // 2), variant="lazy")
    lazy_dense, lazy_fact = greedy_select(f_dense, cfg), greedy_select(f_fact, cfg)
    assert np.abs(np.subtract(lazy_fact.gains, lazy_dense.gains)).max() <= 1e-12
    if dups == 0:
        assert lazy_fact.chosen == lazy_dense.chosen


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(sorted(FL_FAMILY)),
    n=st.integers(2, 24),
    d=st.integers(2, 8),
    n_q=st.integers(0, 4),
    n_p=st.integers(0, 4),
    dups=st.integers(0, 3),
)
def test_factored_fl_matches_dense_property(seed, kind, n, d, n_q, n_p, dups):
    g = np.random.default_rng(seed)
    f_dense, f_fact = dense_and_factored(kind, *random_sets(g, n, d, n_q, n_p, dups))

    s_dense, s_fact = new_state(f_dense), new_state(f_fact)
    for x in g.permutation(n):
        rest = np.flatnonzero(~s_dense._mask)
        want = s_dense.gains(rest)
        assert np.all(np.abs(s_fact.gains(rest) - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
        s_dense.commit(int(x))
        s_fact.commit(int(x))
    for size in (1, n // 2, n):
        A = s_dense.chosen[:size]
        assert abs(evaluate(f_fact, A) - evaluate(f_dense, A)) <= 1e-8

    cfg = GreedyConfig(budget=max(1, n // 2), variant="lazy")
    for f in (f_dense, f_fact):
        lazy = greedy_select(f, cfg)
        naive = greedy_select(f, GreedyConfig(budget=cfg.budget, variant="naive"))
        assert (lazy.chosen, lazy.gains) == (naive.chosen, naive.gains)


def test_coverage_drops_points_their_conditioning_covers(rng):
    # P duplicates pool points, so q_i <= p_i there and those columns are
    # dropped; gains and values still equal the closed form over all points.
    u = rng.standard_normal((30, 5))
    q = rng.standard_normal((3, 5))
    p = u[:8].copy()
    s, qmax, pmax = cosine_block(u), cosine_block(u, q).max(axis=1), cosine_block(u, p).max(axis=1)
    assert (qmax <= pmax).sum() >= 8

    def closed(A):
        return np.maximum(np.minimum(s[:, A].max(axis=1), qmax) - pmax, 0.0).sum() if A else 0.0

    for f in dense_and_factored("flcmi", u, q, p):
        assert f._cov.shape == (30, int((qmax > pmax).sum()))
        state = new_state(f)
        for x in rng.permutation(30)[:12].tolist():
            assert state.gain(x) == pytest.approx(closed(state.chosen + [x]) - closed(state.chosen), abs=1e-12)
            state.commit(x)
            assert evaluate(f, state.chosen) == pytest.approx(closed(state.chosen), abs=1e-12)
