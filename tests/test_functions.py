import hashlib
import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from submodal import functions
from submodal.functions import (
    ALL_KINDS,
    FL_FAMILY,
    LOGDET_FAMILY,
    SUBMODULAR,
    GroundTruthOracle,
    InfoFunction,
    NumericalError,
    canonical_kind,
    evaluate,
    from_joint,
    new_state,
)
from submodal.greedy import GreedyConfig, greedy_select
from submodal.similarity import FactoredKernel, cosine_block, cosine_factors, khatri_rao_factors
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

    def test_only_pool_blocks_may_be_factored(self, rng):
        fu = cosine_factors(rng.standard_normal((5, 3)))
        with pytest.raises(ValueError, match="factored qq"):
            InfoFunction(
                kind="logdetmi", uu=FactoredKernel(fu), uq=FactoredKernel(fu, fu[:1]),
                qq=FactoredKernel(fu[:1]),
            )
        with pytest.raises(ValueError, match="factored uq"):
            InfoFunction(kind="logdetmi", uu=rescaled_cosine(rng, 5), uq=FactoredKernel(fu, fu[:1]))

    @pytest.mark.parametrize("name", ["qq", "pp", "qp"])
    def test_dense_conditioning_blocks_rejected_beside_factors(self, name, rng):
        fu = cosine_factors(rng.standard_normal((6, 3)))
        fq, fp = cosine_factors(rng.standard_normal((2, 3))), cosine_factors(rng.standard_normal((3, 3)))
        dense = {"qq": cosine_block(fq[:, 1:]), "pp": cosine_block(fp[:, 1:]), "qp": fq @ fp.T}
        with pytest.raises(ValueError, match=f"{name} may not be given when uu is factored"):
            InfoFunction(
                kind="logdetcmi", uu=FactoredKernel(fu), uq=FactoredKernel(fu, fq),
                up=FactoredKernel(fu, fp), **{name: dense[name]},
            )

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


def dense_and_factored(kind, u, q, p, **kw):
    """One function twice: on dense cosine blocks, and on factors alone
    (no qq/pp/qp), as the harness builds it."""
    fu = cosine_factors(u)
    dense = {"uu": cosine_block(u)}
    factored = {"uu": FactoredKernel(fu)}
    for cross, square, x, needs in (("uq", "qq", q, NEEDS_Q), ("up", "pp", p, NEEDS_P)):
        if kind in needs:
            dense[cross] = cosine_block(u, x)
            factored[cross] = FactoredKernel(fu, cosine_factors(x))
            dense[square] = cosine_block(x)
    if kind == "logdetcmi":
        dense["qp"] = cosine_block(q, p)
    return InfoFunction(kind=kind, **dense, **kw), InfoFunction(kind=kind, **factored, **kw)


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
# Conditioning sets above the factor rank d + 1 = 3.
@example(seed=7, kind="logdetcg", n=12, d=2, n_q=0, n_p=4, dups=1)
@example(seed=8, kind="logdetcmi", n=12, d=2, n_q=3, n_p=4, dups=2)
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


@pytest.mark.parametrize("kind", ["flvmi", "flqmi", "gcmi", "logdetmi", "flcmi", "logdetcmi"])
# |P| = 20 is above the factor rank 6: the push-through corrections.
@pytest.mark.parametrize("n_p", [3, 20])
def test_an_empty_query_sends_every_mutual_information_kind_to_zero(kind, n_p, rng):
    u, q, p = random_sets(rng, 24, 5, 0, n_p, dups=2)
    for f in dense_and_factored(kind, u, q, p):
        state = new_state(f)
        for x in rng.permutation(f.n)[:8]:
            assert not state.gains(np.flatnonzero(~state._mask)).any()
            assert state.commit(int(x)) == 0.0
            assert evaluate(f, state.chosen) == 0.0


def batch_gains_match_scalar_loop(f, order):
    """Commit ``order``; before each commit the batch gains of every
    unchosen point must equal the scalar gains bit for bit."""
    state = new_state(f)
    for x in order:
        rest = np.flatnonzero(~state._mask)
        want = np.array([state.gain(int(c)) for c in rest])
        assert np.array_equal(state.gains(rest), want)
        state.commit(int(x))
    return state


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(sorted(LOGDET_FAMILY)),
    n=st.integers(2, 24),
    d=st.integers(2, 8),
    n_q=st.integers(0, 4),
    n_p=st.integers(0, 4),
    dups=st.integers(0, 3),
)
def test_logdet_batch_gains_equal_the_scalar_loop_property(seed, kind, n, d, n_q, n_p, dups):
    g = np.random.default_rng(seed)
    for f in dense_and_factored(kind, *random_sets(g, n, d, n_q, n_p, dups)):
        batch_gains_match_scalar_loop(f, g.permutation(n))


@pytest.mark.parametrize("kind", sorted(LOGDET_FAMILY))
def test_logdet_batch_gains_equal_the_scalar_loop_at_the_pivot_floor(kind, rng):
    # eps=0 and every row duplicated: a twin's residual pivot falls to ~0
    # once its original is chosen, so gains and commits hit the floor.
    u = rng.standard_normal((8, 4))
    u = np.vstack([u, u])
    q, p = rng.standard_normal((2, 4)), rng.standard_normal((2, 4))
    for f in dense_and_factored(kind, u, q, p, eps=0.0):
        state = batch_gains_match_scalar_loop(f, rng.permutation(16))
        assert state.numerical_warnings > 0


def test_batch_gains_reject_a_chosen_index(rng):
    f = from_joint("logdet", rescaled_cosine(rng, 5))
    state = new_state(f)
    state.commit(2)
    with pytest.raises(ValueError, match="already selected"):
        state.gains(np.arange(5))


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(sorted(FL_FAMILY | {"gc", "gccg", "gcmi", "flqmi"})),
    n=st.integers(2, 24),
    d=st.integers(2, 8),
    n_q=st.integers(0, 4),
    n_p=st.integers(0, 4),
    dups=st.integers(0, 3),
)
def test_factored_submodular_kinds_match_dense_property(seed, kind, n, d, n_q, n_p, dups):
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


def test_an_empty_conditioning_set_leaves_the_flvmi_block(rng):
    # flcmi with an empty P skips the shift by 0: the block is flvmi's, bit for bit.
    u, q, _ = random_sets(rng, 600, 6, 5, 0, 3)
    for flcmi, flvmi in zip(
        dense_and_factored("flcmi", u, q, np.zeros((0, 6))), dense_and_factored("flvmi", u, q, None)
    ):
        assert flcmi.up.shape == (600, 0)
        assert np.array_equal(flcmi._cov, flvmi._cov)


def test_all_kept_coverage_block_equals_the_gathered_form(rng):
    # fl keeps every column; the block must be the one a gathered copy of
    # the factor gives, bit for bit, across several row blocks.
    fu = cosine_factors(rng.standard_normal((600, 5)))
    f = InfoFunction(kind="fl", uu=FactoredKernel(fu))
    gathered = fu[np.arange(600)].T
    want = np.empty((600, 600))
    for lo in range(0, 600, 256):
        np.matmul(fu[lo : lo + 256], gathered, out=want[lo : lo + 256])
    np.fill_diagonal(want, 1.0)
    np.maximum(want, 0.0, out=want)
    assert np.array_equal(f._cov, want)


class TestFloat32CoverageBlock:
    """A factored coverage block above ``_FLOAT64_BLOCK_BYTES`` is stored
    in float32; the limit is patched to 0 so small pools take that path."""

    @staticmethod
    def pools(kind, rng, n=600):
        # Q and P small enough that many columns are kept, across 3 row blocks.
        return dense_and_factored(kind, *random_sets(rng, n, 6, 4, 2, 3))

    @pytest.mark.parametrize("kind", sorted(FL_FAMILY))
    def test_block_is_the_float64_block_rounded_once(self, kind, rng, monkeypatch):
        u, q, p = random_sets(rng, 600, 6, 4, 2, 3)
        want = dense_and_factored(kind, u, q, p)[1]._cov
        assert want.dtype == np.float64
        monkeypatch.setattr(functions, "_FLOAT64_BLOCK_BYTES", 0)
        f = dense_and_factored(kind, u, q, p)[1]
        assert f._cov.dtype == np.float32
        assert f.block_bytes == want.nbytes // 2
        assert np.array_equal(f._cov, want.astype(np.float32))

    @pytest.mark.parametrize("kind", sorted(FL_FAMILY))
    def test_commit_sequence_matches_evaluate(self, kind, rng, monkeypatch):
        monkeypatch.setattr(functions, "_FLOAT64_BLOCK_BYTES", 0)
        f = self.pools(kind, rng)[1]
        state = new_state(f)
        for x in rng.permutation(f.n).tolist():
            state.commit(x)
        assert abs(state.value - evaluate(f, state.chosen)) <= 1e-8

    @pytest.mark.parametrize("kind", sorted(FL_FAMILY))
    def test_lazy_and_naive_greedy_agree(self, kind, rng, monkeypatch):
        monkeypatch.setattr(functions, "_FLOAT64_BLOCK_BYTES", 0)
        f = self.pools(kind, rng)[1]
        lazy = greedy_select(f, GreedyConfig(budget=60, variant="lazy"))
        naive = greedy_select(f, GreedyConfig(budget=60, variant="naive"))
        assert (lazy.chosen, lazy.gains) == (naive.chosen, naive.gains)

    @pytest.mark.parametrize("kind", sorted(FL_FAMILY))
    def test_dense_input_keeps_float64(self, kind, rng, monkeypatch):
        monkeypatch.setattr(functions, "_FLOAT64_BLOCK_BYTES", 0)
        f_dense = self.pools(kind, rng, n=40)[0]
        assert f_dense._cov.dtype == np.float64
        assert build(kind, rescaled_cosine(rng, 10), q=[8, 9], p=[6, 7])._cov.dtype == np.float64


class TestKhatriRaoPool:
    """A pool factor with Khatri-Rao parts (as the harness builds it)
    gives the picks of the same factor without them."""

    C, D1 = 4, 8  # factor rank 1 + C * D1 = 33

    @pytest.mark.parametrize("kind", sorted(LOGDET_FAMILY))
    def test_naive_greedy_picks_and_pivots_match_the_plain_factor(self, kind, rng):
        n, r = 600, 1 + self.C * self.D1
        resid = rng.dirichlet(np.ones(self.C), size=n)
        resid[np.arange(n), rng.integers(self.C, size=n)] -= 1.0
        xb = np.hstack([2.0 * rng.standard_normal((n, self.D1 - 1)), np.ones((n, 1))])
        with_parts = khatri_rao_factors(resid, xb)
        side = {}
        if kind in NEEDS_Q:
            side["uq"] = cosine_factors(rng.standard_normal((20, r - 1)))
        if kind in NEEDS_P:
            side["up"] = cosine_factors(rng.standard_normal((2 * r, r - 1)))  # above the rank

        def picks_and_pivots(uu):
            blocks = {name: FactoredKernel(uu.left, fx) for name, fx in side.items()}
            f = InfoFunction(kind=kind, uu=uu, **blocks)
            picks = greedy_select(f, GreedyConfig(budget=40, variant="naive")).chosen
            state = new_state(f)
            for x in picks:
                state.commit(x)
            return picks, [t.dsq for _, t in state._terms]

        picks, pivots = picks_and_pivots(with_parts)
        want_picks, want_pivots = picks_and_pivots(FactoredKernel(with_parts.left))
        assert picks == want_picks
        for got, want in zip(pivots, want_pivots):
            assert np.abs(got - want).max() <= 1e-12


class TestFactorSpaceConditioning:
    """Q and P enter a factored log-det kind only through F_Q and F_P."""

    D = 7  # factor rank r = D + 1 = 8
    KEYS = {"logdetmi": "q", "logdetcg": "p", "logdetcmi": "q+p"}

    def factored(self, kind, u, q, p, **kw):
        fu = cosine_factors(u)
        blocks = {"uu": FactoredKernel(fu)}
        if kind in NEEDS_Q:
            blocks["uq"] = FactoredKernel(fu, cosine_factors(q))
        if kind in NEEDS_P:
            blocks["up"] = FactoredKernel(fu, cosine_factors(p))
        return InfoFunction(kind=kind, **blocks, **kw)

    @staticmethod
    def with_duplicates(g, m, d):
        x = g.standard_normal((m, d))
        x[m // 2] = x[0]
        x[-1] = x[1]
        return x

    @pytest.mark.parametrize("kind", ["logdetmi", "logdetcg", "logdetcmi"])
    @pytest.mark.parametrize("m", [4, 8, 24])
    def test_correction_equals_the_dense_core(self, kind, m, rng):
        u = rng.standard_normal((10, self.D))
        x = self.with_duplicates(rng, m, self.D)
        # logdetcmi conditions on Q union P: split x between them.
        q, p = {
            "logdetmi": (x, None), "logdetcg": (None, x), "logdetcmi": (x[: m // 2], x[m // 2 :]),
        }[kind]
        f = self.factored(kind, u, q, p)
        w = f._w[self.KEYS[kind]]
        r = self.D + 1
        assert w.shape == (min(m, r), r)
        fx = cosine_factors(x)
        s = cosine_block(x) + f.eps * np.eye(m)
        core = fx.T @ np.linalg.solve(s, fx)
        assert np.abs(w.T @ w - core).max() <= 1e-13

    def test_without_eps_a_set_above_the_rank_is_rejected(self, rng):
        u = rng.standard_normal((10, self.D))
        p = rng.standard_normal((3 * (self.D + 1), self.D))
        with pytest.raises(NumericalError, match="singular pp block"):
            self.factored("logdetcg", u, None, p, eps=0.0)
        with pytest.raises(NumericalError, match="singular query\\+conditioning block"):
            self.factored("logdetcmi", u, p[:20], p[20:], eps=0.0)

    def test_without_eps_independent_rows_within_the_rank_work(self, rng):
        u = rng.standard_normal((10, self.D))
        p = rng.standard_normal((self.D - 3, self.D))
        f = self.factored("logdetcg", u, None, p, eps=0.0)
        fx = cosine_factors(p)
        core = fx.T @ np.linalg.solve(cosine_block(p), fx)
        assert np.abs(f._w["p"].T @ f._w["p"] - core).max() <= 1e-10
        ref = dense_and_factored("logdetcg", u, None, p, eps=0.0)[0]
        A = [0, 3, 5]
        assert evaluate(f, A) == pytest.approx(evaluate(ref, A), rel=1e-10)

    @pytest.mark.parametrize("kind", ["logdetmi", "logdetcg", "logdetcmi"])
    @pytest.mark.parametrize("m", [3, 20])
    def test_factored_picks_and_values_match_the_dense_path(self, kind, m, rng):
        u = rng.standard_normal((40, self.D))
        q, p = rng.standard_normal((m, self.D)), rng.standard_normal((m, self.D))
        dense, factored = dense_and_factored(kind, u, q, p)
        assert (factored.qq, factored.pp, factored.qp) == (None, None, None)
        cfg = GreedyConfig(budget=15, variant="naive")
        picks = greedy_select(factored, cfg).chosen
        assert picks == greedy_select(dense, cfg).chosen
        for size in (1, 8, 15):
            want = evaluate(dense, picks[:size])
            assert abs(evaluate(factored, picks[:size]) - want) <= 1e-12 * abs(want)

    def test_a_set_three_times_the_rank_allocates_no_square_block(self, rng):
        d = 99
        fu = cosine_factors(rng.standard_normal((50, d)))
        fp = cosine_factors(rng.standard_normal((3 * (d + 1), d)))
        square_bytes = fp.shape[0] ** 2 * 8
        tracemalloc.start()
        try:
            f = InfoFunction(kind="logdetcg", uu=FactoredKernel(fu), up=FactoredKernel(fu, fp))
            greedy_select(f, GreedyConfig(budget=10, variant="naive"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < square_bytes / 2


def greedy_digest(f, budget):
    """Digest of naive greedy's picks and gains (12 significant digits),
    plus lazy greedy's on the submodular kinds."""
    variants = ("naive", "lazy") if f.kind in SUBMODULAR else ("naive",)
    runs = []
    for variant in variants:
        res = greedy_select(f, GreedyConfig(budget=budget, variant=variant))
        runs.append([list(res.chosen), [f"{g:.12g}" for g in res.gains]])
    return hashlib.sha256(repr(runs).encode()).hexdigest()[:16]


# Per kind: (dense from_joint instance, cosine_factors input).
GREEDY_DIGESTS = {
    "fl": ("1dc178eb5d4be940", "fa9b3a57eb5c552f"),
    "gc": ("5825612369cd08d7", "e0cdba00dadd34ec"),
    "logdet": ("c8b722a65abf9e9f", "608bd9c81e69d20a"),
    "flvmi": ("8fce8e29cc925395", "b79498e68551ef48"),
    "flqmi": ("679eb190c795037e", "c4c08d9e641d6076"),
    "gcmi": ("e2bb598a10699716", "b6fe1cac87da677e"),
    "logdetmi": ("1f8516ee280e26fc", "ede32ef218b5cdbe"),
    "flcg": ("14e1fc49fececf22", "689396c57d581ceb"),
    "gccg": ("2051b6049f835b25", "58acdee0fb2db8fa"),
    "logdetcg": ("d099f66988186b4a", "ef1ed0b8233bfe14"),
    "flcmi": ("6c503d144ea605c8", "b87d7ef87dcafa5d"),
    "logdetcmi": ("cec75ac8d928333b", "3a12d8be0e101b86"),
    "div_gcmi": ("d3ef9be9682eb221", "82ae1709aeaeda47"),
}


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_greedy_output_is_pinned_by_digest(kind):
    g = np.random.default_rng(1507)
    dense = build(kind, rescaled_cosine(g, 40, d=6), q=[3, 17, 30], p=[5, 11, 24, 36])
    # |P| = 9 is above the factor rank 6: the push-through corrections.
    u, q, p = random_sets(g, 60, 5, 4, 9, dups=2)
    factored = dense_and_factored(kind, u, q, p)[1]
    assert (greedy_digest(dense, 8), greedy_digest(factored, 12)) == GREEDY_DIGESTS[kind]
