import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submodal import similarity
from submodal.similarity import (
    EmbeddingMatrix,
    FactoredKernel,
    SimilarityKernel,
    cosine_factors,
    cosine_kernel,
    distinct_rows,
    khatri_rao_factors,
)
from submodal.surrogate import (
    SurrogateModel,
    TrainConfig,
    gradient_embeddings,
    gradient_parts,
    hypothesized_labels,
)


def emb(rows):
    return EmbeddingMatrix.from_array(np.asarray(rows, dtype=float))


class TestEmbeddingMatrix:
    def test_rejects_nonfinite_rows(self):
        with pytest.raises(ValueError, match="non-finite entries in row id=1"):
            emb([[1.0, 2.0], [np.nan, 0.0]])


class TestCosineKernel:
    def test_identical_unit_rows_give_one(self):
        k = cosine_kernel(emb([[1.0, 0.0], [1.0, 0.0]]))
        assert k.data[0, 1] == 1.0

    def test_orthogonal_rows_give_half(self):
        k = cosine_kernel(emb([[1.0, 0.0], [0.0, 1.0]]))
        assert k.data[0, 1] == 0.5

    def test_antipodal_rows_give_zero(self):
        k = cosine_kernel(emb([[1.0, 0.0], [-1.0, 0.0]]))
        assert k.data[0, 1] == 0.0

    def test_unit_diagonal_before_regularization(self, rng):
        k = cosine_kernel(emb(rng.standard_normal((12, 4))))
        assert np.all(np.diag(k.data) == 1.0)

    def test_dim_mismatch_rejected(self, rng):
        a = emb(rng.standard_normal((3, 4)))
        b = emb(rng.standard_normal((3, 5)))
        with pytest.raises(ValueError, match="dim mismatch"):
            cosine_kernel(a, b)

    def test_row_blocked_kernel_matches_the_rescaled_unit_row_product(self, rng):
        # 1100 rows span three 512-row factor blocks.
        a = rng.standard_normal((1100, 7))
        b = rng.standard_normal((23, 7))
        ua = a / np.linalg.norm(a, axis=1)[:, None]
        ub = b / np.linalg.norm(b, axis=1)[:, None]
        square, cross = cosine_kernel(emb(a)), cosine_kernel(emb(a), emb(b))
        for got, other in ((square, ua), (cross, ub)):
            want = 0.5 * (1.0 + np.clip(ua @ other.T, -1.0, 1.0))
            assert got.data.shape == want.shape
            np.testing.assert_allclose(got.data, want, rtol=0, atol=1e-15)
        assert np.all(np.diag(square.data) == 1.0)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 64), d=st.integers(1, 16))
    def test_rescaled_kernel_is_psd_with_entries_in_unit_interval(self, seed, n, d):
        g = np.random.default_rng(seed)
        k = cosine_kernel(emb(g.standard_normal((n, d)) + 1e-3))
        assert k.data.min() >= 0.0 and k.data.max() <= 1.0
        assert np.linalg.eigvalsh(k.data).min() >= -1e-8


class TestCosineFactors:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        m=st.integers(0, 12),
        d=st.integers(1, 16),
    )
    def test_factor_products_match_dense_kernel(self, seed, n, m, d):
        g = np.random.default_rng(seed)
        a = g.standard_normal((n, d))
        a[n // 2] = a[0]  # a duplicated row
        b = np.vstack([g.standard_normal((m, d)), a[:1]])
        fa, fb = cosine_factors(a), cosine_factors(b)
        assert fa.shape == (n, d + 1)
        cross = cosine_kernel(emb(a), emb(b)).data
        assert np.abs(fa @ fb.T - cross).max() <= 2e-15
        assert np.abs(FactoredKernel(fa).take() - cosine_kernel(emb(a)).data).max() <= 2e-15
        assert np.abs(FactoredKernel(fa, fb).take() - cross).max() <= 2e-15

    def test_square_block_pins_unit_diagonal(self, rng):
        f = FactoredKernel(cosine_factors(rng.standard_normal((9, 4))))
        rows = np.array([2, 5, 7, 2])
        cols = np.array([7, 2, 3])
        sub = f.take(rows, cols)
        assert sub[0, 1] == 1.0 and sub[2, 0] == 1.0 and sub[3, 1] == 1.0
        assert np.all(np.diag(f.take()) == 1.0)
        assert f.shape == (9, 9) and f.symmetric

    def test_cross_block_shape_and_rank_check(self, rng):
        fa = cosine_factors(rng.standard_normal((6, 3)))
        fb = cosine_factors(rng.standard_normal((2, 3)))
        assert FactoredKernel(fa, fb).shape == (6, 2)
        assert FactoredKernel(fa, np.zeros((0, 4))).shape == (6, 0)
        with pytest.raises(ValueError, match="rank mismatch"):
            FactoredKernel(fa, np.zeros((2, 5)))

    def test_zero_norm_row_rejected(self):
        with pytest.raises(ValueError, match="zero-norm"):
            cosine_factors(np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_zero_norm_row_in_a_later_row_block_rejected_with_id(self):
        a = np.ones((2500, 3))
        a[2100] = 0.0
        with pytest.raises(ValueError, match="id=2100"):
            cosine_factors(a)

    def test_blocked_factors_equal_the_whole_array_formula(self, rng):
        a = rng.standard_normal((2500, 9)) * rng.uniform(0.1, 10.0, size=(2500, 1))
        whole = np.hstack([np.ones((2500, 1)), a / np.linalg.norm(a, axis=1)[:, None]])
        assert np.array_equal(cosine_factors(a), whole * np.sqrt(0.5))

    def test_factors_allocate_little_beyond_their_output(self, rng):
        # No n x D temporary: the peak is the output plus a small share of
        # the input (finiteness mask, norms, one row block of the norm pass).
        a = rng.standard_normal((20000, 32))
        tracemalloc.start()
        try:
            out = cosine_factors(a)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + a.nbytes // 4


def badge_parts(g, n, c, d1):
    """Gradient parts and embeddings of ``n`` random points under a random
    ``c``-class model on ``d1 - 1`` features, at hypothesized labels."""
    model = SurrogateModel(g.standard_normal((c, d1)), c, TrainConfig())
    x = 2.0 * g.standard_normal((n, d1 - 1))
    y = hypothesized_labels(model, x)
    return gradient_parts(model, x, y), gradient_embeddings(model, x, y)


class TestKhatriRaoFactors:
    SHAPES = [(2, 2), (9, 33), (10, 33)]

    @pytest.mark.parametrize("c, d1", SHAPES)
    def test_left_equals_the_factors_of_the_embedding(self, c, d1, rng):
        (resid, xb), g = badge_parts(rng, 300, c, d1)
        k = khatri_rao_factors(resid, xb)
        assert k.symmetric and k.left.shape == (300, 1 + c * d1)
        assert np.abs(k.left - cosine_factors(g)).max() <= 2e-15

    @pytest.mark.parametrize("c, d1", SHAPES)
    def test_parts_rebuild_left_through_the_outer_product(self, c, d1, rng):
        (resid, xb), _ = badge_parts(rng, 300, c, d1)
        k = khatri_rao_factors(resid, xb)
        r_hat, x_hat = k.parts
        assert r_hat.shape == (300, c) and x_hat.shape == (300, d1)
        outer = (r_hat[:, :, None] * x_hat[:, None, :]).reshape(300, c * d1)
        rebuilt = np.sqrt(0.5) * np.hstack([np.ones((300, 1)), outer])
        assert np.abs(k.left - rebuilt).max() <= 1e-15

    @pytest.mark.parametrize("c, d1", SHAPES)
    def test_parts_matvec_equals_the_factor_matvec(self, c, d1, rng):
        (resid, xb), _ = badge_parts(rng, 500, c, d1)
        k = khatri_rao_factors(resid, xb)
        plain = FactoredKernel(k.left)
        assert k.parts is not None and plain.parts is None
        for _ in range(5):
            v = rng.standard_normal(k.left.shape[1])
            want = k.left @ v
            assert np.abs(k.dot(v) - want).max() <= 1e-14
            assert np.array_equal(plain.dot(v), want)

    @pytest.mark.parametrize("c, d1", SHAPES)
    @pytest.mark.parametrize("n", [37, 777])  # no multiple of 64, 256 or 512 rows
    def test_stacked_products_equal_one_product_per_vector(self, c, d1, n, rng):
        (resid, xb), _ = badge_parts(rng, n, c, d1)
        k = khatri_rao_factors(resid, xb)
        plain = FactoredKernel(k.left)
        for m in (1, 2, 3):
            vecs = rng.standard_normal((m, k.rank))
            got, got_plain = k.dot(vecs), plain.dot(vecs)
            assert got.shape == got_plain.shape == (m, n)
            for v, row, row_plain in zip(vecs, got, got_plain):
                one = k.dot(v)
                assert np.abs(row - one).max() <= 1e-14 * np.abs(one).max()
                assert np.array_equal(row_plain, k.left @ v)

    def test_zero_residual_row_raises_as_cosine_factors_does(self, rng):
        (resid, xb), g = badge_parts(rng, 12, 3, 4)
        resid[7] = 0.0
        g[7] = 0.0
        with pytest.raises(ValueError, match="zero-norm embedding row id=7") as got:
            khatri_rao_factors(resid, xb)
        with pytest.raises(ValueError) as want:
            cosine_factors(g)
        assert str(got.value) == str(want.value)

    def test_parts_must_make_up_the_factor(self, rng):
        (resid, xb), _ = badge_parts(rng, 6, 3, 4)
        k = khatri_rao_factors(resid, xb)
        with pytest.raises(ValueError, match="do not make up"):
            FactoredKernel(k.left[:, :-1], parts=k.parts)
        with pytest.raises(ValueError, match="parts must align"):
            khatri_rao_factors(resid[:5], xb)


def stacked(kernel, cols):
    """Copies of ``kernel.row_blocks(cols)`` stacked, and their row bounds."""
    blocks = [(lo, hi, blk.copy()) for lo, hi, blk in kernel.row_blocks(cols)]
    return np.vstack([blk for _, _, blk in blocks]), [(lo, hi) for lo, hi, _ in blocks]


class TestRowBlocks:
    N = 600  # 10 blocks of 64 rows, 3 of 256

    @staticmethod
    def column_sets(g, m):
        return [None, np.sort(g.choice(m, size=m // 3, replace=False)), np.arange(130, 400),
                np.array([0, 63, 64, 255, 256, m - 1]), np.zeros(0, dtype=np.intp)]

    def test_parts_blocks_equal_the_plain_factor_blocks(self, rng):
        (resid, xb), _ = badge_parts(rng, self.N, 4, 9)
        k = khatri_rao_factors(resid, xb)
        for cols in self.column_sets(rng, self.N):
            got, bounds = stacked(k, cols)
            want, plain_bounds = stacked(FactoredKernel(k.left), cols)
            assert bounds == [(lo, min(self.N, lo + 64)) for lo in range(0, self.N, 64)]
            assert plain_bounds == [(lo, min(self.N, lo + 256)) for lo in range(0, self.N, 256)]
            assert got.shape == want.shape
            assert got.size == 0 or np.abs(got - want).max() <= 3e-15
            ids = np.arange(self.N) if cols is None else cols
            assert np.all(got[ids, np.arange(len(ids))] == 1.0)  # the pinned unit diagonal
            assert np.all(want[ids, np.arange(len(ids))] == 1.0)

    @pytest.mark.parametrize("square", [False, True])
    def test_plain_factor_blocks_equal_take(self, square, rng):
        left = cosine_factors(rng.standard_normal((self.N, 6)))
        right = None if square else cosine_factors(rng.standard_normal((450, 6)))
        k = FactoredKernel(left, right)
        for cols in self.column_sets(rng, k.shape[1]):
            seen = 0
            for lo, hi, blk in k.row_blocks(cols):
                assert blk.dtype == np.float64
                assert np.array_equal(blk, k.take(np.arange(lo, hi), cols))
                seen = hi
            assert seen == self.N


class TestPartsOnlyFactor:
    """A Khatri-Rao kernel stores its parts and builds rows of F on demand."""

    @staticmethod
    def formula(r_hat, x_hat):
        """F = sqrt(1/2) [1, (r_hat sqrt(1/2)) outer x_hat], written as the
        whole-array build of the factor does it."""
        n, c, d1 = r_hat.shape[0], r_hat.shape[1], x_hat.shape[1]
        out = np.empty((n, 1 + c * d1))
        out[:, 0] = np.sqrt(0.5)
        np.multiply(
            (r_hat * np.sqrt(0.5))[:, :, None], x_hat[:, None, :], out=out[:, 1:].reshape(n, c, d1)
        )
        return out

    @pytest.mark.parametrize(
        "idx", [0, 17, np.int64(299), np.array([3, 0, 3, 250]), np.arange(300),
                slice(None), slice(40, 97), slice(280, None)],
    )
    def test_rows_are_bit_equal_to_the_whole_factor_formula(self, idx, rng):
        (resid, xb), _ = badge_parts(rng, 300, 10, 33)
        k = khatri_rao_factors(resid, xb)
        want = self.formula(*k.parts)[idx]
        got = k.rows(idx)
        assert got.shape == want.shape and np.array_equal(got, want)
        assert np.array_equal(k.left, self.formula(*k.parts))

    @pytest.mark.parametrize("rows", [None, np.array([5, 1, 1200, 300])])
    def test_factor_blocks_tile_the_rows_in_bounded_blocks(self, rows, rng):
        (resid, xb), _ = badge_parts(rng, 1201, 3, 5)
        k = khatri_rao_factors(resid, xb)
        blocks = [(lo, hi, blk.copy()) for lo, hi, blk in k.factor_blocks(rows)]
        n = 1201 if rows is None else rows.size
        assert [(lo, hi) for lo, hi, _ in blocks] == [
            (lo, min(n, lo + 512)) for lo in range(0, n, 512)
        ]
        want = k.left if rows is None else k.left[rows]
        assert np.array_equal(np.vstack([b for _, _, b in blocks]), want)

    def test_the_parts_are_all_it_stores(self, rng):
        (resid, xb), _ = badge_parts(rng, 4000, 10, 33)
        tracemalloc.start()
        try:
            k = khatri_rao_factors(resid, xb)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4000 * k.rank * 8 // 4  # F itself is 10.6 MB
        assert k.left is not k.left  # built afresh on each read

    def test_cross_blocks_share_the_parts(self, rng):
        (resid, xb), _ = badge_parts(rng, 50, 3, 4)
        k = khatri_rao_factors(resid, xb)
        q = cosine_factors(rng.standard_normal((6, 12)))
        cross = k.cross(q)
        assert cross.shape == (50, 6) and not cross.symmetric
        assert all(a is b for a, b in zip(cross.parts, k.parts))
        assert cross.shares_rows(k) and k.shares_rows(FactoredKernel(k.left))
        other = khatri_rao_factors(*badge_parts(rng, 50, 3, 4)[0])
        assert not k.shares_rows(other) and not k.shares_rows(FactoredKernel(k.left[:, :-1]))
        assert np.array_equal(cross.take(), FactoredKernel(k.left, q).take())
        with pytest.raises(ValueError, match="rank mismatch"):
            k.cross(q[:, :-1])

    def test_a_factor_and_its_parts_are_not_both_taken(self, rng):
        (resid, xb), _ = badge_parts(rng, 6, 3, 4)
        k = khatri_rao_factors(resid, xb)
        with pytest.raises(ValueError, match="not both"):
            FactoredKernel(k.left, parts=k.parts)
        with pytest.raises(ValueError, match="needs a left factor or parts"):
            FactoredKernel()


def assert_same_kernel(got, want, g):
    """``got`` and ``want`` hold the same parts and row index and give
    bit-equal rows, dense blocks, row blocks and products."""
    n = want.shape[0]
    assert got.shape == want.shape
    assert (got.index is None) == (want.index is None)
    if want.index is not None:
        assert np.array_equal(got.index, want.index)
    for a, b in zip(got.parts, want.parts, strict=True):
        assert np.array_equal(a, b)
    rows = np.array([0, n - 1, 511, 512, 63, 64, 511]) % n
    cols = np.sort(g.choice(n, size=n // 3, replace=False))
    assert np.array_equal(got.rows(slice(None)), want.rows(slice(None)))
    assert np.array_equal(got.rows(rows), want.rows(rows))
    for r, c in ((None, None), (rows, cols)):
        assert np.array_equal(got.take(r, c), want.take(r, c))
    for c in (None, cols):
        for (lo, hi, a), (w_lo, w_hi, b) in zip(got.row_blocks(c), want.row_blocks(c), strict=True):
            assert (lo, hi) == (w_lo, w_hi) and np.array_equal(a, b)
    vecs = g.standard_normal((2, want.rank))
    assert np.array_equal(got.dot(vecs), want.dot(vecs))
    assert np.array_equal(got.dot(vecs[0]), want.dot(vecs[0]))


class TestRepeatedRows:
    """A pool with exact copies keeps one row of parts per distinct point
    and a row index over the points; every product reads through it."""

    M, N = 300, 700  # distinct rows, points: 512- and 64-row blocks straddle copies

    def pool(self, g):
        """Features of a pool with copies and the distinct rows' parts."""
        x = 2.0 * g.standard_normal((self.M, 8))
        points = np.concatenate([np.arange(self.M), g.integers(self.M, size=self.N - self.M)])
        points = points[g.permutation(self.N)]
        return x[points], points

    def gradients(self, g):
        """The gradient parts of the pool's distinct rows, their positions
        in the pool and the pool's row index."""
        x_pool, _ = self.pool(g)
        first, index = distinct_rows(x_pool)
        model = SurrogateModel(g.standard_normal((4, 9)), 4, TrainConfig())
        x = x_pool[first]
        return gradient_parts(model, x, hypothesized_labels(model, x)), first, index

    def kernels(self, g):
        """The indexed kernel, the same kernel with its rows repeated and no
        index, and the pool's distinct-row positions."""
        (resid, xb), first, index = self.gradients(g)
        k = khatri_rao_factors(resid, xb, index)
        return k, FactoredKernel(parts=tuple(p[index] for p in k.parts)), first, index

    def test_the_index_maps_each_point_to_its_first_occurrence(self, rng):
        x_pool, points = self.pool(rng)
        first, index = distinct_rows(x_pool)
        assert np.all(np.diff(first) > 0)  # in pool order
        assert np.array_equal(x_pool[first][index], x_pool)
        assert np.array_equal(points[first][index], points)
        assert first.size == np.unique(points).size == self.M
        assert distinct_rows(x_pool[first]) == (None, None)
        assert distinct_rows(index[first]) == (None, None)
        ids = np.array([4, 9, 4, 4, 2, 9])
        got_first, got_index = distinct_rows(ids)
        assert got_first.tolist() == [0, 1, 4] and got_index.tolist() == [0, 1, 0, 0, 2, 1]

    def test_rows_whose_hashes_collide_are_still_told_apart(self):
        # Words (w1, w2) and (w1 + m2, w2 - m1) hash alike: w1 m1 + w2 m2
        # modulo 2**64, with m1, m2 the first two multipliers.
        odd = np.array([1, 3], dtype=np.uint64) * similarity._HASH_MULTIPLIER
        base = np.array([5, 7], dtype=np.uint64)
        shift = np.array([[odd[1], 0], [0, odd[0]]], dtype=np.uint64)
        words = np.stack([base, base + shift[0] - shift[1], base])
        assert (words @ odd)[0] == (words @ odd)[1]
        assert not np.array_equal(words[0], words[1])
        for dtype in (np.float64, np.float32, np.uint8):  # the same bytes per row
            first, index = distinct_rows(words.view(dtype))
            assert first.tolist() == [0, 1] and index.tolist() == [0, 1, 0]
        assert distinct_rows(words[:2].view(np.float64)) == (None, None)
        # Rows of 3 bytes are not hashed in 64-bit words.
        first, index = distinct_rows(np.array([[1, 2, 3], [4, 5, 6], [1, 2, 3]], dtype=np.uint8))
        assert first.tolist() == [0, 1] and index.tolist() == [0, 1, 0]

    def test_products_equal_the_kernel_without_the_index(self, rng):
        k, plain, _, index = self.kernels(rng)
        assert k.shape == plain.shape == (self.N, self.N) and k.index is index
        assert k.parts[0].shape[0] == self.M
        for idx in (0, 699, np.array([5, 1, 650, 5]), slice(None), slice(500, 530)):
            assert np.array_equal(k.rows(idx), plain.rows(idx))
        cols = np.sort(rng.choice(self.N, size=200, replace=False))
        for rows_ in (None, np.array([0, 513, 511, 699])):
            got = [(lo, hi, b.copy()) for lo, hi, b in k.factor_blocks(rows_)]
            want = [(lo, hi, b.copy()) for lo, hi, b in plain.factor_blocks(rows_)]
            for (lo, hi, g_blk), (w_lo, w_hi, w_blk) in zip(got, want, strict=True):
                assert (lo, hi) == (w_lo, w_hi) and np.array_equal(g_blk, w_blk)
            for c in (None, cols):
                assert np.array_equal(k.take(rows_, c), plain.take(rows_, c))
        for c in (None, cols):
            for (_, _, got), (_, _, want) in zip(k.row_blocks(c), plain.row_blocks(c), strict=True):
                assert np.array_equal(got, want)
        q = cosine_factors(rng.standard_normal((7, k.rank - 1)))
        assert np.array_equal(k.cross(q).take(), plain.cross(q).take())
        vecs = rng.standard_normal((2, k.rank))
        got = k.dot(vecs)
        # Over the distinct rows, then read by each point: another GEMM shape.
        assert np.array_equal(got, k.distinct.dot(vecs)[:, index])
        assert np.array_equal(k.dot(vecs[0]), got[0])
        assert np.abs(got - plain.dot(vecs)).max() <= 1e-14

    def test_copies_are_separate_points_with_bit_equal_rows(self, rng):
        k, _, _, index = self.kernels(rng)
        a, b = np.flatnonzero(index == index[-1])[:2]  # two copies of one row
        s = k.take(np.array([a, b]))
        assert s[0, a] == s[1, b] == 1.0  # each point's own diagonal is pinned
        assert s[0, b] == s[1, a]  # F_a F_b^T, not pinned
        assert np.array_equal(np.delete(s[0], [a, b]), np.delete(s[1], [a, b]))
        assert np.array_equal(k.rows(a), k.rows(b))
        d = k.distinct
        assert d.index is None and d.shape == (self.M, self.M)
        assert all(p is q for p, q in zip(d.parts, k.parts))
        assert np.array_equal(d.left[index], k.left)

    def test_cross_shares_the_index_and_rows_compare_through_it(self, rng):
        k, plain, _, index = self.kernels(rng)
        q = cosine_factors(rng.standard_normal((6, k.rank - 1)))
        cross = k.cross(q)
        assert cross.index is index and cross.shares_rows(k)
        assert k.shares_rows(plain) and k.shares_rows(FactoredKernel(k.left))
        shifted = FactoredKernel(parts=k.parts, index=np.roll(index, 1))
        assert not k.shares_rows(shifted)

    def test_points_cut_the_kernel_that_their_own_rows_would_build(self, rng):
        (resid, xb), _, index = self.gradients(rng)
        k = khatri_rao_factors(resid, xb, index)
        ids = np.sort(rng.choice(self.N, size=600, replace=False))  # copies across blocks
        cut = k.points(ids)
        # Each row its points read, once, in point order, and each point on its row.
        order = np.sort(np.unique(index[ids], return_index=True)[1])
        rows = index[ids][order]
        assert cut.index is not None and rows.size < ids.size
        for got, whole in zip(cut.parts, k.parts, strict=True):
            assert np.array_equal(got, whole[rows])
            assert np.array_equal(got[cut.index], whole[index[ids]])
        first, chunk_index = distinct_rows(index[ids])
        assert np.array_equal(index[ids][first], rows)
        assert_same_kernel(cut, khatri_rao_factors(resid[rows], xb[rows], chunk_index), rng)
        lone = np.sort(ids[np.unique(index[ids], return_index=True)[1]][:80])  # no copies
        cut = k.points(lone)
        assert cut.index is None
        assert_same_kernel(cut, khatri_rao_factors(resid[index[lone]], xb[index[lone]]), rng)

    def test_points_of_a_pool_without_copies_keep_their_own_rows(self, rng):
        (resid, xb), _ = badge_parts(rng, self.N, 4, 9)
        k = khatri_rao_factors(resid, xb)
        ids = np.sort(rng.choice(self.N, size=600, replace=False))
        cut = k.points(ids)
        assert cut.index is None
        assert_same_kernel(cut, khatri_rao_factors(resid[ids], xb[ids]), rng)

    def test_an_all_distinct_pool_and_a_stored_factor_have_no_index(self, rng):
        (resid, xb), g = badge_parts(rng, 50, 3, 4)
        assert distinct_rows(g) == (None, None)
        assert khatri_rao_factors(resid, xb).index is None
        assert FactoredKernel(cosine_factors(g)).index is None
        with pytest.raises(ValueError, match="needs parts"):
            FactoredKernel(cosine_factors(g), index=np.zeros(50, dtype=np.intp))
        with pytest.raises(ValueError, match="1-D integers"):
            khatri_rao_factors(resid, xb, np.full(60, 50))
