import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submodal.similarity import (
    EmbeddingMatrix,
    FactoredKernel,
    SimilarityKernel,
    cosine_block,
    cosine_factors,
    cosine_kernel,
    regularize,
    submatrix,
)


def emb(rows, ids=None):
    return EmbeddingMatrix.from_array(np.asarray(rows, dtype=float), ids)


class TestEmbeddingMatrix:
    def test_rejects_nonfinite_rows(self):
        with pytest.raises(ValueError, match="'b'"):
            emb([[1.0, 2.0], [np.nan, 0.0]], ids=["a", "b"])

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError, match="unique"):
            emb([[1.0, 0.0], [0.0, 1.0]], ids=[7, 7])

    def test_rejects_misaligned_ids(self):
        with pytest.raises(ValueError, match="align"):
            emb([[1.0, 0.0]], ids=[1, 2])


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

    def test_symmetric_iff_same_matrix(self, rng):
        a = emb(rng.standard_normal((5, 3)))
        b = emb(rng.standard_normal((4, 3)))
        assert cosine_kernel(a).symmetric
        assert cosine_kernel(a, a).symmetric
        assert not cosine_kernel(a, b).symmetric

    def test_zero_norm_row_rejected_with_id(self):
        with pytest.raises(ValueError, match="id=5"):
            cosine_kernel(emb([[1.0, 0.0], [0.0, 0.0]], ids=[4, 5]))

    def test_dim_mismatch_rejected(self, rng):
        a = emb(rng.standard_normal((3, 4)))
        b = emb(rng.standard_normal((3, 5)))
        with pytest.raises(ValueError, match="dim mismatch"):
            cosine_kernel(a, b)

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
        assert np.abs(fa @ fb.T - cosine_kernel(emb(a), emb(b)).data).max() <= 2e-15
        assert np.abs(FactoredKernel(fa).take() - cosine_kernel(emb(a)).data).max() <= 2e-15
        assert np.abs(FactoredKernel(fa, fb).take() - cosine_block(a, b)).max() <= 2e-15

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

    def test_cosine_block_is_the_kernel_data(self, rng):
        a = rng.standard_normal((7, 3))
        b = rng.standard_normal((4, 3))
        assert np.array_equal(cosine_block(a), cosine_kernel(emb(a)).data)
        assert np.array_equal(cosine_block(a, b), cosine_kernel(emb(a), emb(b)).data)
        assert cosine_block(a, np.zeros((0, 3))).shape == (7, 0)


class TestRegularize:
    def test_adds_eps_to_diagonal(self):
        k = cosine_kernel(emb([[1.0, 0.0], [0.0, 1.0]]))
        r = regularize(k, 0.05)
        assert np.allclose(np.diag(r.data), 1.05)
        assert r.regularization == 0.05
        assert np.all(r.data[0, 1] == k.data[0, 1])

    def test_zero_eps_is_identity(self, rng):
        k = cosine_kernel(emb(rng.standard_normal((4, 3))))
        assert regularize(k, 0.0) is k

    def test_lifts_smallest_eigenvalue(self, rng):
        k = cosine_kernel(emb(rng.standard_normal((8, 3))))
        r = regularize(k, 1e-3)
        assert np.linalg.eigvalsh(r.data).min() >= 1e-3 - 1e-9

    def test_rejects_rectangular(self, rng):
        a = emb(rng.standard_normal((3, 4)))
        b = emb(rng.standard_normal((2, 4)))
        with pytest.raises(ValueError, match="symmetric"):
            regularize(cosine_kernel(a, b), 0.1)

    def test_rejects_negative_eps(self, rng):
        k = cosine_kernel(emb(rng.standard_normal((3, 3))))
        with pytest.raises(ValueError, match="nonnegative"):
            regularize(k, -0.1)


class TestSubmatrix:
    def test_full_extraction_is_identity(self, rng):
        k = cosine_kernel(emb(rng.standard_normal((5, 3))))
        s = submatrix(k, range(5), range(5))
        assert np.array_equal(s.data, k.data)
        assert s.symmetric

    def test_single_cell(self, rng):
        k = cosine_kernel(emb(rng.standard_normal((3, 3))))
        s = submatrix(k, [0], [2])
        assert s.shape == (1, 1)
        assert s.data[0, 0] == k.data[0, 2]
        assert not s.symmetric

    def test_matching_rows_cols_stay_symmetric(self, rng):
        k = cosine_kernel(emb(rng.standard_normal((4, 3))))
        s = submatrix(k, [1, 2], [1, 2])
        assert s.symmetric
        assert np.array_equal(s.data, s.data.T)

    def test_out_of_range_rejected(self, rng):
        k = cosine_kernel(emb(rng.standard_normal((3, 3))))
        with pytest.raises(IndexError):
            submatrix(k, [0, 3], [0])

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_composition(self, seed):
        g = np.random.default_rng(seed)
        k = cosine_kernel(emb(g.standard_normal((8, 3)) + 1e-3))
        r1 = g.choice(8, size=5, replace=False)
        c1 = g.choice(8, size=6, replace=False)
        r2 = g.choice(5, size=3, replace=False)
        c2 = g.choice(6, size=2, replace=False)
        nested = submatrix(submatrix(k, r1, c1), r2, c2)
        direct = submatrix(k, r1[r2], c1[c2])
        assert np.array_equal(nested.data, direct.data)
        assert np.array_equal(nested.row_ids, direct.row_ids)

