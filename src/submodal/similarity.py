"""Similarity kernels over embedding vectors, dense or factored.

Kernels are cosine similarities affinely rescaled to [0, 1] via
s -> (1 + s) / 2, which keeps square kernels positive semidefinite
(the rescaled matrix is a convex combination of the all-ones matrix
and a Gram matrix) and keeps every downstream formula that assumes
nonnegative similarities well behaved.  The same convex combination
gives every block a factorization F_a F_b^T with F = [1, a_hat] / sqrt(2)
of rank D + 1, which every function kind uses instead of an n x n block.
A dense block is a ``FactoredKernel.take`` product, in its row blocks;
the dense ``cosine_kernel`` is one too, the ``take`` of the unit rows
a_hat against b_hat, clipped and rescaled.

A BADGE gradient embedding g = r outer x (residual r = p - e_y over C
classes, biased input x = [x; 1]) has cos(g_i, g_j) = cos(r_i, r_j)
cos(x_i, x_j), so its factor is F = [1, r_hat outer x_hat] / sqrt(2) in
Khatri-Rao form.  ``khatri_rao_factors`` keeps only the two parts, C + d
+ 1 values per row, and never forms the n x C(d+1) embedding or F itself:
``FactoredKernel``'s ``dot`` and ``row_blocks`` read the parts, and every
other product builds the rows of F it needs (``rows``), a bounded block at
a time over all rows (``factor_blocks``).  ``take`` multiplies such built
rows, so it checks the parts arithmetic of ``dot`` and ``row_blocks``.

A pool with exact copies (the redundancy split) keeps one row of parts per
distinct point: ``distinct_rows`` finds them, and the kernel's row
``index`` maps each point to its row.  Every product over the points reads
through the index, so copies get bit-equal rows, blocks and products;
``distinct`` is the same kernel over the distinct rows alone, for the
per-row state and products that need each row once; ``points`` cuts a
partition chunk's kernel from the pool's, on the rows its points read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Regularization defaults: the log-determinant family needs an invertible
# diagonal bump, everything else runs on the raw rescaled kernel.
DEFAULT_LOGDET_EPS = 1e-2


@dataclass(frozen=True)
class EmbeddingMatrix:
    """A stack of finite row vectors; errors name a row by its index."""

    data: np.ndarray

    def __post_init__(self):
        data = np.ascontiguousarray(np.asarray(self.data, dtype=np.float64))
        if data.ndim != 2:
            raise ValueError(f"embedding matrix must be 2-D, got shape {data.shape}")
        if not np.all(np.isfinite(data)):
            bad = np.where(~np.isfinite(data).all(axis=1))[0][0]
            raise ValueError(f"non-finite entries in row id={bad}")
        object.__setattr__(self, "data", data)

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    @classmethod
    def from_array(cls, data: np.ndarray) -> "EmbeddingMatrix":
        return cls(data=data)


@dataclass(frozen=True)
class SimilarityKernel:
    """Dense row-major similarity matrix, square or rectangular, with
    entries in [0, 1] after rescaling."""

    data: np.ndarray
    symmetric: bool

    def __post_init__(self):
        data = np.ascontiguousarray(np.asarray(self.data, dtype=np.float64))
        if data.ndim != 2:
            raise ValueError("kernel data must be 2-D")
        if self.symmetric and data.shape[0] != data.shape[1]:
            raise ValueError("symmetric kernel must be square")
        object.__setattr__(self, "data", data)


# Rows per block of the row-norm pass: its squared temporary stays
# _NORM_BLOCK_ROWS x D instead of n x D.
_NORM_BLOCK_ROWS = 1024


def _row_norms(emb: EmbeddingMatrix) -> np.ndarray:
    """Euclidean row norms, computed in row blocks (each row's norm is the
    same float either way); a zero-norm row is an error."""
    norms = np.empty(emb.rows)
    for lo in range(0, emb.rows, _NORM_BLOCK_ROWS):
        hi = lo + _NORM_BLOCK_ROWS
        norms[lo:hi] = np.linalg.norm(emb.data[lo:hi], axis=1)
    zero = norms <= 0.0
    if np.any(zero):
        bad = np.where(zero)[0][0]
        raise ValueError(f"zero-norm embedding row id={bad}")
    return norms


def _normalized_rows(emb: EmbeddingMatrix) -> np.ndarray:
    return emb.data / _row_norms(emb)[:, None]


def cosine_kernel(a: EmbeddingMatrix, b: EmbeddingMatrix | None = None) -> SimilarityKernel:
    """Rescaled cosine kernel between two embedding matrices.

    The raw cosines are ``FactoredKernel.take`` products of unit rows, in
    its row blocks, clipped to [-1, 1] and mapped to (1 + s) / 2 in [0, 1].
    The kernel is marked symmetric iff ``b`` is the same matrix as ``a``
    (or omitted), in which case ``take`` pins the diagonal to exactly 1.
    """
    same = b is None or b is a
    bm = a if same else b
    if a.dim != bm.dim:
        raise ValueError(f"embedding dim mismatch: {a.dim} vs {bm.dim}")
    rescaled = FactoredKernel(_normalized_rows(a), None if same else _normalized_rows(bm)).take()
    np.clip(rescaled, -1.0, 1.0, out=rescaled)
    rescaled += 1.0
    rescaled *= 0.5
    return SimilarityKernel(data=rescaled, symmetric=same)


def cosine_factors(a: np.ndarray) -> np.ndarray:
    """Rank-(D+1) factor F = [1, a_hat] / sqrt(2) of the rescaled cosine kernel.

    For any two inputs, ``cosine_factors(a) @ cosine_factors(b).T`` equals
    ``cosine_kernel(a, b).data`` up to rounding (no clipping is needed:
    unit rows keep |a_hat . b_hat| <= 1 to within an ulp).
    """
    emb = EmbeddingMatrix.from_array(a)
    out = np.empty((emb.rows, emb.dim + 1))
    out[:, 0] = 1.0
    # Divided straight into the output: no n x D temporary.
    np.divide(emb.data, _row_norms(emb)[:, None], out=out[:, 1:])
    out *= np.sqrt(0.5)
    return out


def khatri_rao_factors(resid: np.ndarray, xb: np.ndarray, index=None) -> "FactoredKernel":
    """Square ``FactoredKernel`` of the rescaled cosine kernel over the rows
    g_i = resid_i outer xb_i, held as its two parts.

    The cosine of two such rows is the product of the cosines of their
    parts, so the factor is F = [1, r_hat outer x_hat] / sqrt(2), with
    r_hat and x_hat the unit rows of the parts.  The kernel keeps only
    ``parts = (r_hat, x_hat)``, C + d + 1 values per row; its ``rows``
    build rows of F on demand, equal to ``cosine_factors(g)`` up to
    rounding.  A zero row in either part is a zero row of g and raises as
    in ``cosine_factors``.  With an ``index`` the parts hold distinct
    rows and point i is row ``index[i]`` of them (see ``distinct_rows``).
    """
    r = EmbeddingMatrix.from_array(resid)
    x = EmbeddingMatrix.from_array(xb)
    if r.rows != x.rows:
        raise ValueError(f"parts must align: {r.rows} vs {x.rows} rows")
    return FactoredKernel(parts=(_normalized_rows(r), _normalized_rows(x)), index=index)


# Odd multiples of this odd constant weigh a row's 64-bit words in its hash.
_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)


def distinct_rows(a: np.ndarray) -> tuple[np.ndarray | None, np.ndarray | None]:
    """``(first, index)``: the position of each distinct row of ``a`` at its
    first occurrence, in order, and for every row the number of its
    distinct row, so that ``a[first][index]`` is ``a``; ``(None, None)``
    when every row is distinct.

    Rows are equal when their bytes are (the entries of a 1-D array are
    its rows).  Equal rows have equal hashes, so a pool whose row hashes
    all differ has no copies: one product and one sort of n 64-bit words
    (about 1 ms on 16500 x 32 float64) settle a pool without copies.
    Otherwise one ``np.unique`` sorts the rows as opaque byte strings
    (7-13 ms on such a pool); ``np.unique(axis=0)`` compares them field by
    field and took about five times as long.
    """
    a = np.ascontiguousarray(a)
    if a.ndim == 2 and (a.itemsize * a.shape[1]) % 8 == 0:
        words = a.view(np.uint64)
        odd = np.arange(1, 2 * words.shape[1], 2, dtype=np.uint64) * _HASH_MULTIPLIER
        hashes = np.sort(words @ odd)  # wraps modulo 2**64
        if not np.any(hashes[1:] == hashes[:-1]):
            return None, None
    keys = a if a.ndim == 1 else a.view(np.dtype((np.void, a.itemsize * a.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    if first.size == len(a):
        return None, None
    order = np.argsort(first)
    number = np.empty_like(order)
    number[order] = np.arange(order.size)
    return first[order], number[inverse.ravel()]


# Rows per block when a factored block is multiplied out: each row block
# is transformed by the caller right after its GEMM, while still in cache.
# Smaller blocks measured slower, larger no faster.
_BLOCK_ROWS = 256

# Rows per block filled from Khatri-Rao parts: the fill is bound by its
# passes over two staging buffers, not by its two small GEMMs.  A 14000 x
# 14000 float32 coverage fill took 1.5-1.7 s with 64 rows, 1.6-1.8 s with 32
# or 128 and 2.0 s with 256 (2 vCPUs, OpenBLAS with 2 threads); with the
# other vCPU busy, 32 rows took 4.4-4.8 s, 64 and 256 rows 3.2-3.5 s.
_PARTS_BLOCK_ROWS = 64

# Rows per block of F built from parts (``factor_blocks``): 512 x 331 float64
# is 1.4 MB, against 37 MB for the whole factor of a 14000-point pool.  The
# pivot diagonal's 14000 x 331 x 331 product took 44-45 ms in 512-row
# blocks, as one GEMM did (43-46 ms), and 52-64 ms in 256-row blocks.
_FACTOR_BLOCK_ROWS = 512


def _factor_array(val, what: str) -> np.ndarray:
    out = np.ascontiguousarray(np.asarray(val, dtype=np.float64))
    if out.ndim != 2:
        raise ValueError(f"kernel {what} must be 2-D, got shape {out.shape}")
    return out


class FactoredKernel:
    """Kernel block held as factors, F_rows F_cols^T, never materialized.

    The row factor is ``left``, or, for a kernel built by
    ``khatri_rao_factors``, its ``parts``: the unit rows ``(r_hat, x_hat)``
    whose per-row outer product makes up F[:, 1:] (F[:, 0] = 1/sqrt(2)).
    A kernel with parts stores no F; ``rows`` and ``factor_blocks`` build
    the rows of F they are asked for.  ``right=None`` marks the square
    symmetric block of the row factor with itself; its diagonal is pinned
    to exactly 1, as in ``cosine_kernel``, on each point alone (two copies
    of a row are two points).

    Parts may also hold only the distinct rows of a pool with copies:
    ``index`` (n integers) then gives each point's row of the parts, and
    ``rows``, ``factor_blocks``, ``row_blocks``, ``take``, ``cross``,
    ``shares_rows`` and ``dot`` read the n points through it, so every copy
    of a row reads the same floats.  ``distinct`` is the kernel of the
    rows themselves, for state kept once per row, and ``points`` the
    kernel of some points alone, on the rows they read.  ``index`` is None
    when each point has its own row, and always for a stored ``left``.
    """

    def __init__(self, left=None, right=None, parts=None, index=None):
        if parts is None:
            if left is None:
                raise ValueError("a factored kernel needs a left factor or parts")
            self._left = _factor_array(left, "factor")
            n, self.rank = self._left.shape
        else:
            r_hat, x_hat = (_factor_array(p, "part") for p in parts)
            n, self.rank = r_hat.shape[0], 1 + r_hat.shape[1] * x_hat.shape[1]
            if x_hat.shape[0] != n:
                raise ValueError(f"parts must align: {n} vs {x_hat.shape[0]} rows")
            if left is not None:
                shape = np.shape(left)
                if shape != (n, self.rank):
                    raise ValueError(
                        f"parts of shape {(n, self.rank)} do not make up the factor {shape}"
                    )
                raise ValueError("a factored kernel takes a left factor or parts, not both")
            self._left, parts = None, (r_hat, x_hat)
        if index is not None:
            if parts is None:
                raise ValueError("a row index needs parts: a stored factor has one row per point")
            index = np.asarray(index)
            bad = index.ndim != 1 or index.dtype.kind not in "iu"
            if bad or np.any((index < 0) | (index >= n)):
                raise ValueError(f"a row index must be 1-D integers in [0, {n})")
            index = index.astype(np.intp, copy=False)
            n = index.size
        self.parts, self.index = parts, index
        self.right = None if right is None else _factor_array(right, "factor")
        if self.right is not None and self.right.shape[1] != self.rank:
            raise ValueError(f"factor rank mismatch: {self.rank} vs {self.right.shape[1]}")
        self._n = n

    @property
    def symmetric(self) -> bool:
        return self.right is None

    @property
    def shape(self) -> tuple[int, int]:
        return self._n, self._n if self.right is None else self.right.shape[0]

    @property
    def distinct(self) -> "FactoredKernel":
        """This kernel over its distinct rows alone, row k for the points
        whose ``index`` entry is k (itself when there is no index)."""
        if self.index is None:
            return self
        return FactoredKernel(right=self.right, parts=self.parts)

    def points(self, ids) -> "FactoredKernel":
        """The square kernel of points ``ids`` alone, on the rows of parts they
        read: each once, in point order, with an ``index`` if they hold copies."""
        rows = self._part_rows(np.asarray(ids, dtype=np.intp))
        first, index = distinct_rows(rows)
        rows = rows if first is None else rows[first]
        return FactoredKernel(parts=tuple(p[rows] for p in self.parts), index=index)

    @property
    def left(self) -> np.ndarray:
        """The whole row factor F, built explicitly for a kernel with parts."""
        return self.rows(slice(None))

    def rows(self, idx, out=None) -> np.ndarray:
        """Rows ``idx`` (an index, index array or slice) of the row factor
        F.  With parts they are built, into ``out`` if given, as
        sqrt(1/2) [1, (r_hat sqrt(1/2)) outer x_hat], each from its point's
        row of the parts; a stored factor gives its rows (a view for a
        slice or an index)."""
        if self.parts is None:
            return self._left[idx]
        r, x = self.parts
        idx = self._part_rows(idx)
        r, x = r[idx] * np.sqrt(0.5), x[idx]
        if out is None:
            out = np.empty(r.shape[:-1] + (self.rank,))
        out[..., 0] = np.sqrt(0.5)
        # F[..., 1:] viewed as C x (d+1) per row: the outer products land in place.
        outer = out[..., 1:].reshape(r.shape + x.shape[-1:])
        np.multiply(r[..., :, None], x[..., None, :], out=outer)
        return out

    def _part_rows(self, idx):
        """Rows of the parts that points ``idx`` read."""
        return idx if self.index is None else self.index[idx]

    def factor_blocks(self, rows=None):
        """Yield ``(lo, hi, F[rows][lo:hi])`` in blocks of
        ``_FACTOR_BLOCK_ROWS`` rows (``rows``: an index array, None = all).
        With parts each block is built into one staging buffer that the
        next overwrites, so no more than one block of F exists at a time."""
        n = self._n if rows is None else len(rows)
        stage = None if self.parts is None else np.empty((min(n, _FACTOR_BLOCK_ROWS), self.rank))
        for lo in range(0, n, _FACTOR_BLOCK_ROWS):
            hi = min(n, lo + _FACTOR_BLOCK_ROWS)
            sel = slice(lo, hi) if rows is None else rows[lo:hi]
            yield lo, hi, self.rows(sel, None if stage is None else stage[: hi - lo])

    def cross(self, right: np.ndarray) -> "FactoredKernel":
        """The block of this kernel's rows against the column factor
        ``right``, sharing the row factor or its parts and index."""
        return FactoredKernel(self._left, right, parts=self.parts, index=self.index)

    def shares_rows(self, other: "FactoredKernel") -> bool:
        """Whether ``other`` has this kernel's row factor: the same stored
        factor or parts and index, else equal rows of F, compared block by
        block."""
        mine = (*(self.parts or (self._left,)), self.index)
        theirs = (*(other.parts or (other._left,)), other.index)
        if len(mine) == len(theirs) and all(a is b for a, b in zip(mine, theirs)):
            return True
        if (self._n, self.rank) != (other._n, other.rank):
            return False
        return all(
            np.array_equal(blk, other.rows(slice(lo, hi))) for lo, hi, blk in self.factor_blocks()
        )

    def _col_rows(self, idx) -> np.ndarray:
        """Rows ``idx`` of the column factor (F itself for a symmetric block)."""
        return self.rows(idx) if self.right is None else self.right[idx]

    def take(self, rows=None, cols=None) -> np.ndarray:
        """Dense sub-block at index arrays ``rows`` x ``cols`` (None = all),
        each row block of F multiplied by the built columns of the factor."""
        whole = rows is None and cols is None
        rows = None if rows is None else np.asarray(rows, dtype=np.intp)
        cols = slice(None) if cols is None else np.asarray(cols, dtype=np.intp)
        f_cols = self._col_rows(cols).T
        out = np.empty((self._n if rows is None else rows.size, f_cols.shape[1]))
        for lo, hi, blk in self.factor_blocks(rows):
            np.matmul(blk, f_cols, out=out[lo:hi])
        if self.symmetric and whole:
            np.fill_diagonal(out, 1.0)  # no n x n index mask
        elif self.symmetric:
            ids = np.arange(self._n)
            out[ids[slice(None) if rows is None else rows][:, None] == ids[cols][None, :]] = 1.0
        return out

    def row_blocks(self, cols=None):
        """Yield ``(lo, hi, S[lo:hi, cols])`` over the rows (``cols``: sorted
        indices, None = all), each block a float64 view of one staging buffer
        that the next overwrites; a square block has its unit diagonal pinned.
        A square block with parts (R, X) is (1 + (R_rows R_cols^T) *
        (X_rows X_cols^T)) / 2 in ``_PARTS_BLOCK_ROWS`` rows, any other
        F_rows F_cols^T in ``_BLOCK_ROWS``.
        """
        n, m = self.shape
        idx = np.arange(m) if cols is None else np.asarray(cols, dtype=np.intp)
        # All columns: a transposed view has the layout of the gathered copy.
        pick = slice(None) if cols is None else idx
        from_parts = self.symmetric and self.parts is not None
        if from_parts:
            r, x = self.parts
            # Halving is exact: (R/2) R^T * X X^T + 1/2 rounds as (1 + R R^T * X X^T) / 2.
            half_r = 0.5 * r
            cols_at = self._part_rows(pick)
            step, r_cols, x_cols = _PARTS_BLOCK_ROWS, r[cols_at].T, x[cols_at].T
            aux = np.empty((min(n, step), idx.size))
        else:
            step, f_cols = _BLOCK_ROWS, self._col_rows(pick).T
        stage = np.empty((min(n, step), idx.size))
        for lo in range(0, n, step):
            hi = min(n, lo + step)
            blk = stage[: hi - lo]
            if from_parts:
                at = self._part_rows(slice(lo, hi))
                np.matmul(half_r[at], r_cols, out=blk)
                blk *= np.matmul(x[at], x_cols, out=aux[: hi - lo])
                blk += 0.5
            else:
                np.matmul(self.rows(slice(lo, hi)), f_cols, out=blk)
            if self.symmetric:
                a, b = np.searchsorted(idx, (lo, hi))
                blk[idx[a:b] - lo, np.arange(a, b)] = 1.0
            yield lo, hi, blk

    def dot(self, a: np.ndarray) -> np.ndarray:
        """The factor product F @ a, or for m vectors stacked as the rows of
        ``a`` (m x rank) the m x n array whose row k is F @ a[k].

        With parts (R, X) row k is (a_k0 + rowsum((X A_k^T) * R)) / sqrt(2)
        with A_k = a[k, 1:] as C x (d+1): C + d + 1 values read per row of
        F instead of C(d+1) + 1, and all m products share one GEMM
        X [A_1; ...; A_m]^T.  A stored F gives one GEMV per vector, as it
        does for one vector: a GEMM there is a different BLAS routine and
        may round differently.  With an index each distinct row's product is
        formed once and read by every point of that row."""
        if self.parts is None:
            return self._left @ a if a.ndim == 1 else np.stack([self._left @ v for v in a])
        vecs = np.atleast_2d(a)
        r, x = self.parts
        c = r.shape[1]
        t = x @ vecs[:, 1:].reshape(len(vecs) * c, x.shape[1]).T
        out = np.empty((len(vecs), r.shape[0]))
        for k, row in enumerate(out):
            np.einsum("ij,ij->i", t[:, k * c : (k + 1) * c], r, out=row)
        out += vecs[:, :1]
        out *= np.sqrt(0.5)
        if self.index is not None:
            out = out[:, self.index]
        return out if a.ndim > 1 else out[0]
