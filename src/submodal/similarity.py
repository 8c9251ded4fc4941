"""Similarity kernels over embedding vectors, dense or factored.

Kernels are cosine similarities affinely rescaled to [0, 1] via
s -> (1 + s) / 2, which keeps square kernels positive semidefinite
(the rescaled matrix is a convex combination of the all-ones matrix
and a Gram matrix) and keeps every downstream formula that assumes
nonnegative similarities well behaved.  The same convex combination
gives every block a factorization F_a F_b^T with F = [1, a_hat] / sqrt(2)
of rank D + 1, which every function kind uses instead of an n x n block.

A BADGE gradient embedding g = r outer x (residual r = p - e_y over C
classes, biased input x = [x; 1]) has cos(g_i, g_j) = cos(r_i, r_j)
cos(x_i, x_j), so its factor is F = [1, r_hat outer x_hat] / sqrt(2) in
Khatri-Rao form.  ``khatri_rao_factors`` builds F from the two parts,
without the n x C(d+1) embedding, and keeps the parts beside it for
``FactoredKernel``'s products alone: ``dot`` and ``row_blocks`` then read
C + d + 1 values per row instead of C(d+1) + 1, and ``take`` reads F.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

# Regularization defaults: the log-determinant family needs an invertible
# diagonal bump, everything else runs on the raw rescaled kernel.
DEFAULT_LOGDET_EPS = 1e-2


@dataclass(frozen=True)
class EmbeddingMatrix:
    """A stack of row vectors with stable external identifiers."""

    data: np.ndarray
    ids: np.ndarray

    def __post_init__(self):
        data = np.ascontiguousarray(np.asarray(self.data, dtype=np.float64))
        if data.ndim != 2:
            raise ValueError(f"embedding matrix must be 2-D, got shape {data.shape}")
        ids = np.asarray(self.ids)
        if ids.shape != (data.shape[0],):
            raise ValueError(
                f"ids must align with rows: {ids.shape[0] if ids.ndim else 0} ids "
                f"for {data.shape[0]} rows"
            )
        if len(np.unique(ids)) != len(ids):
            raise ValueError("ids must be unique")
        if not np.all(np.isfinite(data)):
            bad = np.where(~np.isfinite(data).all(axis=1))[0][0]
            raise ValueError(f"non-finite entries in row id={ids[bad].item()!r}")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "ids", ids)

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    @classmethod
    def from_array(cls, data: np.ndarray, ids: Sequence | None = None) -> "EmbeddingMatrix":
        data = np.asarray(data, dtype=np.float64)
        if ids is None:
            ids = np.arange(data.shape[0])
        return cls(data=data, ids=np.asarray(ids))


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

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape


# Outputs above this element count are computed in row blocks: one huge
# GEMM call corrupts the heap on some OpenBLAS builds, and blocking also
# caps the workspace.
_GEMM_BLOCK_ELEMENTS = 1 << 24
_GEMM_BLOCK_ROWS = 4096


def _big_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.shape[0] * b.shape[0] <= _GEMM_BLOCK_ELEMENTS:
        return a @ b.T
    out = np.empty((a.shape[0], b.shape[0]))
    bt = b.T
    for i in range(0, a.shape[0], _GEMM_BLOCK_ROWS):
        np.matmul(a[i : i + _GEMM_BLOCK_ROWS], bt, out=out[i : i + _GEMM_BLOCK_ROWS])
    return out


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
        raise ValueError(f"zero-norm embedding row id={emb.ids[bad].item()!r}")
    return norms


def _normalized_rows(emb: EmbeddingMatrix) -> np.ndarray:
    return emb.data / _row_norms(emb)[:, None]


def cosine_kernel(a: EmbeddingMatrix, b: EmbeddingMatrix | None = None) -> SimilarityKernel:
    """Rescaled cosine kernel between two embedding matrices.

    Raw cosines in [-1, 1] map to (1 + s) / 2 in [0, 1].  The kernel is
    marked symmetric iff ``b`` is the same matrix as ``a`` (or omitted),
    in which case the diagonal is pinned to exactly 1.
    """
    same = b is None or b is a
    bm = a if same else b
    if a.dim != bm.dim:
        raise ValueError(f"embedding dim mismatch: {a.dim} vs {bm.dim}")
    an = _normalized_rows(a)
    bn = an if same else _normalized_rows(bm)
    rescaled = _big_matmul(an, bn)
    np.clip(rescaled, -1.0, 1.0, out=rescaled)
    rescaled += 1.0
    rescaled *= 0.5
    if same:
        np.fill_diagonal(rescaled, 1.0)
    return SimilarityKernel(data=rescaled, symmetric=same)


def cosine_block(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """``cosine_kernel(a, b).data`` for plain arrays of row vectors."""
    eb = EmbeddingMatrix.from_array(b) if b is not None else None
    return cosine_kernel(EmbeddingMatrix.from_array(a), eb).data


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


def khatri_rao_factors(resid: np.ndarray, xb: np.ndarray) -> "FactoredKernel":
    """Square ``FactoredKernel`` of the rescaled cosine kernel over the rows
    g_i = resid_i outer xb_i, built from the two parts.

    The cosine of two such rows is the product of the cosines of their
    parts, so ``left`` = [1, r_hat outer x_hat] / sqrt(2), with r_hat and
    x_hat the unit rows of the parts.  It equals
    ``cosine_factors(g)`` up to rounding and is written straight into its
    output, with no n x C(d+1) temporary.  The kernel also carries
    ``parts = (r_hat, x_hat)``, which its ``dot`` and ``row_blocks``
    read instead of ``left``.  A zero row in either part is a zero row
    of g and raises as in ``cosine_factors``.
    """
    r = EmbeddingMatrix.from_array(resid)
    x = EmbeddingMatrix.from_array(xb)
    if r.rows != x.rows:
        raise ValueError(f"parts must align: {r.rows} vs {x.rows} rows")
    rn, xn = _row_norms(r), _row_norms(x)
    r_hat = r.data / rn[:, None]
    x_hat = x.data / xn[:, None]
    n, c, d1 = r.rows, r.dim, x.dim
    out = np.empty((n, 1 + c * d1))
    out[:, 0] = np.sqrt(0.5)
    np.multiply(
        (r_hat * np.sqrt(0.5))[:, :, None], x_hat[:, None, :], out=out[:, 1:].reshape(n, c, d1)
    )
    return FactoredKernel(out, parts=(r_hat, x_hat))


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


@dataclass(frozen=True)
class FactoredKernel:
    """Kernel block held as factors, ``left @ right.T``, never materialized.

    ``right=None`` marks the square symmetric block of ``left`` with
    itself; its diagonal is pinned to exactly 1, as in ``cosine_kernel``.
    ``parts`` is set by ``khatri_rao_factors`` only: the unit rows
    ``(r_hat, x_hat)`` whose per-row outer product makes up ``left[:, 1:]``.
    """

    left: np.ndarray
    right: np.ndarray | None = None
    parts: tuple[np.ndarray, np.ndarray] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        for name in ("left", "right"):
            val = getattr(self, name)
            if val is not None:
                val = np.ascontiguousarray(np.asarray(val, dtype=np.float64))
                if val.ndim != 2:
                    raise ValueError(f"kernel factor must be 2-D, got shape {val.shape}")
                object.__setattr__(self, name, val)
        if self.right is not None and self.right.shape[1] != self.left.shape[1]:
            raise ValueError(
                f"factor rank mismatch: {self.left.shape[1]} vs {self.right.shape[1]}"
            )
        if self.parts is not None:
            r_hat, x_hat = self.parts
            want = (r_hat.shape[0], 1 + r_hat.shape[1] * x_hat.shape[1])
            if self.right is not None or self.left.shape != want:
                raise ValueError(
                    f"parts of shape {want} do not make up the factor {self.left.shape}"
                )

    @property
    def symmetric(self) -> bool:
        return self.right is None

    @property
    def cols(self) -> np.ndarray:
        """Factor of the column set (``left`` for a symmetric block)."""
        return self.left if self.right is None else self.right

    @property
    def shape(self) -> tuple[int, int]:
        return self.left.shape[0], self.cols.shape[0]

    def take(self, rows=None, cols=None) -> np.ndarray:
        """Dense sub-block at index arrays ``rows`` x ``cols`` (None = all)."""
        whole = rows is None and cols is None
        # A full slice reads a factor in place; an index array would copy it.
        rows = slice(None) if rows is None else np.asarray(rows, dtype=np.intp)
        cols = slice(None) if cols is None else np.asarray(cols, dtype=np.intp)
        out = _big_matmul(self.left[rows], self.cols[cols])
        if self.symmetric and whole:
            np.fill_diagonal(out, 1.0)  # no n x n index mask
        elif self.symmetric:
            ids = np.arange(self.shape[0])
            out[ids[rows][:, None] == ids[cols][None, :]] = 1.0
        return out

    def row_blocks(self, cols=None):
        """Yield ``(lo, hi, S[lo:hi, cols])`` over the rows (``cols``: sorted
        indices, None = all), each block a float64 view of one staging buffer
        that the next overwrites; a square block has its unit diagonal pinned.
        With parts (R, X) it is (1 + (R_rows R_cols^T) * (X_rows X_cols^T)) / 2
        in ``_PARTS_BLOCK_ROWS`` rows, else left_rows F_cols^T in ``_BLOCK_ROWS``.
        """
        n, m = self.shape
        idx = np.arange(m) if cols is None else np.asarray(cols, dtype=np.intp)
        # All columns: a transposed view has the layout of the gathered copy.
        pick = slice(None) if cols is None else idx
        if self.parts is None:
            step, f_cols = _BLOCK_ROWS, self.cols[pick].T
        else:
            r, x = self.parts
            # Halving is exact: (R/2) R^T * X X^T + 1/2 rounds as (1 + R R^T * X X^T) / 2.
            half_r = 0.5 * r
            step, r_cols, x_cols = _PARTS_BLOCK_ROWS, r[pick].T, x[pick].T
            aux = np.empty((min(n, step), idx.size))
        stage = np.empty((min(n, step), idx.size))
        for lo in range(0, n, step):
            hi = min(n, lo + step)
            blk = stage[: hi - lo]
            if self.parts is None:
                np.matmul(self.left[lo:hi], f_cols, out=blk)
            else:
                np.matmul(half_r[lo:hi], r_cols, out=blk)
                blk *= np.matmul(x[lo:hi], x_cols, out=aux[: hi - lo])
                blk += 0.5
            if self.symmetric:
                a, b = np.searchsorted(idx, (lo, hi))
                blk[idx[a:b] - lo, np.arange(a, b)] = 1.0
            yield lo, hi, blk

    def dot(self, a: np.ndarray) -> np.ndarray:
        """The factor product ``left @ a``.  With parts (R, X) it is
        (a_0 + rowsum((X A^T) * R)) / sqrt(2) with A = a[1:] as C x (d+1),
        C + d + 1 values read per row instead of C(d+1) + 1."""
        if self.parts is None:
            return self.left @ a
        r, x = self.parts
        t = x @ a[1:].reshape(r.shape[1], x.shape[1]).T
        out = np.einsum("ij,ij->i", t, r)
        out += a[0]
        out *= np.sqrt(0.5)
        return out
