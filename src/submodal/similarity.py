"""Similarity kernels over embedding vectors, dense or factored.

Kernels are cosine similarities affinely rescaled to [0, 1] via
s -> (1 + s) / 2, which keeps square kernels positive semidefinite
(the rescaled matrix is a convex combination of the all-ones matrix
and a Gram matrix) and keeps every downstream formula that assumes
nonnegative similarities well behaved.  The same convex combination
gives every block a factorization F_a F_b^T with F = [1, a_hat] / sqrt(2)
of rank D + 1, which the log-determinant family uses instead of an
n x n block.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    """Dense row-major similarity matrix, square or rectangular.

    Entries live in [0, 1] after rescaling; a square symmetric kernel
    carries an optional diagonal regularization eps recorded in
    ``regularization`` (diagonal entries are then 1 + eps).
    """

    data: np.ndarray
    symmetric: bool
    row_ids: np.ndarray
    col_ids: np.ndarray
    regularization: float = 0.0

    def __post_init__(self):
        data = np.ascontiguousarray(np.asarray(self.data, dtype=np.float64))
        if data.ndim != 2:
            raise ValueError("kernel data must be 2-D")
        if self.symmetric and data.shape[0] != data.shape[1]:
            raise ValueError("symmetric kernel must be square")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "row_ids", np.asarray(self.row_ids))
        object.__setattr__(self, "col_ids", np.asarray(self.col_ids))

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


def _normalized_rows(emb: EmbeddingMatrix) -> np.ndarray:
    norms = np.linalg.norm(emb.data, axis=1)
    zero = norms <= 0.0
    if np.any(zero):
        bad = np.where(zero)[0][0]
        raise ValueError(f"zero-norm embedding row id={emb.ids[bad].item()!r}")
    return emb.data / norms[:, None]


def cosine_kernel(a: EmbeddingMatrix, b: EmbeddingMatrix | None = None) -> SimilarityKernel:
    """Rescaled cosine kernel between two embedding matrices.

    Raw cosines in [-1, 1] map to (1 + s) / 2 in [0, 1].  The kernel is
    marked symmetric iff ``b`` is the same matrix as ``a`` (or omitted),
    in which case the diagonal is pinned to exactly 1 before any later
    regularization.
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
    return SimilarityKernel(
        data=rescaled,
        symmetric=same,
        row_ids=a.ids,
        col_ids=bm.ids,
        regularization=0.0,
    )


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
    out[:, 1:] = _normalized_rows(emb)
    out *= np.sqrt(0.5)
    return out


@dataclass(frozen=True)
class FactoredKernel:
    """Kernel block held as factors, ``left @ right.T``, never materialized.

    ``right=None`` marks the square symmetric block of ``left`` with
    itself; its diagonal is pinned to exactly 1, as in ``cosine_kernel``.
    """

    left: np.ndarray
    right: np.ndarray | None = None

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
        rows = np.arange(self.shape[0]) if rows is None else np.asarray(rows, dtype=np.intp)
        cols = np.arange(self.shape[1]) if cols is None else np.asarray(cols, dtype=np.intp)
        out = _big_matmul(self.left[rows], self.cols[cols])
        if self.symmetric and whole:
            np.fill_diagonal(out, 1.0)  # no n x n index mask
        elif self.symmetric:
            out[rows[:, None] == cols[None, :]] = 1.0
        return out


def regularize(k: SimilarityKernel, eps: float) -> SimilarityKernel:
    """Add eps to the diagonal of a symmetric kernel."""
    if not k.symmetric:
        raise ValueError("regularization requires a symmetric kernel")
    if eps < 0:
        raise ValueError(f"eps must be nonnegative, got {eps}")
    if eps == 0.0:
        return k
    data = k.data.copy()
    data[np.diag_indices_from(data)] += eps
    return SimilarityKernel(
        data=data,
        symmetric=True,
        row_ids=k.row_ids,
        col_ids=k.col_ids,
        regularization=k.regularization + eps,
    )


def submatrix(k: SimilarityKernel, rows: Sequence[int], cols: Sequence[int]) -> SimilarityKernel:
    """Extract a block; ids are inherited from the selected rows/cols."""
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    n_rows, n_cols = k.shape
    for idx, bound, what in ((rows, n_rows, "row"), (cols, n_cols, "col")):
        if idx.size and (idx.min() < 0 or idx.max() >= bound):
            raise IndexError(f"{what} index out of range for kernel of shape {k.shape}")
    sym = k.symmetric and rows.shape == cols.shape and bool(np.all(rows == cols))
    return SimilarityKernel(
        data=k.data[np.ix_(rows, cols)],
        symmetric=sym,
        row_ids=k.row_ids[rows],
        col_ids=k.col_ids[cols],
        regularization=k.regularization if sym else 0.0,
    )
