"""Submodular information measures as incremental acquisition oracles.

Every function kind is defined over a ground set of n selectable points
and sees only the kernel blocks it declares:

===========  =====================================  =======================
kind         closed form (selection A)              blocks read
===========  =====================================  =======================
fl           sum_i max_{j in A} S_ij                uu
gc           sum_{i,j in A..} S - lam * quad        uu
logdet       log det(S_A + eps I)                   uu
flvmi        sum_i min(max_A S_i, max_Q S_i)        uu, uq
flqmi        sum_Q max_A + sum_A max_Q              uq
gcmi         2 lam sum_{A x Q} S                    uq
logdetmi     logdet(S_A) - logdet(S_A|Q)            uu, uq, qq
flcg         sum_i max(max_A S_i - max_P S_i, 0)    uu, up
gccg         gc(A) - 2 lam sum_{A x P} S            uu, up
logdetcg     logdet(S_A|P)                          uu, up, pp
flcmi        sum_i max(min(max_A,max_Q)-max_P, 0)   uu, uq, up
logdetcmi    logdet(S_A|P) - logdet(S_A|Q,P)        uu, uq, up, qq, pp, qp
div_gcmi     gcmi + eta * fl   (heuristic)          uu, uq
===========  =====================================  =======================

``S_A|X`` denotes the Schur complement of the regularized X-block in the
joint kernel.  Empty query/conditioning blocks degrade gracefully: an
empty Q sends every mutual-information kind to 0, an empty P reduces
each conditional kind to its unconditional counterpart, and evaluating
the empty selection yields 0 for every kind.

The facility-location kinds (fl, flvmi, flcg, flcmi and the fl term of
div_gcmi) share one form: sum_i c_i(max_{j in A} S_ij) with the per-point
coverage c_i(s) = max(min(s, q_i) - p_i, 0), q_i = max_Q S_i (no min
without Q) and p_i = max_P S_i (no shift without P).  ``InfoFunction``
builds the coverage block cov[x, i] = c_i(S_xi) once, keeping only the
columns with q_i > p_i (c_i is identically 0 on the others); gains,
commits and ``evaluate`` read nothing else.

A ``SelectionState`` memoizes whatever its kind needs (running coverage
maxima for the facility-location family, incremental Cholesky factors
for the log-determinant family, running cross sums for graph cut) so
that marginal gains are cheap and a commit sequence reproduces the
from-scratch value within 1e-8 absolute (1e-6 relative for log-det).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from .similarity import DEFAULT_LOGDET_EPS, FactoredKernel

SF_KINDS = ("fl", "gc", "logdet")
SMI_KINDS = ("flvmi", "flqmi", "gcmi", "logdetmi")
SCG_KINDS = ("flcg", "gccg", "logdetcg")
SCMI_KINDS = ("flcmi", "logdetcmi")
HEURISTIC_KINDS = ("div_gcmi",)
ALL_KINDS = SF_KINDS + SMI_KINDS + SCG_KINDS + SCMI_KINDS + HEURISTIC_KINDS

LOGDET_FAMILY = frozenset({"logdet", "logdetmi", "logdetcg", "logdetcmi"})
# Kinds with a facility-location term, evaluated on the coverage block.
FL_FAMILY = frozenset({"fl", "flvmi", "flcg", "flcmi", "div_gcmi"})
# Kinds that accept ``FactoredKernel`` blocks for uu, uq and up.
FACTORED_KINDS = LOGDET_FAMILY | FL_FAMILY

# Kinds whose selection objective only ever needs the rectangular U x Q block.
RECTANGULAR_ONLY = frozenset({"flqmi", "gcmi"})

_NEEDS_UQ = frozenset({"flvmi", "flqmi", "gcmi", "logdetmi", "flcmi", "logdetcmi", "div_gcmi"})
_NEEDS_UP = frozenset({"flcg", "gccg", "logdetcg", "flcmi", "logdetcmi"})
_NEEDS_QQ = frozenset({"logdetmi", "logdetcmi"})
_NEEDS_PP = frozenset({"logdetcg", "logdetcmi"})
_NEEDS_QP = frozenset({"logdetcmi"})

_PIVOT_FLOOR = 1e-12

# Rows per block when a factored block is multiplied out: each block of the
# coverage matrix (rows x kept columns) is transformed right after its GEMM,
# while still in cache.  Smaller blocks measured slower, larger no faster.
_BLOCK_ROWS = 256


class NumericalError(RuntimeError):
    """Raised when a kernel block is numerically singular."""


def canonical_kind(name: str) -> str:
    kind = name.strip().lower().replace("-", "_")
    if kind not in ALL_KINDS:
        raise ValueError(f"unknown function kind {name!r}; expected one of {ALL_KINDS}")
    return kind


def _empty_block(n: int) -> np.ndarray:
    return np.zeros((n, 0))


def _as_block(arr, n_rows: int | None = None) -> np.ndarray:
    out = np.ascontiguousarray(np.asarray(arr, dtype=np.float64))
    if out.ndim != 2:
        raise ValueError(f"kernel block must be 2-D, got shape {out.shape}")
    if n_rows is not None and out.shape[0] != n_rows:
        raise ValueError(f"kernel block has {out.shape[0]} rows, expected {n_rows}")
    return out


def _sized_block(val, shape: tuple[int, int], name: str) -> np.ndarray:
    """A dense Q/P-sided block of exactly ``shape``; it may be absent
    only when it is empty."""
    if val is None:
        if shape[0] and shape[1]:
            raise ValueError(f"{name} block of shape {shape} is required, got None")
        return np.zeros(shape)
    out = _as_block(val)
    if out.shape != shape:
        raise ValueError(f"{name} block must have shape {shape}, got {out.shape}")
    return out


@dataclass(frozen=True)
class InfoFunction:
    """Immutable acquisition function over a fixed ground set.

    Kernel blocks are the raw rescaled similarities; the log-determinant
    regularization ``eps`` is applied internally to the diagonals of the
    square blocks, so callers never pre-regularize.  For the log-det
    and facility-location kinds ``uu``, ``uq`` and ``up`` may instead be
    ``FactoredKernel``s sharing the U factor (``uu = FactoredKernel(F_U)``,
    ``uq = FactoredKernel(F_U, F_Q)``, ...); the log-det kinds then never
    form an n x n block, and the facility-location kinds form only their
    pruned coverage block.  ``qq``, ``pp`` and ``qp`` are always dense.
    """

    kind: str
    uu: np.ndarray | FactoredKernel | None = None
    uq: np.ndarray | FactoredKernel | None = None
    up: np.ndarray | FactoredKernel | None = None
    qq: np.ndarray | None = None
    pp: np.ndarray | None = None
    qp: np.ndarray | None = None
    gc_lambda: float = 1.0
    eta: float = 1.0
    eps: float | None = None
    # Lower Cholesky factors of qq + eps I and pp + eps I (log-det family).
    _chol: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    # Coverage block of the facility-location family (see the module docs).
    _cov: np.ndarray | None = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        kind = canonical_kind(self.kind)
        object.__setattr__(self, "kind", kind)
        if self.eps is None:
            object.__setattr__(self, "eps", DEFAULT_LOGDET_EPS if kind in LOGDET_FAMILY else 0.0)
        factored = isinstance(self.uu, FactoredKernel)
        if factored and kind not in FACTORED_KINDS:
            raise ValueError(
                f"factored kernels are accepted only by the log-det and facility-location kinds, not {kind}"
            )
        for name in ("qq", "pp", "qp") + (() if factored else ("uq", "up")):
            if isinstance(getattr(self, name), FactoredKernel):
                raise ValueError(
                    f"a factored {name} is not accepted: only uu, uq and up may be "
                    "factored, and uq/up only alongside a factored uu"
                )

        if kind in RECTANGULAR_ONLY:
            if self.uq is None:
                raise ValueError(f"{kind} requires the U x Q block")
            uq = _as_block(self.uq)
            n = uq.shape[0]
            object.__setattr__(self, "uq", uq)
            object.__setattr__(self, "uu", None)
        elif factored:
            if not self.uu.symmetric:
                raise ValueError("factored U x U block must be symmetric (no right factor)")
            n = self.uu.shape[0]
        else:
            if self.uu is None:
                raise ValueError(f"{kind} requires the square U x U block")
            uu = _as_block(self.uu)
            if uu.shape[0] != uu.shape[1]:
                raise ValueError(f"U x U block must be square, got {uu.shape}")
            _check_symmetric(uu)
            n = uu.shape[0]
            object.__setattr__(self, "uu", uu)

        for name, needed in (("uq", kind in _NEEDS_UQ), ("up", kind in _NEEDS_UP)):
            if name == "uq" and kind in RECTANGULAR_ONLY:
                continue  # normalized above
            val = getattr(self, name)
            if not needed:
                val = None
            elif factored:
                val = _as_factored_cross(val, self.uu, name)
            else:
                val = _as_block(_empty_block(n) if val is None else val, n)
            object.__setattr__(self, name, val)

        q = self.uq.shape[1] if self.uq is not None else 0
        p = self.up.shape[1] if self.up is not None else 0
        for name, needed, shape in (
            ("qq", kind in _NEEDS_QQ, (q, q)),
            ("pp", kind in _NEEDS_PP, (p, p)),
            ("qp", kind in _NEEDS_QP, (q, p)),
        ):
            val = _sized_block(getattr(self, name), shape, name) if needed else None
            object.__setattr__(self, name, val)

        # Fail fast on singular query/conditioning blocks; the factors are
        # kept for the selection state and evaluate.
        if kind in LOGDET_FAMILY:
            for name in ("qq", "pp"):
                blk = getattr(self, name)
                if blk is not None and blk.shape[0] > 0:
                    self._chol[name] = _chol_or_raise(_reg(blk, self.eps), name)
        if kind in FL_FAMILY:
            object.__setattr__(self, "_cov", _coverage_block(self))

    @property
    def n(self) -> int:
        return self.uu.shape[0] if self.uu is not None else self.uq.shape[0]

    @property
    def metadata(self) -> dict:
        meta = {
            "kind": self.kind,
            "eps": self.eps,
            "gc_lambda": self.gc_lambda,
            "ground_size": self.n,
        }
        if self.kind == "div_gcmi":
            meta["eta"] = self.eta
            meta["heuristic_reconstruction"] = True
        return meta


def _as_factored_cross(val, uu: FactoredKernel, name: str) -> FactoredKernel:
    """U x X block of a factored function; an absent X gets an empty
    right factor."""
    if val is None:
        return FactoredKernel(uu.left, np.zeros((0, uu.left.shape[1])))
    if not isinstance(val, FactoredKernel):
        raise ValueError(f"{name} must be factored when uu is factored")
    if val.left is not uu.left and not np.array_equal(val.left, uu.left):
        raise ValueError(f"factored {name} must share the U factor of uu")
    return val


def _coverage_block(f: InfoFunction) -> np.ndarray:
    """cov[x, k] = c_i(S_xi) for the kept columns i = keep[k] (q_i > p_i).

    Filled in row blocks: one GEMM from the factors (or a cut of the dense
    block) into the output rows, then the transform in place.  The pinned
    unit diagonal of a factored uu is set by index.  The clamp at 0 matches
    the state's zero-initialized maxima.
    """
    n = f.n
    q = _row_max(f.uq) if f.kind in ("flvmi", "flcmi") else None
    p = _row_max(f.up) if f.kind in ("flcg", "flcmi") else None
    top = np.full(n, np.inf) if q is None else q
    keep = np.flatnonzero(top > (0.0 if p is None else p))
    q = None if q is None else q[keep]
    p = None if p is None else p[keep]
    factored = isinstance(f.uu, FactoredKernel)
    cols = f.uu.left[keep].T if factored else None
    cov = np.empty((n, keep.size))
    for lo in range(0, n, _BLOCK_ROWS):
        hi = min(n, lo + _BLOCK_ROWS)
        blk = cov[lo:hi]
        if factored:
            np.matmul(f.uu.left[lo:hi], cols, out=blk)
            a, b = np.searchsorted(keep, (lo, hi))
            blk[keep[a:b] - lo, np.arange(a, b)] = 1.0
        else:
            np.take(f.uu[lo:hi], keep, axis=1, out=blk)
        if q is not None:
            np.minimum(blk, q, out=blk)
        if p is not None:
            np.subtract(blk, p, out=blk)
        np.maximum(blk, 0.0, out=blk)
    return cov


def _row_max(block) -> np.ndarray:
    """Row maxima of a U x X block (0 where X is empty); a factored block
    is multiplied out one row block at a time."""
    n, m = block.shape
    if m == 0:
        return np.zeros(n)
    if not isinstance(block, FactoredKernel):
        return block.max(axis=1)
    out = np.empty(n)
    for lo in range(0, n, _BLOCK_ROWS):
        rows = np.arange(lo, min(n, lo + _BLOCK_ROWS))
        out[rows] = block.take(rows).max(axis=1)
    return out


def _check_symmetric(uu: np.ndarray, tol: float = 1e-10) -> None:
    """Selection states read rows of the ground kernel where the formulas
    say columns, which requires symmetry.  Full check up to n=2048, a
    seeded spot check above (BLAS kernels are symmetric to ulps)."""
    n = uu.shape[0]
    if n <= 2048:
        bad = np.abs(uu - uu.T).max() if n else 0.0
    else:
        rng = np.random.default_rng(0)
        i = rng.integers(0, n, size=512)
        j = rng.integers(0, n, size=512)
        bad = np.abs(uu[i, j] - uu[j, i]).max()
    if bad > tol:
        raise ValueError(f"U x U kernel block must be symmetric (max asymmetry {bad:.3e})")


def _chol_or_raise(mat: np.ndarray, label: str) -> np.ndarray:
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError as exc:
        cond = float(np.linalg.cond(mat))
        raise NumericalError(
            f"singular {label} block after regularization (condition number {cond:.3e})"
        ) from exc


def _slogdet_pd(mat: np.ndarray, label: str) -> float:
    if mat.shape[0] == 0:
        return 0.0
    sign, logdet = np.linalg.slogdet(mat)
    if sign <= 0:
        cond = float(np.linalg.cond(mat))
        raise NumericalError(
            f"non-positive-definite {label} matrix (condition number {cond:.3e})"
        )
    return float(logdet)


def _reg(square: np.ndarray, eps: float) -> np.ndarray:
    if eps == 0.0 or square.shape[0] == 0:
        return square
    out = square.copy()
    out[np.diag_indices_from(out)] += eps
    return out


# ---------------------------------------------------------------------------
# From-scratch evaluation (direct closed forms)
# ---------------------------------------------------------------------------


def evaluate(f: InfoFunction, selection: Sequence[int]) -> float:
    """Value of the closed-form expression at selection A, from scratch."""
    A = np.asarray(sorted(set(int(i) for i in selection)), dtype=np.intp)
    if len(A) != len(list(selection)):
        raise ValueError("selection contains duplicate indices")
    if A.size and (A.min() < 0 or A.max() >= f.n):
        raise IndexError(f"selection index out of range for ground set of size {f.n}")
    if A.size == 0:
        return 0.0
    kind = f.kind

    if kind in FL_FAMILY:
        covered = f._cov[A].max(axis=0).sum()
        if kind == "div_gcmi":
            return float(2.0 * f.gc_lambda * _cut(f.uq, A).sum() + f.eta * covered)
        return float(covered)

    if kind == "flqmi":
        if f.uq.shape[1] == 0:
            return 0.0
        sub = f.uq[A, :]
        return float(sub.max(axis=0).sum() + sub.max(axis=1).sum())

    if kind == "gcmi":
        return float(2.0 * f.gc_lambda * f.uq[A, :].sum())

    if kind in ("gc", "gccg"):
        val = float(f.uu[:, A].sum() - f.gc_lambda * f.uu[np.ix_(A, A)].sum())
        if kind == "gccg":
            val -= float(2.0 * f.gc_lambda * f.up[A, :].sum())
        return val

    sa = _reg(_cut(f.uu, A, A), f.eps)
    if kind == "logdet":
        return _slogdet_pd(sa, "selection")
    if kind == "logdetmi":
        cond = _conditioned_square(sa, _cut(f.uq, A), f._chol.get("qq"))
        return _slogdet_pd(sa, "selection") - _slogdet_pd(cond, "conditioned selection")
    if kind == "logdetcg":
        cond = _conditioned_square(sa, _cut(f.up, A), f._chol.get("pp"))
        return _slogdet_pd(cond, "conditioned selection")
    if kind == "logdetcmi":
        return _logdetcmi_ratio(f, A, sa)
    raise AssertionError(f"unhandled kind {kind}")


def _cut(block, rows: np.ndarray | None = None, cols: np.ndarray | None = None) -> np.ndarray:
    """Dense rows x cols sub-block (all rows / columns where None)."""
    if isinstance(block, FactoredKernel):
        return block.take(rows, cols)
    if rows is None:
        return block if cols is None else block[:, cols]
    return block[rows, :] if cols is None else block[np.ix_(rows, cols)]


def _conditioned_square(sa, cross, lo) -> np.ndarray:
    """Schur complement S_A - S_AX (S_X + eps I)^-1 S_XA, given the lower
    Cholesky factor ``lo`` of S_X + eps I (None when X is empty)."""
    if lo is None:
        return sa
    return sa - cross @ cho_solve((lo, True), cross.T)


def _logdetcmi_ratio(f: InfoFunction, A: np.ndarray, sa: np.ndarray) -> float:
    """Literal contraction-ratio form of the conditional mutual information.

    log det(I - S_P^-1 S_PQ S_Q^-1 S_QP)
      - log det(I - S_AP^-1 S_{AP,Q} S_Q^-1 S_{Q,AP})
    with AP the block matrix over A followed by P.
    """
    eps = f.eps
    q = f.uq.shape[1]
    p = f.up.shape[1]
    if q == 0:
        return 0.0
    qf = (f._chol["qq"], True)
    ua_q, ua_p = _cut(f.uq, A), _cut(f.up, A)

    def contraction_logdet(square_reg, cross_q):
        # det(I - square^-1 cross Sq^-1 cross^T), sizes: square m x m, cross m x q
        m = square_reg.shape[0]
        if m == 0:
            return 0.0
        inner = cross_q @ cho_solve(qf, cross_q.T)
        mf = cho_factor(square_reg, lower=True)
        return _slogdet_pd(np.eye(m) - cho_solve(mf, inner), "contraction")

    num = contraction_logdet(_reg(f.pp, eps), f.qp.T) if p else 0.0
    ap_square = np.block([[sa, ua_p], [ua_p.T, _reg(f.pp, eps)]]) if p else sa
    ap_cross = np.vstack([ua_q, f.qp.T]) if p else ua_q
    den = contraction_logdet(ap_square, ap_cross)
    return num - den


# ---------------------------------------------------------------------------
# Incremental selection state
# ---------------------------------------------------------------------------


class _ShiftedKernel:
    """Column provider for M = (S_UU + eps I) - S_UX (S_XX + eps I)^-1 S_XU
    over a dense S_UU; ``lo`` is the lower Cholesky factor of
    S_XX + eps I (None: no conditioning), W = lo^-1 S_XU is whitened once.

    Columns are returned as coordinates that ``at`` (one row) and
    ``expand`` (the n-vector) read back; a dense column is its own
    coordinates.
    """

    def __init__(self, uu: np.ndarray, eps: float, cross=None, lo=None):
        self.uu = uu
        self.eps = eps
        self.w = None if lo is None else solve_triangular(lo, cross.T, lower=True)
        self.rank = uu.shape[0]

    def diag(self) -> np.ndarray:
        d = self.uu.diagonal() + self.eps
        if self.w is not None:
            d = d - np.einsum("ij,ij->j", self.w, self.w)
        return d

    def col(self, j: int) -> np.ndarray:
        c = self.uu[j].copy()  # row of a symmetric kernel
        c[j] += self.eps
        if self.w is not None:
            c -= self.w.T @ self.w[:, j]
        return c

    def at(self, coords: np.ndarray, j: int) -> np.ndarray:
        """Row j of the vectors with coordinates ``coords``."""
        return coords[j]

    def expand(self, coords: np.ndarray) -> np.ndarray:
        return coords


class _FactoredShiftedKernel:
    """The same M over S_UU = F F^T (unit diagonal) and S_UX = F F_X^T.

    The conditioning term reduces to the (D+1)^2 core C = G^T G with
    G = lo^-1 F_X, so column j is F (I - C) F_j + eps e_j and its
    diagonal entry is 1 + eps - F_j^T C F_j.  Columns are given in the
    basis F: ``col(j)`` = (I - C) F_j.  That drops eps e_j and the pinned
    unit diagonal, which touch only row j; diag() carries them, and once
    j is committed its row is never read again.
    """

    def __init__(self, uu: FactoredKernel, eps: float, cross=None, lo=None):
        self.f = uu.left
        self.eps = eps
        self.core = None
        if lo is not None:
            g = solve_triangular(lo, cross.cols, lower=True)
            self.core = g.T @ g
        self.rank = self.f.shape[1]

    def diag(self) -> np.ndarray:
        d = np.full(self.f.shape[0], 1.0 + self.eps)
        if self.core is not None:
            d -= np.einsum("ij,ij->i", self.f @ self.core, self.f)
        return d

    def col(self, j: int) -> np.ndarray:
        fj = self.f[j]
        return fj.copy() if self.core is None else fj - self.core @ fj

    def at(self, coords: np.ndarray, j: int) -> np.ndarray:
        return self.f[j] @ coords

    def expand(self, coords: np.ndarray) -> np.ndarray:
        return self.f @ coords


def _hstack_cross(uq, up):
    """The U x (Q union P) block, in the representation of its parts."""
    if isinstance(uq, FactoredKernel):
        return FactoredKernel(uq.left, np.vstack([uq.cols, up.cols]))
    return np.hstack([uq, up])


def _shifted_kernel(f: InfoFunction, cross=None, lo=None):
    """Column provider of the kind's (conditioned) kernel; the type of the
    U x U block picks the dense or the factored path."""
    cls = _FactoredShiftedKernel if isinstance(f.uu, FactoredKernel) else _ShiftedKernel
    return cls(f.uu, f.eps, cross, lo)


class _LogDetTerm:
    """Incremental log det over a (possibly conditioned) kernel.

    Maintains the columns of the Cholesky factor against the committed
    set, in the kernel's coordinates, and every ground point's squared
    residual pivot, so a gain is an O(1) lookup.  A commit costs
    O(n |A|) on a dense kernel and O(r (n + |A|)) on a factored one of
    rank r.
    """

    def __init__(self, kernel: _ShiftedKernel | _FactoredShiftedKernel):
        self.kernel = kernel
        self.dsq = kernel.diag().copy()
        self.cof = np.zeros((kernel.rank, 8))
        self.k = 0
        self.warnings = 0

    def gain(self, x) -> float | np.ndarray:
        return np.log(np.maximum(self.dsq[x], _PIVOT_FLOOR))

    def commit(self, j: int) -> None:
        dj2 = self.dsq[j]
        if dj2 < _PIVOT_FLOOR:
            dj2 = _PIVOT_FLOOR
            self.warnings += 1
        if self.k == self.cof.shape[1]:
            self.cof = np.concatenate([self.cof, np.zeros_like(self.cof)], axis=1)
        a = self.kernel.col(j)
        if self.k:
            prev = self.cof[:, : self.k]
            a = a - prev @ self.kernel.at(prev, j)
        a /= math.sqrt(dj2)
        self.cof[:, self.k] = a
        self.k += 1
        e = self.kernel.expand(a)
        self.dsq -= e * e


class SelectionState:
    """Single-owner mutable companion of an InfoFunction.

    Tracks the ordered selection, the memoization payload of its kind,
    and the running objective value (sum of committed gains).
    """

    def __init__(self, f: InfoFunction):
        self.f = f
        self.chosen: list[int] = []
        self.value = 0.0
        self._mask = np.zeros(f.n, dtype=bool)
        kind = f.kind
        n = f.n
        eps = f.eps

        if kind in FL_FAMILY:
            self._covered = np.zeros(f._cov.shape[1])  # max over A of cov[a]
        if kind == "flqmi":
            self._best_q = np.zeros(f.uq.shape[1])
            self._qrow = _row_max(f.uq)
        if kind in ("gcmi", "div_gcmi"):
            self._w = 2.0 * f.gc_lambda * _cut(f.uq).sum(axis=1)
        if kind in ("gc", "gccg"):
            self._colsum = f.uu.sum(axis=0)
            self._cross = np.zeros(n)
            if kind == "gccg":
                self._colsum = self._colsum - 2.0 * f.gc_lambda * f.up.sum(axis=1)
        if kind in LOGDET_FAMILY:
            def term(cross=None, lo=None):
                return _LogDetTerm(_shifted_kernel(f, cross, lo))

            lq, lp = f._chol.get("qq"), f._chol.get("pp")
            if kind == "logdet":
                self._terms = [(1.0, term())]
            elif kind == "logdetmi":
                self._terms = [(1.0, term()), (-1.0, term(f.uq, lq))]
            elif kind == "logdetcg":
                self._terms = [(1.0, term(f.up, lp))]
            else:  # logdetcmi: condition on P, and on Q union P
                lqp = None
                if f.qq.shape[0] + f.pp.shape[0]:
                    joint = np.block([[f.qq, f.qp], [f.qp.T, f.pp]])
                    lqp = _chol_or_raise(_reg(joint, eps), "query+conditioning")
                self._terms = [(1.0, term(f.up, lp)), (-1.0, term(_hstack_cross(f.uq, f.up), lqp))]

    # -- public API -----------------------------------------------------

    @property
    def numerical_warnings(self) -> int:
        if self.f.kind in LOGDET_FAMILY:
            return sum(t.warnings for _, t in self._terms)
        return 0

    def gain(self, x: int) -> float:
        """Marginal gain of adding x to the current selection.

        Facility-location gains are pointwise rises of the coverage maxima
        summed, which keeps them a pure function of those maxima and
        numerically nonincreasing as the selection grows (both needed for
        the lazy and naive variants to agree bit for bit).
        """
        if self._mask[x]:
            raise ValueError(f"index {x} already selected")
        kind = self.f.kind
        if kind in FL_FAMILY:
            rise = self.f._cov[x] - self._covered
            covered = np.maximum(rise, 0.0, out=rise).sum()
            if kind == "div_gcmi":
                return float(self._w[x] + self.f.eta * covered)
            return float(covered)
        if kind == "flqmi":
            rise = np.maximum(self._best_q, self.f.uq[x, :]) - self._best_q
            return float(rise.sum() + self._qrow[x])
        if kind == "gcmi":
            return float(self._w[x])
        if kind in ("gc", "gccg"):
            lam = self.f.gc_lambda
            return float(self._colsum[x] - lam * (self.f.uu[x, x] + 2.0 * self._cross[x]))
        return float(sum(sign * term.gain(x) for sign, term in self._terms))

    def gains(self, candidates: np.ndarray) -> np.ndarray:
        """Marginal gains for a batch of unchosen candidates.

        Deliberately a loop over the scalar path: every greedy variant
        then sees exactly the same float for the same (selection, x).
        """
        candidates = np.asarray(candidates, dtype=np.intp)
        return np.array([self.gain(int(x)) for x in candidates])

    def commit(self, x: int) -> float:
        """Add x to the selection; returns the realized gain."""
        g = self.gain(x)
        kind = self.f.kind
        if kind in FL_FAMILY:
            np.maximum(self._covered, self.f._cov[x], out=self._covered)
        if kind == "flqmi":
            np.maximum(self._best_q, self.f.uq[x, :], out=self._best_q)
        if kind in ("gc", "gccg"):
            self._cross += self.f.uu[x]
        if kind in LOGDET_FAMILY:
            for _, term in self._terms:
                term.commit(x)
        self._mask[x] = True
        self.chosen.append(int(x))
        self.value += g
        return g


def new_state(f: InfoFunction) -> SelectionState:
    return SelectionState(f)


# ---------------------------------------------------------------------------
# Definitional composites (test oracle)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroundTruthOracle:
    """Set-arithmetic composites over a base submodular function.

    Evaluates f, I_f(A;Q) = f(A) + f(Q) - f(A u Q),
    f(A|P) = f(A u P) - f(P), and
    I_f(A;Q|P) = f(A u P) + f(Q u P) - f(A u Q u P) - f(P)
    directly on a joint kernel, independently of the closed forms.
    """

    base_kind: str
    joint: np.ndarray
    eps: float = 0.0
    gc_lambda: float = 1.0

    def __post_init__(self):
        if self.base_kind not in SF_KINDS:
            raise ValueError(f"base kind must be one of {SF_KINDS}")
        object.__setattr__(self, "joint", _as_block(self.joint))

    def sf(self, subset: Sequence[int]) -> float:
        X = np.asarray(sorted(set(subset)), dtype=np.intp)
        if X.size == 0:
            return 0.0
        if self.base_kind == "fl":
            return float(self.joint[:, X].max(axis=1).sum())
        if self.base_kind == "gc":
            return float(
                self.joint[:, X].sum() - self.gc_lambda * self.joint[np.ix_(X, X)].sum()
            )
        block = _reg(self.joint[np.ix_(X, X)], self.eps)
        return _slogdet_pd(block, "oracle subset")

    def smi(self, A, Q) -> float:
        return self.sf(A) + self.sf(Q) - self.sf(set(A) | set(Q))

    def scg(self, A, P) -> float:
        return self.sf(set(A) | set(P)) - self.sf(P)

    def scmi(self, A, Q, P) -> float:
        ap = set(A) | set(P)
        qp = set(Q) | set(P)
        return self.sf(ap) + self.sf(qp) - self.sf(ap | set(Q)) - self.sf(P)


def from_joint(
    kind: str,
    joint: np.ndarray,
    query: Sequence[int] | None = None,
    conditioning: Sequence[int] | None = None,
    **kwargs,
) -> InfoFunction:
    """Instantiate a function kind on blocks cut from one joint kernel.

    The selectable ground set is the full index range of ``joint``; Q and
    P are index lists into it.  Used by the definitional-identity tests
    and the Table-1 reduction checks.
    """
    kind = canonical_kind(kind)
    joint = _as_block(joint)
    Q = np.asarray(query if query is not None else [], dtype=np.intp)
    P = np.asarray(conditioning if conditioning is not None else [], dtype=np.intp)
    blocks = {}
    if kind not in RECTANGULAR_ONLY:
        blocks["uu"] = joint
    if kind in _NEEDS_UQ or kind in RECTANGULAR_ONLY:
        blocks["uq"] = joint[:, Q]
    if kind in _NEEDS_UP:
        blocks["up"] = joint[:, P]
    if kind in _NEEDS_QQ:
        blocks["qq"] = joint[np.ix_(Q, Q)]
    if kind in _NEEDS_PP:
        blocks["pp"] = joint[np.ix_(P, P)]
    if kind in _NEEDS_QP:
        blocks["qp"] = joint[np.ix_(Q, P)]
    return InfoFunction(kind=kind, **blocks, **kwargs)
