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
joint kernel.  ``_LOGDET_TERMS`` lists each log-det kind's signed terms;
``evaluate`` sums log det(S_A|X) over them from scratch, and the
selection state keeps one incremental factor per term.  Empty
query/conditioning blocks degrade gracefully: an empty Q sends every
mutual-information kind to 0, an empty P reduces each conditional kind
to its unconditional counterpart, and evaluating the empty selection
yields 0 for every kind.

The facility-location kinds (fl, flvmi, flcg, flcmi and the fl term of
div_gcmi) share one form: sum_i c_i(max_{j in A} S_ij) with the per-point
coverage c_i(s) = max(min(s, q_i) - p_i, 0), q_i = max_Q S_i (no min
without Q) and p_i = max_P S_i (no shift without P).  ``InfoFunction``
builds the coverage block cov[x, i] = c_i(S_xi) once, keeping only the
columns with q_i > p_i (c_i is identically 0 on the others); gains,
commits and ``evaluate`` read nothing else.  A block built from factors
whose float64 form would exceed ``_FLOAT64_BLOCK_BYTES`` is stored in
float32 (each entry the float64 value rounded once); the running maxima,
gains and sums stay float64, so the float32 entries upcast exactly.
Dense input keeps a float64 block at every size.

Every kind also runs on rank-(D+1) factors (``FactoredKernel`` uu, uq
and up), as the harness builds them, and never forms an n x n block:
the log-det kinds read kernel columns on demand, the graph-cut kinds read
row sums F (F_X^T 1) and one kernel row per commit, and flqmi/gcmi cut
their small dense n x |Q| block from the factors.  On factors the log-det
kinds condition on Q and P from F_Q and F_P alone (qq, pp and qp are not
given): each set becomes a correction W of at most D+1 rows, and no
|X| x |X| block is formed above that rank.  A pool factor that carries
Khatri-Rao parts (``khatri_rao_factors``, as the harness builds it) lets
each log-det commit read the parts instead of F (see
``_FactoredShiftedKernel``).  Dense blocks remain the reference input of
``from_joint``.

A ``SelectionState`` memoizes gains in one of two forms, so that they are
cheap and a commit sequence reproduces the from-scratch value within 1e-8
absolute (1e-6 relative for log-det).  A log-det kind keeps one
incremental Cholesky factor per term.  Every other kind's gain is
lin[x] + w sum_i max(cov[x,i] - covered_i, 0) - lam (S_xx + 2 sum_A S_xa),
from the parts it has: a modular vector (flqmi's max_Q S_x, the graph-cut
row sums), a coverage block with running maxima (the block above, with
w = eta for div_gcmi; flqmi's uq) and the cross sums of gc and gccg.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.linalg import cho_solve, solve_triangular

from .similarity import DEFAULT_LOGDET_EPS, FactoredKernel

SF_KINDS = ("fl", "gc", "logdet")
ALL_KINDS = SF_KINDS + (
    "flvmi", "flqmi", "gcmi", "logdetmi",  # SMI
    "flcg", "gccg", "logdetcg",  # SCG
    "flcmi", "logdetcmi",  # SCMI
    "div_gcmi",
)

LOGDET_FAMILY = frozenset({"logdet", "logdetmi", "logdetcg", "logdetcmi"})
# Kinds that are submodular in A, so their gains never rise as A grows and
# lazy greedy is exact on them.  LogDetMI and LogDetCMI are differences of
# log-dets and are not submodular in general (Iyer et al., arXiv 2006.15412).
SUBMODULAR = frozenset(ALL_KINDS) - {"logdetmi", "logdetcmi"}
# Kinds with a facility-location term, evaluated on the coverage block.
FL_FAMILY = frozenset({"fl", "flvmi", "flcg", "flcmi", "div_gcmi"})

# Kinds whose selection objective only ever needs the rectangular U x Q block.
RECTANGULAR_ONLY = frozenset({"flqmi", "gcmi"})

# Kinds that read a query set Q (the U x Q block) and a conditioning set
# P (the U x P block); every other block a kind reads follows from these.
READS_Q = frozenset({"flvmi", "flqmi", "gcmi", "logdetmi", "flcmi", "logdetcmi", "div_gcmi"})
READS_P = frozenset({"flcg", "gccg", "logdetcg", "flcmi", "logdetcmi"})
# The log-det kinds also read the dense squares of the sets they read.
_NEEDS_QQ = LOGDET_FAMILY & READS_Q
_NEEDS_PP = LOGDET_FAMILY & READS_P
_NEEDS_QP = LOGDET_FAMILY & READS_Q & READS_P

# Signed log-det terms of each log-det kind, each over the kernel
# conditioned on the set its key names (None: unconditioned; "q" is Q,
# "p" is P and "q+p" is their union).
_LOGDET_TERMS = {
    "logdet": ((1.0, None),),
    "logdetmi": ((1.0, None), (-1.0, "q")),
    "logdetcg": ((1.0, "p"),),
    "logdetcmi": ((1.0, "p"), (-1.0, "q+p")),
}

_PIVOT_FLOOR = 1e-12

# Rows per block when a factored block is multiplied out: each block of the
# coverage matrix (rows x kept columns) is transformed right after its GEMM,
# while still in cache.  Smaller blocks measured slower, larger no faster.
_BLOCK_ROWS = 256

# A factored coverage block whose float64 form would exceed this many bytes
# is stored in float32.  Below it the block is no larger than the rest of a
# run's footprint (265 and 252 MiB peak on the log-det workloads), and
# float64 keeps small factored blocks bit-equal to the dense reference.
# Above it float32 halves the largest array of a run: 14000 points with
# every column kept are 1.5 GB in float64.
_FLOAT64_BLOCK_BYTES = 256 << 20


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
    square blocks, so callers never pre-regularize.  For every kind
    ``uu``, ``uq`` and ``up`` may instead be ``FactoredKernel``s sharing
    the U factor (``uu = FactoredKernel(F_U)``, ``uq = FactoredKernel(F_U,
    F_Q)``, ...); no kind then forms an n x n block, the facility-location
    kinds form only their pruned coverage block (float32 above
    ``_FLOAT64_BLOCK_BYTES``, float64 below it and on dense input), and
    flqmi/gcmi keep a dense cut of ``uq``.  ``qq``, ``pp`` and ``qp`` are
    never factored.
    Alongside a dense ``uu`` each one a kind reads is required (unless
    its set is empty); alongside a factored ``uu`` none may be given:
    Q and P are read from the factors of ``uq``/``up`` alone (see
    ``_correction``; ``evaluate`` cuts the dense blocks it needs).
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
    # Conditioning corrections of the log-det family, keyed as in
    # ``_LOGDET_TERMS`` (see ``_correction``), built at construction.
    _w: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    # Lower Cholesky factors of S_XX + eps I, keyed as in ``_LOGDET_TERMS``
    # (see ``_chol_of``), kept once ``_correction`` or ``evaluate`` has
    # computed them.
    _chol: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    # Coverage block of the facility-location family (see the module docs).
    _cov: np.ndarray | None = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        kind = canonical_kind(self.kind)
        object.__setattr__(self, "kind", kind)
        if self.eps is None:
            object.__setattr__(self, "eps", DEFAULT_LOGDET_EPS if kind in LOGDET_FAMILY else 0.0)
        factored = isinstance(self.uu, FactoredKernel)
        for name in ("qq", "pp", "qp") + (() if factored else ("uq", "up")):
            if isinstance(getattr(self, name), FactoredKernel):
                raise ValueError(
                    f"a factored {name} is not accepted: only uu, uq and up may be "
                    "factored, and uq/up only alongside a factored uu"
                )

        if kind in RECTANGULAR_ONLY:
            if self.uq is None:
                raise ValueError(f"{kind} requires the U x Q block")
            uq = _as_block(_cut(_as_factored_cross(self.uq, self.uu, "uq")) if factored else self.uq)
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

        for name, needed in (("uq", kind in READS_Q), ("up", kind in READS_P)):
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
            val = getattr(self, name)
            if factored and val is not None:
                raise ValueError(
                    f"{name} may not be given when uu is factored: it is read from "
                    "the factors of uq/up"
                )
            val = _sized_block(val, shape, name) if needed and not factored else None
            object.__setattr__(self, name, val)

        # Built here, so a singular query/conditioning set fails fast.
        for _, key in _LOGDET_TERMS.get(kind, ()):
            w = None if key is None else _correction(self, key)
            if w is not None:
                self._w[key] = w
        if kind in FL_FAMILY:
            object.__setattr__(self, "_cov", _coverage_block(self))

    @property
    def n(self) -> int:
        return self.uu.shape[0] if self.uu is not None else self.uq.shape[0]

    @property
    def block_bytes(self) -> int:
        """Bytes of the coverage block (0 for kinds without one)."""
        return 0 if self._cov is None else self._cov.nbytes

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


def _cross_of(f: InfoFunction, key: str):
    """The U x X block of conditioning set X (``key`` as in ``_LOGDET_TERMS``)."""
    if key != "q+p":
        return f.uq if key == "q" else f.up
    if isinstance(f.uq, FactoredKernel):
        return FactoredKernel(f.uq.left, np.vstack([f.uq.cols, f.up.cols]))
    return np.hstack([f.uq, f.up])


_SET_LABELS = {"q": "qq", "p": "pp", "q+p": "query+conditioning"}


def _chol_of(f: InfoFunction, key: str) -> np.ndarray | None:
    """Lower Cholesky factor of S_XX + eps I for conditioning set X
    (``key`` as in ``_LOGDET_TERMS``), kept once computed (None for an
    empty X).  S_XX is the given dense block (the joint of qq, qp and pp
    for "q+p") or cut from the factors of uq/up."""
    if key not in f._chol:
        if isinstance(f.uu, FactoredKernel):
            sxx = FactoredKernel(_cross_of(f, key).cols).take()
        elif key == "q+p":
            sxx = np.block([[f.qq, f.qp], [f.qp.T, f.pp]])
        else:
            sxx = f.qq if key == "q" else f.pp
        lo = _chol_or_raise(_reg(sxx, f.eps), _SET_LABELS[key]) if sxx.shape[0] else None
        f._chol[key] = lo
    return f._chol[key]


def _correction(f: InfoFunction, key: str) -> np.ndarray | None:
    """Whitened cross W of conditioning set X (``key`` as in
    ``_LOGDET_TERMS``), or None when X is empty.

    The conditioned kernel is (S_UU + eps I) - W^T W.  On a dense uu,
    W = L^-1 S_XU (|X| x n), with L the lower Cholesky factor of
    S_XX + eps I (``_chol_of``).  On factors S_UX = F F_X^T, and W holds
    the same correction in the basis F: W^T W = F_X^T (S_XX + eps I)^-1 F_X.
    Up to |X| = r = rank F_X, W = L^-1 F_X with S_XX cut from F_X.
    Above that rank no |X| x |X| array is formed: by the push-through
    identity the correction is G (G + eps I)^-1 with
    G = F_X^T F_X = V diag(lam) V^T, so W = diag(sqrt(lam / (lam + eps))) V^T,
    r x r.  With eps = 0 such an S_XX is singular (rank <= r < |X|), and
    the set is rejected.
    """
    cross = _cross_of(f, key)
    m = cross.shape[1]
    if m == 0:
        return None
    if not isinstance(cross, FactoredKernel):
        return solve_triangular(_chol_of(f, key), cross.T, lower=True)
    fx = cross.cols
    r = fx.shape[1]
    if m <= r:
        return solve_triangular(_chol_of(f, key), fx, lower=True)
    if f.eps <= 0.0:
        raise NumericalError(
            f"singular {_SET_LABELS[key]} block: {m} points on rank-{r} factors with eps = 0"
        )
    lam, vecs = np.linalg.eigh(fx.T @ fx)
    np.maximum(lam, 0.0, out=lam)
    return np.sqrt(lam / (lam + f.eps))[:, None] * vecs.T


def _coverage_block(f: InfoFunction) -> np.ndarray:
    """cov[x, k] = c_i(S_xi) for the kept columns i = keep[k] (q_i > p_i).

    Filled in row blocks: one GEMM from the factors (or a cut of the dense
    block) into the output rows, then the transform in place.  The pinned
    unit diagonal of a factored uu is set by index.  The clamp at 0 matches
    the state's zero-initialized maxima.  A float32 block (factored, above
    ``_FLOAT64_BLOCK_BYTES``) runs the same float64 steps in one reused
    staging buffer of ``_BLOCK_ROWS`` rows; the clamp stores into the block.
    """
    n = f.n
    q = _row_max(f.uq) if f.kind in ("flvmi", "flcmi") else None
    # An empty P shifts by 0: skip the subtraction, the block is the same.
    p = _row_max(f.up) if f.kind in ("flcg", "flcmi") and f.up.shape[1] else None
    top = np.full(n, np.inf) if q is None else q
    keep = np.flatnonzero(top > (0.0 if p is None else p))
    q = None if q is None else q[keep]
    p = None if p is None else p[keep]
    factored = isinstance(f.uu, FactoredKernel)
    cols = None
    if factored:
        # All kept: the transposed view has the layout of the gathered copy.
        cols = f.uu.left.T if keep.size == n else f.uu.left[keep].T
    wide = factored and n * keep.size * 8 > _FLOAT64_BLOCK_BYTES
    cov = np.empty((n, keep.size), dtype=np.float32 if wide else np.float64)
    stage = np.empty((min(n, _BLOCK_ROWS), keep.size)) if wide else None
    for lo in range(0, n, _BLOCK_ROWS):
        hi = min(n, lo + _BLOCK_ROWS)
        blk = stage[: hi - lo] if wide else cov[lo:hi]
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
        np.maximum(blk, 0.0, out=cov[lo:hi])  # the cast on store, if any
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


def _row_sums(block) -> np.ndarray:
    """Row sums of a U x X block; a factored block gives F (F_X^T 1), and
    a symmetric one has its pinned unit diagonal corrected by 1 - |F_i|^2."""
    if not isinstance(block, FactoredKernel):
        return block.sum(axis=1)
    out = block.left @ block.cols.sum(axis=0)
    if block.symmetric:
        out += 1.0 - np.einsum("ij,ij->i", block.left, block.left)
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
        covered = f._cov[A].max(axis=0).sum(dtype=np.float64)
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
        val = float(_cut(f.uu, None, A).sum() - f.gc_lambda * _cut(f.uu, A, A).sum())
        if kind == "gccg":
            val -= float(2.0 * f.gc_lambda * _cut(f.up, A).sum())
        return val

    sa = _reg(_cut(f.uu, A, A), f.eps)
    val = 0.0
    for sign, key in _LOGDET_TERMS[kind]:
        if key is None:
            val += sign * _slogdet_pd(sa, "selection")
        else:
            cond = _conditioned_square(sa, _cut(_cross_of(f, key), A), _chol_of(f, key))
            val += sign * _slogdet_pd(cond, "conditioned selection")
    return val


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


# ---------------------------------------------------------------------------
# Incremental selection state
# ---------------------------------------------------------------------------


class _ShiftedKernel:
    """Column provider for M = (S_UU + eps I) - W^T W over a dense S_UU,
    with W = ``_correction``'s |X| x n whitened cross (None: no
    conditioning).

    Columns are returned as coordinates that ``at`` (one row) and
    ``expand`` (the n-vector) read back; a dense column is its own
    coordinates.
    """

    def __init__(self, uu: np.ndarray, eps: float, w=None):
        self.uu = uu
        self.eps = eps
        self.w = w
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
    """The same M over S_UU = F F^T (unit diagonal), with W the
    correction in the basis F (at most rank F rows).

    Column j is F (I - W^T W) F_j + eps e_j and its diagonal entry is
    1 + eps - |W F_j|^2.  Columns are given in the basis F:
    ``col(j)`` = F_j - W^T (W F_j).  That drops eps e_j and the pinned
    unit diagonal, which touch only row j; diag() carries them, and once
    j is committed its row is never read again.

    On a Khatri-Rao factor F = [1, R outer X] / sqrt(2) (``uu.parts`` =
    (R, X), n x C and n x (d+1)), ``expand`` reads the parts instead of F:
    F a = (a_0 + rowsum((X A^T) * R)) / sqrt(2) with A = a[1:] as C x (d+1),
    C + d + 1 values per point instead of C (d+1) + 1.
    """

    def __init__(self, uu: FactoredKernel, eps: float, w=None):
        self.f = uu.left
        self.parts = uu.parts
        self.eps = eps
        self.w = w
        self.rank = self.f.shape[1]

    def diag(self) -> np.ndarray:
        d = np.full(self.f.shape[0], 1.0 + self.eps)
        if self.w is not None:
            fw = self.f @ self.w.T
            d -= np.einsum("ij,ij->i", fw, fw)
        return d

    def col(self, j: int) -> np.ndarray:
        fj = self.f[j]
        return fj.copy() if self.w is None else fj - self.w.T @ (self.w @ fj)

    def at(self, coords: np.ndarray, j: int) -> np.ndarray:
        return self.f[j] @ coords

    def expand(self, coords: np.ndarray) -> np.ndarray:
        if self.parts is None:
            return self.f @ coords
        r, x = self.parts
        t = x @ coords[1:].reshape(r.shape[1], x.shape[1]).T
        out = np.einsum("ij,ij->i", t, r)
        out += coords[0]
        out *= math.sqrt(0.5)
        return out


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

    Tracks the ordered selection, the memoized parts of its kind's gain
    (see the module docs) and the running objective value.
    """

    def __init__(self, f: InfoFunction):
        self.f = f
        self.chosen: list[int] = []
        self.value = 0.0
        self._mask = np.zeros(f.n, dtype=bool)
        self._terms: list[tuple[float, _LogDetTerm]] = []
        self._lin = self._cov = self._cross = None
        kind = f.kind
        if kind in LOGDET_FAMILY:
            cls = _FactoredShiftedKernel if isinstance(f.uu, FactoredKernel) else _ShiftedKernel
            self._terms = [
                (sign, _LogDetTerm(cls(f.uu, f.eps, f._w.get(key))))
                for sign, key in _LOGDET_TERMS[kind]
            ]
        elif kind == "flqmi":  # sum_A max_Q is modular, sum_Q max_A covers uq
            self._lin, self._cov, self._weight = _row_max(f.uq), f.uq, 1.0
        elif kind in ("gc", "gccg"):
            self._lin = _row_sums(f.uu)  # = column sums: uu is symmetric
            if f.up is not None:
                self._lin = self._lin - 2.0 * f.gc_lambda * _row_sums(f.up)
            self._diag = np.ones(f.n) if isinstance(f.uu, FactoredKernel) else f.uu.diagonal()
            self._cross = np.zeros(f.n)
        if kind in ("gcmi", "div_gcmi"):
            self._lin = 2.0 * f.gc_lambda * _row_sums(f.uq)
        if kind in FL_FAMILY:
            self._cov, self._weight = f._cov, (f.eta if kind == "div_gcmi" else 1.0)
        if self._cov is not None:
            self._covered = np.zeros(self._cov.shape[1])  # max over A of cov[a]
            self._upcast = self._cov.dtype != np.float64

    # -- public API -----------------------------------------------------

    @property
    def numerical_warnings(self) -> int:
        return sum(t.warnings for _, t in self._terms)

    def gain(self, x: int) -> float:
        """Marginal gain of adding x to the current selection.

        Coverage gains are pointwise rises of the running maxima summed,
        which keeps them a pure function of those maxima and numerically
        nonincreasing as the selection grows (both needed for the lazy and
        naive variants to agree bit for bit).  The rises are float64 even
        on a float32 block: its row upcasts exactly against the float64
        maxima.
        """
        if self._mask[x]:
            raise ValueError(f"index {x} already selected")
        if self._terms:
            return float(sum(sign * term.gain(x) for sign, term in self._terms))
        if self._cov is None:
            g = self._lin[x]
        else:
            if self._upcast:
                # Upcast first: a mixed float32 - float64 ufunc ran about
                # 30% slower than this copy and in-place subtract (same values).
                rise = self._cov[x].astype(np.float64)
                rise -= self._covered
            else:
                rise = self._cov[x] - self._covered
            # ndarray.sum's own ufunc, without its Python wrapper: same floats.
            covered = np.add.reduce(np.maximum(rise, 0.0, out=rise))
            if self._lin is None:
                return float(covered)
            g = self._lin[x] + self._weight * covered
        if self._cross is not None:
            g -= self.f.gc_lambda * (self._diag[x] + 2.0 * self._cross[x])
        return float(g)

    def gains(self, candidates: np.ndarray) -> np.ndarray:
        """Marginal gains for a batch of unchosen candidates, each the
        float ``gain`` returns, so every greedy variant sees exactly the
        same float for the same (selection, x).

        The log-det family reads its pivot arrays once for the whole batch.
        That is bit-identical to the scalar path: it applies the same
        elementwise ufuncs in the same order (maximum with the floor, log,
        the sign product, then the terms summed left to right from 0) to
        the same pivots, and an elementwise ufunc computes each element as
        it computes a lone scalar.  The other kinds loop over the scalar
        path.
        """
        candidates = np.asarray(candidates, dtype=np.intp)
        if not self._terms:
            return np.array([self.gain(int(x)) for x in candidates])
        chosen = candidates[self._mask[candidates]]
        if chosen.size:
            raise ValueError(f"index {chosen[0]} already selected")
        return sum(sign * term.gain(candidates) for sign, term in self._terms)

    def commit(self, x: int) -> float:
        """Add x to the selection; returns the realized gain."""
        g = self.gain(x)
        if self._cov is not None:
            np.maximum(self._covered, self._cov[x], out=self._covered)
        if self._cross is not None:
            self._cross += _cut(self.f.uu, [x])[0]
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
    joint = _as_block(joint)
    Q = np.asarray(query if query is not None else [], dtype=np.intp)
    P = np.asarray(conditioning if conditioning is not None else [], dtype=np.intp)
    # Each kind keeps the blocks it reads (READS_Q/READS_P) and drops the rest.
    return InfoFunction(
        kind=kind,
        uu=joint,
        uq=joint[:, Q],
        up=joint[:, P],
        qq=joint[np.ix_(Q, Q)],
        pp=joint[np.ix_(P, P)],
        qp=joint[np.ix_(Q, P)],
        **kwargs,
    )
