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
commits and ``evaluate`` read nothing else.  A factored block is filled
from ``FactoredKernel.row_blocks``.  The build also keeps the block's row
sums, the gains at the empty selection.  A block built from factors
whose float64 form would exceed ``_FLOAT64_BLOCK_BYTES`` is stored in
float32 (each entry the float64 value rounded once); the running maxima,
gains and sums stay float64, so the float32 entries upcast exactly.
Dense input keeps a float64 block at every size.

Every kind also runs on rank-(D+1) factors (``FactoredKernel`` uu, uq
and up), as the harness builds them, and never forms an n x n block:
the log-det kinds read one row of F per commit and expand the new
Cholesky columns of all their terms in one ``FactoredKernel.dot``, the
graph-cut kinds read row sums F (F_X^T 1) and, per commit, the kernel row
F F_x from row x of F, and flqmi/gcmi cut their small dense n x |Q| block
from the factors.  On factors the log-det kinds condition on Q and P from F_Q
and F_P alone (qq, pp and qp are not given): each set becomes a
correction W of at most D+1 rows, and no |X| x |X| block is formed above
that rank.  ``evaluate`` conditions on a set above the rank through the
r x r Gram matrix of its factors too, with its own Cholesky solve.  A
pool factor may be held as Khatri-Rao parts alone: then rows of F are
read through ``FactoredKernel.rows`` and, over the whole pool (the pivot
diagonal, graph-cut row sums, a dense cut of all rows), one
``factor_blocks`` block at a time, so no kind forms an n x rank array
either.  When the pool has exact copies its parts hold each distinct row
once, with a row index over the points (``FactoredKernel.index``): the
log-det kinds keep their pivots and expand their Cholesky columns once per
distinct row, and every other kind reads the points through the index.

The log-det kinds have one path that runs, the factored one, and
``from_joint`` builds them on factors too, so the acceptance gate checks
that path.  Dense log-det blocks (uu with qq, pp and qp) are still
accepted: they are the reference the factored path is tested against.
``InfoFunction`` lays its blocks out once, in ``_factored_blocks`` when
uu is a ``FactoredKernel`` and in ``_dense_blocks`` otherwise; each keeps
only the blocks its kind reads.
Every solve, dense or factored, is a numpy call (``np.linalg.solve`` on
a Cholesky factor), and this module imports numpy alone.

A ``SelectionState`` memoizes gains so that they are cheap and a commit
sequence reproduces the from-scratch value within 1e-8 absolute (1e-6
relative for log-det).  Every kind's gain is
lin[x] + w sum_i max(cov[x,i] - covered_i, 0) - lam (S_xx + 2 sum_A S_xa),
from the parts it has: a coverage block with running maxima (the block
above, with w = eta for div_gcmi; flqmi's uq), the cross sums of gc and
gccg, and a vector lin: flqmi's max_Q S_x, the graph-cut row sums, or, per
row of uu (per distinct row on an indexed factor), the signed sum of the
residual log pivots of a log-det kind's ``_LogDetTerm``s, rewritten after
each commit.  So copies of a row tie exactly, naive greedy takes the lowest
index among them, and a chosen point's copies stay selectable, at the pivot
of a point conditioned on its own copy.  A batch of gains is one array
expression over these parts, except that a coverage block's rises are read
one row per candidate once the selection is not empty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

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

# A factored coverage block whose float64 form would exceed this many bytes
# is stored in float32.  Below it float64 keeps small factored blocks
# bit-equal to the dense reference.  Above it float32 halves the largest
# array of a run: 14000 points with every column kept are 1.5 GB in float64.
_FLOAT64_BLOCK_BYTES = 256 << 20


class NumericalError(RuntimeError):
    """Raised when a kernel block is numerically singular."""


def canonical_kind(name: str) -> str:
    kind = name.strip().lower().replace("-", "_")
    if kind not in ALL_KINDS:
        raise ValueError(f"unknown function kind {name!r}; expected one of {ALL_KINDS}")
    return kind


def _as_block(arr, n_rows: int | None = None) -> np.ndarray:
    out = np.ascontiguousarray(np.asarray(arr, dtype=np.float64))
    if out.ndim != 2:
        raise ValueError(f"kernel block must be 2-D, got shape {out.shape}")
    if n_rows is not None and out.shape[0] != n_rows:
        raise ValueError(f"kernel block has {out.shape[0]} rows, expected {n_rows}")
    return out


@dataclass(frozen=True)
class InfoFunction:
    """Immutable acquisition function over a fixed ground set.

    Kernel blocks are the raw rescaled similarities; the log-determinant
    regularization ``eps`` is applied internally to the diagonals of the
    square blocks, so callers never pre-regularize.  For every kind
    ``uu``, ``uq`` and ``up`` may instead be ``FactoredKernel``s sharing
    the U factor (``uu = FactoredKernel(F_U)`` or ``khatri_rao_factors``'s
    parts, ``uq = uu.cross(F_Q)``, ...); no kind then forms an n x n block
    (nor, on parts, an n x rank one), the facility-location kinds form
    only their pruned coverage block (float32 above
    ``_FLOAT64_BLOCK_BYTES``, float64 below it and on dense input), and
    flqmi/gcmi keep a dense cut of ``uq``.  ``qq``, ``pp`` and ``qp`` are
    never factored.  The constructor lays the blocks out in one function
    per form of ``uu``, ``_factored_blocks`` or ``_dense_blocks``; each
    keeps the blocks the kind reads and sets the others to None.
    Alongside a dense ``uu`` each square a kind reads is required (unless
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
    # Coverage block of the facility-location family (see the module docs)
    # and its row sums, the gains at the empty selection.
    _cov: np.ndarray | None = field(init=False, repr=False, compare=False, default=None)
    _cov_sums: np.ndarray | None = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        kind = canonical_kind(self.kind)
        object.__setattr__(self, "kind", kind)
        if self.eps is None:
            object.__setattr__(self, "eps", DEFAULT_LOGDET_EPS if kind in LOGDET_FAMILY else 0.0)
        if not (math.isfinite(self.eps) and self.eps >= 0):  # before any solve reads it
            raise ValueError(f"eps must be finite and >= 0, got {self.eps}")
        for name in ("gc_lambda", "eta"):  # a negative weight breaks submodularity
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        factored = isinstance(self.uu, FactoredKernel)
        for name in ("qq", "pp", "qp") + (() if factored else ("uq", "up")):
            if isinstance(getattr(self, name), FactoredKernel):
                raise ValueError(
                    f"a factored {name} is not accepted: only uu, uq and up may be "
                    "factored, and uq/up only alongside a factored uu"
                )

        if kind in RECTANGULAR_ONLY and self.uq is None:
            raise ValueError(f"{kind} requires the U x Q block")
        blocks = (_factored_blocks if factored else _dense_blocks)(self, kind)
        for name, block in zip(("uu", "uq", "up", "qq", "pp", "qp"), blocks):
            object.__setattr__(self, name, block)

        # Built here, so a singular query/conditioning set fails fast.
        for _, key in _LOGDET_TERMS.get(kind, ()):
            w = None if key is None else _correction(self, key)
            if w is not None:
                self._w[key] = w
        if kind in FL_FAMILY:
            cov, sums = _coverage_block(self)
            object.__setattr__(self, "_cov", cov)
            object.__setattr__(self, "_cov_sums", sums)

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


def _factored_blocks(f: InfoFunction, kind: str) -> tuple:
    """Normalised uu, uq, up, qq, pp and qp of ``f`` on a factored uu:
    uq/up share its U factor (an absent set gets no columns), and
    flqmi/gcmi keep only a dense cut of uq."""
    uu = f.uu
    if kind not in RECTANGULAR_ONLY and not uu.symmetric:
        raise ValueError("factored U x U block must be symmetric (no right factor)")
    uq = _as_factored_cross(f.uq, uu, "uq") if kind in READS_Q else None
    up = _as_factored_cross(f.up, uu, "up") if kind in READS_P else None
    for name in ("qq", "pp", "qp"):
        if getattr(f, name) is not None:
            raise ValueError(
                f"{name} may not be given when uu is factored: it is read from "
                "the factors of uq/up"
            )
    if kind in RECTANGULAR_ONLY:
        return None, _as_block(_cut(uq)), None, None, None, None
    return uu, uq, up, None, None, None


def _dense_blocks(f: InfoFunction, kind: str) -> tuple:
    """Normalised uu, uq, up, qq, pp and qp of ``f`` on dense blocks:
    uq/up have n rows (n x 0 when absent), a log-det kind keeps the
    square of each pair of sets it reads, and flqmi/gcmi keep only uq."""
    if kind in RECTANGULAR_ONLY:
        return None, _as_block(f.uq), None, None, None, None
    if f.uu is None:
        raise ValueError(f"{kind} requires the square U x U block")
    uu = _as_block(f.uu)
    _check_symmetric(uu)
    n = uu.shape[0]
    uq, up = (
        _as_block(np.zeros((n, 0)) if val is None else val, n) if reads else None
        for val, reads in ((f.uq, kind in READS_Q), (f.up, kind in READS_P))
    )
    squares = []
    for name, x, y in (("qq", uq, uq), ("pp", up, up), ("qp", uq, up)):
        val = None
        if kind in LOGDET_FAMILY and x is not None and y is not None:
            shape = (x.shape[1], y.shape[1])
            val = getattr(f, name)
            if val is None and 0 not in shape:
                raise ValueError(f"{name} block of shape {shape} is required, got None")
            val = np.zeros(shape) if val is None else _as_block(val)
            if val.shape != shape:
                raise ValueError(f"{name} block must have shape {shape}, got {val.shape}")
        squares.append(val)
    return (uu, uq, up, *squares)


def _as_factored_cross(val, uu: FactoredKernel, name: str) -> FactoredKernel:
    """U x X block of a factored function; an absent X gets an empty
    right factor."""
    if val is None:
        return uu.cross(np.zeros((0, uu.rank)))
    if not isinstance(val, FactoredKernel):
        raise ValueError(f"{name} must be factored when uu is factored")
    if not val.shares_rows(uu):
        raise ValueError(f"factored {name} must share the U factor of uu")
    return val


def _cross_of(f: InfoFunction, key: str):
    """The U x X block of conditioning set X (``key`` as in ``_LOGDET_TERMS``)."""
    if key != "q+p":
        return f.uq if key == "q" else f.up
    if isinstance(f.uq, FactoredKernel):
        return f.uq.cross(np.vstack([f.uq.right, f.up.right]))
    return np.hstack([f.uq, f.up])


_SET_LABELS = {"q": "qq", "p": "pp", "q+p": "query+conditioning"}


def _above_rank(cross) -> bool:
    """Whether X outnumbers the rank r of the factors of a U x X block,
    so that X enters through the r x r Gram matrix F_X^T F_X."""
    return isinstance(cross, FactoredKernel) and cross.shape[1] > cross.rank


def _chol_of(f: InfoFunction, key: str) -> np.ndarray:
    """Lower Cholesky factor of S_XX + eps I for a nonempty conditioning
    set X (``key`` as in ``_LOGDET_TERMS``), computed on every call.  S_XX
    is the given dense block (the joint of qq, qp and pp for "q+p") or cut
    from the factors of uq/up; no caller asks for a factored X above the
    rank of its factors."""
    cross = _cross_of(f, key)
    if isinstance(f.uu, FactoredKernel):
        sxx = FactoredKernel(cross.right).take()
    elif key == "q+p":
        sxx = np.block([[f.qq, f.qp], [f.qp.T, f.pp]])
    else:
        sxx = f.qq if key == "q" else f.pp
    return _chol_or_raise(_reg(sxx, f.eps), _SET_LABELS[key])


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
    if not _above_rank(cross):
        s_xu = cross.right if isinstance(cross, FactoredKernel) else cross.T
        return np.linalg.solve(_chol_of(f, key), s_xu)
    if f.eps <= 0.0:
        raise NumericalError(
            f"singular {_SET_LABELS[key]} block: {m} points on rank-{cross.rank} factors with eps = 0"
        )
    fx = cross.right
    lam, vecs = np.linalg.eigh(fx.T @ fx)
    np.maximum(lam, 0.0, out=lam)
    return np.sqrt(lam / (lam + f.eps))[:, None] * vecs.T


def _coverage_block(f: InfoFunction) -> tuple[np.ndarray, np.ndarray]:
    """cov[x, k] = c_i(S_xi) for the kept columns i = keep[k] (q_i > p_i),
    and its row sums.

    A factored uu gives the raw similarities through
    ``FactoredKernel.row_blocks``, a dense one as one cut; each block is
    transformed in place and stored by the clamp at 0 (the state's maxima
    start at 0), cast if the block is float32.

    Each row's sum is taken while its rows are still in cache, over the
    float64 values of the stored entries with the ufunc a gain sums its
    rises with: at the empty selection every rise is the entry itself, so
    these are the first gains, bit for bit (see ``SelectionState.gains``).
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
    if factored:  # all kept: None reads the factors in place
        blocks = f.uu.row_blocks(None if keep.size == n else keep)
    else:
        blocks = [(0, n, np.take(f.uu, keep, axis=1))]
    wide = factored and n * keep.size * 8 > _FLOAT64_BLOCK_BYTES
    cov = np.empty((n, keep.size), dtype=np.float32 if wide else np.float64)
    sums = np.empty(n)
    for lo, hi, blk in blocks:
        if q is not None:
            np.minimum(blk, q, out=blk)
        if p is not None:
            np.subtract(blk, p, out=blk)
        np.maximum(blk, 0.0, out=cov[lo:hi])  # the cast on store, if any
        np.copyto(blk, cov[lo:hi])  # the stored values, upcast exactly
        np.add.reduce(blk, axis=1, out=sums[lo:hi])
    return cov, sums


def _row_max(block) -> np.ndarray:
    """Row maxima of a U x X block (0 where X is empty); a factored block
    is read through its row blocks."""
    n, m = block.shape
    if m == 0:
        return np.zeros(n)
    if not isinstance(block, FactoredKernel):
        return block.max(axis=1)
    out = np.empty(n)
    for lo, hi, blk in block.row_blocks():
        blk.max(axis=1, out=out[lo:hi])
    return out


def _row_sums(block) -> np.ndarray:
    """Row sums of a U x X block; a factored block gives F (F_X^T 1), one
    row block of F at a time, and a symmetric one has its pinned unit
    diagonal corrected by 1 - |F_i|^2."""
    if not isinstance(block, FactoredKernel):
        return block.sum(axis=1)
    if block.symmetric:
        col_sums = sum(blk.sum(axis=0) for _, _, blk in block.factor_blocks())
    else:
        col_sums = block.right.sum(axis=0)
    out = np.empty(block.shape[0])
    for lo, hi, blk in block.factor_blocks():
        np.matmul(blk, col_sums, out=out[lo:hi])
        if block.symmetric:
            out[lo:hi] += 1.0 - _squared_norms(blk)
    return out


def _squared_norms(rows: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of each row (the argument's last reference is
    dropped on return, so a block loop holds one product at a time)."""
    return np.einsum("ij,ij->i", rows, rows)


def _check_symmetric(uu: np.ndarray, tol: float = 1e-10) -> None:
    """Reject a ground kernel that is not square and symmetric: selection
    states read rows where the formulas say columns.  Full check up to
    n=2048, a seeded spot check above (BLAS kernels are symmetric to ulps)."""
    n = uu.shape[0]
    if uu.shape != (n, n):
        raise ValueError(f"U x U block must be square, got {uu.shape}")
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
    items = list(selection)
    if not all(isinstance(i, (int, np.integer)) and not isinstance(i, bool) for i in items):
        raise ValueError("selection must hold integer indices")
    A = np.asarray(sorted(set(int(i) for i in items)), dtype=np.intp)
    if len(A) != len(items):
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
            val += sign * _slogdet_pd(_conditioned_square(f, sa, A, key), "conditioned selection")
    return val


def _cut(block, rows: np.ndarray | None = None, cols: np.ndarray | None = None) -> np.ndarray:
    """Dense rows x cols sub-block (all rows / columns where None)."""
    if isinstance(block, FactoredKernel):
        return block.take(rows, cols)
    if rows is None:
        return block if cols is None else block[:, cols]
    return block[rows, :] if cols is None else block[np.ix_(rows, cols)]


def _conditioned_square(f: InfoFunction, sa: np.ndarray, A: np.ndarray, key: str) -> np.ndarray:
    """Schur complement S_A|X = sa - S_AX (S_XX + eps I)^-1 S_XA of the
    conditioning set X (``key`` as in ``_LOGDET_TERMS``), given
    sa = S_A + eps I.

    Above the rank r of F_X, S_AX = F_A F_X^T and the push-through identity
    gives F_X^T (F_X F_X^T + eps I)^-1 F_X = I - eps (G + eps I)^-1 with
    G = F_X^T F_X, so S_A|X = sa - F_A F_A^T + eps B^T B with B = L^-1 F_A^T
    and L the factor of G + eps I: r x r, with no |X| x |X| array and no
    use of the state's corrections.  Below the rank, dense and factored
    blocks alike give S_A|X = sa - Y^T Y with Y = L^-1 S_XA and L
    ``_chol_of``'s factor.
    """
    cross = _cross_of(f, key)
    if cross.shape[1] == 0:
        return sa
    if _above_rank(cross):
        fa = cross.rows(A)
        lo = _chol_or_raise(_reg(cross.right.T @ cross.right, f.eps), _SET_LABELS[key])
        b = np.linalg.solve(lo, fa.T)
        return sa - fa @ fa.T + f.eps * (b.T @ b)
    y = np.linalg.solve(_chol_of(f, key), _cut(cross, A).T)
    return sa - y.T @ y


# ---------------------------------------------------------------------------
# Incremental selection state
# ---------------------------------------------------------------------------


class _LogDetTerm:
    """Incremental log det(M_A) over M = (S_UU + eps I) - W^T W, with W
    ``_correction``'s whitened cross (None: no conditioning).

    Keeps the squared residual pivot ``dsq`` of every row of uu, whose
    logs the selection state sums into its gains, and the Cholesky columns
    ``cof`` of the committed set.  The selection state passes a factor with
    a row index as its ``FactoredKernel.distinct`` rows: copies of a point
    have equal kernel rows and so equal pivots, kept once.  A commit is
    split in two, so that the selection state reads row j once for all its
    terms: ``column`` forms the new column from row j of S_UU and subtracts
    the earlier columns, weighted by their entries in row j, and ``lower``
    takes the squares of the new column's entries off the pivots.

    On a dense S_UU a column is an n-vector, O(n |A|) per commit.  On
    factors S_UU = F F^T (unit diagonal) a column a is kept in the basis
    F, O(r (n + |A|)) at rank r, and the pivots fall by the squares of
    F a.  Column j starts as F_j - W^T (W F_j).  That drops eps e_j and
    the pinned unit diagonal; both touch only entry j, which the pivots
    carry.  No later commit reads it for point j; a copy of j reads it as
    the pivot of a point conditioned on its equal row (F_j F_j^T, not the
    pinned 1).  The pivots start at
    1 + eps - |W F_i|^2, read one ``factor_blocks`` block at a time, and a
    commit's row F_j comes from ``FactoredKernel.rows``: no n x rank array
    is formed.  The entries F a of every term's new column come from one
    ``FactoredKernel.dot`` over the stacked columns.
    """

    def __init__(self, uu: np.ndarray | FactoredKernel, eps: float, w: np.ndarray | None = None):
        self.eps, self.w = eps, w
        self.factored = isinstance(uu, FactoredKernel)
        if self.factored:
            self.dsq = np.full(uu.shape[0], 1.0 + eps)
            if w is not None:
                for lo, hi, blk in uu.factor_blocks():
                    self.dsq[lo:hi] -= _squared_norms(blk @ w.T)
        else:
            self.dsq = uu.diagonal() + eps
            if w is not None:
                self.dsq -= np.einsum("ij,ij->j", w, w)
        self.cof = np.zeros((uu.rank if self.factored else uu.shape[0], 8))
        self.k = 0
        self.warnings = 0

    def column(self, j: int, row: np.ndarray) -> np.ndarray:
        """Append and return the Cholesky column of j, given ``row``: row
        j of F on factors, of S_UU on a dense uu."""
        dj2 = self.dsq[j]
        if dj2 < _PIVOT_FLOOR:
            dj2 = _PIVOT_FLOOR
            self.warnings += 1
        if self.k == self.cof.shape[1]:
            self.cof = np.concatenate([self.cof, np.zeros_like(self.cof)], axis=1)
        w = self.w
        if self.factored:
            a = row.copy() if w is None else row - w.T @ (w @ row)
        else:  # row j = column j: the kernel is symmetric
            a = row.copy()
            a[j] += self.eps
            if w is not None:
                a -= w.T @ w[:, j]
        if self.k:
            prev = self.cof[:, : self.k]
            a = a - prev @ (row @ prev if self.factored else prev[j])
        a /= math.sqrt(dj2)
        self.cof[:, self.k] = a
        self.k += 1
        return a

    def lower(self, e: np.ndarray) -> None:
        """Lower each pivot i by e_i^2, with e the new column over the
        rows (F a on factors)."""
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
        self._lin = self._cov = self._cross = self._row_of = None
        kind = f.kind
        if kind in LOGDET_FAMILY:
            # The terms keep one state row per row of _rows_uu: point x is
            # row _row_of[x] (of the distinct rows on an indexed factor).
            factored = isinstance(f.uu, FactoredKernel)
            self._row_of = f.uu.index if factored else None
            self._rows_uu = f.uu.distinct if factored else f.uu
            self._terms = [
                (sign, _LogDetTerm(self._rows_uu, f.eps, f._w.get(key)))
                for sign, key in _LOGDET_TERMS[kind]
            ]
            self._lin, self._buf = np.empty((2, self._rows_uu.shape[0]))
            self._log_gains()
        elif kind == "flqmi":  # sum_A max_Q is modular, sum_Q max_A covers uq
            self._lin, self._cov, self._weight = _row_max(f.uq), f.uq, 1.0
            self._cov_sums = np.add.reduce(np.maximum(f.uq, 0.0), axis=1)  # rises at A = {}
        elif kind in ("gc", "gccg"):
            self._lin = _row_sums(f.uu)  # = column sums: uu is symmetric
            if f.up is not None:
                self._lin = self._lin - 2.0 * f.gc_lambda * _row_sums(f.up)
            self._diag = np.ones(f.n) if isinstance(f.uu, FactoredKernel) else f.uu.diagonal()
            self._cross = np.zeros(f.n)
        if kind in ("gcmi", "div_gcmi"):
            self._lin = 2.0 * f.gc_lambda * _row_sums(f.uq)
        if kind in FL_FAMILY:
            self._cov, self._cov_sums = f._cov, f._cov_sums
            self._weight = f.eta if kind == "div_gcmi" else 1.0
        if self._cov is not None:
            self._covered = np.zeros(self._cov.shape[1])  # max over A of cov[a]

    # -- public API -----------------------------------------------------

    @property
    def numerical_warnings(self) -> int:
        return sum(t.warnings for _, t in self._terms)

    def gain(self, x: int) -> float:
        """Marginal gain of adding x to the current selection.

        A log-det gain is a lookup.  Coverage gains are pointwise rises of
        the running maxima summed, which keeps them a pure function of those
        maxima and numerically nonincreasing as the selection grows (both
        needed for the lazy and naive variants to agree bit for bit).  The
        rises are float64 even on a float32 block: its row upcasts exactly
        against the float64 maxima.
        """
        if self._mask[x]:
            raise ValueError(f"index {x} already selected")
        if self._cov is None:
            g = self._lin[self._row(x)]
        else:
            # Upcast first: a mixed float32 - float64 ufunc ran about 30%
            # slower than this copy and in-place subtract (same values).
            rise = self._cov[x].astype(np.float64)
            rise -= self._covered
            # ndarray.sum's own ufunc, without its Python wrapper: same floats.
            covered = np.add.reduce(np.maximum(rise, 0.0, out=rise))
            if self._lin is None:
                return float(covered)
            g = self._lin[self._row(x)] + self._weight * covered
        if self._cross is not None:
            g -= self.f.gc_lambda * (self._diag[x] + 2.0 * self._cross[x])
        return float(g)

    def gains(self, candidates: np.ndarray) -> np.ndarray:
        """Marginal gains for a batch of unchosen candidates, each the
        float ``gain`` returns, so every greedy variant sees exactly the
        same float for the same (selection, x).

        Each batch applies the scalar path's elementwise ufuncs, in the
        same order, to the same operands, and an elementwise ufunc computes
        each element as it computes a lone scalar.  The vector and cross
        parts are indexed once, so a log-det batch is a gather of the
        floats ``gain`` reads.  A coverage block's rises are read row by
        row once something is chosen; at the empty selection each rise is
        the entry itself, so its sum is the row sum the block's build took
        with the same reduction.
        """
        candidates = np.asarray(candidates, dtype=np.intp)
        if self._cov is not None and self.chosen:
            return np.array([self.gain(int(x)) for x in candidates])
        chosen = candidates[self._mask[candidates]]
        if chosen.size:
            raise ValueError(f"index {chosen[0]} already selected")
        g = None if self._lin is None else self._lin[self._row(candidates)]
        if self._cov is not None:
            covered = self._cov_sums[candidates]
            g = covered if g is None else g + self._weight * covered
        if self._cross is not None:
            g = g - self.f.gc_lambda * (self._diag[candidates] + 2.0 * self._cross[candidates])
        return g

    def _row(self, x):
        """The state rows of points ``x`` (distinct rows on an indexed factor)."""
        return x if self._row_of is None else self._row_of[x]

    def _log_gains(self) -> None:
        """Refresh ``_lin`` in place to each row's signed sum of log pivots,
        summed from 0 through a kept buffer (fresh arrays at each commit
        raised rare-logdetmi's peak RSS)."""
        self._lin[:] = 0.0
        for sign, term in self._terms:
            np.log(np.maximum(term.dsq, _PIVOT_FLOOR, out=self._buf), out=self._buf)
            self._buf *= sign
            self._lin += self._buf

    def commit(self, x: int) -> float:
        """Add x to the selection; returns the realized gain."""
        g = self.gain(x)
        if self._cov is not None:
            np.maximum(self._covered, self._cov[x], out=self._covered)
        if self._cross is not None:
            # Kernel row x (= column x: uu is symmetric), on factors F F_x,
            # one matvec with no other row of F built.
            uu = self.f.uu
            row = uu.dot(uu.rows(x)) if isinstance(uu, FactoredKernel) else uu[x].copy()
            row[x] = self._diag[x]  # S_xx as gains read it: the pinned 1 on factors
            self._cross += row
        if self._terms:
            # One row read and, on factors, one product for all terms, over
            # the distinct rows alone.
            uu, j = self._rows_uu, self._row(x)
            factored = isinstance(uu, FactoredKernel)
            row = uu.rows(j) if factored else uu[j]
            cols = [term.column(j, row) for _, term in self._terms]
            for (_, term), e in zip(self._terms, uu.dot(np.stack(cols)) if factored else cols):
                term.lower(e)
            self._log_gains()
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
    and the Table-1 reduction checks.  The log-det kinds are built as runs
    build them, on factors: ``joint`` must be symmetric with a unit
    diagonal (the factored form pins it), and F = V sqrt(max(lam, 0)) from
    its eigendecomposition gives uu = F F^T and the Q/P crosses F F_X^T.
    Every other kind gets the dense blocks it reads.
    """
    joint = _as_block(joint)
    Q = np.asarray(query if query is not None else [], dtype=np.intp)
    P = np.asarray(conditioning if conditioning is not None else [], dtype=np.intp)
    if canonical_kind(kind) not in LOGDET_FAMILY:
        # Each kind keeps the blocks it reads (READS_Q/READS_P) and drops the rest.
        return InfoFunction(kind=kind, uu=joint, uq=joint[:, Q], up=joint[:, P], **kwargs)
    _check_symmetric(joint)
    if not np.all(joint.diagonal() == 1.0):
        raise ValueError("a log-det joint kernel must have a unit diagonal")
    lam, vecs = np.linalg.eigh(joint)
    uu = FactoredKernel(vecs * np.sqrt(np.maximum(lam, 0.0)))
    return InfoFunction(kind=kind, uu=uu, uq=uu.cross(uu.left[Q]), up=uu.cross(uu.left[P]), **kwargs)
