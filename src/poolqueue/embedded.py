"""Embedded chain of the customer-side system observed just before postings.

The customer-side system is a single channel with Poisson(``lam``) arrivals,
bulk removals of size ``v`` at renewal posting epochs and capacity ``w``.
Observed just before each posting epoch, the occupancy is a Markov chain with
transition kernel driven by the Poisson-mixture ``psi``.

Two stationary vectors are computed here:

* :func:`embedded_P` -- the truncate-and-renormalize solution: the stationary
  vector ``Q`` of the infinite-capacity chain is cut at level ``w - v`` and
  renormalized, leaving exact zeros above ``w - v``.
* :func:`admission_P` -- the stationary vector of the finite chain under
  clipped admission (arrivals blocked at ``w``), whose support is the full
  state range.  This is the law that matches the event-level dynamics.

Under clipped admission every row of the pre-posting chain depends on its
state j only through the start level ``d = (j - v)^+`` of the next interval,
so ``d`` is itself a Markov chain on 0..w-v (an exact lumping of states
0..v).  :func:`start_level_P` builds that smaller chain at its own size,
w-v+1 states, and solves it; the full pre-posting law and the limiting
distribution are both built from its law.

Only the truncate-and-renormalize route uses scipy: ``scipy.optimize`` for
:func:`characteristic_root` and ``scipy.sparse`` for the truncated solve.
Both are imported the first time that route runs, so the default route loads
no scipy module, whatever the posting family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dist import EXPONENTIAL, PostingDistribution, positive_int, scipy_module
from .errors import NoRootError, TruncationError

# Stored entries allowed in one truncated level or geometric head; a level
# peaks near 40 bytes per entry while it is assembled and factored.
ENTRY_BUDGET = 1 << 23

# The infinite-queue head is cut where its tail mass drops below this, and a
# truncated solve stops once its head entries change by less.
EPS = 1e-12


@dataclass(frozen=True)
class SystemParams:
    """One platform instance: batch size, capacity, consumption rate, postings."""

    v: int
    w: int
    lam: float
    posting: PostingDistribution

    def __post_init__(self):
        # whole-number floats such as 3.0 are stored as ints, so v and w can
        # index and slice arrays
        object.__setattr__(self, "v", positive_int("v", self.v))
        object.__setattr__(self, "w", positive_int("w", self.w))
        if self.v > self.w:
            raise ValueError(f"batch size v={self.v} must not exceed capacity w={self.w}")
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise ValueError(f"lam must be positive and finite, got {self.lam}")
        if not math.isfinite(self.lam * self.posting.mean):
            raise ValueError(f"lam * a overflows: lam={self.lam}, a={self.posting.mean}")

    @property
    def s(self) -> int:
        """Company-reserved slots, ``w - v``."""
        return self.w - self.v

    @property
    def a(self) -> float:
        return self.posting.mean

    @property
    def offered_load(self) -> float:
        """``lam * a / v``; the geometric infinite-queue solution needs < 1."""
        return self.lam * self.posting.mean / self.v


class ModelType(Enum):
    TYPE1 = "type1"  # w >= 2v
    TYPE2 = "type2"  # w < 2v


def model_type(params: SystemParams) -> ModelType:
    return ModelType.TYPE1 if params.w >= 2 * params.v else ModelType.TYPE2


@dataclass(frozen=True)
class EmbeddedSolution:
    """Stationary pre-posting vector of the truncate-and-renormalize route."""

    model_type: ModelType
    P: np.ndarray  # length w + 1, zeros above w - v
    norm_constant: float  # 1 / sum(Q_0 .. Q_{w-v}), >= 1
    root: float | None  # characteristic root, exponential postings only
    truncation_level: int


# -- transition matrices ---------------------------------------------------


def start_rows(body: np.ndarray, tails: np.ndarray, first: int, count: int, width: int) -> np.ndarray:
    """``count`` rows of ``width`` columns, row i starting at level ``first + i``.

    Row i holds ``body[0 .. width-2-d]`` in columns ``d .. width-2`` and
    ``tails[width-1-d]`` in the absorbing last column, where ``d = first + i``
    and ``tails[n]`` is the mass of ``body`` beyond its first n entries.  With
    ``first < 0`` the rows that start below 0 lump their levels up to 0 into
    column 0: column 0 of every row sums the ``1 - first`` zero-padded
    entries of levels first..0, so every row adds the same count of terms in
    the same order.  The rows are read as one strided view of the zero-padded
    body.  Every pre-posting and interval-occupancy matrix here is made of
    such rows; a matrix whose rows repeat a start level indexes them.
    """
    n = width - 1
    lo = min(first, 0)
    # window k of [0]*n + body is its n - lo entries from k on; window
    # n + lo - d holds columns lo..n-1 of the row starting at d: d - lo
    # zeros, then body.  Consecutive starts take consecutive windows,
    # counting down.
    padded = np.concatenate((np.zeros(n), body[: n - lo]))
    step = padded.itemsize
    windows = np.ndarray((count, n - lo), padded.dtype, padded, (n + lo - first) * step, (-step, step))
    rows = np.empty((count, width))
    rows[:, :n] = windows[:, -lo:]
    if lo < 0:
        rows[:, 0] = windows[:, : 1 - lo].sum(axis=1)
    rows[:, n] = tails[n - first - np.arange(count)]
    return rows


def kernel(params: SystemParams) -> tuple[np.ndarray, np.ndarray]:
    """Kernel values ``psi_0..psi_w`` and tails ``P{N >= n}`` for n = 0..w."""
    return params.posting.psi_and_tails(params.lam, params.w)


def build_tpm(params: SystemParams) -> np.ndarray:
    """Pre-posting transition matrix with tail absorption at column ``w - v``.

    Rows 0..v carry the plain kernel row; for w >= 2v the rows v+1..w-v carry
    the kernel shifted by the leftover occupancy j - v.  In both cases the
    last reachable column w - v absorbs the kernel tail so every row is
    stochastic.  States above w - v are unreachable and get a diagnostic
    self-loop; the stationary vector is never computed from this matrix.
    """
    v, w = params.v, params.w
    s = w - v
    psis, tails = params.posting.psi_and_tails(params.lam, s)
    top = max(v, s) + 1  # rows 0..v and 0..s carry kernel rows
    M = np.zeros((w + 1, w + 1))
    rows = start_rows(psis, tails, 0, top - v, s + 1)
    M[:top, : s + 1] = rows[np.maximum(np.arange(top) - v, 0)]
    loops = np.arange(top, w + 1)
    M[loops, loops] = 1.0
    return M


def admission_tpm(params: SystemParams) -> np.ndarray:
    """Pre-posting transition matrix of the clipped-admission finite chain.

    From pre-posting state j the batch removes ``min(j, v)`` and arrivals
    then fill up to capacity, so the next state is ``min((j-v)^+ + k, w)``
    with k kernel-distributed; column ``w`` absorbs the tail.
    """
    v, w = params.v, params.w
    psis, tails = kernel(params)
    return start_rows(psis, tails, 0, w - v + 1, w + 1)[np.maximum(np.arange(w + 1) - v, 0)]


def stationary_vector(M: np.ndarray) -> np.ndarray:
    """Left fixed point of a stochastic matrix, normalized to sum 1.

    Solves ``A^T x = e_n``, where ``A`` is ``M - I`` with its last column set
    to ones: the normalization replaces the last balance equation.  ``A^T``
    is an F-contiguous view, so LAPACK receives ``M^T - I`` with a last row
    of ones from one plain copy of ``M``; no identity or transposed
    difference is built.
    """
    n = M.shape[0]
    A = M.copy()
    A.flat[:: n + 1] -= 1.0
    A[:, -1] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    return np.linalg.solve(A.T, b)


def start_level_P(params: SystemParams, psis: np.ndarray, tails: np.ndarray) -> np.ndarray:
    """Stationary law ``q`` of the start level ``d = (j - v)^+`` on 0..w-v.

    Pre-posting states 0..v share one transition row, so ``d`` is a Markov
    chain: from d the next pre-posting state is ``min(d + N, w)`` and the
    next start level ``(min(d + N, w) - v)^+``.  In start-level columns the
    row of d starts at d - v, so :func:`start_rows` builds the
    (w-v+1)-square matrix directly, lumping pre-posting states 0..v into
    column 0.  At v = w the one start level, 0, is never left.  ``psis`` and
    ``tails`` come from :func:`kernel`.
    """
    n = params.w - params.v + 1
    K = start_rows(psis, tails, -params.v, n, n) if n > 1 else np.ones((1, 1))
    return stationary_vector(K)


def admission_P(params: SystemParams) -> np.ndarray:
    """Stationary pre-posting law of the clipped-admission chain.

    The start-level law ``q`` spread over the rows ``R[d]`` of
    :func:`admission_tpm` that start at d = 0..w-v: the law is ``q @ R``.
    """
    psis, tails = kernel(params)
    rows = start_rows(psis, tails, 0, params.w - params.v + 1, params.w + 1)
    return start_level_P(params, psis, tails) @ rows


# -- infinite-queue solution ----------------------------------------------


def _log1p_ratio(t: float) -> float:
    """``log1p(t) / t - 1`` for t > -1; its series -t/2 + t^2/3 - ... near 0."""
    if abs(t) >= 0.1:
        return (math.log1p(t) - t) / t
    return sum((-t) ** k / (k + 1) for k in range(1, 18))


def characteristic_root(v: int, lam: float, a: float) -> float:
    """Unique real root > 1 of ``(1 + lam a) z^v - lam a z^{v+1} - 1``.

    Exists exactly when the offered load ``lam a / v`` is below 1.  Solved
    for ``x = z - 1`` from ``v log1p(x) + log1p(-lam a x) = 0``; below
    x = 0.1 it is divided by x into the exact load gap ``v - lam a`` and two
    terms of one sign, so nothing cancels however close the load is to 1.
    """
    la = lam * a
    if la / v >= 1.0:
        raise NoRootError(
            f"offered load lam*a/v = {la / v:.6g} >= 1; no root beyond 1 exists"
        )
    if la < 1e-300:
        raise NoRootError(f"lam*a = {la:.3g} puts the root, near 1 / (lam*a), out of float range")
    if v == 1:
        return 1.0 / la

    def f(x):
        t = la * x
        if t >= 1.0:  # z^v (1 - lam a x) = 1 needs lam a x < 1
            return -math.inf
        if x >= 0.1:
            return (v * math.log1p(x) + math.log1p(-t)) / x
        return (v - la) + v * _log1p_ratio(x) - la * _log1p_ratio(-t)

    # the root lies below 1 / (lam a), and f is -inf from there to the top
    return 1.0 + scipy_module("optimize").brentq(f, 0.0, 2.0 / la, xtol=1e-300, maxiter=400)


def _level_system(psis: np.ndarray, v: int, n: int, band: int):
    """CSR of ``A = M^T - I`` with its last row set to ones (normalization).

    Row j of the level-n matrix M holds ``psis`` from column ``(j - v)^+``,
    at most ``band`` entries and short of column n - 1.  That column, the
    absorbed tails, becomes the replaced row of ``A``, so it is never built.
    """
    d = np.maximum(np.arange(n) - v, 0)
    length = np.minimum(d + band, n - 1) - d
    # row j of A^T: length[j] kernel entries, then the one in column n - 1
    indptr = np.concatenate(([0], np.cumsum(length + 1)))
    cols = np.arange(indptr[-1]) - np.repeat(indptr[:-1], length + 1)
    vals = psis[cols]
    cols += np.repeat(d, length + 1)
    cols[indptr[1:] - 1] = n - 1
    vals[indptr[1:] - 1] = 1.0
    sparse = scipy_module("sparse")
    AT = sparse.csr_matrix((vals, cols, indptr), shape=(n, n))
    # -I off the last row; the difference drops exact zeros
    return (AT - sparse.diags(np.concatenate((np.ones(n - 1), [0.0])))).T.tocsr()


def _truncated_infinite_Q(params: SystemParams, eps: float = EPS) -> np.ndarray:
    """Stationary vector of the level-truncated infinite chain.

    The level-N matrix absorbs each row's tail in its last column; N is
    doubled until both the absorbed tail mass and the change in the head
    entries 0..w-v drop below ``eps``.  A level of ``N * (band + 1)`` stored
    entries over :data:`ENTRY_BUDGET` raises :class:`TruncationError`
    before it is built.
    """
    v, w, lam = params.v, params.w, params.lam
    head = w - v + 1
    n = max(64, 4 * (w + 1))
    prev_head = None
    while True:
        psis, _ = params.posting.psi_row(lam, n - 1)
        # kernel entries below rounding never influence eps-level results
        nz = np.nonzero(psis > 1e-18)[0]
        band = max(int(nz[-1]) + 1 if nz.size else 1, head)
        if n * (band + 1) > ENTRY_BUDGET:
            raise TruncationError(f"no convergence below eps={eps} before level {n}, whose "
                                  f"{n * (band + 1)} entries pass the budget of {ENTRY_BUDGET}")
        b = np.zeros(n)
        b[n - 1] = 1.0
        Q = scipy_module("sparse.linalg").spsolve(_level_system(psis, v, n, band), b)
        tail = abs(Q[n - 1]) + max(0.0, 1.0 - float(Q[: n - 1].sum()))
        if prev_head is not None and tail < eps:
            if np.max(np.abs(Q[:head] - prev_head)) < eps:
                return Q
        prev_head = Q[:head].copy()
        n *= 2


def _geometric_Q(params: SystemParams, z0: float) -> np.ndarray:
    """Geometric head ``(1 - r) r^i``, ``r = 1 / z0``, until ``r^i < EPS``."""
    r = 1.0 / z0
    # r is 1.0 when z0 - 1 is below rounding
    terms = np.log(EPS) / np.log(r) if r < 1.0 else np.inf
    if terms + 1 > ENTRY_BUDGET:
        raise TruncationError(f"geometric head of {terms + 1:.4g} terms passes the budget of {ENTRY_BUDGET}")
    n = max(params.w - params.v + 1, int(np.ceil(terms)) + 1)
    return (1.0 - r) * r ** np.arange(n)


def _infinite_Q(params: SystemParams) -> tuple[np.ndarray, float | None]:
    """Head of ``Q`` and the characteristic root, ``None`` unless the
    postings are exponential.  Exponential postings take the geometric closed
    form driven by the root, other kinds the truncated linear solve."""
    if params.posting.kind == EXPONENTIAL:
        root = characteristic_root(params.v, params.lam, params.a)
        return _geometric_Q(params, root), root
    if params.offered_load >= 1.0:
        raise NoRootError(
            f"offered load {params.offered_load:.6g} >= 1; "
            "the infinite-queue stationary vector does not exist"
        )
    return _truncated_infinite_Q(params), None


def infinite_queue_Q(params: SystemParams) -> np.ndarray:
    """Head of the infinite-capacity stationary vector ``Q``.

    Exponential postings use the geometric closed form, other kinds the
    truncated linear solve.  Requires offered load < 1 (:class:`NoRootError`
    otherwise); a head longer than :data:`ENTRY_BUDGET` raises
    :class:`TruncationError`.
    """
    return _infinite_Q(params)[0]


def embedded_P(params: SystemParams) -> EmbeddedSolution:
    """Truncate-and-renormalize stationary vector on states 0..w-v."""
    Q, root = _infinite_Q(params)
    head = Q[: params.w - params.v + 1]
    kappa = 1.0 / float(head.sum())
    P = np.zeros(params.w + 1)
    P[: head.size] = kappa * head
    return EmbeddedSolution(
        model_type=model_type(params),
        P=P,
        norm_constant=kappa,
        root=root,
        truncation_level=Q.size,
    )


def tpm_stationary_delta(params: SystemParams, embedded: EmbeddedSolution) -> float:
    """Max-abs gap between ``embedded`` (from :func:`embedded_P`) and the
    stationary vector of :func:`build_tpm` on its reachable block.  The two
    need not coincide; the gap is a diagnostic, not asserted away."""
    head = params.w - params.v + 1
    direct = stationary_vector(build_tpm(params)[:head, :head])
    return float(np.max(np.abs(direct - embedded.P[:head])))
