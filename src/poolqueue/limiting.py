"""Continuous-time stationary occupancy distributions for both viewpoints.

``pi`` is the stationary law of the customer-side occupancy and ``pi1`` the
contractor-pool law; the two are mirror images (state k on one side is state
w - k on the other), so ``pi1`` is always the exact reversal of ``pi``.

Two computation routes are provided:

* ``renewal`` (default) -- the semi-regenerative route.  The start level
  ``d = (j - v)^+`` of a posting interval is a Markov chain on 0..w-v (the
  clipped-admission pre-posting chain lumped over its identical rows 0..v);
  its stationary law ``q`` is weighted by the expected time the customer
  side spends at each level during an interval opened at ``d``.  That time
  depends on the level only through ``k - d``, so ``pi[:w]`` is the
  convolution of ``q`` with the occupancy row ``gamma`` and ``pi[w]`` collects
  the blocked tails.  This is exact for the clipped-admission dynamics, for
  every posting distribution and every load, and is the route validated
  against the closed-form birth-death reduction, an independent
  generator-matrix oracle and the simulator.
* ``ladder`` -- the closed-form increment bands ``G_n`` applied to the
  truncate-and-renormalize embedded vector, with the stationary law assembled
  as ``pi_n = G_n + pi_0`` and ``pi_0`` fixed by normalization.  The bands
  are evaluated exactly as published (empty index ranges contribute zero);
  negative entries are flagged, never clamped.  Kept for diagnostics and
  differential reporting; it is known to deviate from the event-level
  dynamics, and the comparison tooling quantifies the gap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embedded import (
    EmbeddedSolution,
    ModelType,
    SystemParams,
    embedded_P,
    kernel,
    model_type,
    start_level_P,
    start_rows,
)

NEGATIVE_TOL = 1e-9

RENEWAL = "renewal"
LADDER = "ladder"


@dataclass(frozen=True)
class LimitingDistribution:
    pi: np.ndarray  # customer-side stationary law, length w + 1
    pi1: np.ndarray  # contractor-pool stationary law, exact reversal of pi
    g_vector: np.ndarray | None  # ladder increments G_1..G_w, diagnostics
    embedded: EmbeddedSolution | None  # the ladder's truncated embedded vector
    valid: bool
    negative_states: tuple[int, ...]
    method: str

    def expected_pool(self) -> float:
        return float(np.arange(self.pi1.size) @ self.pi1)


def bhat(P: np.ndarray, a: float, l: int) -> float:
    """Partial boundary-flow sum ``(1/a) * (P_1 + ... + P_l)``; zero at l=0."""
    if l < 0 or l >= P.size:
        raise ValueError(f"l must lie in 0..{P.size - 1}, got {l}")
    return float(P[1 : l + 1].sum()) / a


def g_vector(params: SystemParams, P: np.ndarray) -> np.ndarray:
    """Ladder increments ``G_1..G_w`` (three bands per model type).

    Index ranges are taken literally; a band whose summation range is empty
    or reversed contributes zero from that sum.
    """
    v, w, lam, a = params.v, params.w, params.lam, params.a
    G = np.zeros(w)

    def bh(l):
        return bhat(P, a, max(l, 0))

    if model_type(params) is ModelType.TYPE1:
        for n in range(1, w + 1):
            if n <= v:
                acc = P[v : v + n].sum() / a - bh(n)
            elif n <= w - v:
                acc = P[2 * v + 1 : n + 1].sum() / a - bh(v - 1)
            else:
                acc = (n - w + v) * P[w] / a - bh(v - 1)
            G[n - 1] = acc / lam
    else:
        for n in range(1, w + 1):
            if n <= w - v:
                acc = P[v : v + n].sum() / a - bh(n)
            elif n <= v:
                acc = (P[v + 1 : w + 1].sum() + (n - w + v) * P[w]) / a - bh(n)
            else:
                acc = (P[n + 1 : w + 1].sum() + (n - w + v) * P[w]) / a - bh(v - 1)
            G[n - 1] = acc / lam
    return G


def _occupancy_row(params: SystemParams, tails: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``gamma[m]`` for m = 0..w-1, the expected fraction of an interval with
    exactly m arrivals so far, ``P{N > m} / (lam a)``; and its tails
    ``1 - sum(gamma[:n])`` for n = 0..w."""
    gamma = tails[1:] / (params.lam * params.a)
    return gamma, 1.0 - np.concatenate(([0.0], np.cumsum(gamma)))


def interval_occupancy(params: SystemParams) -> np.ndarray:
    """Matrix of expected occupancy fractions over one posting interval.

    Entry (j, k) is the expected fraction of an interval spent at occupancy k
    when the interval opens at ``(j - v)^+`` customers; arrivals beyond
    capacity are blocked, so the top state absorbs the remainder of each row.
    Rows are stochastic, which makes the resulting ``pi`` sum to one by
    construction.
    """
    v, w = params.v, params.w
    gamma, gtails = _occupancy_row(params, params.posting.psi_tails(params.lam, w))
    return start_rows(gamma, gtails, 0, w - v + 1, w + 1)[np.maximum(np.arange(w + 1) - v, 0)]


def limiting_pi(params: SystemParams, method: str = RENEWAL) -> LimitingDistribution:
    """Stationary occupancy laws for one platform instance.

    The renewal route solves the start-level chain of
    :func:`~poolqueue.embedded.start_level_P` (w - v + 1 states) for its law
    ``q`` and sets ``pi[:w] = (q * gamma)[:w]``, the convolution with the
    interval-occupancy row, and ``pi[w]`` to ``q`` weighted by the blocked
    tail of each start level.  This equals ``admission_P(params) @
    interval_occupancy(params)`` without building either (w+1)-square matrix.

    Only the ladder route (``method="ladder"``) solves the embedded chain,
    by :func:`~poolqueue.embedded.embedded_P`, whose failure it propagates;
    it reports that solution as ``embedded`` and the bands as ``g_vector``.
    The law is ``valid`` when every entry is finite and none is below
    ``-NEGATIVE_TOL``.
    """
    if method not in (RENEWAL, LADDER):
        raise ValueError(f"unknown method {method!r}")
    v, w = params.v, params.w

    gvec = emb = None
    if method == LADDER:
        emb = embedded_P(params)
        gvec = g_vector(params, emb.P)
        pi0 = (1.0 - gvec.sum()) / (1.0 + w)
        pi = np.empty(w + 1)
        pi[0] = pi0
        pi[1:] = gvec + pi0
    else:
        psis, tails = kernel(params)
        q = start_level_P(params, psis, tails)
        gamma, gtails = _occupancy_row(params, tails)
        pi = np.empty(w + 1)
        pi[:w] = np.convolve(q, gamma)[:w]
        # an interval opened at d has gtails[w - d] of its time blocked at w
        pi[w] = gtails[v:][::-1] @ q

    negatives = tuple(int(k) for k in np.nonzero(pi < -NEGATIVE_TOL)[0])
    return LimitingDistribution(
        pi=pi,
        pi1=pi[::-1].copy(),
        g_vector=gvec,
        embedded=emb,
        valid=bool(np.isfinite(pi).all()) and not negatives,
        negative_states=negatives,
        method=method,
    )
