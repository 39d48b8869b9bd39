"""Independent dense oracle for one (v, w) cell, built on the pool side.

The oracle uses only the Poisson-mixture kernel psi of the posting law.  It
never calls the library's embedded, limiting or cost modules: it writes the
pre-posting chain of the contractor pool from a start-level map, solves it
densely, and propagates the start-level law through the expected
within-interval occupancy.

Pool level z in 0..w is observed just before a posting.  The posting moves it
to the start level s = start(z):

* clip   -- s = min(z + v, w)
* reject -- s = z + v if z + v <= w, else z

During the interval each Poisson arrival takes one contractor, so the next
pre-posting level is max(s - N, 0) with N psi-distributed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CLIP = "clip"
REJECT = "reject"


@dataclass(frozen=True)
class OracleCell:
    pre: np.ndarray  # pool-side pre-posting law, length w + 1
    pi1: np.ndarray  # pool-side time-average law, length w + 1
    phi: float  # long-run cost rate


def start_level(z: int, v: int, w: int, policy: str) -> int:
    if policy == CLIP:
        return min(z + v, w)
    if policy == REJECT:
        return z + v if z + v <= w else z
    raise ValueError(f"unknown policy {policy!r}")


def cost_rate(pi1: np.ndarray, v: int, lam: float, a: float, c_h: float, c_r: float, c_d: float) -> float:
    """Holding on every contractor, reserve on contractors beyond v, and the
    posting charge c_d * (lam / v) / a of the library's cost model."""
    ks = np.arange(pi1.size)
    holding = c_h * float(ks @ pi1)
    reserve = c_r * float(np.maximum(ks - v, 0) @ pi1)
    return holding + reserve + c_d * (lam / v) / a


def solve_cell(v: int, w: int, lam: float, posting, policy: str = CLIP, costs=(0.0, 0.0, 0.0)) -> OracleCell:
    """Dense oracle solve; ``posting`` supplies ``psi`` and ``mean``."""
    a = posting.mean
    psi = np.asarray(posting.psi(lam, np.arange(w + 1)), dtype=float)
    # tail[j] = P{N >= j + 1}
    tail = 1.0 - np.cumsum(psi)
    n = w + 1
    starts = np.array([start_level(z, v, w, policy) for z in range(n)])

    P = np.zeros((n, n))
    for z, s in enumerate(starts):
        if s == 0:
            P[z, 0] = 1.0
            continue
        P[z, 1 : s + 1] = psi[s - 1 :: -1]
        P[z, 0] = tail[s - 1]
    # p (I - P + 1 1^T) = 1^T has the stationary law as its unique solution
    pre = np.linalg.solve((np.eye(n) - P + 1.0).T, np.ones(n))

    q = np.bincount(starts, weights=pre, minlength=n)
    # expected time at level m >= 1 in an interval opened at level s is the
    # expected time with exactly s - m arrivals so far, tail[s - m] / lam
    occ = np.zeros(n)
    for s in range(1, n):
        occ[1 : s + 1] += q[s] * tail[s - 1 :: -1] / lam
    pi1 = occ / a
    pi1[0] = 1.0 - pi1[1:].sum()
    return OracleCell(pre=pre, pi1=pi1, phi=cost_rate(pi1, v, lam, a, *costs))
