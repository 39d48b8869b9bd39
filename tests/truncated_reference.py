"""List-built truncated solve, kept as the reference for ``_truncated_infinite_Q``.

This is the level loop ``poolqueue.embedded._truncated_infinite_Q`` used
before its matrices were assembled from arrays, unchanged apart from the
level cap becoming a module constant here: each row of the level-N matrix is
appended entry by entry to Python lists, the transpose goes through a LIL
matrix, and the absorbed tail of each row is ``1 - sum``.  The tests hold the
array-built vector bit-identical to it on small instances.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import spsolve

LEVEL_CAP = 1 << 16


def truncated_Q(params, eps: float = 1e-12) -> np.ndarray:
    v, w, lam = params.v, params.w, params.lam
    head = w - v + 1
    n = max(64, 4 * (w + 1))
    prev_head = None
    while n <= LEVEL_CAP:
        psis, _ = params.posting.psi_row(lam, n - 1)
        nz = np.nonzero(psis > 1e-18)[0]
        band = int(nz[-1]) + 1 if nz.size else 1
        band = max(band, head)
        rows, cols, vals = [], [], []
        for j in range(n):
            d = max(j - v, 0)
            hi = min(d + band, n - 1)
            block = psis[: hi - d]
            rows.extend([j] * (hi - d))
            cols.extend(range(d, hi))
            vals.extend(block)
            rows.append(j)
            cols.append(n - 1)
            vals.append(1.0 - float(block.sum()))
        M = sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))
        A = (M.T - sparse.eye(n)).tolil()
        A[n - 1, :] = 1.0
        b = np.zeros(n)
        b[n - 1] = 1.0
        Q = spsolve(A.tocsr(), b)
        tail = abs(Q[n - 1]) + max(0.0, 1.0 - float(Q[: n - 1].sum()))
        if prev_head is not None and tail < eps:
            if np.max(np.abs(Q[:head] - prev_head)) < eps:
                return Q
        prev_head = Q[:head].copy()
        n *= 2
    raise RuntimeError(f"reference solve did not converge at level cap {LEVEL_CAP}")
