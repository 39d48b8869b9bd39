"""Long-run operating-cost objective, batch-size optimizer and cost surface.

The cost rate of one instance has three parts: holding cost over the whole
contractor pool, reserve cost over contractors beyond the batch size, and a
posting cost charged at rate ``c_d * (lam / v) * (1 / a)``.  Per-state cost
tables may replace the linear holding/reserve defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist import PostingDistribution
# embedded_P is not called here; bench/tests/test_bench.py checks that the
# benchmark's tracer wraps it at this binding
from .embedded import EmbeddedSolution, SystemParams, embedded_P  # noqa: F401
from .errors import NoRootError, NoValidPointError, TruncationError
from .limiting import RENEWAL, LimitingDistribution, limiting_pi


@dataclass(frozen=True)
class CostParams:
    """Cost coefficients: holding, reserve and posting, all non-negative.

    ``holding_table[k]`` (cost rate with k contractors in the pool) and
    ``reserve_table[n]`` (cost rate with n reserved contractors in use)
    override the linear defaults ``c_h * k`` and ``c_r * n`` when given.
    """

    c_h: float
    c_r: float
    c_d: float
    holding_table: tuple[float, ...] | None = None
    reserve_table: tuple[float, ...] | None = None

    def __post_init__(self):
        for name in ("c_h", "c_r", "c_d"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be non-negative and finite, got {value}")


@dataclass(frozen=True)
class ObjectiveBreakdown:
    holding: float
    reserve: float
    posting: float
    total: float
    expected_pool: float
    valid: bool


@dataclass(frozen=True)
class OptimizationResult:
    v0: int
    phi_min: float
    curve: tuple[tuple[int, ObjectiveBreakdown], ...]
    any_invalid: bool


@dataclass(frozen=True)
class SweepCell:
    v: int
    w: int
    feasible: bool
    breakdown: ObjectiveBreakdown | None
    capability: float


def capability(lam: float, a: float, w: int) -> float:
    """Potential-loss indicator ``max(lam * a / w - 1, 0)``."""
    if not (0 < lam < math.inf and 0 < a < math.inf and w > 0):
        raise ValueError("lam and a must be positive and finite, and w positive")
    return max(lam * a / w - 1.0, 0.0)


def state_cost_rates(params: SystemParams, cost: CostParams) -> tuple[np.ndarray, np.ndarray]:
    """Holding and reserve cost rates at each pool level 0..w.

    Tables are checked against the geometry: ``holding_table`` needs w+1
    entries and ``reserve_table`` w-v+1.  Reserve is charged only at levels
    strictly above v.
    """
    w, v = params.w, params.v
    ks = np.arange(w + 1)
    reserve_counts = np.clip(ks - v, 0, None)
    if cost.holding_table is not None:
        holding = np.asarray(cost.holding_table, dtype=float)
        if holding.size != w + 1:
            raise ValueError(f"holding_table must have {w + 1} entries, got {holding.size}")
    else:
        holding = cost.c_h * ks
    if cost.reserve_table is not None:
        g = np.asarray(cost.reserve_table, dtype=float)
        if g.size != w - v + 1:
            raise ValueError(f"reserve_table must have {w - v + 1} entries, got {g.size}")
        reserve = np.where(ks > v, g[reserve_counts], 0.0)
    else:
        reserve = cost.c_r * reserve_counts
    return holding, reserve


def objective(
    params: SystemParams, cost: CostParams, dist: LimitingDistribution
) -> ObjectiveBreakdown:
    """Cost-rate breakdown for one solved instance."""
    pi1 = dist.pi1
    holding_rates, reserve_rates = state_cost_rates(params, cost)
    holding = float(holding_rates @ pi1)
    reserve = float(reserve_rates @ pi1)
    posting = cost.c_d * (params.lam / params.v) * (1.0 / params.a)
    return ObjectiveBreakdown(
        holding=holding,
        reserve=reserve,
        posting=posting,
        total=holding + reserve + posting,
        expected_pool=float(np.arange(params.w + 1) @ pi1),
        valid=dist.valid,
    )


def solve_instance(
    params: SystemParams, method: str = RENEWAL
) -> tuple[EmbeddedSolution | None, LimitingDistribution]:
    """Run the analytic pipeline for one instance: the law and, beside it,
    the ladder's embedded solution (``None`` on the renewal route)."""
    dist = limiting_pi(params, method)
    return dist.embedded, dist


def evaluate_cell(
    v: int,
    w: int,
    lam: float,
    posting: PostingDistribution,
    cost: CostParams,
    method: str = RENEWAL,
) -> ObjectiveBreakdown:
    """Solve one (v, w) cell end to end; invalid cells come back flagged, and
    a ladder cell whose embedded solution fails comes back as NaN."""
    params = SystemParams(v=v, w=w, lam=lam, posting=posting)
    try:
        _, dist = solve_instance(params, method=method)
    except (NoRootError, TruncationError):
        nan = float("nan")
        return ObjectiveBreakdown(nan, nan, nan, nan, nan, valid=False)
    return objective(params, cost, dist)


def optimize_v(
    w: int,
    lam: float,
    posting: PostingDistribution,
    cost: CostParams,
    v_max: int,
    method: str = RENEWAL,
) -> OptimizationResult:
    """Exhaustive batch-size search over v = 1..v_max.

    Each candidate is one :func:`evaluate_cell` call: on the renewal route a
    solve of its (w - v + 1)-state start-level chain, with no embedded
    diagnostics.  Invalid entries stay in the curve but never win; ties
    break toward the smallest batch size.
    """
    if not (1 <= v_max <= w):
        raise ValueError(f"v_max must lie in 1..w={w}, got {v_max}")
    curve = []
    best = None
    any_invalid = False
    for v in range(1, v_max + 1):
        bd = evaluate_cell(v, w, lam, posting, cost, method)
        curve.append((v, bd))
        if not bd.valid:
            any_invalid = True
        elif best is None or bd.total < best[1].total:
            best = (v, bd)
    if best is None:
        raise NoValidPointError("no valid batch size in 1..v_max")
    return OptimizationResult(
        v0=best[0], phi_min=best[1].total, curve=tuple(curve), any_invalid=any_invalid
    )


def sweep(
    lam: float,
    posting: PostingDistribution,
    cost: CostParams,
    v_values,
    w_values,
    method: str = RENEWAL,
) -> list[SweepCell]:
    """Cost surface over a (v, w) grid, row-major by w then v.

    Cells with v > w are marked infeasible and not computed.
    """
    v_values = list(v_values)
    w_values = list(w_values)
    if not v_values or not w_values:
        raise ValueError("v and w ranges must be non-empty")
    cells = []
    for w in w_values:
        rho = capability(lam, posting.mean, w)
        for v in v_values:
            if v > w:
                cells.append(SweepCell(v=v, w=w, feasible=False, breakdown=None, capability=rho))
                continue
            bd = evaluate_cell(v, w, lam, posting, cost, method)
            cells.append(SweepCell(v=v, w=w, feasible=True, breakdown=bd, capability=rho))
    return cells
