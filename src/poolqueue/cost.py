"""Long-run operating-cost objective, batch-size optimizer and cost surface.

The cost rate of one instance has three parts: holding cost over the whole
contractor pool, reserve cost over contractors beyond the batch size, and a
posting cost charged at rate ``c_d * (lam / v) * (1 / a)``.  Per-state cost
tables may replace the linear holding/reserve defaults.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dist import PostingDistribution
from .embedded import EmbeddedSolution, SystemParams, embedded_P
from .errors import NoRootError, NoValidPointError, TruncationError
from .limiting import RENEWAL, LADDER, LimitingDistribution, limiting_pi


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
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


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
    if lam <= 0 or a <= 0 or w <= 0:
        raise ValueError("lam, a and w must be positive")
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
    params: SystemParams, method: str = RENEWAL, eps: float = 1e-12
) -> tuple[EmbeddedSolution | None, LimitingDistribution]:
    """Run the full analytic pipeline for one instance.

    The truncate-and-renormalize embedded solution only exists below offered
    load 1; the renewal route carries on without it (returning ``None`` in
    its place), while the ladder route propagates the failure.
    """
    try:
        emb = embedded_P(params, eps)
    except (NoRootError, TruncationError):
        if method == LADDER:
            raise
        emb = None
    return emb, limiting_pi(params, emb, method=method)


def evaluate_cell(
    v: int,
    w: int,
    lam: float,
    posting: PostingDistribution,
    cost: CostParams,
    method: str = RENEWAL,
) -> ObjectiveBreakdown:
    """Solve one (v, w) cell end to end; invalid cells come back flagged."""
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
    enforce_capability: bool = False,
) -> OptimizationResult:
    """Exhaustive batch-size search over v = 1..v_max.

    Every candidate re-solves the full pipeline.  Invalid entries stay in the
    curve but never win; ties break toward the smallest batch size.  With
    ``enforce_capability`` set, instances whose capability factor is positive
    are excluded as well.
    """
    if not (1 <= v_max <= w):
        raise ValueError(f"v_max must lie in 1..w={w}, got {v_max}")
    curve = []
    best = None
    any_invalid = False
    rho = capability(lam, posting.mean, w)
    for v in range(1, v_max + 1):
        bd = evaluate_cell(v, w, lam, posting, cost, method)
        curve.append((v, bd))
        excluded = not bd.valid or (enforce_capability and rho > 0)
        if not bd.valid:
            any_invalid = True
        if not excluded and (best is None or bd.total < best[1].total):
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
