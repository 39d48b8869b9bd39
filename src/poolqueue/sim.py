"""Seeded discrete-event simulation of the contractor pool.

The pool holds 0..w contractors.  Batches of v are posted at renewal epochs
drawn from the posting distribution; customers arrive in a Poisson stream
with rate lam and each consumes one contractor, or is lost when the pool is
empty.  Two admission rules for a posted batch are supported:

* ``clip`` -- admit as many of the v contractors as capacity allows;
* ``reject`` -- admit the batch only when all v fit, otherwise drop it.

Randomness comes from two numpy PCG64 generators (arrival and posting
streams) spawned from a single ``SeedSequence``, so a run is a pure function
of its configuration: identical configurations give bit-identical results,
and the two streams are shared between policies for exact coupling.

The simulation is vectorized blockwise.  Epochs are running sums of blocks
of ``_BLOCK`` draws, and events are handled in segments of at most
``_BLOCK`` postings and ``_BLOCK`` arrivals, so memory is bounded by the
block size, not by the run length.  Within a segment only the pool level
before each posting takes a Python step; sojourns, losses and counts are
array operations that add up in event order.  Every result is therefore
bit-identical to the one-event-at-a-time loop kept as the reference oracle
in ``tests/sim_reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cost import CostParams, ObjectiveBreakdown, state_cost_rates
from .embedded import EmbeddedSolution, SystemParams
from .limiting import LimitingDistribution

CLIP = "clip"
REJECT = "reject"

_BLOCK = 1 << 16


@dataclass(frozen=True)
class SimConfig:
    seed: int
    num_postings: int
    warmup_fraction: float = 0.1
    policy: str = CLIP

    def __post_init__(self):
        if self.num_postings < 1:
            raise ValueError("num_postings must be >= 1")
        if not (0.0 <= self.warmup_fraction < 1.0):
            raise ValueError("warmup_fraction must lie in [0, 1)")
        warmup = int(self.warmup_fraction * self.num_postings)
        if self.num_postings - warmup < 2:
            raise ValueError(
                f"num_postings={self.num_postings} with warmup_fraction="
                f"{self.warmup_fraction} leaves {self.num_postings - warmup} counted "
                "postings; at least 2 are needed to measure time averages"
            )
        if self.policy not in (CLIP, REJECT):
            raise ValueError(f"policy must be {CLIP!r} or {REJECT!r}, got {self.policy!r}")


@dataclass(frozen=True)
class SimResult:
    time_avg_dist: np.ndarray  # post-warmup fraction of time at each pool level
    embedded_dist: np.ndarray  # pool level just before each counted posting
    lost_customer_rate: float
    avg_cost_rate: float
    total_sim_time: float
    recorded_time: float  # sum of per-state sojourn times; conservation check
    seed: int
    postings_counted: int


class _Epochs:
    """Event epochs of one renewal stream, drawn in blocks of ``_BLOCK`` gaps.

    ``buf`` holds the drawn epochs not yet consumed; each refill continues the
    running sum from the last epoch drawn, so epochs add up in stream order.
    """

    def __init__(self, draw):
        self._draw = draw
        self._last = 0.0
        self.buf = np.empty(0)

    def refill(self) -> None:
        epochs = np.cumsum(np.concatenate(([self._last], self._draw(_BLOCK))))[1:]
        self._last = epochs[-1]
        self.buf = epochs


def _pre_posting_levels(z: int, counts: list[int], start_of: list[int]) -> list[int]:
    """Pool level just before each posting, from level z at the first
    interval's start and the arrivals in each interval: each level is
    ``max(start_of[previous] - count, 0)``."""
    if not counts:
        return []
    level = max(z - counts[0], 0)
    # a conditional expression, not max(): this is the simulator's hot loop
    return [level] + [
        level := (x if (x := start_of[level] - c) > 0 else 0) for c in counts[1:]
    ]


def run_sim(params: SystemParams, cost: CostParams, config: SimConfig) -> SimResult:
    """Run one seeded simulation and collect post-warmup statistics.

    Events are processed in segments of at most ``_BLOCK`` postings and
    ``_BLOCK`` arrivals.  Only the pre-posting levels need a Python step per
    posting; sojourns, losses and counts are whole-segment array operations.
    """
    v, w, lam = params.v, params.w, params.lam
    holding_rates, reserve_rates = state_cost_rates(params, cost)
    arrival_seed, posting_seed = np.random.SeedSequence(config.seed).spawn(2)
    arr_rng = np.random.default_rng(arrival_seed)
    post_rng = np.random.default_rng(posting_seed)
    arrivals = _Epochs(lambda n: arr_rng.exponential(1.0 / lam, n))
    postings = _Epochs(lambda n: np.asarray(params.posting.sample(post_rng, n), dtype=float))
    ks = np.arange(w + 1)
    # pool level right after a posting, by the level just before it
    if config.policy == CLIP:
        start = np.minimum(ks + v, w)
    else:
        start = np.where(ks <= w - v, ks + v, ks)
    start_of = start.tolist()

    num_postings = config.num_postings
    warmup = int(config.warmup_fraction * num_postings)
    occupancy = np.zeros(w + 1)
    embedded = np.zeros(w + 1)
    lost = 0
    z = 0  # pool level after the last processed event
    t = 0.0  # epoch of the last processed event
    t_start = 0.0
    done = 0

    while done < num_postings:
        if arrivals.buf.size == 0:
            arrivals.refill()
        if postings.buf.size == 0:
            postings.refill()
        arr, post = arrivals.buf, postings.buf
        # postings no later than the last drawn arrival see all arrivals
        # before them; arrivals tied with a posting come after it
        k = min(int(np.searchsorted(post, arr[-1], "right")), num_postings - done)
        n = int(np.searchsorted(arr, post[k - 1], "left")) if k else arr.size
        seg_arr, seg_post = arr[:n], post[:k]
        arrivals.buf, postings.buf = arr[n:], post[k:]

        # arrivals in each interval; interval i < k ends at posting i, and
        # interval k holds the arrivals after the segment's last posting
        before = np.searchsorted(seg_arr, seg_post, "left")
        counts = np.diff(before, prepend=0, append=n)
        pre = np.array(_pre_posting_levels(z, counts[:k].tolist(), start_of), dtype=np.intp)
        start_level = np.concatenate(([z], start[pre]))

        # statistics start with the events after posting number ``warmup``
        local = warmup - done
        if local < k:
            from_event = from_post = from_interval = 0
            sizes = counts + 1  # events per interval: arrivals, then its posting
            sizes[k] -= 1
            first = np.cumsum(sizes) - sizes
            post_at = first[:k] + counts[:k]
            if local >= 0:
                t_start = seg_post[local]
                from_event, from_post, from_interval = post_at[local] + 1, local, local + 1
            # every event ends one sojourn at its interval's start level, less
            # the arrivals already seen in that interval
            interval = np.repeat(np.arange(k + 1), sizes)
            seen = np.arange(n + k) - first[interval]
            sojourn_level = np.maximum(start_level[interval] - seen, 0)
            is_post = np.zeros(n + k, dtype=bool)
            is_post[post_at] = True
            times = np.empty(n + k)
            times[post_at] = seg_post
            times[~is_post] = seg_arr
            sojourn = np.diff(times, prepend=t)
            # the running totals lead the weights, so each state's sum adds
            # its sojourns in event order
            occupancy = np.bincount(
                np.concatenate((ks, sojourn_level[from_event:])),
                weights=np.concatenate((occupancy, sojourn[from_event:])),
                minlength=w + 1,
            )
            embedded += np.bincount(pre[from_post:], minlength=w + 1)
            lost += int(np.maximum(counts - start_level, 0)[from_interval:].sum())

        z = max(int(start_level[k] - counts[k]), 0)
        t = seg_post[-1] if k else seg_arr[-1]
        done += k

    total_time = t - t_start
    time_avg = occupancy / occupancy.sum()
    embedded_dist = embedded / embedded.sum()
    counted = num_postings - warmup
    state_cost = float((holding_rates + reserve_rates) @ occupancy)
    avg_cost_rate = (state_cost + cost.c_d * (lam / v) * counted) / total_time
    return SimResult(
        time_avg_dist=time_avg,
        embedded_dist=embedded_dist,
        lost_customer_rate=lost / total_time,
        avg_cost_rate=avg_cost_rate,
        total_sim_time=total_time,
        recorded_time=float(occupancy.sum()),
        seed=config.seed,
        postings_counted=counted,
    )


@dataclass(frozen=True)
class ComparisonReport:
    tv_time_avg: float
    max_abs_delta: float
    tv_embedded: float | None
    cost_rate_rel_error: float
    tol_tv: float
    tol_cost: float
    passed: bool


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    if p.shape != q.shape:
        raise ValueError(f"distribution shapes differ: {p.shape} vs {q.shape}")
    return 0.5 * float(np.abs(p - q).sum())


def compare(
    dist: LimitingDistribution,
    breakdown: ObjectiveBreakdown,
    sim_result: SimResult,
    embedded: EmbeddedSolution | None = None,
    tol_tv: float = 0.01,
    tol_cost: float = 0.05,
) -> ComparisonReport:
    """Differential report between the analytic pipeline and one sim run.

    The embedded comparison mirrors the analytic pre-posting vector onto the
    pool side before measuring distance; it is skipped when no embedded
    solution is available (offered load >= 1).
    """
    pi1 = dist.pi1
    sim_pool = sim_result.time_avg_dist
    tv = total_variation(pi1, sim_pool)
    max_abs = float(np.max(np.abs(pi1 - sim_pool)))
    tv_emb = None
    if embedded is not None:
        tv_emb = total_variation(embedded.P[::-1], sim_result.embedded_dist)
    denom = abs(breakdown.total)
    rel = abs(breakdown.total - sim_result.avg_cost_rate) / denom if denom > 0 else 0.0
    return ComparisonReport(
        tv_time_avg=tv,
        max_abs_delta=max_abs,
        tv_embedded=tv_emb,
        cost_rate_rel_error=rel,
        tol_tv=tol_tv,
        tol_cost=tol_cost,
        passed=tv < tol_tv and rel < tol_cost,
    )
