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
block size, not by the run length.  Within a segment, the pool level before
each posting follows from the previous one.  Under clip that step is a clamp
map, and clamp maps compose in closed form, so a segment's levels come from
an O(k) scan in about log2(k) array passes.  Reject takes one Python step per
posting; its maps do not compose in a closed family.  Sojourns, losses and
counts are array operations that add up in event order.  Each per-event
array is built once, in place: a block's epochs are summed in the array they
were drawn into, and a segment's levels and sojourns go into two buffers
allocated once per run, behind ``w + 1`` lead slots that carry the running
per-state totals into a single ``bincount``.  Every result is therefore
bit-identical to the one-event-at-a-time loop kept as the reference oracle
in ``tests/sim_reference.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cost import CostParams, ObjectiveBreakdown, state_cost_rates
from .dist import positive_int, whole_number
from .embedded import SystemParams
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
        # whole-number floats such as 1000.0 are stored as ints, which the
        # block arithmetic and SeedSequence need
        object.__setattr__(self, "seed", whole_number("seed", self.seed, 0))
        object.__setattr__(self, "num_postings", positive_int("num_postings", self.num_postings))
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
        epochs = self._draw(_BLOCK)
        # the running sum from the last epoch: the same additions, in place
        epochs[0] += self._last
        np.cumsum(epochs, out=epochs)
        self._last = epochs[-1]
        self.buf = epochs


def _pre_posting_levels(z: int, counts: list[int], start_of: list[int]) -> list[int]:
    """Pool level just before each posting, from level z at the first
    interval's start and the arrivals in each interval: each level is
    ``max(start_of[previous] - count, 0)``.

    ``run_sim`` uses this loop for reject only.  There a level's difference
    from another path's changes mod v only when the pool empties, so paths
    from different levels merge only at 0 and the steps do not compose in a
    closed family; clip takes ``_clip_pre_posting_levels``."""
    if not counts:
        return []
    level = max(z - counts[0], 0)
    # a conditional expression, not max(): this is the simulator's hot loop
    return [level] + [
        level := (x if (x := start_of[level] - c) > 0 else 0) for c in counts[1:]
    ]


def _clamp_scan(x: int, shift: np.ndarray, low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """``y[i] = clamp(y[i - 1] + shift[i], low[i], high[i])``, where the
    level before ``y[0]`` is x.

    Clamp maps compose in closed form: (A2, L2, U2) after (A1, L1, U1) is
    (A1 + A2, clamp(L1 + A2, L2, U2), clamp(U1 + A2, L2, U2)).  So compose
    adjacent pairs, scan the half-length sequence of pairs for the odd
    positions, and fill the even ones with one clamp each: O(k) work in
    about log2(k) array passes (Blelloch's work-efficient scan).  Integer
    inputs give the loop's values exactly.
    """
    m = shift.size
    if m < 2:
        return np.minimum(np.maximum(x + shift, low), high)
    h = m // 2
    a2, l2, u2 = shift[1 : 2 * h : 2], low[1 : 2 * h : 2], high[1 : 2 * h : 2]
    odd = _clamp_scan(
        x,
        shift[0 : 2 * h : 2] + a2,
        np.minimum(np.maximum(low[0 : 2 * h : 2] + a2, l2), u2),
        np.minimum(np.maximum(high[0 : 2 * h : 2] + a2, l2), u2),
    )
    y = np.empty(m, dtype=shift.dtype)
    y[1::2] = odd
    # each even position steps from the odd one before it, the first from x
    y[0] = x
    y[2::2] = odd[: (m - 1) // 2]
    even = y[0::2]
    np.add(even, shift[0::2], out=even)
    np.maximum(even, low[0::2], out=even)
    np.minimum(even, high[0::2], out=even)
    return y


def _clip_pre_posting_levels(z: int, counts: np.ndarray, v: int, w: int) -> np.ndarray:
    """``_pre_posting_levels`` under clip, as a scan.  A posting followed by
    c arrivals sends level x to ``clamp(x + v - c, 0, (w - c)+)``; the first
    interval starts at z itself, so its map has no + v."""
    counts = np.asarray(counts, dtype=np.intp)
    shift = v - counts
    if shift.size:
        shift[0] -= v
    return _clamp_scan(z, shift, np.zeros_like(shift), np.maximum(w - counts, 0))


def run_sim(params: SystemParams, cost: CostParams, config: SimConfig) -> SimResult:
    """Run one seeded simulation and collect post-warmup statistics.

    Events are processed in segments of at most ``_BLOCK`` postings and
    ``_BLOCK`` arrivals.  Only reject's pre-posting levels need a Python step
    per posting; clip's come from a scan, and sojourns, losses and counts are
    whole-segment array operations.
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
    # per-event levels and sojourns of a segment, after w + 1 lead slots that
    # take the running totals just before its first counted event
    lead = w + 1
    levels = np.empty(lead + 2 * _BLOCK, dtype=np.intp)
    sojourns = np.empty(lead + 2 * _BLOCK)
    steps = np.arange(2 * _BLOCK)

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
        if config.policy == CLIP:
            pre = _clip_pre_posting_levels(z, counts[:k], v, w)
        else:
            pre = np.array(_pre_posting_levels(z, counts[:k].tolist(), start_of), dtype=np.intp)
        start_level = np.concatenate(([z], start[pre]))

        # statistics start with the events after posting number ``warmup``
        local = warmup - done
        if local < k:
            from_event = from_post = from_interval = 0
            post_at = before + steps[:k]
            if local >= 0:
                t_start = seg_post[local]
                from_event, from_post, from_interval = post_at[local] + 1, local, local + 1
            end = lead + n + k
            # every event e ends one sojourn at its interval's start level,
            # less the arrivals already seen in that interval, e - first
            sizes = counts + 1  # events per interval: arrivals, then its posting
            sizes[k] -= 1
            first = np.cumsum(sizes) - sizes
            event_level = levels[lead:end]
            np.subtract(np.repeat(start_level + first, sizes), steps[: n + k], out=event_level)
            np.maximum(event_level, 0, out=event_level)
            # event epochs, then the sojourn each event ends, from slot lo on
            times = sojourns[lead:end]
            is_arr = np.ones(n + k, dtype=bool)
            is_arr[post_at] = False
            times[post_at] = seg_post
            times[is_arr] = seg_arr
            sojourns[lead - 1] = t  # the epoch before the segment's first event
            lo = lead + from_event
            np.subtract(sojourns[lo:end], sojourns[lo - 1 : end - 1], out=sojourns[lo:end])
            # the running totals lead the sojourns, so each state's sum adds
            # them in event order
            levels[from_event:lo] = ks
            sojourns[from_event:lo] = occupancy
            occupancy = np.bincount(
                levels[from_event:end], weights=sojourns[from_event:end], minlength=w + 1
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


def check_tolerance(name: str, value: float) -> float:
    """``value`` when it is finite and > 0; ValueError otherwise.  A zero,
    negative or NaN tolerance fails every comparison, whatever it measures."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")
    return value


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    if p.shape != q.shape:
        raise ValueError(f"distribution shapes differ: {p.shape} vs {q.shape}")
    return 0.5 * float(np.abs(p - q).sum())


def compare(
    dist: LimitingDistribution,
    breakdown: ObjectiveBreakdown,
    sim_result: SimResult,
    tol_tv: float = 0.01,
    tol_cost: float = 0.05,
) -> ComparisonReport:
    """Differential report between the analytic pipeline and one sim run.

    The embedded comparison mirrors the ladder's pre-posting vector,
    ``dist.embedded``, onto the pool side before measuring distance; the
    renewal route has none, and skips it.  Both tolerances must be finite
    and > 0.
    """
    check_tolerance("tol_tv", tol_tv)
    check_tolerance("tol_cost", tol_cost)
    pi1 = dist.pi1
    sim_pool = sim_result.time_avg_dist
    tv = total_variation(pi1, sim_pool)
    max_abs = float(np.max(np.abs(pi1 - sim_pool)))
    tv_emb = None
    if dist.embedded is not None:
        tv_emb = total_variation(dist.embedded.P[::-1], sim_result.embedded_dist)
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
