"""Scalar event-loop simulator, kept as the reference oracle for ``run_sim``.

This is the per-event loop ``poolqueue.sim.run_sim`` used before it was
vectorized: one Python iteration per arrival or posting, in the same event
order and with the same arithmetic.  Only its bookkeeping is cheaper: draws
are read from each block as Python floats, and the per-state totals are
Python lists until the run ends.  The oracle tests hold every field of the
vectorized result bit-identical to it.
"""

from __future__ import annotations

import itertools

import numpy as np

from poolqueue.cost import CostParams
from poolqueue.embedded import SystemParams
from poolqueue.sim import _BLOCK, CLIP, SimConfig, SimResult


def _stream(draw):
    """Iterator over draws from a generator, taken in fixed-size blocks.

    Each block comes out as a list of Python floats, the same values the
    array holds, so stepping through it costs no numpy scalar per draw.
    """
    return itertools.chain.from_iterable(iter(lambda: draw(_BLOCK).tolist(), None))


def run_sim_reference(params: SystemParams, cost: CostParams, config: SimConfig) -> SimResult:
    """Run one seeded simulation event by event."""
    v, w, lam = params.v, params.w, params.lam
    arrival_seed, posting_seed = np.random.SeedSequence(config.seed).spawn(2)
    arr_rng = np.random.default_rng(arrival_seed)
    post_rng = np.random.default_rng(posting_seed)
    arrivals = _stream(lambda n: arr_rng.exponential(1.0 / lam, n))
    postings = _stream(lambda n: np.asarray(params.posting.sample(post_rng, n), dtype=float))
    clip = config.policy == CLIP

    warmup = int(config.warmup_fraction * config.num_postings)
    # per-state totals stay Python lists until the end of the run
    occupancy = [0.0] * (w + 1)
    embedded = [0.0] * (w + 1)
    lost = 0
    z = 0
    t = 0.0
    t_arr = next(arrivals)
    t_post = next(postings)
    collecting = False
    t_start = 0.0
    posts_done = 0
    counted = 0

    while posts_done < config.num_postings:
        if t_arr < t_post:
            if collecting:
                occupancy[z] += t_arr - t
            t = t_arr
            if z > 0:
                z -= 1
            elif collecting:
                lost += 1
            t_arr = t + next(arrivals)
        else:
            if collecting:
                occupancy[z] += t_post - t
            t = t_post
            posts_done += 1
            if posts_done > warmup:
                if not collecting:
                    collecting = True
                    t_start = t
                embedded[z] += 1
                counted += 1
            if clip:
                z = min(z + v, w)
            elif z <= w - v:
                z += v
            t_post = t + next(postings)

    total_time = t - t_start
    occupancy = np.array(occupancy)
    embedded = np.array(embedded)
    time_avg = occupancy / occupancy.sum()
    embedded_dist = embedded / embedded.sum()
    ks = np.arange(w + 1)
    holding_rates = (
        np.asarray(cost.holding_table, dtype=float)
        if cost.holding_table is not None
        else cost.c_h * ks
    )
    reserve_rates = (
        np.where(
            ks > v,
            np.asarray(cost.reserve_table, dtype=float)[np.clip(ks - v, 0, None)],
            0.0,
        )
        if cost.reserve_table is not None
        else cost.c_r * np.clip(ks - v, 0, None)
    )
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
