"""The vectorized simulator against the scalar event loop it replaced.

Every ``SimResult`` field must be bit-identical to ``sim_reference``, across
posting families, admission policies, warmup fractions and posting counts on
both sides of the draw-block boundary.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from poolqueue import CLIP, REJECT, CostParams, PostingDistribution, SimConfig, SystemParams, run_sim
from poolqueue.sim import _BLOCK
from sim_reference import run_sim_reference

COST = CostParams(c_h=1.0, c_r=0.5, c_d=2.0)
FAMILIES = {
    "exponential": PostingDistribution("exponential", 1.0),
    "deterministic": PostingDistribution("deterministic", 1.0),
    "erlang": PostingDistribution("erlang", 1.0, shape=3),
}


def assert_bit_identical(got, want):
    assert np.array_equal(got.time_avg_dist, want.time_avg_dist)
    assert np.array_equal(got.embedded_dist, want.embedded_dist)
    assert got.lost_customer_rate == want.lost_customer_rate
    assert got.avg_cost_rate == want.avg_cost_rate
    assert got.total_sim_time == want.total_sim_time
    assert got.recorded_time == want.recorded_time
    assert got.seed == want.seed
    assert got.postings_counted == want.postings_counted


def accepted_configs():
    grid = itertools.product(
        FAMILIES, (CLIP, REJECT), (0.0, 0.1, 0.6), (2, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1)
    )
    for kind, policy, warmup, n in grid:
        try:
            SimConfig(seed=17, num_postings=n, warmup_fraction=warmup, policy=policy)
        except ValueError:
            continue
        yield pytest.param(kind, policy, warmup, n, id=f"{kind}-{policy}-{warmup}-{n}")


@pytest.mark.parametrize("kind, policy, warmup, n", accepted_configs())
def test_matches_event_loop_on_grid(kind, policy, warmup, n):
    # v=3 of w=7 with lam*a=1.5: the pool both empties (losses) and sits
    # above w-v (rejected batches)
    params = SystemParams(v=3, w=7, lam=1.5, posting=FAMILIES[kind])
    config = SimConfig(seed=17, num_postings=n, warmup_fraction=warmup, policy=policy)
    assert_bit_identical(run_sim(params, COST, config), run_sim_reference(params, COST, config))


@given(
    vw=st.integers(1, 12).flatmap(lambda w: st.tuples(st.integers(1, w), st.just(w))),
    lam=st.floats(0.05, 8.0),
    a=st.floats(0.05, 4.0),
    kind=st.sampled_from(sorted(FAMILIES)),
    policy=st.sampled_from([CLIP, REJECT]),
    warmup=st.sampled_from([0.0, 0.1, 0.6]),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 5000),
)
@settings(max_examples=80, deadline=None)
def test_matches_event_loop_property(vw, lam, a, kind, policy, warmup, seed, n):
    v, w = vw
    assume(n - int(warmup * n) >= 2)
    posting = PostingDistribution(kind, a, shape=3 if kind == "erlang" else 1)
    params = SystemParams(v=v, w=w, lam=lam, posting=posting)
    config = SimConfig(seed=seed, num_postings=n, warmup_fraction=warmup, policy=policy)
    assert_bit_identical(run_sim(params, COST, config), run_sim_reference(params, COST, config))


def test_memory_does_not_grow_with_postings():
    params = SystemParams(v=3, w=35, lam=2.2, posting=PostingDistribution("exponential", 1.3))

    def peak_bytes(n):
        tracemalloc.start()
        try:
            run_sim(params, COST, SimConfig(seed=1, num_postings=n))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak_bytes(2 * _BLOCK), peak_bytes(8 * _BLOCK)
    assert large < 1.1 * small
