"""The vectorized simulator against the scalar event loop it replaced.

Every ``SimResult`` field must be bit-identical to ``sim_reference``, across
posting families, admission policies, warmup fractions and posting counts on
both sides of the draw-block boundary.  The clip policy's pre-posting levels
come from a clamp-map scan, also checked alone against the scalar recurrence.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from poolqueue import CLIP, REJECT, CostParams, PostingDistribution, SimConfig, SystemParams, run_sim
from poolqueue.sim import _BLOCK, _clip_pre_posting_levels
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


@pytest.mark.parametrize("warmup", [0.1, 0.6])
@pytest.mark.parametrize("policy", [CLIP, REJECT])
@pytest.mark.parametrize("kind", FAMILIES)
def test_matches_event_loop_when_arrivals_empty_the_pool(kind, policy, warmup):
    # v=1 of w=2 with lam*a=20: almost every interval holds more than w
    # arrivals, so per-event levels clamp at 0; a segment spans about 3300
    # postings, so warm-up ends inside one
    params = SystemParams(v=1, w=2, lam=20.0, posting=FAMILIES[kind])
    config = SimConfig(seed=29, num_postings=_BLOCK + 1, warmup_fraction=warmup, policy=policy)
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


@pytest.mark.parametrize("warmup", [0.1, 0.6])
@pytest.mark.parametrize("policy", [CLIP, REJECT])
@pytest.mark.parametrize("lam", [26.0, 104.0])
def test_matches_event_loop_at_high_load(lam, policy, warmup):
    # v=10 of w=120 with lam*a in {26, 104}: a posting is followed by 2.6 or
    # 10.4 batches' worth of arrivals, so most of the maps the clip scan
    # composes empty the pool; a segment spans about 2500 or 630 postings
    params = SystemParams(v=10, w=120, lam=lam, posting=FAMILIES["exponential"])
    config = SimConfig(seed=41, num_postings=2 * _BLOCK + 1, warmup_fraction=warmup, policy=policy)
    assert_bit_identical(run_sim(params, COST, config), run_sim_reference(params, COST, config))


def clip_levels_by_loop(z, counts, v, w):
    """The clip recurrence, one posting at a time."""
    levels = []
    for i, c in enumerate(counts.tolist()):
        z = max((z if i == 0 else min(z + v, w)) - c, 0)
        levels.append(z)
    return levels


@st.composite
def clip_segments(draw):
    w = draw(st.integers(1, 5000))
    v = draw(st.integers(1, w))
    z = draw(st.integers(0, w))
    k = draw(st.sampled_from([0, 1, 2, 33, 65, _BLOCK]) | st.integers(0, 300))
    # each interval's mean arrivals is 0, about a batch, or above w, so the
    # levels hit both bounds of the clamp and move in between
    means = np.array([0.0, v / 2, v, 2.0 * v, w + 1.0])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = rng.dirichlet(np.ones(means.size))
    counts = rng.poisson(rng.choice(means, k, p=weights))
    return z, counts, v, w


@given(segment=clip_segments())
@settings(max_examples=60, deadline=None)
def test_clip_scan_matches_loop_property(segment):
    z, counts, v, w = segment
    got = _clip_pre_posting_levels(z, counts, v, w)
    assert got.dtype == np.intp
    assert got.tolist() == clip_levels_by_loop(z, counts, v, w)


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
