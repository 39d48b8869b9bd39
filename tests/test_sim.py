"""Discrete-event simulator: determinism, conservation, coupling, accuracy."""

import dataclasses

import numpy as np
import pytest

from poolqueue import (
    CLIP,
    REJECT,
    CostParams,
    PostingDistribution,
    SimConfig,
    SystemParams,
    compare,
    objective,
    run_sim,
    solve_instance,
    total_variation,
)

COST = CostParams(c_h=1.0, c_r=0.5, c_d=2.0)


def exp_params(v, w, lam, a):
    return SystemParams(v=v, w=w, lam=lam, posting=PostingDistribution("exponential", a))


def test_config_validation():
    with pytest.raises(ValueError, match="num_postings"):
        SimConfig(seed=1, num_postings=0)
    with pytest.raises(ValueError, match="warmup_fraction"):
        SimConfig(seed=1, num_postings=10, warmup_fraction=1.0)
    with pytest.raises(ValueError, match="policy"):
        SimConfig(seed=1, num_postings=10, policy="drop")


def test_config_needs_two_counted_postings():
    # fewer than two counted postings leave no sojourn to average over
    for n, warmup in ((1, 0.0), (10, 0.95), (2, 0.6)):
        with pytest.raises(ValueError, match="at least 2"):
            SimConfig(seed=1, num_postings=n, warmup_fraction=warmup)
    assert SimConfig(seed=1, num_postings=2, warmup_fraction=0.0).num_postings == 2
    assert SimConfig(seed=1, num_postings=10, warmup_fraction=0.8).num_postings == 10


def test_cost_tables_checked_against_geometry():
    p = exp_params(2, 6, 1.0, 1.0)
    cfg = SimConfig(seed=1, num_postings=100)
    with pytest.raises(ValueError, match="reserve_table must have 5 entries"):
        run_sim(p, CostParams(0, 0, 0, reserve_table=(1.0,) * 10), cfg)
    with pytest.raises(ValueError, match="holding_table must have 7 entries"):
        run_sim(p, CostParams(0, 0, 0, holding_table=(1.0, 2.0, 3.0)), cfg)


def test_same_seed_bit_identical():
    p = exp_params(2, 6, 1.5, 0.8)
    cfg = SimConfig(seed=42, num_postings=20_000)
    a = run_sim(p, COST, cfg)
    b = run_sim(p, COST, cfg)
    assert np.array_equal(a.time_avg_dist, b.time_avg_dist)
    assert np.array_equal(a.embedded_dist, b.embedded_dist)
    assert a.avg_cost_rate == b.avg_cost_rate
    assert a.total_sim_time == b.total_sim_time


def test_different_seeds_differ():
    p = exp_params(2, 6, 1.5, 0.8)
    a = run_sim(p, COST, SimConfig(seed=1, num_postings=5_000))
    b = run_sim(p, COST, SimConfig(seed=2, num_postings=5_000))
    assert not np.array_equal(a.time_avg_dist, b.time_avg_dist)


def test_time_conservation():
    p = exp_params(3, 9, 2.0, 1.1)
    r = run_sim(p, COST, SimConfig(seed=11, num_postings=30_000))
    # per-state sojourn times must add up to the recorded horizon
    assert r.recorded_time == pytest.approx(r.total_sim_time, rel=1e-9)
    assert r.time_avg_dist.sum() == pytest.approx(1.0, abs=1e-12)
    assert r.embedded_dist.sum() == pytest.approx(1.0, abs=1e-12)


def test_postings_counted_excludes_warmup():
    cfg = SimConfig(seed=3, num_postings=10_000, warmup_fraction=0.2)
    r = run_sim(exp_params(1, 4, 1.0, 1.0), COST, cfg)
    assert r.postings_counted == 8_000


def test_clip_dominates_reject_in_mean():
    # under shared event times a clipped pool is never below a rejecting one
    p = exp_params(3, 7, 1.0, 0.9)
    cfg = SimConfig(seed=5, num_postings=50_000)
    clip = run_sim(p, COST, cfg)
    reject = run_sim(p, COST, dataclasses.replace(cfg, policy=REJECT))
    ks = np.arange(p.w + 1)
    assert float(ks @ clip.time_avg_dist) >= float(ks @ reject.time_avg_dist)


def test_sim_matches_birth_death_truth():
    # unit batches with exponential postings: truncated-geometric pool law
    lam, a, w = 1.0, 0.8, 6
    p = exp_params(1, w, lam, a)
    r = run_sim(p, COST, SimConfig(seed=9, num_postings=400_000))
    ratio = (1.0 / a) / lam
    ps = ratio ** np.arange(w + 1)
    truth = ps / ps.sum()
    assert total_variation(r.time_avg_dist, truth) < 0.01


def test_lost_rate_bounded_by_arrival_rate():
    p = exp_params(1, 3, 3.0, 2.0)  # heavily drained pool
    r = run_sim(p, COST, SimConfig(seed=4, num_postings=50_000))
    assert 0.0 < r.lost_customer_rate < p.lam


def test_fast_postings_fill_the_pool():
    # postings far outpace consumption: the pool sits at capacity
    p = exp_params(4, 8, 0.05, 0.2)
    r = run_sim(p, COST, SimConfig(seed=8, num_postings=20_000))
    assert r.time_avg_dist[p.w] > 0.9


def test_cost_rate_matches_hand_recomputation():
    p = exp_params(2, 5, 1.2, 0.7)
    r = run_sim(p, COST, SimConfig(seed=13, num_postings=40_000))
    ks = np.arange(p.w + 1)
    state_rates = COST.c_h * ks + COST.c_r * np.clip(ks - p.v, 0, None)
    hand = float(state_rates @ r.time_avg_dist) + COST.c_d * (
        p.lam / p.v
    ) * r.postings_counted / r.total_sim_time
    assert r.avg_cost_rate == pytest.approx(hand, rel=1e-12)


# -- differential comparison ------------------------------------------------


def test_total_variation_basics():
    a = np.array([0.5, 0.5])
    assert total_variation(a, a) == 0.0
    assert total_variation(a, np.array([1.0, 0.0])) == pytest.approx(0.5)
    with pytest.raises(ValueError, match="shapes differ"):
        total_variation(a, np.array([1.0, 0.0, 0.0]))


def test_compare_analytic_vs_sim_clip():
    p = exp_params(2, 6, 1.0, 1.0)
    emb, dist = solve_instance(p)
    bd = objective(p, COST, dist)
    r = run_sim(p, COST, SimConfig(seed=21, num_postings=300_000))
    report = compare(dist, bd, r, emb)
    assert report.tv_time_avg < 0.01
    assert report.tv_embedded is not None
    assert report.cost_rate_rel_error < 0.05
    assert report.passed


def test_compare_without_embedded_skips_that_distance():
    p = exp_params(2, 5, 2.2, 1.3)  # offered load above 1
    emb, dist = solve_instance(p)
    assert emb is None
    bd = objective(p, COST, dist)
    r = run_sim(p, COST, SimConfig(seed=22, num_postings=200_000))
    report = compare(dist, bd, r, emb)
    assert report.tv_embedded is None
    assert report.passed


def test_compare_flags_reject_policy_gap():
    # the analytic law models clipped admission; a rejecting run of the same
    # moderately loaded instance must be visibly different
    p = exp_params(3, 5, 2.0, 1.2)
    emb, dist = solve_instance(p)
    bd = objective(p, COST, dist)
    r = run_sim(p, COST, SimConfig(seed=23, num_postings=200_000, policy=REJECT))
    report = compare(dist, bd, r, emb)
    assert report.tv_time_avg > 0.02
    assert not report.passed
