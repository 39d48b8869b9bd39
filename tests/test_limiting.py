"""Continuous-time stationary laws: renewal route, ladder bands, mirror."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poolqueue import (
    LADDER,
    RENEWAL,
    CostParams,
    PostingDistribution,
    SystemParams,
    admission_P,
    admission_tpm,
    bhat,
    embedded,
    embedded_P,
    evaluate_cell,
    g_vector,
    infinite_queue_Q,
    interval_occupancy,
    limiting,
    limiting_pi,
    model_type,
    optimize_v,
    solve_instance,
    sweep,
)
from poolqueue.cli import main
from poolqueue.embedded import ModelType, kernel, start_level_P


def exp_params(v, w, lam, a):
    return SystemParams(v=v, w=w, lam=lam, posting=PostingDistribution("exponential", a))


def birth_death_pool(lam, a, w):
    """Closed-form pool law for unit batches with exponential postings.

    The pool is then a birth-death chain: births at rate 1/a (single posting,
    blocked at w), deaths at rate lam (single customer, idle at 0), so the
    stationary law is truncated-geometric with ratio 1 / (lam * a).
    """
    r = (1.0 / a) / lam
    ps = r ** np.arange(w + 1)
    return ps / ps.sum()


# -- boundary-flow partial sums --------------------------------------------


def test_bhat_examples():
    P = np.array([0.5, 0.3, 0.2])
    assert bhat(P, 2.0, 0) == 0.0
    assert bhat(P, 2.0, 1) == pytest.approx(0.15)
    assert bhat(P, 2.0, 2) == pytest.approx(0.25)


def test_bhat_range_check():
    with pytest.raises(ValueError):
        bhat(np.array([1.0]), 1.0, 1)


# -- ladder increments ------------------------------------------------------


def test_g_vector_top_band_is_constant_slope():
    # wide-capacity model: above w - v the band is (n-w+v) P_w / a - Bhat_{v-1},
    # and P_w is zero after truncation, so the top entries are all equal
    p = exp_params(2, 8, 1.0, 0.5)
    sol = embedded_P(p)
    G = g_vector(p, sol.P)
    top = G[p.w - p.v :]  # entries n = w-v+1 .. w
    assert np.max(np.abs(top - top[0])) < 1e-15
    assert top[0] == pytest.approx(-bhat(sol.P, p.a, p.v - 1) / p.lam)


def test_g_vector_first_band_unit_batch():
    # v=1, n=1: sum P_v..P_{v+n-1} = P_1 and Bhat_1 = P_1 / a -> exactly zero
    p = exp_params(1, 5, 1.0, 0.5)
    sol = embedded_P(p)
    G = g_vector(p, sol.P)
    assert G[0] == pytest.approx(0.0, abs=1e-15)


def test_g_vector_narrow_capacity_bands():
    # narrow-capacity model (w < 2v) uses its own three bands; just pin the
    # first-band value against a hand evaluation
    p = exp_params(3, 5, 1.0, 0.5)
    sol = embedded_P(p)
    G = g_vector(p, sol.P)
    hand = (sol.P[3] / p.a - sol.P[1] / p.a) / p.lam
    assert G[0] == pytest.approx(hand, abs=1e-15)


def test_ladder_route_is_assembled_from_bands():
    p = exp_params(2, 8, 1.0, 0.5)
    sol = embedded_P(p)
    dist = limiting_pi(p, method=LADDER)
    G = g_vector(p, sol.P)
    pi0 = (1.0 - G.sum()) / (1.0 + p.w)
    assert dist.pi[0] == pytest.approx(pi0, abs=1e-15)
    assert np.allclose(dist.pi[1:], G + pi0, atol=1e-15)
    assert dist.pi.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("kind", ["exponential", "deterministic", "erlang"])
@pytest.mark.parametrize("v, w, regime", [(2, 8, ModelType.TYPE1), (3, 5, ModelType.TYPE2)])
def test_ladder_law_comes_from_its_own_embedded_solve(kind, v, w, regime):
    # the ladder route used to take the embedded solution from its caller;
    # solving it inside gives the same vector, bands and law, bit for bit
    p = SystemParams(v=v, w=w, lam=1.0, posting=PostingDistribution(kind, 0.5 * v, shape=3))
    assert model_type(p) is regime
    sol = embedded_P(p)
    G = g_vector(p, sol.P)
    pi0 = (1.0 - G.sum()) / (1.0 + w)
    dist = limiting_pi(p, method=LADDER)
    assert np.array_equal(dist.embedded.P, sol.P)
    assert np.array_equal(dist.g_vector, G)
    assert np.array_equal(dist.pi, np.concatenate(([pi0], G + pi0)))
    assert np.array_equal(dist.pi1, dist.pi[::-1])


def test_ladder_requires_embedded():
    # the ladder route solves the embedded chain of its own instance, and
    # only it does
    p = exp_params(2, 5, 1.0, 0.5)
    ladder = limiting_pi(p, method=LADDER)
    assert ladder.valid
    assert ladder.embedded.P.size == p.w + 1
    assert limiting_pi(p).embedded is None


def test_unknown_method_rejected():
    with pytest.raises(ValueError, match="unknown method"):
        limiting_pi(exp_params(1, 5, 1.0, 0.5), method="magic")


# -- interval-occupancy kernel ---------------------------------------------


def test_interval_occupancy_rows_stochastic():
    for posting in (
        PostingDistribution("exponential", 1.3),
        PostingDistribution("deterministic", 1.3),
        PostingDistribution("erlang", 1.3, shape=3),
    ):
        p = SystemParams(v=3, w=9, lam=2.2, posting=posting)
        C = interval_occupancy(p)
        assert np.allclose(C.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(C >= -1e-15)


def test_interval_occupancy_row_support():
    # an interval opening at (j - v)^+ customers never visits lower states
    p = exp_params(2, 6, 1.0, 1.0)
    C = interval_occupancy(p)
    assert np.all(C[5, :3] == 0.0)  # j=5 opens at 3
    assert C[0, 0] > 0.0


# -- renewal route vs closed-form oracle -----------------------------------


@pytest.mark.parametrize("la", [0.5, 0.8, 2.0])
@pytest.mark.parametrize("w", [3, 5, 10])
def test_renewal_matches_birth_death(la, w):
    lam = 1.0
    p = exp_params(1, w, lam, la)
    dist = limiting_pi(p)
    truth_pool = birth_death_pool(lam, la, w)
    assert np.max(np.abs(dist.pi1 - truth_pool)) < 1e-12
    assert dist.valid


def test_renewal_sums_to_one_all_families():
    for posting in (
        PostingDistribution("exponential", 1.3),
        PostingDistribution("deterministic", 1.3),
        PostingDistribution("erlang", 1.3, shape=4),
    ):
        for v, w in [(1, 5), (2, 5), (3, 5), (5, 5), (4, 8)]:
            p = SystemParams(v=v, w=w, lam=2.2, posting=posting)
            dist = limiting_pi(p)
            assert dist.pi.sum() == pytest.approx(1.0, abs=1e-10)
            assert np.all(dist.pi >= -1e-12)


def test_mirror_is_exact_reversal():
    p = SystemParams(v=3, w=7, lam=1.5, posting=PostingDistribution("erlang", 1.0, shape=2))
    dist = limiting_pi(p)
    assert np.array_equal(dist.pi1, dist.pi[::-1])


def test_expected_pool_decreases_with_consumption():
    # heavier customer traffic drains the pool
    means = []
    for lam in (0.5, 1.0, 2.0, 4.0):
        p = exp_params(2, 8, lam, 0.8)
        means.append(limiting_pi(p).expected_pool())
    assert all(a > b for a, b in zip(means, means[1:]))


@given(
    v=st.integers(1, 6),
    extra=st.integers(0, 8),
    la=st.floats(0.1, 4.0),
    kind=st.sampled_from(["exponential", "deterministic", "erlang"]),
)
@settings(max_examples=60, deadline=None)
def test_renewal_always_a_distribution(v, extra, la, kind):
    w = v + extra
    p = SystemParams(v=v, w=w, lam=1.0, posting=PostingDistribution(kind, la, shape=2))
    dist = limiting_pi(p)
    assert abs(dist.pi.sum() - 1.0) < 1e-9
    assert np.all(dist.pi >= -1e-9)
    assert dist.valid


def test_solve_instance_heavy_load_renewal_only():
    # above offered load 1 the embedded head does not exist; the renewal
    # route proceeds without it while the ladder route refuses
    p = exp_params(2, 5, 2.2, 1.3)
    emb, dist = solve_instance(p, method=RENEWAL)
    assert emb is None
    assert dist.valid
    from poolqueue import NoRootError

    with pytest.raises(NoRootError):
        solve_instance(p, method=LADDER)


# -- renewal route: start-level chain and convolution ----------------------


def full_chain_pi(p):
    """Reference law from the (w+1)-state pre-posting chain: a dense solve of
    ``admission_tpm`` propagated through the whole ``interval_occupancy``."""
    M = admission_tpm(p)
    n = M.shape[0]
    pre = np.linalg.solve((np.eye(n) - M + 1.0).T, np.ones(n))
    return pre @ interval_occupancy(p)


@given(
    w=st.integers(1, 60),
    v_frac=st.floats(0.0, 1.0),
    load=st.floats(0.05, 20.0),
    kind=st.sampled_from(["exponential", "deterministic", "erlang"]),
)
@settings(max_examples=40, deadline=None)
def test_renewal_matches_full_chain(w, v_frac, load, kind):
    # v_frac = 1 gives v = w, a one-state start-level chain
    v = max(1, round(v_frac * w))
    p = SystemParams(v=v, w=w, lam=load * v / 1.3, posting=PostingDistribution(kind, 1.3, shape=3))
    dist = limiting_pi(p)
    assert np.max(np.abs(dist.pi - full_chain_pi(p))) < 1e-12
    assert abs(dist.pi.sum() - 1.0) < 1e-14


@pytest.mark.parametrize("v, w", [(1, 1), (1, 2), (2, 2), (3, 5), (5, 5)])
def test_renewal_matches_full_chain_edges(v, w):
    p = SystemParams(v=v, w=w, lam=2.2, posting=PostingDistribution("erlang", 1.3, shape=3))
    assert np.max(np.abs(limiting_pi(p).pi - full_chain_pi(p))) < 1e-14


def test_admission_P_lumps_onto_start_levels():
    # the full pre-posting law is the start-level law spread back over 0..w
    p = SystemParams(v=3, w=12, lam=2.2, posting=PostingDistribution("deterministic", 1.3))
    q = start_level_P(p, *kernel(p))
    pre = admission_P(p)
    assert q[0] == pytest.approx(pre[: p.v + 1].sum(), abs=1e-15)
    assert np.allclose(q[1:], pre[p.v + 1 :], rtol=0, atol=1e-15)
    assert np.allclose(pre @ admission_tpm(p), pre, rtol=0, atol=1e-15)


# -- route-independent identities ------------------------------------------

FAMILIES = (
    PostingDistribution("exponential", 1.3),
    PostingDistribution("deterministic", 1.3),
    PostingDistribution("erlang", 1.3, shape=3),
)


@pytest.mark.parametrize("posting", FAMILIES, ids=lambda posting: posting.kind)
@pytest.mark.parametrize("lam", [0.3, 2.2, 9.0])
@pytest.mark.parametrize("w", [1, 2, 5, 35, 120])
def test_start_level_chain_is_the_folded_admission_chain(posting, lam, w):
    # the chain built at w-v+1 states gives, bit for bit, the law of the
    # admission rows that start at 0..w-v with columns 0..v summed into
    # column 0, solved from the transposed difference M^T - I
    for v in range(1, w + 1):
        p = SystemParams(v=v, w=w, lam=lam, posting=posting)
        R = admission_tpm(p)[v:]
        K = R[:, v:].copy()
        K[:, 0] = R[:, : v + 1].sum(axis=1)
        A = K.T - np.eye(K.shape[0])
        A[-1, :] = 1.0
        q = np.linalg.solve(A, np.eye(K.shape[0])[-1])
        assert np.array_equal(start_level_P(p, *kernel(p)), q)


@pytest.mark.parametrize("posting", FAMILIES[::2], ids=lambda posting: posting.kind)
def test_renewal_peak_memory_is_two_chain_matrices(posting):
    # no (w+1)-square pre-posting block or identity is built: the chain and
    # the copy handed to the solve are each (w-v+1)-square
    w = 1000
    p = SystemParams(v=1, w=w, lam=2.2, posting=posting)
    limiting_pi(p)
    tracemalloc.start()
    try:
        limiting_pi(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * (w + 1) ** 2 * 8


@pytest.mark.parametrize("posting", FAMILIES, ids=lambda posting: posting.kind)
@pytest.mark.parametrize("lam", [0.3, 2.2, 9.0])
@pytest.mark.parametrize("w", [1, 5, 35])
def test_level_crossing_balances_every_cut(posting, lam, w):
    # across the cut between pool sizes k and k+1 customers take the pool
    # down at rate lam * pi1[k+1]; a posting that finds the pool at j raises
    # it across the cut when k+1-v <= j <= k, and postings come at rate 1/a
    # with pre-posting law phat
    k = np.arange(w)
    for v in range(1, w + 1):
        p = SystemParams(v=v, w=w, lam=lam, posting=posting)
        below = np.concatenate([[0.0], np.cumsum(admission_P(p)[::-1])])  # P(j < i) at i
        up = (below[k + 1] - below[np.maximum(k + 1 - v, 0)]) / posting.mean
        assert np.max(np.abs(lam * limiting_pi(p).pi1[1:] - up)) < 1e-13


def test_erlang_of_shape_one_is_exponential():
    exponential, erlang = (
        SystemParams(v=3, w=35, lam=2.2, posting=PostingDistribution(kind, 1.3, shape=1))
        for kind in ("exponential", "erlang")
    )
    assert np.max(np.abs(limiting_pi(erlang).pi1 - limiting_pi(exponential).pi1)) < 1e-15


@pytest.mark.parametrize("posting", FAMILIES[1:], ids=lambda posting: posting.kind)
@pytest.mark.parametrize("lam, w", [(0.5, 10), (0.7, 35), (0.2, 5)])
def test_unit_batch_start_levels_are_the_censored_infinite_queue(posting, lam, w):
    # at v=1 the start-level chain only moves down one level at a time, so
    # clipping at w censors the infinite chain to 0..w-1: its start-level law
    # is the infinite law's image (Q0 + Q1, Q2, ..., Qw), renormalized
    p = SystemParams(v=1, w=w, lam=lam, posting=posting)
    q = start_level_P(p, *kernel(p))
    Q = infinite_queue_Q(p)
    image = np.concatenate(([Q[0] + Q[1]], Q[2 : w + 1]))
    assert np.max(np.abs(q - image / image.sum())) < 1e-13


def test_erlang_tends_to_deterministic_as_shape_grows():
    # Erlang(m) intervals have variance a^2 / m, so the law's gap to
    # deterministic postings shrinks like 1 / m
    pi1 = lambda posting: limiting_pi(SystemParams(v=3, w=35, lam=2.2, posting=posting)).pi1
    deterministic = pi1(PostingDistribution("deterministic", 1.3))
    gaps = [np.max(np.abs(pi1(PostingDistribution("erlang", 1.3, shape=m)) - deterministic))
            for m in (10, 100, 1000)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert all(m * gap <= 0.2 for m, gap in zip((10, 100, 1000), gaps))


def test_tiny_load_gives_a_full_pool():
    # lam * a = 1.3e-300: the exponential kernel used to read psi_0 = 0 * -inf
    # = nan, and the law came back nan yet valid
    p = exp_params(3, 35, 1e-300, 1.3)
    dist = limiting_pi(p)
    assert dist.valid
    assert np.all(np.isfinite(dist.pi))
    assert dist.pi1[-1] == pytest.approx(1.0, abs=1e-14)
    assert np.all(np.abs(dist.pi1[:-1]) < 1e-14)


def test_non_finite_law_is_invalid(monkeypatch):
    p = exp_params(2, 6, 1.0, 1.0)
    psis, tails = kernel(p)
    psis[1] = np.nan
    monkeypatch.setattr(limiting, "kernel", lambda params: (psis, tails))
    dist = limiting_pi(p)
    assert not np.all(np.isfinite(dist.pi))
    assert not dist.valid


def counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_renewal_cost_path_skips_embedded_diagnostics(monkeypatch):
    emb_calls = counting(monkeypatch, limiting, "embedded_P")
    g_calls = counting(monkeypatch, limiting, "g_vector")
    posting = PostingDistribution("erlang", 1.3, shape=3)
    costs = CostParams(3.0, 1.0, 80.0)
    evaluate_cell(2, 6, 1.0, posting, costs)
    optimize_v(6, 1.0, posting, costs, 6)
    sweep(1.0, posting, costs, range(1, 4), range(3, 6))
    assert emb_calls == [] and g_calls == []

    evaluate_cell(2, 6, 1.0, posting, costs, method=LADDER)
    assert len(emb_calls) == 1 and len(g_calls) == 1
    optimize_v(6, 0.5, posting, costs, 2, method=LADDER)
    assert len(emb_calls) == 3 and len(g_calls) == 3
    # a default solve_instance runs the renewal route alone
    emb, dist = solve_instance(SystemParams(v=2, w=6, lam=1.0, posting=posting))
    assert emb is None and dist.g_vector is None
    assert len(emb_calls) == 3 and len(g_calls) == 3


def test_cli_solve_runs_one_embedded_solve_only_for_ladder(monkeypatch):
    # counted at both bindings: limiting_pi looks it up in limiting, code in
    # embedded (as tpm_stationary_delta did) in embedded
    calls = [counting(monkeypatch, module, "embedded_P") for module in (limiting, embedded)]
    argv = ["solve", "--v", "2", "--w", "6", "--lambda", "1.0", "--dist", "erlang",
            "--shape", "3", "--mean", "1.3"]
    assert main(argv) == 0
    assert calls == [[], []]
    assert main([*argv, "--method", "ladder"]) == 0
    assert sum(map(len, calls)) == 1
