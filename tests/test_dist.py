"""Posting-distribution functionals: closed forms vs independent oracles."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poolqueue import PostingDistribution, parse_distribution

DISTS = [
    PostingDistribution("exponential", 1.3),
    PostingDistribution("deterministic", 1.3),
    PostingDistribution("erlang", 1.3, shape=3),
    PostingDistribution("erlang", 0.7, shape=5),
]


# -- construction and parsing ---------------------------------------------


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown distribution kind"):
        PostingDistribution("weibull", 1.0)


def test_nonpositive_mean_rejected():
    with pytest.raises(ValueError, match="mean must be positive"):
        PostingDistribution("exponential", 0.0)


def test_bad_erlang_shape_rejected():
    with pytest.raises(ValueError, match="shape"):
        PostingDistribution("erlang", 1.0, shape=0)
    with pytest.raises(ValueError, match="shape"):
        PostingDistribution("erlang", 1.0, shape=float("inf"))
    assert type(PostingDistribution("erlang", 1.0, shape=3.0).shape) is int


@pytest.mark.parametrize("mean", [float("nan"), float("inf")])
def test_non_finite_mean_rejected(mean):
    # an infinite mean used to give psi = 0 everywhere and phi_min = 0
    with pytest.raises(ValueError, match="mean must be positive and finite"):
        PostingDistribution("exponential", mean)


def test_parse_round_trip():
    d = parse_distribution({"kind": "erlang", "mean": 1.3, "shape": 3})
    assert d == PostingDistribution("erlang", 1.3, shape=3)


def test_parse_rejects_unknown_key_by_name():
    with pytest.raises(ValueError, match="'rate'"):
        parse_distribution({"kind": "exponential", "mean": 1.0, "rate": 2.0})


def test_parse_requires_kind_and_mean():
    with pytest.raises(ValueError, match="requires"):
        parse_distribution({"kind": "exponential"})


# -- Laplace-Stieltjes transform -------------------------------------------


def test_lst_at_zero_is_one():
    for d in DISTS:
        assert d.lst(0.0) == pytest.approx(1.0, abs=1e-15)


def test_lst_exponential_example():
    # mean 1, theta 1 -> 1 / (1 + 1) = 0.5
    assert PostingDistribution("exponential", 1.0).lst(1.0) == pytest.approx(0.5)


def test_lst_deterministic_example():
    assert PostingDistribution("deterministic", 1.0).lst(1.0) == pytest.approx(
        math.exp(-1.0)
    )


def test_lst_erlang_matches_quadrature():
    d = PostingDistribution("erlang", 1.3, shape=3)
    frozen_mean = 1.3
    from scipy import integrate, stats

    pdf = stats.gamma(3, scale=frozen_mean / 3).pdf
    for theta in (0.1, 0.7, 2.0):
        oracle, _ = integrate.quad(lambda x: math.exp(-theta * x) * pdf(x), 0, 60)
        assert d.lst(theta) == pytest.approx(oracle, abs=1e-10)


def test_lst_negative_theta_rejected():
    with pytest.raises(ValueError):
        DISTS[0].lst(-0.1)


# -- mixture kernel: closed form vs quadrature oracle ----------------------


@pytest.mark.parametrize("d", DISTS, ids=lambda d: f"{d.kind}-{d.shape}")
@pytest.mark.parametrize("la", [0.1, 0.5, 1.0, 2.86, 5.0])
def test_psi_matches_quadrature(d, la):
    lam = la / d.mean
    for k in range(0, 31, 3):
        assert d.psi(lam, k) == pytest.approx(
            d.psi_quadrature(lam, k), abs=1e-9
        ), f"kernel mismatch at k={k}"


@pytest.mark.parametrize("kind, shape", [("deterministic", 1), ("erlang", 1), ("erlang", 3), ("erlang", 20)])
@pytest.mark.parametrize("la", [1e-6, 0.3, 2.86, 40.0])
def test_psi_matches_extended_precision(kind, shape, la):
    # the Poisson and negative-binomial pmfs written out in 40 digits; the
    # Erlang closed form keeps its accuracy where p = m / (m + la) is near 1
    mpmath = pytest.importorskip("mpmath")
    d = PostingDistribution(kind, 1.0, shape=shape)
    ks = np.unique(np.geomspace(1, 2001, 60).astype(int) - 1)
    got = d.psi(la, ks)
    with mpmath.workdps(40):
        x = mpmath.mpf(la)
        if kind == "deterministic":
            ref = [mpmath.exp(-x) * x**k / mpmath.factorial(k) for k in ks]
        else:
            ref = [mpmath.binomial(k + shape - 1, shape - 1) * (shape / (shape + x)) ** shape
                   * (x / (shape + x)) ** k for k in ks]
        ref = np.array([float(r) for r in ref])
    kept = ref >= 1e-100
    assert np.all(np.abs(got[kept] - ref[kept]) <= 1e-12 * ref[kept])


def _reference_kernel(mpmath, kind, shape, la, kmax):
    """psi_0..psi_kmax and P{N >= k} for k = 0..kmax+1 in 50 digits, the
    terms run by the ratio recurrence far enough past kmax that the rest is
    nil."""
    with mpmath.workdps(50):
        x = mpmath.mpf(la)
        if kind == "deterministic":
            terms = [mpmath.exp(-x)]
            ratio = lambda k: x / (k + 1)
        else:
            q = x / (shape + x)
            terms = [(1 - q) ** shape]
            ratio = lambda k: q * (k + shape) / (k + 1)
        for k in range(kmax + 3000):
            terms.append(terms[-1] * ratio(k))
        tails, acc = [], mpmath.mpf(0)
        for term in reversed(terms):
            acc += term
            tails.append(acc)
        psi = np.array([float(t) for t in terms[: kmax + 1]])
        return psi, np.array([float(t) for t in tails[::-1][: kmax + 2]])


@pytest.mark.parametrize("kind, shape, la", [
    *[("erlang", m, la) for m in (200, 1000) for la in (300.0, 900.0, 333.3)],
    *[("deterministic", 1, la) for la in (1e-9, 2.86, 700.0, 1e4)],
])
def test_kernel_and_tails_match_extended_precision(kind, shape, la):
    # the ratio recurrence adds only rounding per step; at la = 333.3 the sum
    # m + la is inexact, and its rounding would bias every ratio alike
    mpmath = pytest.importorskip("mpmath")
    d = PostingDistribution(kind, 1.0, shape=shape)
    kmax = max(3000, int(1.5 * la))
    psi, tails = _reference_kernel(mpmath, kind, shape, la, kmax)
    row, tail = d.psi_row(la, kmax)
    upper = np.concatenate((d.psi_tails(la, kmax), [tail]))
    for got, ref in ((row, psi), (d.psi(la, np.arange(kmax + 1)), psi), (upper, tails)):
        kept = ref >= 1e-100
        assert np.max(np.abs(got[kept] - ref[kept]) / ref[kept]) <= 1e-13


def test_psi_at_a_huge_k_allocates_nothing_of_its_length():
    tracemalloc.start()
    try:
        values = [d.psi(2.2, 10**9) for d in DISTS]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert values == [0.0] * len(DISTS)
    assert peak < 1e6


@pytest.mark.parametrize("kind, shape", [("deterministic", 1), ("erlang", 1), ("erlang", 3), ("erlang", 1000)])
@pytest.mark.parametrize("la", [1e-300, 1e-9, 1e8])
@pytest.mark.parametrize("kmax", [35, 3000])
def test_edge_kernels_stay_finite_and_cheap(kind, shape, la, kmax):
    d = PostingDistribution(kind, 1.0, shape=shape)
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            row, tail = d.psi_row(la, kmax)
            tails = d.psi_tails(la, kmax)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert row.min() >= 0.0 and 0.0 <= tail <= 1.0
    assert abs(row.sum() + tail - 1.0) <= 1e-12
    assert tails[0] == 1.0 and np.all(np.diff(tails) <= 0.0) and tails[-1] >= 0.0
    assert peak < 1e6


def test_erlang_psi_where_the_binomial_overflows():
    # C(k+399, 399) passes 1e308 from k = 686 on; the row stays finite
    row, tail = PostingDistribution("erlang", 1.0, shape=400).psi_row(300.0, 3000)
    assert np.all(np.isfinite(row)) and row.min() >= 0.0
    assert abs(row.sum() + tail - 1.0) < 1e-11


@pytest.mark.parametrize("d", DISTS, ids=lambda d: f"{d.kind}-{d.shape}")
def test_psi_row_sums_to_one(d):
    lam = 2.2
    row, tail = d.psi_row(lam, 200)
    assert row.min() >= 0.0
    assert abs(row.sum() + tail - 1.0) < 1e-12


def test_psi_vectorized_matches_scalar():
    d = PostingDistribution("erlang", 1.3, shape=3)
    ks = np.arange(10)
    row = d.psi(2.2, ks)
    for k in ks:
        assert row[k] == pytest.approx(d.psi(2.2, int(k)), abs=0.0)


def test_psi_rejects_bad_args():
    with pytest.raises(ValueError):
        DISTS[0].psi(0.0, 1)
    with pytest.raises(ValueError):
        DISTS[0].psi(1.0, -1)


@given(
    la=st.floats(0.05, 6.0),
    kind=st.sampled_from(["exponential", "deterministic", "erlang"]),
    shape=st.integers(1, 6),
)
@settings(max_examples=60, deadline=None)
def test_psi_mean_is_offered_count(la, kind, shape):
    # The expected number of events in one interval is lam * a exactly.
    d = PostingDistribution(kind, 1.0, shape=shape)
    ks = np.arange(0, 400)
    row = d.psi(la, ks)
    assert float(ks @ row) == pytest.approx(la, rel=1e-8)


@given(la=st.floats(0.05, 6.0), shape=st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_psi_nonnegative_and_normalized(la, shape):
    d = PostingDistribution("erlang", 1.0, shape=shape)
    row, tail = d.psi_row(la, 300)
    assert np.all(row >= 0)
    assert 0.0 <= tail < 1e-10


# -- variance and cdf ------------------------------------------------------


def test_variance_values():
    assert PostingDistribution("exponential", 1.3).variance() == pytest.approx(1.69)
    assert PostingDistribution("deterministic", 1.3).variance() == 0.0
    assert PostingDistribution("erlang", 1.3, shape=3).variance() == pytest.approx(
        1.69 / 3
    )


def test_cdf_basic():
    d = PostingDistribution("deterministic", 1.3)
    assert d.cdf(1.2) == 0.0 and d.cdf(1.3) == 1.0
    e = PostingDistribution("exponential", 1.0)
    assert e.cdf(1.0) == pytest.approx(1 - math.exp(-1))
    assert float(e.cdf(-1.0)) == 0.0


# -- sampling --------------------------------------------------------------


@pytest.mark.parametrize("d", DISTS, ids=lambda d: f"{d.kind}-{d.shape}")
def test_sampling_matches_cdf(d):
    rng = np.random.default_rng(12345)
    n = 1_000_000
    draws = np.asarray(d.sample(rng, n), dtype=float)
    assert abs(draws.mean() - d.mean) / d.mean < 0.01
    if d.kind != "deterministic":
        assert abs(draws.var() - d.variance()) / d.variance() < 0.02
        # one-sample KS statistic against the model cdf
        xs = np.sort(draws)
        ecdf = np.arange(1, n + 1) / n
        ks = float(np.max(np.abs(ecdf - d.cdf(xs))))
        assert ks < 0.005
    else:
        assert np.all(draws == d.mean)


def test_sampling_is_deterministic_per_seed():
    d = PostingDistribution("erlang", 1.3, shape=3)
    a = d.sample(np.random.default_rng(7), 100)
    b = d.sample(np.random.default_rng(7), 100)
    assert np.array_equal(a, b)


# -- kernel tails and tiny loads -------------------------------------------


@pytest.mark.parametrize("d", DISTS)
@pytest.mark.parametrize("lam", [0.05, 2.2, 40.0])
def test_psi_tails_match_cumulative_kernel(d, lam):
    row, _ = d.psi_row(lam, 60)
    tails = d.psi_tails(lam, 60)
    assert tails[0] == 1.0
    assert np.allclose(tails[1:], 1.0 - np.cumsum(row)[:-1], rtol=0, atol=1e-14)
    assert np.all(tails >= 0.0) and np.all(np.diff(tails) <= 0.0)


@pytest.mark.parametrize("d", DISTS)
@pytest.mark.parametrize("la", [1e-300, 1e-200, 1e-17, 1e-9])
def test_tiny_load_kernel_is_finite(d, la):
    # lam * a below ~1e-16 made the exponential psi_0 = 0 * log1p(-1) = nan
    row, tail = d.psi_row(la / d.mean, 30)
    assert np.all(np.isfinite(row))
    assert row.sum() == pytest.approx(1.0, abs=1e-14) and tail <= 1e-14
    # P{N >= 1} is about lam * a: kept to full relative accuracy
    assert d.psi_tails(la / d.mean, 30)[1] == pytest.approx(la, rel=1e-6)


def test_exponential_psi_unchanged_on_unit_loads():
    # from lam * a = 1 up the kernel keeps its log1p form bit for bit
    d = PostingDistribution("exponential", 1.3)
    k = np.arange(400)
    for lam in (1.98, 2.2, 2.42, 10.0):
        p = 1.0 / (1.0 + lam * 1.3)
        assert np.array_equal(d.psi(lam, k), p * np.exp(k * np.log1p(-p)))
