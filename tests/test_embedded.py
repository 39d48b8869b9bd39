"""Embedded pre-posting chain: roots, infinite-queue head, truncation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poolqueue import (
    ModelType,
    NoRootError,
    TruncationError,
    PostingDistribution,
    SystemParams,
    admission_P,
    admission_tpm,
    build_tpm,
    characteristic_root,
    embedded_P,
    infinite_queue_Q,
    interval_occupancy,
    limiting_pi,
    model_type,
    stationary_vector,
)
from poolqueue import embedded
from poolqueue.embedded import kernel
from truncated_reference import truncated_Q


def exp_params(v, w, lam, a):
    return SystemParams(v=v, w=w, lam=lam, posting=PostingDistribution("exponential", a))


# -- parameter validation --------------------------------------------------


def test_params_validation():
    d = PostingDistribution("exponential", 1.0)
    with pytest.raises(ValueError, match="v must be"):
        SystemParams(v=0, w=5, lam=1.0, posting=d)
    with pytest.raises(ValueError, match="must not exceed capacity"):
        SystemParams(v=6, w=5, lam=1.0, posting=d)
    with pytest.raises(ValueError, match="lam must be positive"):
        SystemParams(v=1, w=5, lam=0.0, posting=d)


def test_whole_number_geometry_is_stored_as_int():
    # v=3.0 used to pass validation and then fail to slice arrays
    p = SystemParams(v=3.0, w=np.int64(35), lam=2.2, posting=PostingDistribution("exponential", 1.3))
    assert type(p.v) is int and type(p.w) is int
    assert (p.v, p.w) == (3, 35)
    assert limiting_pi(p).valid


@pytest.mark.parametrize("v", [2.5, float("nan"), float("inf"), "3", None])
def test_non_integer_batch_size_rejected(v):
    with pytest.raises(ValueError, match="v must be a positive integer"):
        SystemParams(v=v, w=5, lam=1.0, posting=PostingDistribution("exponential", 1.0))


@pytest.mark.parametrize("lam", [float("nan"), float("inf"), 1e308])
def test_non_finite_load_rejected(lam):
    # 1e308 * a = inf: the load itself overflows
    with pytest.raises(ValueError, match="lam"):
        SystemParams(v=1, w=5, lam=lam, posting=PostingDistribution("exponential", 10.0))


def test_derived_quantities():
    p = exp_params(2, 5, 2.0, 1.5)
    assert p.s == 3
    assert p.a == 1.5
    assert p.offered_load == pytest.approx(1.5)


def test_model_type_boundary():
    # type 1 iff capacity covers two full batches
    assert model_type(exp_params(2, 4, 1.0, 0.5)) is ModelType.TYPE1
    assert model_type(exp_params(2, 5, 1.0, 0.5)) is ModelType.TYPE1
    assert model_type(exp_params(3, 5, 1.0, 0.5)) is ModelType.TYPE2
    assert model_type(exp_params(5, 5, 1.0, 0.5)) is ModelType.TYPE2


# -- characteristic root ---------------------------------------------------


def test_root_v1_closed_form():
    # v=1: root is exactly 1 / (lam * a)
    assert characteristic_root(1, 1.0, 0.5) == pytest.approx(2.0, abs=1e-14)
    assert characteristic_root(1, 2.0, 0.4) == pytest.approx(1.25, abs=1e-14)


@given(
    v=st.integers(1, 12),
    rho=st.floats(0.05, 0.95),
    lam=st.floats(0.2, 4.0),
)
@settings(max_examples=80, deadline=None)
def test_root_satisfies_equation(v, rho, lam):
    a = rho * v / lam
    z0 = characteristic_root(v, lam, a)
    la = lam * a
    residual = (1 + la) * z0**v - la * z0 ** (v + 1) - 1.0
    assert z0 > 1.0
    assert abs(residual) < 1e-10 * max(1.0, z0**v)


def mp_root_gap(v, la, mpmath):
    """x = z - 1 > 0 with (1 + x)^v (1 - la x) = 1, bisected at 40 digits."""
    lo, hi = mpmath.mpf(0), 1 / la
    for _ in range(200):
        mid = (lo + hi) / 2
        if (1 + mid) ** v * (1 - la * mid) > 1:
            lo = mid
        else:
            hi = mid
    return lo


@pytest.mark.parametrize("v", [1, 3, 10, 100])
def test_root_matches_high_precision(v):
    # the old bisection in z returned its bracket floor 1 + 1e-12 from load
    # 0.99999 up, whatever the true root
    mpmath = pytest.importorskip("mpmath")
    lam = 2.2
    with mpmath.workdps(40):
        for load in (1e-3, 0.1, 0.5, 0.9, 1 - 1e-2, 1 - 1e-3, 1 - 1e-4, 1 - 1e-5,
                     1 - 1e-6, 1 - 1e-7, 1 - 1e-8, 1 - 1e-9):
            a = load * v / lam
            x_ref = mp_root_gap(v, mpmath.mpf(lam * a), mpmath)
            z0 = characteristic_root(v, lam, a)
            err = float(abs(mpmath.mpf(z0) - 1 - x_ref))
            # 1e-9 relative on z0 - 1, except where one ulp of z0 is coarser
            bound = max(1e-9 * float(x_ref), float(np.spacing(z0)))
            assert err <= bound, f"v={v} load {load!r}: z0-1 off by {err:.3g}"


def test_root_at_light_load_sits_at_the_bracket_top():
    # (1 + x)^v (1 - lam a x) = 1 puts x within rounding of 1 / (lam a), where
    # the bracket ends; brentq stops within its relative tolerance of it
    assert characteristic_root(100, 1.0, 1.0) == pytest.approx(2.0, rel=1e-15, abs=0)
    assert characteristic_root(3, 1e-300, 1.0) == pytest.approx(1e300, rel=1e-15, abs=0)


def test_root_missing_at_heavy_load():
    with pytest.raises(NoRootError, match="offered load"):
        characteristic_root(1, 2.0, 0.5)  # load exactly 1
    with pytest.raises(NoRootError):
        characteristic_root(2, 2.2, 1.3)  # load 1.43
    with pytest.raises(NoRootError, match="float range"):
        characteristic_root(2, 1e-200, 1e-120)  # root near 1e320


# -- infinite-queue head ---------------------------------------------------


def test_geometric_head_example():
    # v=1, lam*a = 0.5: Q_i = 0.5^{i+1}
    p = exp_params(1, 5, 1.0, 0.5)
    Q = infinite_queue_Q(p)
    assert Q[0] == pytest.approx(0.5, abs=1e-14)
    assert Q[3] == pytest.approx(0.5**4, abs=1e-14)


def test_geometric_head_second_example():
    # lam*a = 9 with v = 10: r = 1/z0, Q_0 = 1 - r
    p = exp_params(10, 20, 3.0, 3.0)
    z0 = characteristic_root(10, 3.0, 3.0)
    Q = infinite_queue_Q(p)
    assert Q[0] == pytest.approx(1.0 - 1.0 / z0, abs=1e-12)


@pytest.mark.parametrize("v", [1, 2, 5, 10])
@pytest.mark.parametrize("rho", [0.1, 0.5, 0.9])
def test_geometric_vs_truncated_solve(v, rho):
    # two independent routes to the same head must agree
    lam = 1.7
    a = rho * v / lam
    p = exp_params(v, max(2 * v, 6), lam, a)
    head = p.w - p.v + 1
    geo = infinite_queue_Q(p)
    # exponential postings take the closed form
    assert np.array_equal(geo, embedded._geometric_Q(p, characteristic_root(v, lam, a)))
    num = embedded._truncated_infinite_Q(p)[:head]
    assert np.max(np.abs(geo[:head] - num)) < 1e-8


def test_truncated_solve_nonexponential_is_distribution_head():
    p = SystemParams(v=3, w=9, lam=1.0, posting=PostingDistribution("erlang", 1.5, shape=3))
    Q = infinite_queue_Q(p)
    assert np.all(Q[: p.w + 1] >= -1e-15)
    assert Q.sum() == pytest.approx(1.0, abs=1e-9)


def test_truncation_eps_invariance():
    p = SystemParams(v=2, w=8, lam=1.0, posting=PostingDistribution("deterministic", 1.0))
    head = p.w - p.v + 1
    a = embedded._truncated_infinite_Q(p, eps=1e-10)[:head]
    b = embedded._truncated_infinite_Q(p, eps=1e-13)[:head]
    assert np.max(np.abs(a - b)) < 1e-10


@pytest.mark.parametrize("kind", ["exponential", "deterministic", "erlang"])
@pytest.mark.parametrize("v, w", [(1, 5), (3, 8), (5, 5)])
@pytest.mark.parametrize("load", [0.3, 0.9])
def test_truncated_solve_matches_list_built_reference(kind, v, w, load):
    p = SystemParams(v=v, w=w, lam=load * v / 1.3, posting=PostingDistribution(kind, 1.3, shape=3))
    assert np.array_equal(embedded._truncated_infinite_Q(p), truncated_Q(p))


def test_truncation_budget_refuses_a_level_before_building_it(monkeypatch):
    built = []
    level_system = embedded._level_system

    def spy(psis, v, n, band):
        A = level_system(psis, v, n, band)
        built.append(A.nnz)
        return A

    monkeypatch.setattr(embedded, "_level_system", spy)
    p = SystemParams(v=3, w=35, lam=0.99 * 3 / 1.3, posting=PostingDistribution("erlang", 1.3, shape=3))
    # the first level, 144 x (band + 1) entries, is already over
    monkeypatch.setattr(embedded, "ENTRY_BUDGET", 1000)
    with pytest.raises(TruncationError, match="budget"):
        infinite_queue_Q(p)
    assert built == []
    # some levels fit, and the first one that does not is never built
    monkeypatch.setattr(embedded, "ENTRY_BUDGET", 50_000)
    with pytest.raises(TruncationError, match="budget"):
        embedded_P(p)
    assert built and max(built) <= 50_000


def test_geometric_head_over_budget_is_a_truncation_error(monkeypatch):
    p = exp_params(3, 35, 2.2, 0.99 * 3 / 2.2)  # about 8000 terms
    assert infinite_queue_Q(p).size > 100
    monkeypatch.setattr(embedded, "ENTRY_BUDGET", 100)
    with pytest.raises(TruncationError, match="budget"):
        infinite_queue_Q(p)


def test_geometric_head_near_load_one_is_a_truncation_error():
    # ~5.5e10 terms at load 1 - 1e-9; numpy used to be asked for them, and
    # with the old bracket-floor root for 201 TiB
    p = exp_params(3, 35, 2.2, (1 - 1e-9) * 3 / 2.2)
    with pytest.raises(TruncationError, match="budget"):
        embedded_P(p)


def test_infinite_queue_requires_stability():
    with pytest.raises(NoRootError):
        infinite_queue_Q(exp_params(2, 5, 2.2, 1.3))


# -- truncate-and-renormalize vector ---------------------------------------


def test_embedded_P_kappa_example():
    # v=1, w=5, lam*a=0.5: the retained head Q_0..Q_4 sums to 1 - 0.5^5
    p = exp_params(1, 5, 1.0, 0.5)
    sol = embedded_P(p)
    assert sol.norm_constant == pytest.approx(1.0 / (1.0 - 0.5**5), abs=1e-12)
    assert sol.norm_constant == pytest.approx(1.0322580645161292, abs=1e-9)
    assert sol.P.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(sol.P[p.w - p.v + 1 :] == 0.0)


def test_embedded_P_full_batch_capacity():
    # v = w: the only retained state is 0
    sol = embedded_P(exp_params(4, 4, 1.0, 0.5))
    assert sol.P[0] == pytest.approx(1.0)
    assert sol.root is not None


def test_embedded_P_finds_the_root_once(monkeypatch):
    calls = []
    root = embedded.characteristic_root

    def counted(*args):
        calls.append(args)
        return root(*args)

    monkeypatch.setattr(embedded, "characteristic_root", counted)
    sol = embedded_P(exp_params(3, 35, 2.2, 1.3))
    assert calls == [(3, 2.2, 1.3)]
    assert sol.root == root(3, 2.2, 1.3)


def test_embedded_P_nonexponential_has_no_root():
    p = SystemParams(v=2, w=6, lam=1.0, posting=PostingDistribution("erlang", 1.0, shape=2))
    sol = embedded_P(p)
    assert sol.root is None
    assert sol.P.sum() == pytest.approx(1.0, abs=1e-10)


# -- transition matrices ---------------------------------------------------


def test_build_tpm_shape_and_rows():
    p = exp_params(2, 5, 1.0, 0.5)
    M = build_tpm(p)
    assert M.shape == (6, 6)
    assert np.allclose(M.sum(axis=1), 1.0, atol=1e-12)
    # rows 0..v all share the unshifted kernel row
    assert np.array_equal(M[0], M[2])
    # unreachable states get the diagnostic self-loop
    assert M[4, 4] == 1.0 and M[5, 5] == 1.0


def test_build_tpm_shifted_entry():
    # v=2, w=6: row 3 has leftover 1, so entry (3, 1) is the kernel at 0
    p = exp_params(2, 6, 1.0, 0.5)
    M = build_tpm(p)
    assert M[3, 1] == pytest.approx(p.posting.psi(p.lam, 0))
    assert M[3, 0] == 0.0


def test_admission_tpm_rows_and_tail():
    p = SystemParams(v=3, w=7, lam=2.0, posting=PostingDistribution("erlang", 0.9, shape=2))
    M = admission_tpm(p)
    assert np.allclose(M.sum(axis=1), 1.0, atol=1e-12)
    # the final column carries the clipped kernel tail from every row
    row, tail = p.posting.psi_row(p.lam, p.w)
    assert M[0, p.w] == pytest.approx(tail + row[p.w], abs=1e-12)


def loop_rows(body, tails, starts, width):
    """Shifted rows written out one by one, as the matrices were before."""
    M = np.zeros((len(starts), width))
    for i, d in enumerate(starts):
        M[i, d : width - 1] = body[: width - 1 - d]
        M[i, width - 1] = tails[width - 1 - d]
    return M


@pytest.mark.parametrize("v, w", [(1, 1), (1, 4), (2, 2), (2, 7), (4, 6), (3, 9)])
def test_matrices_match_row_by_row_construction(v, w):
    p = SystemParams(v=v, w=w, lam=2.2, posting=PostingDistribution("erlang", 1.3, shape=3))
    psis, tails = kernel(p)
    starts = [max(j - v, 0) for j in range(w + 1)]
    assert np.array_equal(admission_tpm(p), loop_rows(psis, tails, starts, w + 1))
    gamma = tails[1:] / (p.lam * p.a)
    gtails = 1.0 - np.concatenate(([0.0], np.cumsum(gamma)))
    assert np.array_equal(interval_occupancy(p), loop_rows(gamma, gtails, starts, w + 1))
    # build_tpm: rows j <= max(v, w - v) hold kernel rows cut at w - v
    s = w - v
    top = max(v, s) + 1
    B = build_tpm(p)
    cut = loop_rows(psis, p.posting.psi_tails(p.lam, s), starts[:top], s + 1)
    assert np.array_equal(B[:top, : s + 1], cut)
    assert np.all(B[:top, s + 1 :] == 0.0)
    assert np.array_equal(B[top:], np.eye(w + 1)[top:])


def test_start_rows_absorb_exact_tails():
    # the absorbing column is the kernel tail itself, never 1 - sum
    p = exp_params(2, 40, 0.5, 1.0)
    M = admission_tpm(p)
    r = 0.5 / 1.5
    assert M[0, -1] == pytest.approx(r**40, rel=1e-13)
    assert M[38, -1] == pytest.approx(r**4, rel=1e-13)
    assert np.all(M >= 0.0)


def test_stationary_vector_two_state():
    M = np.array([[0.7, 0.3], [0.4, 0.6]])
    pi = stationary_vector(M)
    assert pi == pytest.approx([4 / 7, 3 / 7])


@pytest.mark.parametrize("seed", range(4))
def test_stationary_vector_matches_the_transposed_difference(seed):
    # the same matrix reaches LAPACK as from M^T - I with its last row set
    # to ones, so the law is bit for bit the same
    rng = np.random.default_rng(seed)
    for n in range(1, 81):
        M = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
        M[:, 0] += 1e-3
        M /= M.sum(axis=1, keepdims=True)
        A = M.T - np.eye(n)
        A[-1, :] = 1.0
        assert np.array_equal(stationary_vector(M), np.linalg.solve(A, np.eye(n)[-1]))


def test_admission_P_is_distribution_any_load():
    # works above offered load 1, where the infinite-queue head does not exist
    p = exp_params(2, 5, 2.2, 1.3)
    pre = admission_P(p)
    assert pre.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(pre >= -1e-15)
