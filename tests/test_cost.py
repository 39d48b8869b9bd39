"""Cost objective, batch-size optimizer and the (v, w) cost surface."""

import numpy as np
import pytest

from poolqueue import (
    CostParams,
    NoValidPointError,
    PostingDistribution,
    SystemParams,
    capability,
    evaluate_cell,
    objective,
    optimize_v,
    solve_instance,
    sweep,
)

EXP13 = PostingDistribution("exponential", 1.3)


def solved(v, w, lam=2.2, posting=EXP13):
    p = SystemParams(v=v, w=w, lam=lam, posting=posting)
    _, dist = solve_instance(p)
    return p, dist


# -- cost parameters --------------------------------------------------------


def test_negative_coefficients_rejected():
    with pytest.raises(ValueError, match="c_r"):
        CostParams(c_h=1.0, c_r=-0.1, c_d=1.0)


@pytest.mark.parametrize("name", ["c_h", "c_r", "c_d"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_coefficients_rejected(name, value):
    # c_h = nan used to give v0 = 1, phi = nan and any_invalid = False
    coeffs = {"c_h": 3.0, "c_r": 1.0, "c_d": 80.0, name: value}
    with pytest.raises(ValueError, match=name):
        CostParams(**coeffs)


@pytest.mark.parametrize("lam", [float("nan"), float("inf")])
def test_non_finite_load_rejected_by_optimizer(lam):
    with pytest.raises(ValueError, match="finite"):
        optimize_v(6, lam, EXP13, CostParams(3.0, 1.0, 80.0), 6)


# -- objective --------------------------------------------------------------


def test_posting_term_only():
    # c_d * (lam / v) / a with lam=2.2, v=33, a=1.3
    p, dist = solved(33, 35)
    bd = objective(p, CostParams(0.0, 0.0, 80.0), dist)
    assert bd.holding == 0.0 and bd.reserve == 0.0
    assert bd.posting == pytest.approx(80.0 * (2.2 / 33) / 1.3)
    assert bd.posting == pytest.approx(4.102564102564102)
    assert bd.total == bd.posting


def test_zero_costs_give_zero():
    p, dist = solved(2, 6)
    bd = objective(p, CostParams(0.0, 0.0, 0.0), dist)
    assert bd.total == 0.0


def test_total_is_sum_of_parts():
    p, dist = solved(3, 8)
    bd = objective(p, CostParams(3.0, 1.0, 80.0), dist)
    assert bd.total == pytest.approx(bd.holding + bd.reserve + bd.posting, abs=0.0)
    assert bd.holding == pytest.approx(3.0 * bd.expected_pool)


def test_reserve_counts_only_above_batch():
    p, dist = solved(3, 8)
    bd = objective(p, CostParams(0.0, 1.0, 0.0), dist)
    ks = np.arange(p.w + 1)
    hand = float(np.clip(ks - p.v, 0, None) @ dist.pi1)
    assert bd.reserve == pytest.approx(hand, abs=0.0)


def test_holding_table_overrides_linear():
    p, dist = solved(2, 5)
    table = tuple(float(2 * k) for k in range(p.w + 1))
    bd_lin = objective(p, CostParams(2.0, 0.0, 0.0), dist)
    bd_tab = objective(p, CostParams(9.9, 0.0, 0.0, holding_table=table), dist)
    assert bd_tab.holding == pytest.approx(bd_lin.holding, abs=1e-14)


def test_reserve_table_masked_to_reserve_states():
    # a constant reserve table must charge nothing at pool levels <= v
    p, dist = solved(2, 5)
    table = tuple([5.0] * (p.w - p.v + 1))
    bd = objective(p, CostParams(0.0, 0.0, 0.0, reserve_table=table), dist)
    hand = 5.0 * float(dist.pi1[p.v + 1 :].sum())
    assert bd.reserve == pytest.approx(hand, abs=1e-14)


def test_table_length_checked():
    p, dist = solved(2, 5)
    with pytest.raises(ValueError, match="holding_table"):
        objective(p, CostParams(0, 0, 0, holding_table=(1.0, 2.0)), dist)
    with pytest.raises(ValueError, match="reserve_table"):
        objective(p, CostParams(0, 0, 0, reserve_table=(1.0,)), dist)


# -- capability -------------------------------------------------------------


def test_capability_values():
    assert capability(2.2, 1.3, 35) == 0.0
    assert capability(2.2, 1.3, 2) == pytest.approx(2.2 * 1.3 / 2 - 1)
    assert capability(1.0, 1.0, 1000) == 0.0
    with pytest.raises(ValueError):
        capability(0.0, 1.0, 5)


# -- optimizer ---------------------------------------------------------------


def test_optimize_single_candidate():
    res = optimize_v(5, 1.0, EXP13, CostParams(1.0, 1.0, 1.0), v_max=1)
    assert res.v0 == 1
    assert len(res.curve) == 1


def test_optimize_posting_only_prefers_large_batches():
    # with only the posting charge, cost is c_d * lam / (v a): decreasing in v
    res = optimize_v(8, 1.0, EXP13, CostParams(0.0, 0.0, 10.0), v_max=8)
    assert res.v0 == 8
    totals = [bd.total for _, bd in res.curve]
    assert all(x > y for x, y in zip(totals, totals[1:]))


def test_optimize_curve_matches_standalone_cells():
    cost = CostParams(3.0, 1.0, 80.0)
    res = optimize_v(6, 2.2, EXP13, cost, v_max=6)
    for v, bd in res.curve:
        alone = evaluate_cell(v, 6, 2.2, EXP13, cost)
        assert bd.total == alone.total  # bit-identical re-solve


def test_optimize_vmax_validation():
    with pytest.raises(ValueError, match="v_max"):
        optimize_v(5, 1.0, EXP13, CostParams(1, 1, 1), v_max=6)


def test_optimize_tie_breaks_small():
    # zero cost everywhere: every batch size ties, smallest must win
    res = optimize_v(5, 1.0, EXP13, CostParams(0.0, 0.0, 0.0), v_max=5)
    assert res.v0 == 1


def test_optimize_handles_heavy_load_cells():
    # offered load exceeds 1 for small v; those cells still solve via the
    # admission route and stay in the running
    res = optimize_v(6, 2.2, PostingDistribution("exponential", 1.3), CostParams(3, 1, 80), v_max=6)
    assert not res.any_invalid
    assert 1 <= res.v0 <= 6


# -- sweep -------------------------------------------------------------------


def test_sweep_marks_infeasible_cells():
    cells = sweep(1.0, EXP13, CostParams(1, 1, 1), v_values=[1, 4], w_values=[2, 4])
    grid = {(c.v, c.w): c for c in cells}
    assert len(cells) == 4
    assert not grid[(4, 2)].feasible and grid[(4, 2)].breakdown is None
    assert grid[(4, 4)].feasible


def test_sweep_row_major_order():
    cells = sweep(1.0, EXP13, CostParams(1, 1, 1), v_values=[1, 2], w_values=[3, 4])
    assert [(c.v, c.w) for c in cells] == [(1, 3), (2, 3), (1, 4), (2, 4)]


def test_sweep_cells_match_standalone():
    cost = CostParams(2.0, 0.5, 20.0)
    cells = sweep(2.2, EXP13, cost, v_values=[2, 3], w_values=[6])
    for c in cells:
        assert c.breakdown.total == evaluate_cell(c.v, c.w, 2.2, EXP13, cost).total
        assert c.capability == capability(2.2, 1.3, c.w)


def test_sweep_empty_range_rejected():
    with pytest.raises(ValueError):
        sweep(1.0, EXP13, CostParams(1, 1, 1), v_values=[], w_values=[3])
