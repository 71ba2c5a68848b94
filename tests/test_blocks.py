"""Table functions computed in row blocks equal their dense forms bit for bit, and stay within a memory bound.

`geometry.BLOCK_CELLS` is patched down so that small tables take one-row
blocks and blocks with a shorter last one.  The dense oracles live in
`helpers`.  Tables carry exact ties, -0.0 entries and +inf prices, where a
block merged along the reduced axis could flip the sign of a zero.
"""

import numpy as np
import pytest

import spatial_pricing as sp
from spatial_pricing import ctransform as ct
from spatial_pricing import geometry, model_one, model_two

from helpers import (
    dense_assignment,
    dense_c_transform_table,
    dense_capture_transport,
    dense_double_transform_table,
    dense_eval_cost,
    dense_scale_tol,
    dense_tie_break,
    dense_value_table,
    peak_budgets,
    random_points,
    region_from_points,
)

N, M = 23, 17


@pytest.fixture(params=[1, 50, 137, geometry.BLOCK_CELLS], ids=["one_row", "cells_50", "cells_137", "one_block"])
def blocks(request, monkeypatch):
    monkeypatch.setattr(geometry, "BLOCK_CELLS", request.param)
    return request.param


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (
        a.dtype == b.dtype
        and np.array_equal(a, b)
        and (a.dtype.kind != "f" or np.array_equal(np.signbit(a), np.signbit(b)))
    )


def _with_negative_zeros(rng, a):
    a[rng.uniform(size=a.shape) < 0.2] = -0.0
    return a


def _table(rng, n=N, m=M):
    """Quarter steps in [0, 0.75]: many exact ties, and about a fifth -0.0."""
    return _with_negative_zeros(rng, rng.integers(0, 4, (n, m)) * 0.25)


def _values(rng, n):
    return _with_negative_zeros(rng, rng.integers(-2, 4, n) * 0.25)


def _prices(rng, m):
    p = _values(rng, m)
    p[rng.uniform(size=m) < 0.2] = np.inf
    p[rng.integers(m)] = 0.5
    return p


def _subsets(rng, m):
    return [None, np.sort(rng.choice(m, m // 2, replace=False)), np.array([m - 1])]


def test_blocks_cover_the_rows_in_order(blocks):
    for rows, width in [(0, 5), (1, 5), (N, M), (M, N), (7, 0)]:
        slices = list(geometry.row_blocks(rows, width))
        assert np.array_equal(np.concatenate([np.arange(rows)[s] for s in slices] or [np.arange(0)]), np.arange(rows))
        assert all(s.stop - s.start <= max(1, blocks // max(1, width)) for s in slices)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize(
    "kernel", [sp.CostKernel.metric(0.5), sp.CostKernel.metric(1.0), sp.CostKernel.quadratic()], ids=["metric_half", "metric_1", "quadratic"]
)
def test_eval_cost(blocks, kernel, d):
    rng = np.random.default_rng(7 * d)
    built = sp.build_interval_region(N, 0.0, 1.0) if d == 1 else sp.build_grid_region(5, 4)
    points = random_points(rng, N, d)
    # at 1e-160 the squares are subnormal and at 1e150 the powers round far
    # from 1, so a reordered sum, square or product changes some entry's bits
    for region in (region_from_points(points), built, region_from_points(points * 1e-160), region_from_points(points * 1e150)):
        assert same_bits(sp.eval_cost(kernel, region), dense_eval_cost(kernel, region))


@pytest.mark.parametrize("seed", range(4))
def test_value_and_transforms(blocks, seed):
    rng = np.random.default_rng(seed)
    cost = _table(rng)
    prices, values = _prices(rng, M), _values(rng, N)
    for idx in _subsets(rng, M):
        assert same_bits(ct.value_table(prices, cost, idx), dense_value_table(prices, cost, idx))
        assert same_bits(ct.c_transform_table(values, cost, idx), dense_c_transform_table(values, cost, idx))
        assert same_bits(ct.double_transform_table(values, cost, idx), dense_double_transform_table(values, cost, idx))
    assert ct.scale_tol(cost) == dense_scale_tol(cost)


@pytest.mark.parametrize("seed", range(4))
def test_assignment_and_tie_break(blocks, seed):
    rng = np.random.default_rng(seed)
    cost = _table(rng, N, N)
    prices = _prices(rng, N)
    member, expenditure, choice = dense_assignment(prices, cost)
    tol = ct.scale_tol(cost)
    got_expenditure, got_choice = ct.assignment_table(prices, cost, tol)
    assert same_bits(got_expenditure, expenditure)
    assert same_bits(got_choice, choice)
    # every column, in any order, takes the pass that skips the within choice
    for within in _subsets(rng, N)[1:] + [np.arange(0), rng.permutation(N)]:
        got = ct.assignment_table(prices, cost, tol, within)
        assert same_bits(got[0], expenditure)
        assert same_bits(got[1], choice)
        assert same_bits(got[2], dense_tie_break(member, prices, within))
        transport = dense_capture_transport(member, cost, within) if within.size else np.full(N, np.inf)
        assert same_bits(got[3], transport + 0.0)


@pytest.mark.parametrize("seed", range(3))
def test_model_one_profit_from_values(blocks, seed):
    rng = np.random.default_rng(seed)
    region = region_from_points(random_points(rng, N))
    kernel = sp.CostKernel.metric(1.0)
    f = sp.CustomerMeasure(rng.uniform(0.5, 1.5, N))
    cost = dense_eval_cost(kernel, region)
    values = dense_value_table(_prices(rng, N), cost)
    delta = ct._transport(values, dense_c_transform_table(values, cost), cost, dense_scale_tol(cost))
    assert model_one.profit_from_values(values, kernel, region, f) == float(np.dot(f.weights, values - delta))


@pytest.mark.parametrize("seed", range(3))
def test_model_two_report_path(blocks, seed):
    rng = np.random.default_rng(seed)
    region = sp.build_interval_region(N, 0.0, 1.0, (0.3, 0.7))
    ctx = model_two.PartitionContext.build(region, sp.CostKernel.metric(1.0), sp.PricePattern(np.full(N, 0.4)))
    f = sp.CustomerMeasure(rng.uniform(0.5, 1.5, N))
    free, cost = ctx.free, ctx.cost
    assert same_bits(ctx.v0, dense_value_table(ctx.p0.values, cost, ctx.fixed))
    p = ctx.full_prices(rng.integers(0, 9, free.size) * 0.05)
    w, price = model_two.reformulate(p, ctx)
    assert same_bits(w, dense_value_table(p.values, cost, free))
    assert same_bits(price.values[free], -dense_c_transform_table(w, cost, free))

    vc = dense_c_transform_table(w, cost, free)
    delta = ct._transport(w, vc, cost[:, free], dense_scale_tol(cost))
    captured_w = w <= ctx.v0 + dense_scale_tol(cost)
    assert model_two.profit_from_values(w, ctx, f) == float(np.dot(f.weights, np.where(captured_w, w - delta, 0.0)))

    _, captured, choice, _, value_form = model_two._capture_and_profit(ctx, price.values, f)
    member, expenditure, dense_choice = dense_assignment(price.values, cost)
    free_choice = dense_tie_break(member, price.values, free)
    transport = dense_capture_transport(member, cost, free)
    assert same_bits(choice, dense_choice)
    assert same_bits(captured, free_choice >= 0)
    assert value_form == float(np.dot(f.weights, np.where(free_choice >= 0, expenditure - transport, 0.0)))


def _peak_over_table(call, n):
    """Traced peak of `call()` over the bytes of an n x n float table."""
    return peak_budgets(call)[0] * geometry.BLOCK_CELLS / (n * n)


# several blocks each: 2^18 cells is 218 rows of a 1201-point table
@pytest.mark.parametrize(
    "region, alpha",
    [(sp.build_interval_region(1201, 0.0, 1.0), 1.0), (sp.build_grid_region(35, 35), 0.5)],
    ids=["1d_1201", "2d_35x35"],
)
def test_metric_closed_form_peak_memory(region, alpha):
    n = region.size
    rng = np.random.default_rng(0)
    p0 = sp.PricePattern(rng.uniform(0.2, 1.0, n))
    f = sp.CustomerMeasure.uniform(n)
    peak = _peak_over_table(lambda: model_one.solve_metric(p0, sp.CostKernel.metric(alpha), region, f), n)
    assert peak <= 1.6, f"peak is {peak:.2f} cost tables"


def test_one_d_report_peak_memory():
    n = 1201
    region = sp.build_interval_region(n, 0.0, 1.0, (0.3, 0.7))
    f = sp.CustomerMeasure(np.random.default_rng(0).uniform(0.5, 1.5, n))

    def report():
        ctx = model_two.PartitionContext.build(region, sp.CostKernel.metric(1.0), sp.PricePattern(np.full(n, 0.4)))
        return model_two.one_d_reduction(0.3, 0.7, 0.4, sp.uniform_cdf(), ctx=ctx, f=f, grid_n=41)

    peak = _peak_over_table(report, n)
    assert peak <= 1.6, f"peak is {peak:.2f} cost tables"


@pytest.mark.parametrize("kernel", [sp.CostKernel.metric(0.5), sp.CostKernel.quadratic()], ids=["metric_half", "quadratic"])
@pytest.mark.parametrize(
    "region", [sp.build_interval_region(1200, 0.0, 1.0), sp.build_grid_region(35, 35)], ids=["1d_1200", "2d_35x35"]
)
def test_eval_cost_peak_memory(monkeypatch, kernel, region):
    n = region.size
    # about eleven blocks of 2^17 cells, each small beside the table
    monkeypatch.setattr(geometry, "BLOCK_CELLS", 2**17)
    peak = _peak_over_table(lambda: sp.eval_cost(kernel, region), n)
    # the table plus one float64 block temporary, plus numpy's iteration
    # buffers for the broadcast copy and subtract (np.getbufsize() elements
    # per operand)
    bound = 1.0 + 8 * (geometry.BLOCK_CELLS + 3 * np.getbufsize()) / (8 * n * n)
    assert peak <= bound, f"peak is {peak:.4f} cost tables, bound {bound:.4f}"


def test_assignment_table_peak_memory(monkeypatch):
    n = 1201
    region = sp.build_interval_region(n, 0.0, 1.0, (0.3, 0.7))
    cost = sp.eval_cost(sp.CostKernel.metric(1.0), region)
    prices = np.random.default_rng(0).uniform(0.2, 1.0, n)
    # small blocks, so that an n x n boolean argmin table (1/8 of a cost
    # table) would stand far above the block temporaries
    monkeypatch.setattr(geometry, "BLOCK_CELLS", 2**12)
    tol = ct.scale_tol(cost)
    peak = _peak_over_table(lambda: ct.assignment_table(prices, cost, tol, region.free_indices), n)
    # four (n,) outputs and a keep mask, plus at most eight float64 block temporaries
    bound = (4 * 8 * n + n + 8 * 8 * geometry.BLOCK_CELLS) / (8 * n * n)
    assert peak <= bound, f"peak is {peak:.4f} cost tables, bound {bound:.4f}"
