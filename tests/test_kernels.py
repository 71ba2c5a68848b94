"""The batched search objectives: the membership test built in one buffer
gives the same scores as the one-expression form, and a row's score does not
depend on the other rows of its batch, which the coordinate ascent's score
reuse rests on."""

import numpy as np
import pytest

import spatial_pricing as sp
from spatial_pricing import Mask, PartitionContext, model_one, model_two
from spatial_pricing import ctransform as ct
from spatial_pricing.geometry import eval_cost

from helpers import random_kernel, random_partitioned_region, random_points, region_from_points


def _value_profit_reference(cost, v0, weights, tol):
    def eval_batch(G):
        V = np.min(cost[None, :, :] + G[:, None, :], axis=2)
        V = np.clip(V, 0.0, v0[None, :])
        VC = np.min(cost[None, :, :] - V[:, :, None], axis=1)
        VP = np.min(cost[None, :, :] - VC[:, None, :], axis=2)
        member = VP[:, :, None] + VC[:, None, :] - cost[None, :, :] >= -tol
        delta = np.where(member, cost[None, :, :], np.inf).min(axis=2)
        return ((VP - delta) * weights[None, :]).sum(axis=1)

    return eval_batch


def _subregion_profit_reference(ctx, weights, tol):
    cost_free = ctx.cost[:, ctx.free]

    def eval_batch(G):
        W = np.min(cost_free[None, :, :] + G[:, None, :], axis=2)
        WC = np.min(cost_free[None, :, :] - W[:, :, None], axis=1)
        member = W[:, :, None] + WC[:, None, :] - cost_free[None, :, :] >= -tol
        delta = np.where(member, cost_free[None, :, :], np.inf).min(axis=2)
        captured = W <= ctx.v0[None, :] + tol
        return (np.where(captured, W - delta, 0.0) * weights[None, :]).sum(axis=1)

    return eval_batch


def _model_one_case(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 12))
    cost = eval_cost(random_kernel(rng, n), region_from_points(random_points(rng, n)))
    v0 = ct.value_table(rng.uniform(0.0, 1.5, n), cost)
    weights = rng.uniform(0.1, 2.0, n)
    G = rng.uniform(0.0, 1.5, (int(rng.integers(1, 40)), n))
    return (cost, v0, weights, ct.scale_tol(cost)), G


def _model_two_case(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 12))
    region = random_partitioned_region(rng, n, d=int(rng.integers(1, 3)))
    p0 = sp.PricePattern(np.where(region.mask == Mask.FIXED, rng.uniform(0.0, 2.0, n), 0.0))
    ctx = PartitionContext.build(region, random_kernel(rng, n), p0)
    weights = rng.uniform(0.1, 2.0, n)
    G = rng.uniform(0.0, 2.0, (int(rng.integers(1, 40)), ctx.free.size))
    return (ctx, weights, ctx.tol), G


def _boundary_control_objective(monkeypatch):
    """The boundary-control objective, captured on its way into the scan."""
    region = sp.build_grid_region(6, 6, fixed_box=((0.2, 0.8), (0.2, 0.8)))
    ctx = PartitionContext.build(region, sp.CostKernel.metric(1.0), sp.PricePattern.constant(36, 0.6))
    f = sp.CustomerMeasure(np.linspace(0.5, 1.5, 36))
    captured = {}

    class Captured(Exception):
        pass

    def scan(eval_batch, caps, levels, max_candidates, feasible=None):
        captured.update(eval_batch=eval_batch, caps=caps)
        raise Captured

    monkeypatch.setattr(model_two, "exhaustive_product", scan)
    with pytest.raises(Captured):
        model_two.solve_boundary_control(ctx, f, sp.SearchConfig(grid_n=3, levels=3))
    return captured["eval_batch"], captured["caps"]


def _assert_rows_independent(eval_batch, G):
    whole = eval_batch(G)
    alone = np.array([eval_batch(G[k : k + 1])[0] for k in range(len(G))])
    assert np.array_equal(alone, whole)
    assert np.array_equal(eval_batch(G[::-2]), whole[::-2])


@pytest.mark.parametrize("seed", range(25))
def test_value_profit_matches_one_expression_form(seed):
    args, G = _model_one_case(seed)
    eval_batch, _ = model_one._batch_value_profit(*args)
    assert np.array_equal(eval_batch(G), _value_profit_reference(*args)(G))


@pytest.mark.parametrize("seed", range(25))
def test_subregion_profit_matches_one_expression_form(seed):
    args, G = _model_two_case(seed)
    assert np.array_equal(model_two._batch_subregion_profit(*args)(G), _subregion_profit_reference(*args)(G))


@pytest.mark.parametrize("seed", range(10))
def test_row_scores_do_not_depend_on_the_batch(seed):
    args, G = _model_one_case(seed)
    _assert_rows_independent(model_one._batch_value_profit(*args)[0], G)
    args, G = _model_two_case(seed)
    _assert_rows_independent(model_two._batch_subregion_profit(*args), G)


def test_boundary_control_rows_do_not_depend_on_the_batch(monkeypatch):
    eval_batch, caps = _boundary_control_objective(monkeypatch)
    G = np.random.default_rng(0).uniform(0.0, 1.0, (33, caps.size)) * caps
    _assert_rows_independent(eval_batch, G)
