"""Solvers build the cost table at most once per call, and not at all from a context."""

import json
import sys

import numpy as np
import pytest

import spatial_pricing as sp
from spatial_pricing import cli, ctransform, geometry, model_one, model_two, nash

METRIC = sp.CostKernel.metric(1.0)
QUADRATIC = sp.CostKernel.quadratic()


@pytest.fixture
def builds(monkeypatch):
    """Sizes of the cost tables built, from every module that imports eval_cost."""
    calls = []
    original = geometry.eval_cost

    def counting(kernel, region):
        calls.append(region.size)
        return original(kernel, region)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "spatial_pricing" and getattr(module, "eval_cost", None) is original:
            monkeypatch.setattr(module, "eval_cost", counting)
    return calls


def _model_one_calls():
    region = sp.build_interval_region(7, 0.0, 1.0)
    f = sp.CustomerMeasure(np.linspace(0.5, 1.5, 7))
    p0 = sp.PricePattern(np.linspace(0.4, 0.9, 7))
    v = ctransform.value_table(p0.values, sp.eval_cost(QUADRATIC, region))
    return {
        "solve_metric": lambda: model_one.solve_metric(p0, METRIC, region, f),
        "solve_general_ascent": lambda: model_one.solve_general(
            p0, QUADRATIC, region, f, sp.SearchConfig(levels=4, multistarts=4)
        ),
        "solve_general_exhaustive": lambda: model_one.solve_general(
            p0, METRIC, region, f, sp.SearchConfig(mode=sp.SearchMode.EXHAUSTIVE, levels=3)
        ),
        "profit_from_prices": lambda: model_one.profit_from_prices(p0, QUADRATIC, region, f),
        "profit_from_values": lambda: model_one.profit_from_values(v, QUADRATIC, region, f),
    }


@pytest.mark.parametrize("name", sorted(_model_one_calls()))
def test_model_one_builds_the_table_once(builds, name):
    call = _model_one_calls()[name]
    builds.clear()
    call()
    assert len(builds) <= 1


def test_quadratic_reference_run_builds_the_table_once(builds, tmp_path):
    x = np.linspace(0, 1, 21)
    scen = {
        "model": "one",
        "region": {"dimension": 1, "n": 21, "bounds": [0, 1]},
        "cost": {"kind": "quadratic"},
        "measure": {"kind": "uniform"},
        "prices": {"p0": {"kind": "per_point", "values": list(x - x**2 / 2)}},
        "solver": {"method": "quadratic_reference"},
    }
    path = tmp_path / "quad.json"
    path.write_text(json.dumps(scen))
    assert cli.run(str(path), str(tmp_path / "out")) == cli.EXIT_OK
    assert len(builds) <= 1


def test_partition_context_calls_build_no_table(builds):
    region = sp.build_interval_region(15, 0.0, 1.0, fixed_window=(0.3, 0.7))
    ctx = model_two.PartitionContext.build(region, METRIC, sp.PricePattern.constant(15, 0.5))
    f = sp.CustomerMeasure(np.linspace(0.5, 1.5, 15))
    p = ctx.full_prices(np.linspace(-0.1, 0.6, ctx.free.size))
    clamped, _ = model_two.clamp_nonnegative(p, ctx, f)
    w, _ = model_two.reformulate(clamped, ctx, f)
    builds.clear()
    model_two.solve_w_search(ctx, f, sp.SearchConfig(levels=4, multistarts=4))
    model_two.solve_w_search(ctx, f, sp.SearchConfig(mode=sp.SearchMode.EXHAUSTIVE, levels=2))
    model_two.solve_boundary_control(ctx, f, sp.SearchConfig(grid_n=21))
    model_two.one_d_reduction(0.3, 0.7, 0.5, ctx=ctx, f=f, grid_n=21)
    model_two.clamp_nonnegative(p, ctx, f)
    model_two.reformulate(clamped, ctx, f)
    model_two.profit_from_prices(clamped, ctx, f)
    model_two.profit_from_values(w, ctx, f)
    assert builds == []


def test_game_context_calls_build_no_table(builds):
    region = sp.build_interval_region(15, 0.0, 1.0)
    ctx = nash.GameContext.from_split(region, METRIC, 0.5, sp.CustomerMeasure.uniform(15))
    builds.clear()
    cfg = nash.NashSearchConfig(grid_n=10)
    p, q = np.full(15, 0.6), np.full(15, 0.5)
    nash.payoffs(p, q, ctx)
    nash.best_response("A", q, ctx, cfg)
    nash.best_response_dynamics(p, q, ctx, 3, 1e-9, cfg)
    nash.verify_equilibrium(p, q, ctx, cfg)
    assert builds == []


def test_profit_from_values_transforms_once(monkeypatch):
    calls = []
    original = ctransform.c_transform_table

    def counting(values, cost, target=None):
        calls.append(values.shape)
        return original(values, cost, target)

    monkeypatch.setattr(ctransform, "c_transform_table", counting)
    region = sp.build_interval_region(15, 0.0, 1.0, fixed_window=(0.3, 0.7))
    f = sp.CustomerMeasure(np.linspace(0.5, 1.5, 15))
    v = ctransform.value_table(np.linspace(0.4, 0.9, 15), sp.eval_cost(QUADRATIC, region))
    model_one.profit_from_values(v, QUADRATIC, region, f)
    assert len(calls) == 1
    ctx = model_two.PartitionContext.build(region, METRIC, sp.PricePattern.constant(15, 0.5))
    w, _ = model_two.reformulate(ctx.full_prices(np.linspace(0.1, 0.6, ctx.free.size)), ctx, f)
    calls.clear()
    model_two.profit_from_values(w, ctx, f)
    assert len(calls) == 1
