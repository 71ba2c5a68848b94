"""Solvers build the cost table at most once per call, and not at all from a
context; 1D distance contexts and 2D grid contexts build none."""

import json
import sys

import numpy as np
import pytest

import spatial_pricing as sp
from spatial_pricing import cli, ctransform, geometry, model_one, model_two, nash

from helpers import clamp_free_prices

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
    ctx = model_two.PartitionContext.build(region, METRIC, sp.PricePattern(np.full(15, 0.5)))
    f = sp.CustomerMeasure(np.linspace(0.5, 1.5, 15))
    p = ctx.full_prices(np.linspace(-0.1, 0.6, ctx.free.size))
    clamped = clamp_free_prices(p, ctx)
    w, _ = model_two.reformulate(clamped, ctx)
    builds.clear()
    model_two.solve_w_search(ctx, f, sp.SearchConfig(levels=4, multistarts=4))
    model_two.solve_w_search(ctx, f, sp.SearchConfig(mode=sp.SearchMode.EXHAUSTIVE, levels=2))
    model_two.solve_boundary_control(ctx, f, sp.SearchConfig(grid_n=21))
    model_two.one_d_reduction(0.3, 0.7, 0.5, ctx=ctx, f=f, grid_n=21)
    model_two.reformulate(clamped, ctx)
    model_two.profit_from_prices(clamped, ctx, f)
    model_two.profit_from_values(w, ctx, f)
    assert builds == []


def _line_distance_calls(tmp_path):
    """Every model-one and model-two entry point, and a Nash game context, on
    a 1D region under the distance cost."""
    n = 15
    line = sp.build_interval_region(n, 0.0, 1.0)
    window = sp.build_interval_region(n, 0.0, 1.0, fixed_window=(0.3, 0.7))
    f = sp.CustomerMeasure(np.linspace(0.5, 1.5, n))
    p0 = sp.PricePattern(np.linspace(0.4, 0.9, n))
    v = ctransform.value_table(p0.values, np.abs(line.points - line.points.T))
    two = lambda: model_two.PartitionContext.build(window, METRIC, sp.PricePattern(np.full(n, 0.5)))  # noqa: E731
    scenario = {
        "model": "two",
        "region": {"dimension": 1, "n": n, "fixed_window": [0.3, 0.7]},
        "cost": {"kind": "metric_power", "alpha": 1.0},
        "measure": {"kind": "uniform"},
        "fixed_price": {"kind": "constant", "value": 0.4},
        "solver": {"method": "one_d", "search": {"grid_n": 21}},
    }
    path = tmp_path / "one_d.json"
    path.write_text(json.dumps(scenario))
    return {
        "build": two,
        "whole": lambda: model_two.PartitionContext.whole(line, METRIC),
        "from_split": lambda: nash.GameContext.from_split(line, METRIC, 0.5, f),
        "solve_metric": lambda: model_one.solve_metric(p0, METRIC, line, f),
        "solve_general": lambda: model_one.solve_general(p0, METRIC, line, f, sp.SearchConfig(levels=3, multistarts=2)),
        "profit_from_prices": lambda: model_one.profit_from_prices(p0, METRIC, line, f),
        "profit_from_values": lambda: model_one.profit_from_values(v, METRIC, line, f),
        "boundary_control": lambda: model_two.solve_boundary_control(two(), f, sp.SearchConfig(grid_n=21)),
        "w_search": lambda: model_two.solve_w_search(two(), f, sp.SearchConfig(levels=3, multistarts=2)),
        "cli_one_d": lambda: cli.run(str(path), str(tmp_path / "out")),
    }


LINE_DISTANCE_CALLS = [
    "boundary_control", "build", "cli_one_d", "from_split", "profit_from_prices", "profit_from_values",
    "solve_general", "solve_metric", "w_search", "whole",
]


@pytest.mark.parametrize("name", LINE_DISTANCE_CALLS)
def test_line_distance_contexts_call_eval_cost_zero_times(builds, tmp_path, name):
    _line_distance_calls(tmp_path)[name]()
    assert builds == []


def _grid_calls(tmp_path):
    """Model-one and model-two entry points on a 2D grid, under every
    non-custom kernel."""
    grid = sp.build_grid_region(5, 4)
    box = sp.build_grid_region(6, 6, fixed_box=((0.3, 0.7), (0.3, 0.7)))
    half = sp.CostKernel.metric(0.5)
    f, g = sp.CustomerMeasure(np.linspace(0.5, 1.5, 20)), sp.CustomerMeasure(np.linspace(0.5, 1.5, 36))
    p0 = sp.PricePattern(np.linspace(0.4, 0.9, 20))
    two = lambda kernel: model_two.PartitionContext.build(box, kernel, sp.PricePattern(np.full(36, 0.5)))  # noqa: E731
    scenario = {
        "model": "one",
        "region": {"dimension": 2, "nx": 9, "ny": 9},
        "cost": {"kind": "metric_power", "alpha": 0.5},
        "measure": {"kind": "uniform"},
        "prices": {"p0": {"kind": "constant", "value": 1.0}},
        "solver": {"method": "metric_closed_form"},
    }
    path = tmp_path / "metric_2d.json"
    path.write_text(json.dumps(scenario))
    return {
        "solve_metric": lambda: model_one.solve_metric(p0, half, grid, f),
        "solve_general": lambda: model_one.solve_general(p0, QUADRATIC, grid, f, sp.SearchConfig(levels=3, multistarts=2)),
        "profit_from_prices": lambda: model_one.profit_from_prices(p0, QUADRATIC, grid, f),
        "w_search": lambda: model_two.solve_w_search(two(half), g, sp.SearchConfig(levels=3, multistarts=2)),
        "boundary_control": lambda: model_two.solve_boundary_control(two(METRIC), g, sp.SearchConfig(levels=3)),
        "cli_metric_2d": lambda: cli.run(str(path), str(tmp_path / "out")),
    }


@pytest.mark.parametrize("name", ["boundary_control", "cli_metric_2d", "profit_from_prices", "solve_general", "solve_metric", "w_search"])
def test_grid_contexts_call_eval_cost_zero_times(builds, tmp_path, name):
    _grid_calls(tmp_path)[name]()
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
    ctx = model_two.PartitionContext.build(region, METRIC, sp.PricePattern(np.full(15, 0.5)))
    w, _ = model_two.reformulate(ctx.full_prices(np.linspace(0.1, 0.6, ctx.free.size)), ctx)
    calls.clear()
    model_two.profit_from_values(w, ctx, f)
    assert len(calls) == 1
