"""The search solvers share one start set-up and one diagnostics shape."""

import numpy as np
import pytest

import spatial_pricing as sp
from spatial_pricing import model_one, model_two
from spatial_pricing._search import SearchConfig, SearchMode, coordinate_ascent, seeded_starts

SEARCH_KEYS = {
    SearchMode.ASCENT: {"mode", "evaluations", "starts"},
    SearchMode.EXHAUSTIVE: {"mode", "evaluations", "levels", "search_space"},
}
ALL_SEARCH_KEYS = set().union(*SEARCH_KEYS.values())


def _window(n=11):
    region = sp.build_interval_region(n, 0.0, 1.0, fixed_window=(0.3, 0.7))
    ctx = model_two.PartitionContext.build(region, sp.CostKernel.metric(1.0), sp.PricePattern.constant(n, 0.5))
    return ctx, sp.CustomerMeasure(np.linspace(0.5, 1.5, n))


def _solve(solver, mode):
    if solver == "solve_general":
        region = sp.build_interval_region(5, 0.0, 1.0)
        f = sp.CustomerMeasure.uniform(5)
        cfg = SearchConfig(mode=mode, levels=3, multistarts=6)
        return model_one.solve_general(sp.PricePattern.constant(5, 0.8), sp.CostKernel.quadratic(), region, f, cfg)
    ctx, f = _window()
    if solver == "solve_w_search":
        return model_two.solve_w_search(ctx, f, SearchConfig(mode=mode, levels=3, multistarts=6))
    # boundary control scans exhaustively whenever the grid fits the budget
    budget = 10**4 if mode is SearchMode.EXHAUSTIVE else 10
    cfg = SearchConfig(grid_n=11, levels=11, multistarts=6, max_candidates=budget)
    return model_two.solve_boundary_control(ctx, f, cfg)


@pytest.mark.parametrize("mode", list(SearchMode))
@pytest.mark.parametrize("solver", ["solve_general", "solve_w_search", "solve_boundary_control"])
def test_diagnostics_shape(solver, mode):
    diag = _solve(solver, mode).diagnostics
    assert set(diag) & ALL_SEARCH_KEYS == SEARCH_KEYS[mode]
    assert diag["mode"] == mode.value
    if mode is SearchMode.ASCENT:
        assert diag["starts"] == 6
    else:
        assert 0 < diag["evaluations"] <= diag["search_space"]


def test_seeded_starts_are_deterministic():
    caps = np.array([0.5, 1.0, 2.0])
    cfg = SearchConfig(multistarts=7, seed=3)
    extra = np.array([0.1, 0.2, 0.3])
    a, b = seeded_starts(caps, cfg, extra), seeded_starts(caps, cfg, extra)
    assert len(a) == 7
    assert all(np.array_equal(u, v) for u, v in zip(a, b))
    assert np.array_equal(a[1], caps) and np.array_equal(a[3], extra)
    assert all(((u >= 0) & (u <= caps)).all() for u in a)


def test_ascent_with_zero_caps_returns_zero():
    caps = np.zeros(3)
    cfg = SearchConfig(multistarts=4)
    u, val, diag = coordinate_ascent(lambda U: -U.sum(axis=1), caps, seeded_starts(caps, cfg), cfg)
    assert np.array_equal(u, caps) and val == 0.0
    assert diag == {"mode": "ascent", "evaluations": 4, "starts": 4}
