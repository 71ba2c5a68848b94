"""The cost table of a full 2D grid, kept as per-axis codes and a small
table of entries (`geometry.GridCosts`), gives every key and every table
function the bytes of `eval_cost`'s dense table; points that are not a full
grid keep the dense table, 2D points outside eval_cost's exact range are
refused, and each table function writes all its blocks into one buffer."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spatial_pricing as sp
from spatial_pricing import cli, model_one
from spatial_pricing import ctransform as ct
from spatial_pricing import geometry
from spatial_pricing.geometry import GridCosts, LineDistances, cost_table

from helpers import region_from_points, table_outputs

KERNELS = [sp.CostKernel.metric(1.0), sp.CostKernel.metric(0.5), sp.CostKernel.metric(0.3), sp.CostKernel.quadratic()]
KERNEL_IDS = ["metric_1", "metric_half", "metric_0.3", "quadratic"]


@st.composite
def grid_instances(draw):
    """A grid of nx x ny points (2 to 12 each) with bounds of width 1/4 to
    16 at scales 2**-480 to 2**480, with offsets; quarter-step prices and
    values, to be scaled to the table's largest entry so that they tie
    exactly, with some +inf prices; index arrays with repeats and in any
    order, and a block budget that splits grid rows."""
    nx, ny = draw(st.integers(2, 12)), draw(st.integers(2, 12))
    n = nx * ny
    scale = 2.0 ** draw(st.integers(-480, 480))
    bounds = tuple(
        (lo * scale, (lo + width) * scale)
        for lo, width in (
            (draw(st.sampled_from([0.0, -1.0, 0.3, 1e6])), draw(st.sampled_from([0.25, 1.0, 3.0, 16.0]))) for _ in range(2)
        )
    )
    kernel = draw(st.sampled_from(KERNELS))
    quarters = lambda lo, hi: np.array(draw(st.lists(st.integers(lo, hi), min_size=n, max_size=n)), dtype=float) * 0.25  # noqa: E731
    prices, values, weights = quarters(0, 40), quarters(-8, 40), quarters(0, 8)
    prices[np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))] = np.inf
    within = np.flatnonzero(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    if within.size == 0:
        within = np.array([draw(st.integers(0, n - 1))])
    prices[within[0]] = 0.5
    point = st.integers(0, n - 1)
    idx = np.array(draw(st.lists(point, min_size=1, max_size=n)))
    start = draw(point)
    rows = slice(start, draw(st.integers(start, n)))
    block = draw(st.one_of(st.sampled_from([1, 7, 50, geometry.BLOCK_CELLS]), st.integers(1, 3 * n)))
    return nx, ny, bounds, kernel, prices, values, weights, within, idx, rows, draw(point), draw(point), block


@settings(max_examples=150, deadline=None)
@given(grid_instances())
def test_grid_table_gives_the_dense_tables_bytes(instance):
    nx, ny, bounds, kernel, prices, values, weights, within, idx, rows, i, j, block = instance
    region = sp.build_grid_region(nx, ny, bounds)
    table, dense = cost_table(kernel, region), sp.eval_cost(kernel, region)
    assert isinstance(table, GridCosts)
    assert repr(table.max()) == repr(dense.max()) and repr(table.min()) == repr(dense.min())
    keys = [rows, (rows, idx), (slice(None), idx), np.ix_(idx, within), idx, (slice(None), rows), (i, j), (i, idx), (slice(None), i), i]
    for key in keys:
        # a view of the dense table compares as its copy: C-ordered
        got, want = table[key], dense[key]
        assert type(got) is type(want), key
        want = np.copy(want, order="K")
        assert got.tobytes(order="A") == want.tobytes(order="A"), key
        assert (got.flags.c_contiguous, got.flags.f_contiguous) == (want.flags.c_contiguous, want.flags.f_contiguous), key
    assert np.asarray(table).tobytes() == dense.tobytes()
    cost_scale = float(dense.max())
    prices, values = prices * cost_scale, values * cost_scale
    saved = geometry.BLOCK_CELLS
    geometry.BLOCK_CELLS = block
    try:
        assert table_outputs(table, prices, values, within, weights) == table_outputs(dense, prices, values, within, weights)
    finally:
        geometry.BLOCK_CELLS = saved


@pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
def test_points_that_are_not_a_full_grid_keep_the_dense_table(kernel):
    grid = sp.build_grid_region(4, 3, ((0.0, 1.5), (-1.0, 1.0)))
    pts = grid.points
    assert isinstance(cost_table(kernel, grid), GridCosts)
    y_fastest = pts.reshape(3, 4, 2).transpose(1, 0, 2).reshape(-1, 2)
    others = {
        "y_fastest": y_fastest,
        "permuted": pts[np.random.default_rng(0).permutation(12)],
        "two_swapped": pts[[1, 0, *range(2, 12)]],
        "incomplete": pts[:-1],
        "short_row": np.delete(pts, 5, axis=0),
    }
    for name, points in others.items():
        region = region_from_points(points)
        table = cost_table(kernel, region)
        assert type(table) is np.ndarray, name
        assert table.tobytes() == sp.eval_cost(kernel, region).tobytes(), name


def test_2d_points_outside_the_exact_range_are_refused(tmp_path):
    low, high = geometry.RANGE_2D
    refused = {
        "tiny_x_gap": [[0.0, 0.0], [1e-170, 0.0], [1.0, 1.0]],
        "tiny_y_gap": [[0.0, 0.0], [0.0, np.nextafter(low, 0.0)]],
        "wide_x": [[0.0, 0.0], [high, 0.0]],
        "wide_y": [[0.0, -high / 2], [0.0, high / 2]],
        "tiny_grid": sp.build_grid_region(3, 3, ((0.0, 1e-160), (0.0, 1.0))).points,
    }
    for name, points in refused.items():
        region = region_from_points(points)
        for kernel in KERNELS:
            with pytest.raises(ValueError, match="2D points need every nonzero"):
                cost_table(kernel, region)
        # a custom table does not depend on the coordinates
        custom = sp.CostKernel.custom(np.ones((region.size, region.size)) - np.eye(region.size))
        assert cost_table(custom, region) is custom.table, name
    # the ends of the range, and repeated coordinates, are accepted
    edge = region_from_points([[0.0, 0.0], [low, 0.0], [low, 0.0], [0.0, np.nextafter(high, 0.0)]])
    assert cost_table(sp.CostKernel.metric(1.0), edge)[0, 1] == low
    scenario = {
        "model": "one",
        "region": {"dimension": 2, "nx": 3, "ny": 3, "bounds": [[0.0, 1e-160], [0.0, 1.0]]},
        "cost": {"kind": "metric_power", "alpha": 0.5},
        "measure": {"kind": "uniform"},
        "prices": {"p0": {"kind": "constant", "value": 1.0}},
        "solver": {"method": "metric_closed_form"},
    }
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(scenario))
    assert cli.run(str(path), str(tmp_path / "out")) == cli.EXIT_VALIDATION
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["line", "grid"])
def test_each_call_writes_its_blocks_into_one_buffer(monkeypatch, name):
    """Every block a table function reads from an on-demand table is
    written into the same buffer, allocated once for the call."""
    if name == "line":
        region, kernel = sp.build_interval_region(40, 0.0, 1.0), sp.CostKernel.metric(1.0)
    else:
        region, kernel = sp.build_grid_region(8, 5), sp.CostKernel.metric(0.5)
    cost = cost_table(kernel, region)
    assert isinstance(cost, (LineDistances, GridCosts))
    n = region.size
    rng = np.random.default_rng(0)
    prices, values = rng.uniform(0.2, 1.0, n), rng.uniform(0.0, 0.5, n)
    within = np.sort(rng.choice(n, n // 2, replace=False))
    tol = ct.scale_tol(cost)
    vc, vc_within = ct.c_transform_table(values, cost), ct.c_transform_table(values, cost, within)
    calls = {
        "value_table": lambda: ct.value_table(prices, cost),
        "value_table_within": lambda: ct.value_table(prices, cost, within),
        "c_transform_table": lambda: ct.c_transform_table(values, cost),
        "c_transform_table_within": lambda: ct.c_transform_table(values, cost, within),
        "double_transform_table": lambda: ct.double_transform_table(values, cost, None, vc),
        "double_transform_table_within": lambda: ct.double_transform_table(values, cost, within, vc_within),
        "assignment_table": lambda: ct.assignment_table(prices, cost, tol, within),
        "value_profit": lambda: ct._value_profit(values, cost, None, np.inf, np.ones(n), tol),
        "value_profit_within": lambda: ct._value_profit(values, cost, within, np.inf, np.ones(n), tol),
    }
    fill, addresses = type(cost).fill, []

    def recorded(self, rows, cols, out):
        addresses.append(out.ctypes.data)
        return fill(self, rows, cols, out)

    # blocks of three rows (or columns): several blocks per call
    monkeypatch.setattr(geometry, "BLOCK_CELLS", 3 * n)
    monkeypatch.setattr(type(cost), "fill", recorded)
    for call_name, call in calls.items():
        addresses.clear()
        with monkeypatch.context() as patch:
            if call_name.startswith("value_profit"):
                # the transport loop alone reads the table
                patch.setattr(ct, "c_transform_table", lambda values, cost, target=None: vc if target is None else vc_within)
                patch.setattr(ct, "is_c_concave_table", lambda *args: True)
            call()
        assert len(addresses) > 3, call_name
        assert len(set(addresses)) == 1, call_name


@pytest.mark.parametrize("nx, ny", [(41, 41), (801, 2)])
def test_metric_closed_form_on_a_grid_stays_within_the_block_budget(nx, ny):
    """The closed form and its report hold a few blocks, (n,) arrays and
    the grid table's index (nx x n entries), or while it is built three
    nx x nx temporaries, never the n x n table (21.6 MiB at 41 x 41).  On a
    thin grid that index is half the n x n table."""
    region = sp.build_grid_region(nx, ny)
    n = region.size
    rng = np.random.default_rng(0)
    p0 = sp.PricePattern(rng.uniform(0.2, 1.0, n))
    f = sp.CustomerMeasure(rng.uniform(0.5, 1.5, n))
    tracemalloc.start()
    try:
        model_one.solve_metric(p0, sp.CostKernel.metric(0.5), region, f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    bound = 4 * geometry.BLOCK_CELLS * 8 + 16 * 8 * n + max(nx * n + nx * nx, 3 * nx * nx) * 8
    assert bound < n * n * 8
    assert peak < bound, f"peak {peak / 2**20:.2f} MiB, bound {bound / 2**20:.2f} MiB"


def test_building_a_grid_context_imports_no_module():
    """A lazily imported module (np.unique imports numpy.ma) would add to
    every run's memory; checked in a fresh interpreter."""
    code = (
        "import sys; import spatial_pricing as sp; from spatial_pricing import model_two; "
        "before = set(sys.modules); "
        "model_two.PartitionContext.whole(sp.build_grid_region(9, 9), sp.CostKernel.metric(0.5)); "
        "print(sorted(set(sys.modules) - before))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(Path(sp.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert done.stdout.strip() == "[]"
