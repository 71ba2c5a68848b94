"""The distance table of 1D points, computed block by block as it is read
(`geometry.LineDistances`), gives every table function the bytes of
`eval_cost`'s dense table, and a context keeps no n x n array with it."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spatial_pricing as sp
from spatial_pricing import geometry, model_one, model_two
from spatial_pricing.geometry import LineDistances, cost_table

from helpers import region_from_points, table_outputs

METRIC = sp.CostKernel.metric(1.0)


@st.composite
def line_instances(draw):
    """Unsorted 1D points on a grid of spacing 2**e (e from -1074 to 1000:
    from subnormal spacings up to extents of about 2**1020, where the
    points, their differences and the prices stay finite), with repeated
    points, jitter and an offset; prices and values on the same scale in
    quarter steps, so they tie exactly, with some +inf prices."""
    n = draw(st.integers(1, 24))
    e = draw(st.integers(-1074, 1000))
    scale = 2.0**e
    ticks = draw(st.lists(st.integers(-16, 16), min_size=n, max_size=n))
    jitter = draw(st.lists(st.sampled_from([0.0, 0.0, 0.1, 1 / 3, 0.7071]), min_size=n, max_size=n))
    offset = draw(st.sampled_from([0.0, 1.0, -3.5, 1e6]))
    x = (np.array(ticks, dtype=float) + np.array(jitter) + offset) * scale
    quarters = lambda lo, hi: np.array(draw(st.lists(st.integers(lo, hi), min_size=n, max_size=n)), dtype=float)  # noqa: E731
    prices = quarters(0, 40) * 0.25 * scale
    prices[np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))] = np.inf
    within = np.flatnonzero(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    if within.size == 0:
        within = np.array([draw(st.integers(0, n - 1))])
    prices[within[0]] = 0.5 * scale  # a finite price in the candidate set
    values = quarters(-8, 40) * 0.25 * scale
    weights = quarters(0, 8) * 0.25
    block = draw(st.sampled_from([1, 7, 50, geometry.BLOCK_CELLS]))
    return x, prices, values, within, weights, block


@settings(max_examples=150, deadline=None)
@given(line_instances())
def test_table_functions_give_the_dense_tables_bytes(instance):
    x, prices, values, within, weights, block = instance
    region = region_from_points(x)
    dense = sp.eval_cost(METRIC, region)
    table = cost_table(METRIC, region)
    assert isinstance(table, LineDistances)
    saved = geometry.BLOCK_CELLS
    geometry.BLOCK_CELLS = block
    try:
        assert table_outputs(table, prices, values, within, weights) == table_outputs(dense, prices, values, within, weights)
    finally:
        geometry.BLOCK_CELLS = saved


@pytest.mark.parametrize("seed", range(4))
def test_blocks_have_the_bytes_and_layout_of_numpys_indexing(seed):
    """Each key the table functions use gives the dense table's bytes, in
    the layout numpy gives that index: `t[:, idx]` is F-contiguous."""
    rng = np.random.default_rng(seed)
    n = 13
    region = region_from_points(rng.uniform(-2.0, 5.0, n))
    table, dense = cost_table(METRIC, region), sp.eval_cost(METRIC, region)
    assert isinstance(table, LineDistances)
    idx = np.sort(rng.choice(n, 5, replace=False))
    keys = [slice(2, 9), (slice(2, 9), idx), (slice(None), idx), np.ix_(idx, idx), (slice(None), slice(3, 8)), idx]
    for key in keys:
        # a view of the dense table compares as its copy: C-ordered
        got, want = table[key], np.copy(dense[key], order="K")
        assert got.tobytes(order="A") == want.tobytes(order="A")
        assert (got.flags.c_contiguous, got.flags.f_contiguous) == (want.flags.c_contiguous, want.flags.f_contiguous)
    assert np.asarray(table).tobytes() == dense.tobytes() and np.asarray(table).flags.c_contiguous
    assert repr(table.max()) == repr(dense.max()) and repr(table.min()) == repr(dense.min())


def test_line_entries_are_the_distance_at_every_scale():
    """A 1D distance context's entry is |x - y| at any scale, also where
    eval_cost's sqrt(d*d) underflows to 0.0 or overflows to +inf."""
    tiny = (1.0 + 2.0**-52) * 2.0**-530
    huge = 2.0**1000
    for points, gap in [([0.0, tiny, 1.0], tiny), ([5e-324, 0.0], 5e-324), ([-huge, huge], 2 * huge)]:
        table = cost_table(METRIC, region_from_points(points))
        assert isinstance(table, LineDistances)
        assert table[0, 1] == table[1, 0] == gap
        x = np.array(points)
        assert np.asarray(table).tobytes() == np.abs(x[:, None] - x).tobytes()
    # custom tables, other kernels in 1D, and 2D points that are not a full
    # grid keep eval_cost's table
    line = sp.build_interval_region(5, 0.0, 1.0)
    scattered = region_from_points([[0.0, 0.0], [1.0, 0.0], [0.5, 0.75]])
    for kernel, region in [
        (sp.CostKernel.custom(np.abs(np.arange(5.0)[:, None] - np.arange(5.0))), line),
        (sp.CostKernel.metric(0.5), line),
        (sp.CostKernel.quadratic(), line),
        (METRIC, scattered),
        (sp.CostKernel.quadratic(), scattered),
    ]:
        assert type(cost_table(kernel, region)) is np.ndarray


def test_scalar_keys_and_unsupported_keys():
    """Integer keys give eval_cost's entries and rows; a key the table does
    not support raises TypeError instead of a wrong shape."""
    region = region_from_points([0.25, -1.5, 3.0, 0.75])
    table, dense = cost_table(METRIC, region), sp.eval_cost(METRIC, region)
    for key in [(2, 1), (np.int64(0), 3), 1, (slice(None), 2), (2, np.array([0, 3]))]:
        assert np.asarray(table[key]).tobytes() == np.asarray(dense[key]).tobytes()
    assert type(table[2, 1]) is np.float64
    for key in [Ellipsis, (Ellipsis, 1), (None, 1), (1, 2, 3), np.array([0.5])]:
        with pytest.raises(TypeError, match="LineDistances takes"):
            table[key]


def test_contexts_keep_the_table_by_kernel_and_dimension():
    line = sp.build_interval_region(9, 0.0, 1.0, fixed_window=(0.3, 0.7))
    p0 = sp.PricePattern(np.full(9, 0.4))
    assert isinstance(model_two.PartitionContext.build(line, METRIC, p0).cost, LineDistances)
    assert isinstance(model_two.PartitionContext.whole(line, METRIC).cost, LineDistances)
    assert type(model_two.PartitionContext.whole(line, sp.CostKernel.quadratic()).cost) is np.ndarray
    assert isinstance(sp.GameContext.from_split(line, METRIC, 0.5, sp.CustomerMeasure.uniform(9)).cost, LineDistances)
    assert type(sp.GameContext.from_split(line, sp.CostKernel.quadratic(), 0.5, sp.CustomerMeasure.uniform(9)).cost) is np.ndarray


def test_metric_closed_form_stays_within_the_block_budget():
    """At n = 2001 the closed form and its report hold a few blocks and
    (n,) arrays, not the 30.5 MiB table."""
    n = 2001
    region = sp.build_interval_region(n, 0.0, 1.0)
    rng = np.random.default_rng(0)
    p0 = sp.PricePattern(rng.uniform(0.2, 1.0, n))
    f = sp.CustomerMeasure(rng.uniform(0.5, 1.5, n))
    tracemalloc.start()
    try:
        model_one.solve_metric(p0, METRIC, region, f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    bound = 4 * geometry.BLOCK_CELLS * 8 + 16 * 8 * n
    assert peak < bound, f"peak {peak / 2**20:.2f} MiB, bound {bound / 2**20:.2f} MiB"
