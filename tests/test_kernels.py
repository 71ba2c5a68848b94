"""The batched search objectives: the membership test built in one buffer
gives the same scores as the one-expression form, and a row's score does not
depend on the other rows of its batch, which the coordinate ascent's score
reuse and the memory budget's row slices rest on; the value-keyed memo
returns the dense objective's scores."""

import tracemalloc

import numpy as np
import pytest

import spatial_pricing as sp
from spatial_pricing import GameContext, Mask, PartitionContext, _search, model_one, model_two, nash
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
    return _captured_objective(monkeypatch, ctx, f, sp.SearchConfig(grid_n=3, levels=3))


def _captured_objective(monkeypatch, ctx, f, search):
    captured = {}

    class Captured(Exception):
        pass

    def scan(eval_batch, caps, levels, max_candidates, feasible=None):
        captured.update(eval_batch=eval_batch, caps=caps)
        raise Captured

    monkeypatch.setattr(model_two, "exhaustive_product", scan)
    with pytest.raises(Captured):
        model_two.solve_boundary_control(ctx, f, search)
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


def _transport_one_batch_axis(V, VC, cols, tol):
    """The inline form the batched objectives used before the shared helper."""
    gap = V[:, :, None] + VC[:, None, :]
    gap -= cols[None, :, :]
    member = gap >= -tol
    del gap
    return np.where(member, cols[None, :, :], np.inf).min(axis=2)


@pytest.mark.parametrize("lead", [(), (7,), (3, 4)])
@pytest.mark.parametrize("seed", range(15))
def test_transport_matches_the_inline_form(seed, lead):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 10))
    cost = eval_cost(random_kernel(rng, n), region_from_points(random_points(rng, n)))
    cols = cost[:, np.sort(rng.choice(n, int(rng.integers(1, n + 1)), replace=False))]
    m = cols.shape[1]
    G = 0.25 * rng.integers(0, 5, (*lead, m))  # quantized: ties in the superdifferential
    V = np.min(cols + G[..., None, :], axis=-1)
    VC = np.min(cols - V[..., :, None], axis=-2)
    VC[..., : m // 2] -= 0.1 * rng.integers(0, 2, (*lead, m // 2))  # some sets shrink or empty
    tol = ct.scale_tol(cost)
    flat = _transport_one_batch_axis(V.reshape(-1, n), VC.reshape(-1, m), cols, tol)
    assert np.array_equal(ct._transport(V, VC, cols, tol), flat.reshape(V.shape))


def _model_one_value_profit_instances():
    """The value functions of test_model_one's reduction identities (seeds 8 and 9)."""
    rng = np.random.default_rng(8)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        region = region_from_points(random_points(rng, n))
        kern = random_kernel(rng, n)
        f = sp.CustomerMeasure(rng.uniform(0, 1, n))
        yield ct.value_table(rng.uniform(0, 2, n), sp.eval_cost(kern, region)), kern, region, f
    rng = np.random.default_rng(9)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        region = region_from_points(random_points(rng, n))
        kern = random_kernel(rng, n)
        cost = sp.eval_cost(kern, region)
        f = sp.CustomerMeasure(rng.uniform(0, 1, n))
        yield np.min(cost + rng.uniform(0, 2, n)[None, :], axis=1), kern, region, f


def _model_two_value_profit_instances():
    """The reformulated value functions of test_model_two's TestValueProfit (seed 4)."""
    rng = np.random.default_rng(4)
    for _ in range(30):
        n = int(rng.integers(3, 8))
        region = random_partitioned_region(rng, n)
        kern = random_kernel(rng, n)
        p0 = sp.PricePattern(np.where(region.mask == Mask.FIXED, rng.uniform(0.0, 2.0, n), 0.0))
        ctx = PartitionContext.build(region, kern, p0)
        f = sp.CustomerMeasure(rng.uniform(0, 1, n))
        w, _ = model_two.reformulate(ctx.full_prices(rng.uniform(0.0, 2.0, ctx.free.size)), ctx, f)
        yield w, ctx, f


def test_model_one_value_profit_equals_the_mask_form():
    for values, kern, region, f in _model_one_value_profit_instances():
        cost = eval_cost(kern, region)
        member = ct.superdifferential_mask(values, cost)
        expected = float(np.dot(f.weights, values - np.where(member, cost, np.inf).min(axis=1)))
        assert model_one.profit_from_values(values, kern, region, f) == expected


def test_model_two_value_profit_equals_the_mask_form():
    for values, ctx, f in _model_two_value_profit_instances():
        member = ct.superdifferential_mask(values, ctx.cost, ctx.free)
        delta = np.where(member, ctx.cost[:, ctx.free], np.inf).min(axis=1)
        captured = values <= ctx.v0 + ctx.tol
        expected = float(np.dot(f.weights, np.where(captured, values - delta, 0.0)))
        assert model_two.profit_from_values(values, ctx, f) == expected


def test_within_budget_slices_rows(monkeypatch):
    monkeypatch.setattr(_search, "CELL_BUDGET", 10)
    sizes = []

    def eval_batch(batch):
        sizes.append(len(batch))
        return batch.sum(axis=1)

    batch = np.arange(20.0).reshape(10, 2)
    assert np.array_equal(_search.within_budget(eval_batch, 1, 3)(batch), batch.sum(axis=1))
    assert sizes == [3, 3, 3, 1]
    sizes.clear()
    _search.within_budget(eval_batch, 4, 4)(batch)  # 16 cells per row: one row per call
    assert sizes == [1] * 10


def _nash_payoff_case(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 15))
    region = sp.build_interval_region(n, 0.0, 1.0)
    ctx = GameContext.from_split(region, random_kernel(rng, n), 0.5, sp.CustomerMeasure(rng.uniform(0.1, 1.0, n)))
    my_idx, opp_idx = ctx.indices("A"), ctx.indices("B")
    opp_offer = ct.value_table(rng.uniform(0.0, 1.0, n), ctx.cost, opp_idx)
    P = 0.1 * rng.integers(0, 8, (int(rng.integers(1, 40)), my_idx.size))
    return (ctx, my_idx, opp_offer, ctx.tie_home("A"), ctx.tol), P


@pytest.mark.parametrize("seed", range(5))
def test_scores_do_not_depend_on_the_budget(monkeypatch, seed):
    one_args, G1 = _model_one_case(seed)
    two_args, G2 = _model_two_case(seed)
    nash_args, P = _nash_payoff_case(seed)
    objectives = [
        (lambda: model_one._batch_value_profit(*one_args)[0], G1),
        (lambda: model_two._batch_subregion_profit(*two_args), G2),
        (lambda: nash._player_payoff_batch(*nash_args), P),
    ]
    caps = _boundary_control_objective(monkeypatch)[1]
    G = np.random.default_rng(seed).uniform(0.0, 1.0, (33, caps.size)) * caps
    objectives.append((lambda: _boundary_control_objective(monkeypatch)[0], G))
    for build, batch in objectives:
        monkeypatch.setattr(_search, "CELL_BUDGET", 1 << 40)
        whole = build()(batch)
        monkeypatch.setattr(_search, "CELL_BUDGET", 1)  # one row per call
        assert np.array_equal(build()(batch), whole)


def test_boundary_control_memory_stays_within_the_budget(monkeypatch):
    # 1D window (0.3, 0.7), n = 81: a 4096-row batch spans 4096 x 81 x 50
    # cells, about four budgets, so it is scored in slices
    region = sp.build_interval_region(81, 0.0, 1.0, fixed_window=(0.3, 0.7))
    ctx = PartitionContext.build(region, sp.CostKernel.metric(1.0), sp.PricePattern.constant(81, 0.4))
    eval_batch, caps = _captured_objective(monkeypatch, ctx, sp.CustomerMeasure.uniform(81), sp.SearchConfig())
    G = np.random.default_rng(0).uniform(0.0, 1.0, (4096, caps.size)) * caps
    tracemalloc.start()
    try:
        eval_batch(G)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * _search.CELL_BUDGET * 8


# The value-keyed memo behind the three objectives


def _count_scored(monkeypatch, module):
    """Route `module`'s memoized objectives through a counter of the rows
    their `score` sees; the counter also keeps the last (value, score) pair."""
    record = {"rows": 0}

    def counted(value, score, n, m):
        def counted_score(V):
            record["rows"] += len(V)
            return score(V)

        record.update(value=value, score=score, n=n, m=m)
        return _search.scored_by_value(value, counted_score, n, m)

    monkeypatch.setattr(module, "scored_by_value", counted)
    return record


def _dense(monkeypatch, module):
    """Build `module`'s objectives without the memo: score(value(G)) on every row."""
    monkeypatch.setattr(module, "scored_by_value", lambda value, score, n, m: lambda G: score(value(G)))


def _ascent_batches(rng, caps, inactive, count=6):
    """Batches as the coordinate ascent asks for them: a quantized base row
    with one coordinate moved to its neighbours, to 0 and to two prices at
    which the generator is nowhere the argmin, which repeat one value."""
    for _ in range(count):
        base = np.minimum(0.25 * rng.integers(0, 8, caps.size), caps)
        for i in range(caps.size):
            batch = np.repeat(base[None, :], 5, axis=0)
            batch[:, i] = [max(base[i] - 0.25, 0.0), base[i] + 0.25, 0.0, inactive, 2 * inactive]
            yield batch


def _memo_cases(monkeypatch, seed):
    """(memoized objective, dense oracle, batches, score counter) of all three objectives."""
    rng = np.random.default_rng(100 + seed)
    (cost, v0, weights, tol), _ = _model_one_case(seed)
    v0 = 0.5 * v0  # the clip at v0 binds on many rows
    record = _count_scored(monkeypatch, model_one)
    one = model_one._batch_value_profit(cost, v0, weights, tol)[0]
    inactive = 2.0 * cost.max() + 4.0
    yield one, _value_profit_reference(cost, v0, weights, tol), list(_ascent_batches(rng, np.full(len(v0), 2.0), inactive)), record

    args, _ = _model_two_case(seed)
    record = _count_scored(monkeypatch, model_two)
    two = model_two._batch_subregion_profit(*args)
    inactive = 2.0 * args[0].cost.max() + 4.0
    yield two, _subregion_profit_reference(*args), list(_ascent_batches(rng, np.full(args[0].free.size, 2.0), inactive)), record

    record = _count_scored(monkeypatch, model_two)
    bc, caps = _boundary_control_objective(monkeypatch)
    with monkeypatch.context() as patch:
        _dense(patch, model_two)
        dense = _boundary_control_objective(patch)[0]
    yield bc, dense, list(_ascent_batches(rng, caps, 10.0)), record


@pytest.mark.parametrize("seed", range(8))
def test_memo_matches_the_dense_objective(monkeypatch, seed):
    for memoized, oracle, batches, record in _memo_cases(monkeypatch, seed):
        asked = 0
        for batch in batches + batches[::-3]:
            assert np.array_equal(memoized(batch), oracle(batch))
            asked += len(batch)
        assert 0 < record["rows"] < asked


def _keys(V):
    """Value bytes of each row, in order of first appearance."""
    return list(dict.fromkeys(row.tobytes() for row in V))


def test_memo_keys_on_value_bytes_not_on_value_equality(monkeypatch):
    for _memoized, _oracle, batches, record in _memo_cases(monkeypatch, 0):
        # the captured pair, memoized over the value functions themselves
        value, score = record["value"], record["score"]
        V = value(np.concatenate(batches))
        flipped = V.copy()
        flipped[flipped == 0.0] = -0.0
        scored = []
        by_value = _search.scored_by_value(lambda W: W, lambda W: scored.append(len(W)) or score(W), record["n"], record["m"])
        first, second = by_value(V), by_value(flipped)
        assert np.array_equal(first, second)
        assert np.array_equal(first, score(V))
        # equal values, other bytes: a miss, never another score
        other = set(_keys(flipped)) - set(_keys(V))
        assert other
        assert sum(scored) == len(_keys(V)) + len(other)


def test_memo_scores_a_batch_larger_than_itself(monkeypatch):
    args, G = _model_one_case(3)
    n = len(args[1])
    monkeypatch.setattr(_search, "MEMO_CELLS", 2 * n)  # two entries
    record = _count_scored(monkeypatch, model_one)
    memoized = model_one._batch_value_profit(*args)[0]
    G = np.concatenate([G, G[:5]])
    keys = _keys(record["value"](G))
    assert len(keys) > 2
    expected = _value_profit_reference(*args)(G)
    assert np.array_equal(memoized(G), expected)
    assert record["rows"] == len(keys)
    # first in, first out: the first value was evicted, the last one kept
    assert np.array_equal(memoized(G[:1]), expected[:1]) and record["rows"] == len(keys) + 1
    last = [row.tobytes() for row in record["value"](G)].index(keys[-1])
    assert np.array_equal(memoized(G[last : last + 1]), expected[last : last + 1])
    assert record["rows"] == len(keys) + 1


def test_repeats_inside_a_batch_are_scored_once(monkeypatch):
    for memoized, oracle, batches, record in _memo_cases(monkeypatch, 1):
        batch = np.concatenate(batches[:3])[[0, 5, 10, 0, 5, 0, 11]]
        assert np.array_equal(memoized(batch), oracle(batch))
        assert record["rows"] == len(_keys(record["value"](batch))) < len(batch)
