"""The batched search objectives: the membership test built in one buffer
gives the same scores as the one-expression form, and a row's score does not
depend on the other rows of its batch, which the coordinate ascent's score
reuse and the memory budget's row slices rest on; the value-keyed memo
returns the dense objective's scores."""

import gc
import math
import weakref

import numpy as np
import pytest

import spatial_pricing as sp
from spatial_pricing import GameContext, Mask, PartitionContext, _search, geometry, model_one, model_two, nash
from spatial_pricing import ctransform as ct
from spatial_pricing.geometry import eval_cost

from helpers import checked_reformulate, dense_superdifferential_mask, peak_budgets, plain_objective, random_kernel, random_partitioned_region, random_points, region_from_points


def _general_profit_reference(cost, p0, weights, tol):
    """Model one's objective as one expression: the value of the generator
    prices clamped at the bound, scored directly."""

    def eval_batch(G):
        V = np.min(cost[None, :, :] + np.minimum(G, p0[None, :])[:, None, :], axis=2)
        VC = np.min(cost[None, :, :] - V[:, :, None], axis=1)
        member = V[:, :, None] + VC[:, None, :] - cost[None, :, :] >= -tol
        delta = np.where(member, cost[None, :, :], np.inf).min(axis=2)
        return ((V - delta) * weights[None, :]).sum(axis=1)

    return eval_batch


def _reprojected_profit_reference(cost, v0, weights, tol):
    """Model one's former objective: the value clipped to [0, v0], then
    re-projected by a double transform before scoring."""

    def eval_batch(G):
        V = np.min(cost[None, :, :] + G[:, None, :], axis=2)
        V = np.clip(V, 0.0, v0[None, :])
        VC = np.min(cost[None, :, :] - V[:, :, None], axis=1)
        VP = np.min(cost[None, :, :] - VC[:, None, :], axis=2)
        member = VP[:, :, None] + VC[:, None, :] - cost[None, :, :] >= -tol
        delta = np.where(member, cost[None, :, :], np.inf).min(axis=2)
        return ((VP - delta) * weights[None, :]).sum(axis=1)

    return eval_batch


def _subregion_score_reference(ctx, weights, tol):
    """Profit of each value function W (B, n) generated on the free part."""
    cost_free = ctx.cost[:, ctx.free]

    def score(W):
        WC = np.min(cost_free[None, :, :] - W[:, :, None], axis=1)
        member = W[:, :, None] + WC[:, None, :] - cost_free[None, :, :] >= -tol
        delta = np.where(member, cost_free[None, :, :], np.inf).min(axis=2)
        captured = W <= ctx.v0[None, :] + tol
        return (np.where(captured, W - delta, 0.0) * weights[None, :]).sum(axis=1)

    return score


def _subregion_profit_reference(ctx, weights, tol):
    cost_free = ctx.cost[:, ctx.free]
    score = _subregion_score_reference(ctx, weights, tol)
    return lambda G: score(np.min(cost_free[None, :, :] + G[:, None, :], axis=2))


def _model_one_case(seed):
    """(bound, kernel, region, weights) of a seeded model-one instance, and generator prices."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 12))
    kernel, region = random_kernel(rng, n), region_from_points(random_points(rng, n))
    p0 = rng.uniform(0.0, 1.5, n)
    weights = rng.uniform(0.1, 2.0, n)
    G = rng.uniform(0.0, 1.5, (int(rng.integers(1, 40)), n))
    return (p0, kernel, region, weights), G


def _general_objective(monkeypatch, p0, kernel, region, weights):
    """`solve_general`'s objective, captured on its way into the ascent."""
    f = sp.CustomerMeasure(weights)
    return _capture(monkeypatch, model_one, lambda: model_one.solve_general(sp.PricePattern(p0), kernel, region, f))[0]


def _general_reference(p0, kernel, region, weights):
    cost = eval_cost(kernel, region)
    return _general_profit_reference(cost, p0, weights, ct.scale_tol(cost))


def _model_two_case(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 12))
    region = random_partitioned_region(rng, n, d=int(rng.integers(1, 3)))
    p0 = sp.PricePattern(np.where(region.mask == Mask.FIXED, rng.uniform(0.0, 2.0, n), 0.0))
    ctx = PartitionContext.build(region, random_kernel(rng, n), p0)
    weights = rng.uniform(0.1, 2.0, n)
    G = rng.uniform(0.0, 2.0, (int(rng.integers(1, 40)), ctx.free.size))
    return (ctx, weights, ctx.tol), G


def _subregion_objective(ctx, weights, tol):
    """`solve_w_search`'s objective over the free columns, from the one
    constructor; `tol` is the context's own."""
    cost_free = ctx.cost[:, ctx.free]
    return model_two._generator_objective(ctx, sp.CustomerMeasure(weights), cost_free, _search.ValueMap(cost_free))


def _boundary_control_objective(monkeypatch, max_candidates=2_000_000):
    """The boundary-control objective, captured on its way into the scan, or
    into the ascent when the scan does not fit `max_candidates`."""
    region = sp.build_grid_region(6, 6, fixed_box=((0.2, 0.8), (0.2, 0.8)))
    ctx = PartitionContext.build(region, sp.CostKernel.metric(1.0), sp.PricePattern(np.full(36, 0.6)))
    f = sp.CustomerMeasure(np.linspace(0.5, 1.5, 36))
    return _captured_objective(monkeypatch, ctx, f, sp.SearchConfig(grid_n=3, levels=3, max_candidates=max_candidates))


def _captured_objective(monkeypatch, ctx, f, search):
    return _capture(monkeypatch, model_two, lambda: model_two.solve_boundary_control(ctx, f, search))


def _capture(monkeypatch, module, solve):
    """(objective, caps) that `solve()` hands to `module`'s search."""
    captured = {}

    class Captured(Exception):
        pass

    def scan(eval_batch, caps, *args, **kwargs):
        captured.update(eval_batch=eval_batch, caps=caps)
        raise Captured

    monkeypatch.setattr(module, "exhaustive_product", scan)
    monkeypatch.setattr(module, "coordinate_ascent", scan)
    with pytest.raises(Captured):
        solve()
    return captured["eval_batch"], captured["caps"]


def _assert_rows_independent(eval_batch, G):
    whole = eval_batch(G)
    alone = np.array([eval_batch(G[k : k + 1])[0] for k in range(len(G))])
    assert np.array_equal(alone, whole)
    assert np.array_equal(eval_batch(G[::-2]), whole[::-2])


@pytest.mark.parametrize("seed", range(25))
def test_value_profit_matches_one_expression_form(monkeypatch, seed):
    args, G = _model_one_case(seed)
    got = _general_objective(monkeypatch, *args)(G)
    assert np.array_equal(got, _general_reference(*args)(G))


@pytest.mark.parametrize("first", range(0, 400, 50))
def test_value_profit_stays_within_the_slack_of_the_reprojected_form(monkeypatch, first):
    # the clip at v0 and the double transform are identities in exact
    # arithmetic, so the former objective differs only by rounding
    equal = 0
    for seed in range(first, first + 50):
        (p0, kernel, region, weights), G = _model_one_case(seed)
        cost = eval_cost(kernel, region)
        tol = ct.scale_tol(cost)
        got = _general_objective(monkeypatch, p0, kernel, region, weights)(G)
        former = _reprojected_profit_reference(cost, ct.value_table(p0, cost), weights, tol)(G)
        assert np.all(np.abs(got - former) <= ct._check_slack(tol, weights.sum()))
        equal += np.array_equal(got, former)
    assert equal > 0


@pytest.mark.parametrize("first", range(0, 400, 50))
def test_clamped_generators_give_the_clipped_value_bits(first):
    # costs and generator prices are >= 0, so the clip at 0 never binds, and
    # min(min_y (c + g), v0) = min_y (c + min(g, p0)): rounding is monotone
    for seed in range(first, first + 50):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        cost = eval_cost(random_kernel(rng, n), region_from_points(random_points(rng, n, d=1 + seed % 2)))
        p0 = rng.uniform(0.0, 1.5, n)
        p0[rng.uniform(size=n) < 0.2] = np.inf
        if np.isinf(p0).all():
            p0[0] = 0.5
        G = 0.25 * rng.integers(0, 7, (int(rng.integers(1, 40)), n)) if seed % 2 else rng.uniform(0.0, 1.5, (7, n))
        clamped = np.min(cost + np.minimum(G, p0)[..., None, :], axis=-1)
        clipped = np.clip(np.min(cost + G[..., None, :], axis=-1), 0.0, ct.value_table(p0, cost))
        assert np.array_equal(clamped, clipped)
        assert np.array_equal(np.signbit(clamped), np.signbit(clipped))


@pytest.mark.parametrize("seed", range(25))
def test_subregion_profit_matches_one_expression_form(seed):
    args, G = _model_two_case(seed)
    assert np.array_equal(_subregion_objective(*args)(G), _subregion_profit_reference(*args)(G))


@pytest.mark.parametrize("seed", range(10))
def test_row_scores_do_not_depend_on_the_batch(monkeypatch, seed):
    args, G = _model_one_case(seed)
    _assert_rows_independent(_general_objective(monkeypatch, *args), G)
    args, G = _model_two_case(seed)
    _assert_rows_independent(_subregion_objective(*args), G)


def test_boundary_control_rows_do_not_depend_on_the_batch(monkeypatch):
    eval_batch, caps = _boundary_control_objective(monkeypatch)
    G = np.random.default_rng(0).uniform(0.0, 1.0, (33, caps.size)) * caps
    _assert_rows_independent(eval_batch, G)


def _split_score_reference(ctx, weights, tol):
    """Boundary control's former objective: free-part income plus fixed-part
    income net of the transport back into the free part."""
    cost_free = ctx.cost[:, ctx.free]
    fixed = ctx.region.mask == Mask.FIXED

    def score(W):
        WC = np.min(cost_free[None, :, :] - W[:, :, None], axis=1)
        delta = ct._transport(W, WC, cost_free, tol)
        captured = W <= ctx.v0[None, :] + tol
        free_part = (np.where(captured, W, 0.0) * weights[None, :] * (~fixed)[None, :]).sum(axis=1)
        fixed_part = (np.where(captured & fixed[None, :], W - delta, 0.0) * weights[None, :]).sum(axis=1)
        return free_part + fixed_part

    return score


def _interface_case(seed):
    """A 1D window (seeds 0-11) or a 2D box (seeds 12-23) with seeded prices and weights."""
    rng = np.random.default_rng(seed)
    if seed < 12:
        # window edges on grid points, which are then the free control points
        n = 10 * int(rng.integers(2, 5)) + 1
        a = 0.1 * int(rng.integers(1, 5))
        region = sp.build_interval_region(n, 0.0, 1.0, fixed_window=(a, a + 0.1 * int(rng.integers(2, 5))))
    else:
        nx, ny = (int(k) for k in rng.integers(5, 9, 2))
        x0, y0 = rng.uniform(0.1, 0.3, 2)
        region = sp.build_grid_region(nx, ny, fixed_box=((x0, x0 + rng.uniform(0.4, 0.6)), (y0, y0 + rng.uniform(0.4, 0.6))))
    n = region.size
    p0 = sp.PricePattern(rng.uniform(0.2, 0.8, n) if seed % 2 else np.full(n, rng.uniform(0.2, 0.8)))
    ctx = PartitionContext.build(region, sp.CostKernel.metric(1.0), p0)
    return ctx, sp.CustomerMeasure(rng.uniform(0.1, 2.0, n)), rng


@pytest.mark.parametrize("seed", range(24))
def test_boundary_control_scores_the_interface_value_with_the_subregion_kernel(monkeypatch, seed):
    ctx, f, rng = _interface_case(seed)
    eval_batch, caps = _captured_objective(monkeypatch, ctx, f, sp.SearchConfig(levels=3, max_candidates=1000))
    ctrl = model_two._control_points(ctx)
    # the largest 1-Lipschitz function below seeded prices on the control set
    U = rng.uniform(0.0, 1.0, (48, ctrl.size)) * caps
    PHI = np.min(ctx.cost[np.ix_(ctrl, ctrl)][None, :, :] + U[:, None, :], axis=2)
    W = np.min(ctx.cost[:, ctrl][None, :, :] + PHI[:, None, :], axis=2)
    # every free point is in its own superdifferential: its transport is 0
    cost_free = ctx.cost[:, ctx.free]
    WC = np.min(cost_free[None, :, :] - W[:, :, None], axis=1)
    assert np.all(ct._transport(W, WC, cost_free, ctx.tol)[:, ctx.free] == 0.0)
    got = eval_batch(PHI)
    assert np.array_equal(got, _subregion_score_reference(ctx, f.weights, ctx.tol)(W))
    # the split form regroups the same terms
    split = _split_score_reference(ctx, f.weights, ctx.tol)(W)
    assert np.all(np.abs(split - got) <= 1e-15 * np.abs(got))


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
        w, _ = checked_reformulate(ctx.full_prices(rng.uniform(0.0, 2.0, ctx.free.size)), ctx, f)
        yield w, ctx, f


def test_model_one_value_profit_equals_the_mask_form():
    for values, kern, region, f in _model_one_value_profit_instances():
        cost = eval_cost(kern, region)
        member = dense_superdifferential_mask(values, cost)
        expected = float(np.dot(f.weights, values - np.where(member, cost, np.inf).min(axis=1)))
        assert model_one.profit_from_values(values, kern, region, f) == expected


def test_model_two_value_profit_equals_the_mask_form():
    for values, ctx, f in _model_two_value_profit_instances():
        member = dense_superdifferential_mask(values, ctx.cost, ctx.free)
        delta = np.where(member, ctx.cost[:, ctx.free], np.inf).min(axis=1)
        captured = values <= ctx.v0 + ctx.tol
        expected = float(np.dot(f.weights, np.where(captured, values - delta, 0.0)))
        assert model_two.profit_from_values(values, ctx, f) == expected


def test_sliced_slices_rows(monkeypatch):
    monkeypatch.setattr(geometry, "BLOCK_CELLS", 10)
    sizes = []

    def eval_batch(batch):
        sizes.append(len(batch))
        return batch.sum(axis=1)

    batch = np.arange(20.0).reshape(10, 2)
    assert np.array_equal(_search._sliced(eval_batch, 3)(batch), batch.sum(axis=1))
    assert sizes == [3, 3, 3, 1]
    sizes.clear()
    _search._sliced(eval_batch, 16)(batch)  # 16 cells per row: one row per call
    assert sizes == [1] * 10
    # an objective values and bounds in the slices of its value map's (n, k)
    # rows, k the row width, and scores each of those in slices of its (n, m) rows
    objective = _search.Objective(eval_batch, 1, 3, lambda G: G.sum(axis=1, keepdims=True), eval_batch)
    sizes.clear()
    assert np.array_equal(objective(batch), batch.sum(axis=1))
    assert sizes == [3, 2, 3, 2]
    sizes.clear()
    assert np.array_equal(objective.bound(batch), batch.sum(axis=1))
    assert sizes == [5, 5]


def test_bound_slices_by_its_value_map_cells(monkeypatch):
    # a bounded objective on an (n, k) value map bounds B rows in
    # ceil(B n k / budget) calls: slices of its value map's n x k cells per
    # row, not of the score's n x m
    rng = np.random.default_rng(0)
    n, k, m, B = 7, 3, 20, 50
    value = _search.ValueMap(rng.uniform(0.0, 1.0, (n, k)))
    sizes = []

    def bound(V):
        sizes.append(len(V))
        return V.sum(axis=1)

    objective = _search.Objective(lambda V: V.sum(axis=1), n, m, value, bound)
    G = rng.uniform(0.0, 1.0, (B, k))
    monkeypatch.setattr(geometry, "BLOCK_CELLS", 4 * n * k)
    assert np.array_equal(objective.bound(G), value(G).sum(axis=1))
    assert len(sizes) == math.ceil(B * n * k / geometry.BLOCK_CELLS) == 13
    assert max(sizes) == 4 and sum(sizes) == B


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
        (lambda: _general_objective(monkeypatch, *one_args), G1),
        (lambda: _subregion_objective(*two_args), G2),
        (lambda: nash._player_payoff_batch(*nash_args), P),
    ]
    caps = _boundary_control_objective(monkeypatch)[1]
    G = np.random.default_rng(seed).uniform(0.0, 1.0, (33, caps.size)) * caps
    objectives.append((lambda: _boundary_control_objective(monkeypatch)[0], G))
    for build, batch in objectives:
        monkeypatch.setattr(geometry, "BLOCK_CELLS", 1 << 40)
        whole = build()(batch)
        monkeypatch.setattr(geometry, "BLOCK_CELLS", 1)  # one row per call
        assert np.array_equal(build()(batch), whole)


def test_boundary_control_memory_stays_within_the_budget(monkeypatch):
    # 1D window (0.3, 0.7), n = 81: a 4096-row batch spans 4096 x 81 x 50
    # cells, about 127 budgets, so it is scored in slices
    region = sp.build_interval_region(81, 0.0, 1.0, fixed_window=(0.3, 0.7))
    ctx = PartitionContext.build(region, sp.CostKernel.metric(1.0), sp.PricePattern(np.full(81, 0.4)))
    eval_batch, caps = _captured_objective(monkeypatch, ctx, sp.CustomerMeasure.uniform(81), sp.SearchConfig())
    G = np.random.default_rng(0).uniform(0.0, 1.0, (4096, caps.size)) * caps
    peak, _ = peak_budgets(lambda: eval_batch(G))
    assert peak < 3, peak


def test_lipschitz_check_stays_within_the_budget():
    # the 8 controls of a 6 x 6 grid at 3 levels: each candidate's gap is
    # 8 x 8 cells, so the check of a 4096-row chunk takes two budget slices
    region = sp.build_grid_region(6, 6, fixed_box=((0.2, 0.8), (0.2, 0.8)))
    ctx = PartitionContext.build(region, sp.CostKernel.metric(1.0), sp.PricePattern(np.full(36, 0.6)))
    f, search = sp.CustomerMeasure.uniform(36), sp.SearchConfig(levels=3)
    peak, report = peak_budgets(lambda: model_two.solve_boundary_control(ctx, f, search))
    assert report.diagnostics["search_space"] == 3**8 and len(report.diagnostics["control_indices"]) == 8
    assert peak < 2, peak


# The value-keyed memo behind the three objectives


def _count_scored(monkeypatch):
    """Route the memoized objectives of the one constructor,
    `model_two._generator_objective`, through a counter of the rows their
    `score` sees; the counter also keeps the last (value, score) pair."""
    record = {"rows": 0}

    def counted(score, n, m, value=None, bound=None):
        def counted_score(V):
            record["rows"] += len(V)
            return score(V)

        record.update(value=value, score=score, n=n, m=m)
        return _search.Objective(counted_score, n, m, value, bound)

    monkeypatch.setattr(model_two, "Objective", counted)
    return record


def _dense(monkeypatch):
    """Build the one constructor's objectives without the memo: score(value(G)) on every row."""
    monkeypatch.setattr(model_two, "Objective", plain_objective)


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
    (p0, kernel, region, weights), _ = _model_one_case(seed)
    args = (0.5 * p0, kernel, region, weights)  # the clamp at the bound binds on many rows
    record = _count_scored(monkeypatch)
    one = _general_objective(monkeypatch, *args)
    inactive = 2.0 * eval_cost(kernel, region).max() + 4.0
    batches = list(_ascent_batches(rng, np.full(len(p0), 2.0), inactive))
    yield one, _general_reference(*args), batches, record

    args, _ = _model_two_case(seed)
    record = _count_scored(monkeypatch)
    two = _subregion_objective(*args)
    inactive = 2.0 * args[0].cost.max() + 4.0
    yield two, _subregion_profit_reference(*args), list(_ascent_batches(rng, np.full(args[0].free.size, 2.0), inactive)), record

    # boundary control's objective, taken on its way into the ascent
    record = _count_scored(monkeypatch)
    bc, caps = _boundary_control_objective(monkeypatch, max_candidates=10)
    with monkeypatch.context() as patch:
        _dense(patch)
        dense = _boundary_control_objective(patch, max_candidates=10)[0]
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
        by_value = _search.Objective(lambda W: scored.append(len(W)) or score(W), record["n"], record["m"], lambda W: W, score)
        first, second = by_value(V), by_value(flipped)
        assert np.array_equal(first, second)
        assert np.array_equal(first, score(V))
        # equal values, other bytes: a miss, never another score
        other = set(_keys(flipped)) - set(_keys(V))
        assert other
        assert sum(scored) == len(_keys(V)) + len(other)


def test_memo_scores_a_batch_larger_than_itself(monkeypatch):
    args, G = _model_one_case(3)
    n = len(args[0])
    monkeypatch.setattr(_search, "MEMO_CELLS", 2 * n)  # two entries
    record = _count_scored(monkeypatch)
    memoized = _general_objective(monkeypatch, *args)
    G = np.concatenate([G, G[:5]])
    keys = _keys(record["value"](G))
    assert len(keys) > 2
    expected = _general_reference(*args)(G)
    assert np.array_equal(memoized(G), expected)
    assert record["rows"] == len(keys)
    # first in, first out: the first value was evicted, the last one kept
    assert np.array_equal(memoized(G[:1]), expected[:1]) and record["rows"] == len(keys) + 1
    last = [row.tobytes() for row in record["value"](G)].index(keys[-1])
    assert np.array_equal(memoized(G[last : last + 1]), expected[last : last + 1])
    assert record["rows"] == len(keys) + 1


def test_objectives_die_without_a_gc_pass():
    """No reference cycle keeps an objective, and the memo and cost slices it
    holds, alive after `del`: with a plain value function and with a `ValueMap`."""
    (ctx, weights, tol), G = _model_two_case(0)
    cost_free = ctx.cost[:, ctx.free]
    args = (cost_free, ctx.v0, weights, tol)
    bounded = lambda: _search.Objective(  # noqa: E731
        ct._generator_score(*args), *cost_free.shape, value=lambda G: np.min(cost_free + G[:, None, :], axis=2), bound=ct._generator_bound(*args)
    )
    cases = [(bounded, G), (lambda: _subregion_objective(ctx, weights, tol), G)]
    gc.disable()
    try:
        for build, batch in cases:
            objective = build()
            objective(batch)
            objective(batch[:1])  # a memo hit
            assert (objective.bound(batch) >= objective(batch)).all()
            ref = weakref.ref(objective)
            del objective
            assert ref() is None
    finally:
        gc.enable()


def test_repeats_inside_a_batch_are_scored_once(monkeypatch):
    for memoized, oracle, batches, record in _memo_cases(monkeypatch, 1):
        batch = np.concatenate(batches[:3])[[0, 5, 10, 0, 5, 0, 11]]
        assert np.array_equal(memoized(batch), oracle(batch))
        assert record["rows"] == len(_keys(record["value"](batch))) < len(batch)


# The nearest-column rule of the batched profit kernel


def _nearest_case(seed, lead):
    """Value functions W generated on some columns of a seeded table, their
    c-transform WC, and the columns.  Seeds cycle through 1D and 2D metric,
    quadratic and random-kernel tables; generator prices are quantized, so
    ties occur; odd seeds lower part of WC, which takes some nearest columns
    out of the superdifferential; seeds divisible by 3 use evenly spaced 1D
    points and every other column, so some customers have two equally near
    columns."""
    rng = np.random.default_rng(1000 + seed)
    n = int(rng.integers(4, 14))
    if seed % 3 == 0:
        region = sp.build_interval_region(n, 0.0, 1.0)
        index = np.arange(0, n, 2)
    else:
        region = region_from_points(random_points(rng, n, d=1 + seed % 2))
        index = np.sort(rng.choice(n, int(rng.integers(1, n + 1)), replace=False))
    kernel = (sp.CostKernel.metric(1.0), sp.CostKernel.quadratic(), random_kernel(rng, n))[seed // 2 % 3]
    cost = eval_cost(kernel, region)
    cols = cost[:, index]
    m = cols.shape[1]
    G = 0.25 * rng.integers(0, 5, (*lead, m))
    W = np.min(cols + G[..., None, :], axis=-1)
    WC = np.min(cols - W[..., :, None], axis=-2)
    if seed % 2:
        WC -= 0.1 * rng.integers(0, 2, WC.shape)
    v0 = rng.uniform(0.0, 1.5, n) if seed % 4 < 2 else np.inf
    return W, WC, cols, v0, rng.uniform(0.1, 2.0, n), ct.scale_tol(cost)


def _scanned_share(W, WC, cols, _v0, _weights, tol):
    """Share of the customers of a case whose nearest column is not a member."""
    j, c = ct._nearest(cols)
    return float(np.mean(~(W + WC[..., j] - c >= -tol)))


@pytest.mark.parametrize("lead", [(), (9,), (3, 5)])
@pytest.mark.parametrize("seed", range(36))
def test_nearest_rule_matches_the_dense_scan(seed, lead):
    W, WC, cols, v0, weights, tol = _nearest_case(seed, lead)
    n, m = cols.shape
    dense = _transport_one_batch_axis(W.reshape(-1, n), WC.reshape(-1, m), cols, tol).reshape(W.shape)
    assert np.array_equal(ct._transport(W, WC, cols, tol, ct._nearest(cols)), dense)
    # the generator score takes the c-transform of W itself
    WC = np.min(cols - W[..., :, None], axis=-2)
    dense = _transport_one_batch_axis(W.reshape(-1, n), WC.reshape(-1, m), cols, tol).reshape(W.shape)
    got = ct._generator_score(cols, v0, weights, tol)(W)
    assert got.shape == lead
    assert np.array_equal(got, (np.where(W <= v0 + tol, W - dense, 0.0) * weights).sum(axis=-1))


def test_nearest_cases_reach_every_branch():
    """The cases above resolve every customer, gather a minority, or scan
    densely, and some customers have two equally near columns."""
    cases = [_nearest_case(seed, (9,)) for seed in range(36)]
    assert any((cols == cols.min(axis=1, keepdims=True)).sum(axis=1).max() > 1 for _, _, cols, *_ in cases)
    shares = [_scanned_share(*case) for case in cases]
    assert any(s == 0.0 for s in shares)
    assert any(0.0 < s <= 0.5 for s in shares)
    assert any(s > 0.5 for s in shares)


def test_nearest_column_ties_take_the_first_column():
    cols = np.array([[0.5, 0.5, 1.0], [1.0, 0.25, 0.25], [0.0, 0.0, 0.0]])
    j, c = ct._nearest(cols)
    assert j.tolist() == [0, 1, 0] and c.tolist() == [0.5, 0.25, 0.0]


def _bound_case(seed):
    """A batch of value functions generated on some columns of a
    `random_kernel` table: quantized generator prices, so customers tie,
    four repeated rows, every zero turned into -0.0, about 30% zero
    weights, and v0 = +inf (model one) on odd seeds, finite on even ones."""
    rng = np.random.default_rng(2000 + seed)
    n = int(rng.integers(3, 14))
    kernel = random_kernel(rng, n)
    cost = eval_cost(kernel, region_from_points(random_points(rng, n, d=1 + seed % 2)))
    cols = cost[:, np.sort(rng.choice(n, int(rng.integers(1, n + 1)), replace=False))]
    G = 0.25 * rng.integers(0, 5, (12, cols.shape[1]))
    W = np.min(cols[None, :, :] + G[:, None, :], axis=-1)
    W = np.concatenate([W, W[rng.integers(0, len(W), 4)]])
    W[W == 0.0] = -0.0
    weights = np.where(rng.uniform(size=n) < 0.3, 0.0, rng.uniform(0.1, 2.0, n))
    v0 = np.inf if seed % 2 else rng.uniform(0.0, 1.5, n)
    return kernel, W, cols, v0, weights, ct.scale_tol(cost)


def test_generator_bound_is_above_the_score_row_for_row():
    kinds, attained = set(), 0
    for seed in range(48):
        kernel, W, cols, v0, weights, tol = _bound_case(seed)
        kinds.add((kernel.kind, kernel.alpha == 1.0))
        score = ct._generator_score(cols, v0, weights, tol)(W)
        bound = ct._generator_bound(cols, v0, weights, tol)(W)
        assert bound.shape == score.shape == (len(W),)
        assert np.all(bound >= score), seed
        attained += int(np.count_nonzero(bound == score))
    # every kind random_kernel draws: metric (alpha 1 and below), quadratic, custom
    assert len(kinds) == 4
    # exact where every captured customer's nearest column is in the superdifferential
    assert attained > 0


def _count_transport_rows(monkeypatch):
    """Count the customers the nearest-column rule is asked about ("all") and
    those of them that go through the dense scan ("scanned")."""
    rows = {"all": 0, "scanned": 0, "inside": False}
    transport = ct._transport

    def counted(values, vc, cols, tol, nearest=None):
        if nearest is None:
            rows["scanned"] += values.size if rows["inside"] else 0
            return transport(values, vc, cols, tol)
        rows["all"] += values.size
        rows["inside"] = True
        try:
            return transport(values, vc, cols, tol, nearest)
        finally:
            rows["inside"] = False

    monkeypatch.setattr(ct, "_transport", counted)
    return rows


def test_nearest_rule_scans_few_customers_of_a_w_search(monkeypatch):
    """On a 9x9 distance-cost w_search, fewer than 10% of the customers the
    search scores go through the dense scan."""
    rows = _count_transport_rows(monkeypatch)
    region = sp.build_grid_region(9, 9, fixed_box=((0.3, 0.7), (0.3, 0.7)))
    ctx = PartitionContext.build(region, sp.CostKernel.metric(1.0), sp.PricePattern(np.full(81, 0.4)))
    f = sp.CustomerMeasure(np.random.default_rng(0).uniform(0.5, 1.5, 81))
    model_two.solve_w_search(ctx, f, sp.SearchConfig(multistarts=4))
    assert rows["all"] > 0
    assert rows["scanned"] < 0.1 * rows["all"]


@pytest.mark.parametrize("alpha", [1.0, 0.5])
def test_nearest_rule_resolves_every_customer_of_a_metric_general_search(monkeypatch, alpha):
    """Model one's nearest column is the customer's own point, and under a
    metric cost the triangle inequality puts it in the superdifferential of
    every generated value, so no customer is scanned."""
    rows = _count_transport_rows(monkeypatch)
    region = sp.build_grid_region(5, 5)
    f = sp.CustomerMeasure(np.random.default_rng(1).uniform(0.5, 1.5, 25))
    model_one.solve_general(sp.PricePattern(np.full(25, 0.8)), sp.CostKernel.metric(alpha), region, f, sp.SearchConfig(multistarts=4))
    assert rows["all"] > 0
    assert rows["scanned"] == 0
