"""Shared builders for randomized test instances."""

import numpy as np

import spatial_pricing as sp


def region_from_points(points, mask=None):
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    n = pts.shape[0]
    if mask is None:
        mask = np.full(n, sp.Mask.NONE, dtype=np.int8)
    return sp.Region(points=pts, mask=np.asarray(mask, dtype=np.int8), boundary_of_fixed=np.zeros(n, dtype=bool))


def random_kernel(rng, n=None):
    """A random cost kernel; custom tables are symmetric with zero diagonal."""
    k = rng.integers(0, 4)
    if k == 0:
        return sp.CostKernel.metric(1.0)
    if k == 1:
        return sp.CostKernel.metric(float(rng.uniform(0.3, 1.0)))
    if k == 2:
        return sp.CostKernel.quadratic()
    t = rng.uniform(0.05, 2.0, (n, n))
    t = 0.5 * (t + t.T)
    np.fill_diagonal(t, 0.0)
    return sp.CostKernel.custom(t)


def random_points(rng, n, d=1, span=1.0):
    pts = rng.uniform(0.0, span, (n, d))
    if d == 1:
        pts = np.sort(pts, axis=0)
    return pts


def random_partitioned_region(rng, n, d=1):
    """Region with at least one FIXED and one FREE point."""
    while True:
        mask = np.where(rng.uniform(size=n) < 0.4, sp.Mask.FIXED, sp.Mask.FREE).astype(np.int8)
        if (mask == sp.Mask.FIXED).any() and (mask == sp.Mask.FREE).any():
            break
    return region_from_points(random_points(rng, n, d), mask)


def brute_force_price_profit(prices_grid, kernel, region, f):
    """Enumerate all price patterns from per-point candidate lists; return the best profit.

    Independent of the solver path: evaluates the customer problem and the
    price-maximizing tie rule directly per pattern.
    """
    from itertools import product

    from spatial_pricing.model_one import profit_from_prices

    best = -np.inf
    best_pattern = None
    for combo in product(*prices_grid):
        p = sp.PricePattern(np.asarray(combo, dtype=float))
        val = profit_from_prices(p, kernel, region, f)
        if val > best:
            best = val
            best_pattern = p
    return best, best_pattern


def clamp_free_prices(p, ctx):
    """The pattern with its free prices clamped at zero, the first step of the improvement chain."""
    return ctx.full_prices(np.maximum(p.values[ctx.free], 0.0))


def checked_reformulate(p, ctx, f=None):
    """`model_two.reformulate`, with every conclusion of the reformulation lemma verified.

    Checks on the instance that the canonical pattern keeps the customer value
    function, never prices above the original on the free part, stays
    nonnegative, loses no captured customer, captures exactly {w <= v0}, has
    argmin sets equal to the superdifferentials of w on captured customers and,
    with a measure `f`, lowers no profit.  A violation raises RuntimeError: it
    is a defect, not a recoverable error.
    """
    from spatial_pricing import ctransform as ct
    from spatial_pricing.model_two import profit_from_prices, reformulate

    w, p_t = reformulate(p, ctx)
    vals, free = p.values, ctx.free
    slack = ct._check_slack(ctx.tol)
    v_p = ct.value_table(vals, ctx.cost)
    v_pt = ct.value_table(p_t.values, ctx.cost)
    if np.max(np.abs(v_p - v_pt)) > slack:
        raise RuntimeError("reformulation changed the customer value function")
    if np.any(p_t.values[free] > vals[free] + slack):
        raise RuntimeError("reformulated prices exceed the originals on the free part")
    if np.any(p_t.values[free] < -slack):
        raise RuntimeError("reformulated prices are negative")
    cap1 = ct.assignment_table(vals, ctx.cost, free)[2] >= 0
    cap2 = ct.assignment_table(p_t.values, ctx.cost, free)[2] >= 0
    if np.any(cap1 & ~cap2):
        raise RuntimeError("reformulation lost captured customers")
    if np.any(cap2 != (w <= ctx.v0 + ctx.tol)):
        raise RuntimeError("capture set differs from {w <= v0}")
    member_t = dense_assignment(p_t.values, ctx.cost)[0][:, free]
    superdiff = dense_superdifferential_mask(w, ctx.cost, free)
    if np.any(member_t[cap2] != superdiff[cap2]):
        raise RuntimeError("argmin sets and superdifferentials disagree on captured customers")
    if f is not None:
        before = profit_from_prices(p, ctx, f)
        after = profit_from_prices(p_t, ctx, f)
        if after < before - ct._check_slack(ctx.tol, f.total_mass):
            raise RuntimeError("reformulation lowered the profit")
    return w, p_t


# Dense oracles: each table function as one expression over the whole table,
# the form it had before it was computed in row blocks.  The blocked forms
# must reproduce these bit for bit, down to the sign of a zero.


def dense_eval_cost(kernel, region):
    if kernel.kind is sp.KernelKind.CUSTOM_TABLE:
        return kernel.table
    diff = region.points[:, None, :] - region.points[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=-1))
    c = dist**kernel.alpha if kernel.is_metric else 0.5 * dist * dist
    np.fill_diagonal(c, 0.0)
    return c


def dense_scale_tol(cost):
    return 1e-9 * (1.0 + float(np.max(np.abs(cost))))


def _dense_columns(cost, index):
    return cost if index is None else cost[:, index]


def dense_value_table(prices, cost, candidates=None):
    pvals = prices if candidates is None else prices[candidates]
    return np.min(_dense_columns(cost, candidates) + pvals[None, :], axis=1)


def dense_c_transform_table(values, cost, target=None):
    return np.min(_dense_columns(cost, target) - values[:, None], axis=0)


def dense_double_transform_table(values, cost, generators=None):
    vc = dense_c_transform_table(values, cost, generators)
    return np.min(_dense_columns(cost, generators) - vc[None, :], axis=1)


def dense_superdifferential_mask(values, cost, within=None):
    vc = dense_c_transform_table(values, cost, within)
    return np.abs(values[:, None] + vc[None, :] - _dense_columns(cost, within)) <= dense_scale_tol(cost)


def dense_assignment(prices, cost):
    """(argmin-set member table, expenditure, choice): `ctransform.assignment_table` with its argmin sets kept."""
    totals = cost + prices[None, :]
    expenditure = totals.min(axis=1)
    member = totals <= expenditure[:, None] + dense_scale_tol(cost)
    choice = np.argmax(np.where(member, prices[None, :], -np.inf), axis=1)
    return member, expenditure, choice


def dense_tie_break(member, prices, within):
    """The choice over the argmin set intersected with `within`, -1 where that is empty."""
    keep = np.zeros(len(prices), dtype=bool)
    keep[within] = True
    member = member & keep[None, :]
    return np.where(member.any(axis=1), np.argmax(np.where(member, prices[None, :], -np.inf), axis=1), -1)


def dense_capture_transport(member, cost, free):
    """Cheapest c(x, y) over the argmin set of x within the free part, +inf where that is empty."""
    return np.where(member[:, free], cost[:, free], np.inf).min(axis=1)


def plain_objective(score, n, m, value=None, bound=None):
    """A stand-in for `_search.Objective` without the memo or the trial value
    maps: score(value(rows)), with bound(value(rows)) as its `.bound` (None
    without a bound) and, as its `.trials`, the dense score of every trial row."""
    objective = lambda G: score(value(G))  # noqa: E731
    objective.bound = None if bound is None else lambda G: bound(value(G))

    def trials(points, owner, idx, ts, floors):
        rows = points[owner]
        rows[np.arange(len(ts)), idx] = ts
        return objective(rows)

    objective.trials = trials
    return objective
