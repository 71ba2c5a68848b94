"""Whole-region pricing: the agent chooses prices everywhere under a cap.

The profit of a price pattern p sums, over customers, the price actually paid
at the tie-broken purchase location; it can also be evaluated from the
customer value function v alone, which the general solver searches over.
Model one is model two with nothing fixed: every function works on
`PartitionContext.whole`, a full model-two context with p0 = v0 = +inf.
`solve_general` builds its objective with model two's one constructor and
reports through the one report, which checks its score; it adds only its
bound and [0, v0] checks.
"""

from __future__ import annotations

import numpy as np

from . import ctransform as ct
from ._search import BudgetExceededError, SearchConfig, SearchMode, ValueMap, coordinate_ascent, exhaustive_product, seeded_starts
from .geometry import CostKernel, CustomerMeasure, PricePattern, Region
from .model_two import PartitionContext, SolveReport, _capture_and_profit, _generator_objective, _report

__all__ = [
    "SolveReport",
    "BudgetExceededError",
    "profit_from_prices",
    "profit_from_values",
    "solve_metric",
    "solve_general",
    "quadratic_1d_reference",
]

METHOD_METRIC = "metric_closed_form"
METHOD_GENERAL = "general_search"
METHOD_QUADRATIC_REFERENCE = "quadratic_1d_reference"


def profit_from_prices(
    p: PricePattern,
    kernel: CostKernel,
    region: Region,
    f: CustomerMeasure,
) -> float:
    """Total income: each customer pays the price at their tie-broken choice."""
    if len(p.values) != region.size:
        raise ValueError("price vector does not match the region size")
    _, _, _, profit, _ = _capture_and_profit(PartitionContext.whole(region, kernel), p.values, f)
    return profit


def profit_from_values(
    values: np.ndarray,
    kernel: CostKernel,
    region: Region,
    f: CustomerMeasure,
) -> float:
    """Profit evaluated from a cost-concave value function.

    Each customer contributes v(x) minus the cheapest transport into the
    superdifferential at x.  Rejects inputs that fail the concavity check.
    """
    ctx = PartitionContext.whole(region, kernel)
    return ct._value_profit(values, ctx.cost, None, ctx.v0, f.weights, ctx.tol)


def solve_metric(
    p0: PricePattern,
    kernel: CostKernel,
    region: Region,
    f: CustomerMeasure,
) -> SolveReport:
    """Closed form for metric costs: p(x) = min over y of {p0(y) + d(x, y)}.

    The optimal pattern does not depend on the customer distribution; f only
    enters the reported profit.
    """
    if not kernel.is_metric:
        raise ValueError("the closed form needs a metric cost kernel")
    ctx = PartitionContext.whole(region, kernel)
    return _report(ctx, f, PricePattern(ct.value_table(p0.values, ctx.cost)), METHOD_METRIC, {})


def solve_general(
    p0: PricePattern,
    kernel: CostKernel,
    region: Region,
    f: CustomerMeasure,
    search: SearchConfig = SearchConfig(),
) -> SolveReport:
    """Discrete maximization of the value-function profit over feasible values.

    The search runs over generator prices g, as model two's `w_search` does
    with every point free and no outside option: g induces the value
    v(x) = min_y {c(x, y) + min(g(y), p0(y))}, which is cost concave and lies
    between 0 and v0 = min_y {c(x, y) + p0(y)}, and is scored directly.
    EXHAUSTIVE enumerates quantized generator prices (refused beyond the
    candidate budget); ASCENT runs multi-start coordinate ascent with step
    halving.  The report's price is the canonical one recovered from the best
    value function, and the reported profit is its price-side evaluation.
    """
    if f.total_mass <= 0:
        raise ValueError("the customer measure must have positive mass")
    ctx = PartitionContext.whole(region, kernel)
    # the search's value maps and scores read every column: the table whole
    cost, tol = np.asarray(ctx.cost), ctx.tol
    bound = p0.values
    v0 = ct.value_table(bound, cost)
    if search.price_cap is not None:
        caps = np.full(region.size, float(search.price_cap))
    else:
        # pricing above the reservation cap -v0^c never attracts a customer
        caps = np.maximum(-ct.c_transform_table(v0, cost), 0.0)

    value = ValueMap(cost, clamp=bound)
    eval_batch = _generator_objective(ctx, f, cost, value)
    if search.mode is SearchMode.EXHAUSTIVE:
        # no bound=: under the quadratic cost and bound x - x^2/2 + 0.05 it slowed this scan 1.25-1.59x (BENCH_one_exhaustive_bound.json)
        g_best, val_best, diagnostics = exhaustive_product(eval_batch, caps, search.levels, search.max_candidates)
    else:
        starts = seeded_starts(caps, search, v0, 0.5 * v0)
        g_best, val_best, diagnostics = coordinate_ascent(eval_batch, caps, starts, search, trials=eval_batch.trials)

    # the canonical price -v^c; its value function is the double transform of v
    price = PricePattern(-ct.c_transform_table(value(g_best), cost))
    report = _report(ctx, f, price, METHOD_GENERAL, diagnostics, score=val_best)
    if np.any(report.optimal_price.values > bound + tol):
        raise RuntimeError("optimal price exceeds the bound")
    if np.any(report.optimal_value < -tol) or np.any(report.optimal_value > v0 + tol):
        raise RuntimeError("optimal value leaves [0, v0]")
    return report


def quadratic_1d_reference(x):
    """Closed-form optimum on [0, 1] for quadratic cost with bound x - x^2/2.

    Returns (value, price, purchase_location) at x; accepts scalars or arrays.
    The purchase location is max(2x - 1, 0): customers left of 1/2 travel to 0.
    """
    arr = np.asarray(x, dtype=float)
    if np.any((arr < 0.0) | (arr > 1.0)):
        raise ValueError("the reference solution lives on [0, 1]")
    v = np.where(arr <= 0.5, 0.5 * arr**2, -0.5 * arr**2 + arr - 0.25)
    p = 0.5 * arr - 0.25 * arr**2
    q = np.maximum(2.0 * arr - 1.0, 0.0)
    if np.isscalar(x) or arr.ndim == 0:
        return float(v), float(p), float(q)
    return v, p, q
