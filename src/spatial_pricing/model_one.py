"""Whole-region pricing: the agent chooses prices everywhere under a cap.

The profit of a price pattern p sums, over customers, the price actually paid
at the tie-broken purchase location.  The same profit can be evaluated from
the customer value function v alone, which is the variable the general solver
searches over.  Model one is model two with nothing fixed: `solve_general`
scores generator prices with `w_search`'s generator score, over every point
and with no outside option.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import ctransform as ct
from ._search import BudgetExceededError, Objective, SearchConfig, SearchMode, ValueMap, coordinate_ascent, exhaustive_product, seeded_starts
from .geometry import CostKernel, CustomerMeasure, PricePattern, Region, eval_cost

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


@dataclass
class SolveReport:
    """What a model-one or model-two solver found.

    optimal_price : the price pattern p (None only for the two-scalar
                    `one_d_reduction` run on a cumulative function alone).
    optimal_value : (n,) customer value function; in model two the one the
                    free part generates, w(x) = min over free y of {c(x, y) + p(y)}.
    choice        : (n,) tie-broken purchase point of each customer over all
                    points (None when `optimal_price` is).
    captured      : model two only, bool per point: the customer shops in the
                    free part.
    """

    optimal_price: Optional[PricePattern]
    optimal_value: Optional[np.ndarray]
    profit: float
    choice: Optional[np.ndarray]
    method: str
    diagnostics: dict = field(default_factory=dict)
    captured: Optional[np.ndarray] = None


def price_report(
    price: PricePattern, value: Optional[np.ndarray], cost: np.ndarray, f: CustomerMeasure, method: str, diagnostics: dict
) -> SolveReport:
    """Report for a chosen price: tie-broken choices on the cost table and
    price-side profit; a `value` of None reports the price's own value
    function, the customers' expenditure."""
    expenditure, choice = ct.assignment_table(price.values, cost)
    profit = float(np.dot(f.weights, price.values[choice]))
    return SolveReport(price, expenditure if value is None else value, profit, choice, method, diagnostics)


def profit_from_prices(
    p: PricePattern,
    kernel: CostKernel,
    region: Region,
    f: CustomerMeasure,
) -> float:
    """Total income: each customer pays the price at their tie-broken choice."""
    prices = p.values
    if len(prices) != region.size:
        raise ValueError("price vector does not match the region size")
    _, choice = ct.assignment_table(prices, eval_cost(kernel, region))
    return float(np.dot(f.weights, prices[choice]))


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
    cost = eval_cost(kernel, region)
    return ct._value_profit(values, cost, None, np.inf, f.weights, ct.scale_tol(cost))


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
    cost = eval_cost(kernel, region)
    popt = ct.value_table(p0.values, cost)
    return price_report(PricePattern(popt), None, cost, f, METHOD_METRIC, {})


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
    cost = eval_cost(kernel, region)
    tol = ct.scale_tol(cost)
    bound = p0.values
    v0 = ct.value_table(bound, cost)
    if search.price_cap is not None:
        caps = np.full(region.size, float(search.price_cap))
    else:
        # pricing above the reservation cap -v0^c never attracts a customer
        caps = np.maximum(-ct.c_transform_table(v0, cost), 0.0)

    value = ValueMap(cost, clamp=bound)
    eval_batch = Objective(ct._generator_score(cost, np.inf, f.weights, tol), *cost.shape, value=value)
    if search.mode is SearchMode.EXHAUSTIVE:
        g_best, val_best, diagnostics = exhaustive_product(eval_batch, caps, search.levels, search.max_candidates)
    else:
        starts = seeded_starts(caps, search, v0, 0.5 * v0)
        g_best, val_best, diagnostics = coordinate_ascent(eval_batch, caps, starts, search, trials=eval_batch.trials)

    # the canonical price -v^c; its value function is the double transform of v
    price = PricePattern(-ct.c_transform_table(value(g_best), cost))
    report = price_report(price, None, cost, f, METHOD_GENERAL, diagnostics)
    if abs(report.profit - val_best) > ct._check_slack(tol, f.total_mass):
        raise RuntimeError(
            f"price-side and value-side profits disagree: {report.profit} vs {val_best}"
        )
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
