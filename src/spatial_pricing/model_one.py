"""Whole-region pricing: the agent chooses prices everywhere under a cap.

The profit of a price pattern p sums, over customers, the price actually paid
at the tie-broken purchase location.  The same profit can be evaluated from
the customer value function v alone, which is the variable the general solver
searches over: every candidate is projected onto the feasible set (cost
concave, between 0 and the outside-option value) by clamping and a double
transform, so the search never leaves the admissible class.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import ctransform as ct
from ._search import BudgetExceededError, SearchConfig, SearchMode, coordinate_ascent, exhaustive_product, scored_by_value, seeded_starts
from .geometry import CostKernel, CustomerMeasure, PricePattern, Region, eval_cost

__all__ = [
    "ModelOneSolveReport",
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
class ModelOneSolveReport:
    optimal_price: PricePattern
    optimal_value: np.ndarray  # (n,) customer value function of optimal_price
    profit: float
    assignment: ct.AssignmentMap
    method: str
    diagnostics: dict = field(default_factory=dict)


def price_report(
    price: PricePattern, value: np.ndarray, cost: np.ndarray, f: CustomerMeasure, method: str, diagnostics: dict
) -> ModelOneSolveReport:
    """Report for a chosen price: assignment on the cost table and price-side profit."""
    assign = ct.assignment_table(price.values, cost)
    profit = float(np.dot(f.weights, price.values[assign.choice]))
    return ModelOneSolveReport(price, value, profit, assign, method, diagnostics)


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
    assign = ct.assignment_table(prices, eval_cost(kernel, region))
    return float(np.dot(f.weights, prices[assign.choice]))


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
    vc = ct.c_transform_table(values, cost)
    if not ct.is_c_concave_table(values, cost, vc=vc):
        raise ct.NotCConcaveError("profit_from_values requires a cost-concave input")
    delta = ct._transport(values, vc, cost, ct.scale_tol(cost))
    return float(np.dot(f.weights, values - delta))


def solve_metric(
    p0: PricePattern,
    kernel: CostKernel,
    region: Region,
    f: CustomerMeasure,
) -> ModelOneSolveReport:
    """Closed form for metric costs: p(x) = min over y of {p0(y) + d(x, y)}.

    The optimal pattern does not depend on the customer distribution; f only
    enters the reported profit.
    """
    if not kernel.is_metric:
        raise ValueError("the closed form needs a metric cost kernel")
    cost = eval_cost(kernel, region)
    if not p0.is_proper():
        raise ValueError("improper price bound: +inf everywhere")
    popt = ct.value_table(p0.values, cost)
    return price_report(PricePattern(popt), ct.value_table(popt, cost), cost, f, METHOD_METRIC, {"f_independent": True})


def _batch_value_profit(cost: np.ndarray, v0: np.ndarray, weights: np.ndarray, tol: float):
    """Batched generator-price objective: project candidates and evaluate the profit.

    A candidate price vector g induces v(x) = min_y {c(x, y) + g(y)}; the
    candidate value is clamped to [0, v0] and re-projected by a double
    transform, which keeps it cost concave without leaving [0, v0].  The
    profit depends on g only through the clamped value, so each distinct one
    is scored once.
    """

    def value(G: np.ndarray) -> np.ndarray:
        return np.clip(np.min(cost + G[..., None, :], axis=-1), 0.0, v0)

    def reproject(V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        VC = np.min(cost - V[..., :, None], axis=-2)
        return np.min(cost - VC[..., None, :], axis=-1), VC

    def score(V: np.ndarray) -> np.ndarray:
        VP, VC = reproject(V)
        return ((VP - ct._transport(VP, VC, cost, tol)) * weights[None, :]).sum(axis=1)

    def project(G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(projected value, its c-transform); leading axes of G are a batch."""
        return reproject(value(G))

    return scored_by_value(value, score, *cost.shape), project


def solve_general(
    p0: PricePattern,
    kernel: CostKernel,
    region: Region,
    f: CustomerMeasure,
    search: SearchConfig = SearchConfig(),
) -> ModelOneSolveReport:
    """Discrete maximization of the value-function profit over feasible values.

    EXHAUSTIVE enumerates quantized generator prices (refused beyond the
    candidate budget); ASCENT runs multi-start coordinate ascent with step
    halving.  The report's price is the canonical one recovered from the best
    value function, and the reported profit is its price-side evaluation.
    """
    cost = eval_cost(kernel, region)
    tol = ct.scale_tol(cost)
    if not p0.is_proper():
        raise ValueError("improper price bound: +inf everywhere")
    v0 = ct.value_table(p0.values, cost)
    if search.price_cap is not None:
        caps = np.full(region.size, float(search.price_cap))
    else:
        # pricing above the reservation cap -v0^c never attracts a customer
        caps = np.maximum(-ct.c_transform_table(v0, cost), 0.0)
    eval_batch, project = _batch_value_profit(cost, v0, f.weights, tol)

    if search.mode is SearchMode.EXHAUSTIVE:
        g_best, val_best, diagnostics = exhaustive_product(eval_batch, caps, search.levels, search.max_candidates)
    else:
        starts = seeded_starts(caps, search, v0, 0.5 * v0)
        g_best, val_best, diagnostics = coordinate_ascent(eval_batch, caps, starts, search)
    diagnostics["profit_value_form"] = val_best

    v_best, vc_best = project(g_best)
    report = price_report(PricePattern(-vc_best), v_best, cost, f, METHOD_GENERAL, diagnostics)
    if abs(report.profit - val_best) > ct._check_slack(tol, f.total_mass):
        raise RuntimeError(
            f"price-side and value-side profits disagree: {report.profit} vs {val_best}"
        )
    if np.any(report.optimal_price.values > p0.values + tol):
        raise RuntimeError("optimal price exceeds the bound")
    if np.any(v_best < -tol) or np.any(v_best > v0 + tol):
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
