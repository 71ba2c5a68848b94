"""Subregion pricing: prices are imposed on a fixed part of the region.

The agent only earns from customers whose best purchase options touch the
free part.  Replacing a price pattern by its canonical transform-based
version never lowers the profit, which lets the solvers search over
subregion-concave value functions instead of raw prices.  A metric-cost
variant reduces the search to prices on the discrete interface, and the
one-dimensional window case collapses to two scalars.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from . import ctransform as ct
from ._search import Objective, SearchConfig, SearchMode, ValueMap, coordinate_ascent, exhaustive_product, seeded_starts
from .geometry import (
    CostKernel,
    CustomerMeasure,
    Mask,
    PricePattern,
    Region,
    eval_cost,
    step_cdf,
)
from .model_one import SolveReport

__all__ = [
    "PartitionContext",
    "profit_from_prices",
    "reformulate",
    "profit_from_values",
    "solve_w_search",
    "solve_boundary_control",
    "one_d_reduction",
]

METHOD_W_SEARCH = "w_search"
METHOD_ONE_D = "one_d_reduction"
METHOD_BOUNDARY = "boundary_control"


WINDOW_SLACK = 1e-12  # one_d: p2 - p1 may pass beta - alpha by this, the rounding of the linspace price grid
BREAK_REL = 1e-9  # one_d: an atom this close (times 1 + p0) to a break point sits on it, where F's right continuity decides


@dataclass(frozen=True)
class PartitionContext:
    """Region with FIXED/FREE split, the imposed prices, and derived tables.

    v0 is the customers' best total cost using fixed shops only; it is finite
    and nonnegative everywhere (the imposed prices must be proper and >= 0).
    """

    region: Region
    kernel: CostKernel
    p0: PricePattern
    cost: np.ndarray
    v0: np.ndarray

    @classmethod
    def build(cls, region: Region, kernel: CostKernel, p0: PricePattern) -> "PartitionContext":
        fixed = region.fixed_indices
        free = region.free_indices
        if fixed.size == 0 or free.size == 0:
            raise ValueError("subregion pricing needs both fixed and free points")
        vals = p0.values
        if len(vals) != region.size:
            raise ValueError("imposed prices must cover the whole region")
        finite_fixed = np.isfinite(vals[fixed])
        if not finite_fixed.any():
            raise ValueError("imposed prices are +inf on the whole fixed part")
        if np.any(vals[fixed][finite_fixed] < 0):
            raise ValueError("imposed prices must be nonnegative")
        cost = eval_cost(kernel, region)
        v0 = ct.value_table(vals, cost, fixed)
        return cls(region=region, kernel=kernel, p0=p0, cost=cost, v0=v0)

    @property
    def free(self) -> np.ndarray:
        return self.region.free_indices

    @property
    def fixed(self) -> np.ndarray:
        return self.region.fixed_indices

    @cached_property
    def tol(self) -> float:
        return ct.scale_tol(self.cost)

    def full_prices(self, free_values: np.ndarray) -> PricePattern:
        """Assemble a full pattern: imposed prices on FIXED, given values on FREE."""
        p = self.p0.values.copy()
        p[self.free] = np.asarray(free_values, dtype=float)
        return PricePattern(p)

    def check_admissible(self, p: PricePattern) -> np.ndarray:
        vals = p.values
        if len(vals) != self.region.size:
            raise ValueError("price pattern does not match the region")
        fixed = self.fixed
        same = (vals[fixed] == self.p0.values[fixed]) | (
            np.isinf(vals[fixed]) & np.isinf(self.p0.values[fixed])
        )
        if not same.all():
            raise ValueError("price pattern must equal the imposed prices on the fixed part")
        if not np.isfinite(vals[self.free]).all():
            raise ValueError("prices must be finite on the free part")
        return vals


def _capture_and_profit(ctx: PartitionContext, p: PricePattern, f: CustomerMeasure):
    """Split customers by whether their argmin set touches the free part.

    Returns (captured mask, tie-broken choice over all points, price-form
    profit, value-form profit).  The two forms (price paid vs expenditure
    minus transport) must agree up to tolerance.
    """
    vals = ctx.check_admissible(p)
    expenditure, choice, free_choice, transport = ct.assignment_table(vals, ctx.cost, ctx.free)
    captured = free_choice >= 0
    w = f.weights
    paid = np.where(captured, vals[np.maximum(free_choice, 0)], 0.0)
    profit_price_form = float(np.dot(w, paid))
    net = np.where(captured, expenditure - transport, 0.0)
    profit_value_form = float(np.dot(w, net))
    gap = abs(profit_price_form - profit_value_form)
    if gap > ct._check_slack(ctx.tol, f.total_mass):
        raise RuntimeError(
            f"profit forms disagree by {gap}: tie handling is inconsistent"
        )
    return captured, choice, profit_price_form, profit_value_form


def profit_from_prices(
    p: PricePattern,
    ctx: PartitionContext,
    f: CustomerMeasure,
) -> float:
    """Agent profit: price paid by every customer captured by the free part."""
    _, _, profit, _ = _capture_and_profit(ctx, p, f)
    return profit


def reformulate(p: PricePattern, ctx: PartitionContext) -> tuple[np.ndarray, PricePattern]:
    """Canonical price pattern generating the same value function.

    Returns (w, new pattern).  Builds w(x) = min over free y of
    {c(x, y) + p(y)}, transforms it onto the free part, and replaces the
    free prices by minus the transform.  The new
    pattern never prices above the old one on the free part, stays
    nonnegative, and captures at least the same customers at no lower profit.
    """
    vals = ctx.check_admissible(p)
    free = ctx.free
    if np.any(vals[free] < -ctx.tol):
        raise ValueError("reformulation expects nonnegative prices; clamp first")
    w = ct.value_table(vals, ctx.cost, free)
    u_t = ct.c_transform_table(w, ctx.cost, free)
    return w, ctx.full_prices(-u_t)


def profit_from_values(
    w: np.ndarray,
    ctx: PartitionContext,
    f: CustomerMeasure,
) -> float:
    """Profit from a subregion-concave value function.

    Customers with w <= v0 contribute w(x) minus the cheapest transport into
    the free-part superdifferential; the rest shop in the fixed part.
    """
    return ct._value_profit(w, ctx.cost, ctx.free, ctx.v0, f.weights, ctx.tol)


def _batch_subregion_profit(ctx: PartitionContext, weights: np.ndarray, tol: float):
    """Batched profit of free generator prices G (B, |free|), with its upper bound."""
    cost_free = ctx.cost[:, ctx.free]
    args = (cost_free, ctx.v0, weights, tol)
    return Objective(ct._generator_score(*args), *cost_free.shape, value=ValueMap(cost_free), bound=ct._generator_bound(*args))


def _report(
    ctx: PartitionContext, f: CustomerMeasure, free_prices: np.ndarray, method: str, diagnostics: dict
) -> SolveReport:
    """Report of `free_prices`: their reformulated pattern, the value it generates and its price-side profit."""
    w, price = reformulate(ctx.full_prices(free_prices), ctx)
    captured, choice, profit, _ = _capture_and_profit(ctx, price, f)
    return SolveReport(price, w, profit, choice, method, diagnostics, captured)


def _w_search_report(
    ctx: PartitionContext, f: CustomerMeasure, g_best: np.ndarray, best: float, method: str, diagnostics: dict
) -> SolveReport:
    """Report of the free generator prices `g_best`, which the search scored `best`."""
    report = _report(ctx, f, g_best, method, diagnostics)
    w, profit = report.optimal_value, report.profit
    j_value = profit_from_values(w, ctx, f)
    slack = ct._check_slack(ctx.tol, f.total_mass)
    if abs(profit - j_value) > slack:
        raise RuntimeError(f"price-side profit {profit} differs from value-side {j_value}")
    if abs(best - j_value) > slack:
        raise RuntimeError(f"search score {best} differs from value-side profit {j_value}")
    if np.any(report.captured != (w <= ctx.v0 + ctx.tol)):
        raise RuntimeError("capture set differs from {w <= v0}")
    return report


def solve_w_search(
    ctx: PartitionContext,
    f: CustomerMeasure,
    search: SearchConfig = SearchConfig(),
) -> SolveReport:
    """Search over free-part price generators (value functions come for free).

    Candidate prices are capped per point by v0: charging more at a free point
    can only push its customers to the fixed part.  EXHAUSTIVE is the
    brute-force oracle for tiny instances; ASCENT scales to real ones.
    """
    if f.total_mass <= 0:
        raise ValueError("the customer measure must have positive mass")
    caps = np.maximum(ctx.v0[ctx.free], 0.0)
    eval_batch = _batch_subregion_profit(ctx, f.weights, ctx.tol)
    if search.mode is SearchMode.EXHAUSTIVE:
        g_best, val_best, diag = exhaustive_product(eval_batch, caps, search.levels, search.max_candidates)
    else:
        g_best, val_best, diag = coordinate_ascent(eval_batch, caps, seeded_starts(caps, search), search, trials=eval_batch.trials)
    return _w_search_report(ctx, f, g_best, val_best, METHOD_W_SEARCH, diag)


def _control_points(ctx: PartitionContext) -> np.ndarray:
    ctrl = np.nonzero(ctx.region.boundary_of_fixed & (ctx.region.mask == Mask.FREE))[0]
    if ctrl.size == 0:
        raise ValueError("boundary control needs free interface points")
    return ctrl


def solve_boundary_control(
    ctx: PartitionContext,
    f: CustomerMeasure,
    search: SearchConfig = SearchConfig(),
) -> SolveReport:
    """Metric-cost solver controlling prices on the discrete interface only.

    Interface prices phi (1-Lipschitz, 0 <= phi <= v0 there) determine the
    value function everywhere through w(x) = min over interface b of
    {d(x, b) + phi(b)}.  The objective is w_search's profit of that w: a
    1-Lipschitz w puts every free point in its own superdifferential, so a
    free customer's transport is exactly 0, and the generator prices are w
    on the free part.
    """
    if not ctx.kernel.is_metric:
        raise ValueError("boundary control requires a metric cost kernel")
    if f.total_mass <= 0:
        raise ValueError("the customer measure must have positive mass")
    tol = ctx.tol
    ctrl = _control_points(ctx)
    caps = np.maximum(ctx.v0[ctrl], 0.0)
    dctrl = ctx.cost[np.ix_(ctrl, ctrl)]
    cost_ctrl = ctx.cost[:, ctrl]
    cost_free = ctx.cost[:, ctx.free]

    def feasible(PHI: np.ndarray) -> np.ndarray:
        gap = PHI[:, :, None] - PHI[:, None, :] - dctrl[None, :, :]
        return (gap <= tol).all(axis=(1, 2))

    args = (cost_free, ctx.v0, f.weights, tol)
    objective = Objective(ct._generator_score(*args), *cost_free.shape, value=ValueMap(cost_ctrl), bound=ct._generator_bound(*args))
    k = ctrl.size
    levels = search.grid_n if search.grid_n**k <= search.max_candidates else search.levels
    if levels**k <= search.max_candidates:
        phi_best, val_best, diag = exhaustive_product(
            objective, caps, levels, search.max_candidates, feasible=feasible, bound=objective.bound
        )
    else:
        # each start becomes the largest 1-Lipschitz function below it on the control set
        starts = [ct.value_table(u, dctrl) for u in seeded_starts(caps, search)]
        phi_best, val_best, diag = coordinate_ascent(objective, caps, starts, search, feasible=feasible, trials=objective.trials)

    w = ct.value_table(phi_best, cost_ctrl)
    diag = {**diag, "control_indices": ctrl.tolist(), "control_prices": phi_best.tolist()}
    # the free generator prices are w on the free part: the metric table is symmetric
    report = _w_search_report(ctx, f, w[ctx.free], val_best, METHOD_BOUNDARY, diag)
    if np.max(np.abs(report.optimal_value - w)) > ct._check_slack(tol):
        raise RuntimeError("interface-generated value function is inconsistent")
    return report


def _stieltjes(cdf: Callable, g: Callable, lo: float, hi: float, m: int = 20001) -> float:
    """Integral of g against the measure of the cdf over (lo, hi], by fine differences."""
    if hi <= lo:
        return 0.0
    t = np.linspace(lo, hi, m)
    dF = np.diff(np.asarray(cdf(t), dtype=float))
    mid = 0.5 * (t[:-1] + t[1:])
    return float(np.dot(np.asarray(g(mid), dtype=float), dF))


def one_d_reduction(
    alpha: float,
    beta: float,
    p0: float,
    cdf: Optional[Callable] = None,
    *,
    ctx: Optional[PartitionContext] = None,
    f: Optional[CustomerMeasure] = None,
    grid_n: int = 201,
) -> SolveReport:
    """Two-scalar solver for the interval window case on [0, 1].

    The interface prices (p1 at alpha, p2 at beta) must stay below the
    constant imposed price and differ by at most beta - alpha.  The function
    maximizes p1 * F(min(s0, s1)) + p2 * (1 - F(max(s0, s2))) over a grid,
    where s1 = p0 - p1 + alpha, s2 = p2 - p0 + beta and s0 is the midpoint
    break, and F is the cumulative customer function.

    `cdf` may be any cumulative function (use geometry.uniform_cdf for the
    nonatomic uniform); without one, `ctx` and `f` give the atomic measure
    on the region grid (right-continuous F, with a warning when atoms sit
    near the break points).  A `ctx` needs `f`, and `f` a `ctx`: either
    alone raises ValueError.  With `ctx` and `f`, the reported profit is the
    price-side profit of the reformulated grid pattern of the cones
    min(p1 + |x - x_alpha|, p2 + |x - x_beta|) on the free part.  With a
    `cdf` alone the report has no pattern, and its profit is the two-scalar
    objective plus the (p1, p2)-independent transport premium collected
    outside the window.
    """
    if f is not None and f.total_mass <= 0:
        raise ValueError("the customer measure must have positive mass")
    if not (0.0 <= alpha < beta <= 1.0):
        raise ValueError("the window must satisfy 0 <= alpha < beta <= 1")
    if p0 < 0:
        raise ValueError("the imposed price must be nonnegative")
    if ctx is not None and f is None:
        raise ValueError("a region context needs a measure f")
    if f is not None and ctx is None:
        raise ValueError("a measure f needs a region context")
    atomic = cdf is None
    if atomic:
        if ctx is None:
            raise ValueError("pass a cdf, or a region context with a measure")
        cdf = step_cdf(ctx.region, f)

    grid = np.linspace(0.0, p0, grid_n) if p0 > 0 else np.zeros(1)
    P1, P2 = np.meshgrid(grid, grid, indexing="ij")
    s1 = p0 - P1 + alpha
    s2 = P2 - p0 + beta
    s0 = 0.5 * (P2 - P1 + beta + alpha)
    low = np.minimum(s0, s1)
    high = np.maximum(s0, s2)
    objective = P1 * np.asarray(cdf(low)) + P2 * (np.asarray(cdf(np.ones_like(high))) - np.asarray(cdf(high)))
    infeasible = np.abs(P2 - P1) > (beta - alpha) + WINDOW_SLACK
    if infeasible.all():
        raise ValueError("no feasible interface prices")
    objective = np.where(infeasible, -np.inf, objective)
    k = np.unravel_index(int(np.argmax(objective)), objective.shape)
    p1, p2 = float(P1[k]), float(P2[k])
    two_term = float(objective[k])
    diagnostics = {"p1": p1, "p2": p2, "objective_two_term": two_term}

    if ctx is None:
        premium = _stieltjes(cdf, lambda s: alpha - s, 0.0, alpha) + _stieltjes(
            cdf, lambda s: s - beta, beta, 1.0
        )
        diagnostics["transport_premium"] = premium
        return SolveReport(None, None, two_term + premium, None, METHOD_ONE_D, diagnostics)

    coords = ctx.region.coords_1d()
    if atomic:
        breaks = np.array([0.5 * (p2 - p1 + beta + alpha), p0 - p1 + alpha, p2 - p0 + beta])
        near = np.min(np.abs(coords[:, None] - breaks[None, :]), axis=1) <= BREAK_REL * (1.0 + p0)
        if (f.weights[near] > 0).any():
            warnings.warn(
                "atoms of the customer measure sit on a break point; "
                "the objective uses the right-continuous cumulative there",
                stacklevel=2,
            )
    x = coords[ctx.free]
    xa = x[np.argmin(np.abs(x - alpha))]
    xb = x[np.argmin(np.abs(x - beta))]
    cone = np.minimum(p1 + np.abs(x - xa), p2 + np.abs(x - xb))
    return _report(ctx, f, cone, METHOD_ONE_D, diagnostics)
