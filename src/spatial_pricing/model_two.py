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
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from . import ctransform as ct
from ._search import SearchConfig, SearchMode, coordinate_ascent, exhaustive_product, scored_by_value, seeded_starts
from .geometry import (
    CostKernel,
    CustomerMeasure,
    Mask,
    PricePattern,
    Region,
    eval_cost,
    step_cdf,
)

__all__ = [
    "PartitionContext",
    "ModelTwoSolveReport",
    "profit_from_prices",
    "clamp_nonnegative",
    "reformulate",
    "profit_from_values",
    "solve_w_search",
    "solve_boundary_control",
    "one_d_reduction",
]

METHOD_W_SEARCH = "w_search"
METHOD_ONE_D = "one_d_reduction"
METHOD_BOUNDARY = "boundary_control"


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


@dataclass
class ModelTwoSolveReport:
    optimal_price: Optional[PricePattern]
    w_opt: Optional[np.ndarray]  # (n,) value function generated by the free part
    profit: float
    captured: Optional[np.ndarray]  # bool per point: customer shops in the free part
    assignment: Optional[ct.AssignmentMap]
    method: str
    diagnostics: dict = field(default_factory=dict)

    @property
    def capture_sets(self) -> tuple[np.ndarray, np.ndarray]:
        """(lost-to-fixed indices, captured indices)."""
        if self.captured is None:
            raise ValueError("this report carries no per-point capture data")
        idx = np.arange(len(self.captured))
        return idx[~self.captured], idx[self.captured]


def _capture_and_profit(ctx: PartitionContext, p: PricePattern, f: CustomerMeasure):
    """Split customers by whether their argmin set touches the free part.

    Returns (captured mask, choice, both profit forms).  The two forms (price
    paid vs expenditure minus transport) must agree up to tolerance.
    """
    vals = ctx.check_admissible(p)
    assign = ct.assignment_table(vals, ctx.cost)
    free = ctx.free
    choice = ct.tie_break(assign, vals, within=free)
    captured = choice >= 0
    member_free = assign.member[:, np.isin(assign.candidates, free)]
    transport = np.where(member_free, ctx.cost[:, free], np.inf).min(axis=1)
    w = f.weights
    paid = np.where(captured, vals[np.maximum(choice, 0)], 0.0)
    profit_price_form = float(np.dot(w, paid))
    net = np.where(captured, assign.expenditure - transport, 0.0)
    profit_value_form = float(np.dot(w, net))
    gap = abs(profit_price_form - profit_value_form)
    if gap > ct._check_slack(ctx.tol, f.total_mass):
        raise RuntimeError(
            f"profit forms disagree by {gap}: tie handling is inconsistent"
        )
    return captured, choice, assign, profit_price_form, profit_value_form


def profit_from_prices(
    p: PricePattern,
    ctx: PartitionContext,
    f: CustomerMeasure,
) -> float:
    """Agent profit: price paid by every customer captured by the free part."""
    _, _, _, profit, _ = _capture_and_profit(ctx, p, f)
    return profit


def clamp_nonnegative(
    p: PricePattern,
    ctx: PartitionContext,
    f: CustomerMeasure,
) -> tuple[PricePattern, float]:
    """Clamp free prices at zero; the profit never drops."""
    before = profit_from_prices(p, ctx, f)
    clamped = ctx.full_prices(np.maximum(p.values[ctx.free], 0.0))
    after = profit_from_prices(clamped, ctx, f)
    if after < before - ct._check_slack(ctx.tol, f.total_mass):
        raise RuntimeError("clamping at zero lowered the profit")
    return clamped, after


def reformulate(
    p: PricePattern,
    ctx: PartitionContext,
    f: Optional[CustomerMeasure] = None,
    check: bool = True,
) -> tuple[np.ndarray, PricePattern]:
    """Canonical price pattern generating the same value function.

    Returns (w, new pattern).  Builds w(x) = min over free y of
    {c(x, y) + p(y)}, transforms it onto the free part, and replaces the
    free prices by minus the transform.  The new
    pattern never prices above the old one on the free part, stays
    nonnegative, and captures at least the same customers at no lower profit.
    With `check`, all of these conclusions are verified on the instance and a
    violation raises (it would indicate a defect, not a recoverable error).
    """
    vals = ctx.check_admissible(p)
    free = ctx.free
    if np.any(vals[free] < -ctx.tol):
        raise ValueError("reformulation expects nonnegative prices; clamp first")
    w = ct.value_table(vals, ctx.cost, free)
    u_t = ct.c_transform_table(w, ctx.cost, free)
    p_t = ctx.full_prices(-u_t)
    if check:
        slack = ct._check_slack(ctx.tol)
        v_p = ct.value_table(vals, ctx.cost)
        v_pt = ct.value_table(p_t.values, ctx.cost)
        if np.max(np.abs(v_p - v_pt)) > slack:
            raise RuntimeError("reformulation changed the customer value function")
        if np.any(p_t.values[free] > vals[free] + slack):
            raise RuntimeError("reformulated prices exceed the originals on the free part")
        if np.any(p_t.values[free] < -slack):
            raise RuntimeError("reformulated prices are negative")
        cap1 = ct.tie_break(ct.assignment_table(vals, ctx.cost), vals, within=free) >= 0
        assign_t = ct.assignment_table(p_t.values, ctx.cost)
        cap2 = ct.tie_break(assign_t, p_t.values, within=free) >= 0
        if np.any(cap1 & ~cap2):
            raise RuntimeError("reformulation lost captured customers")
        if np.any(cap2 != (w <= ctx.v0 + ctx.tol)):
            raise RuntimeError("capture set differs from {w <= v0}")
        member_t = assign_t.member[:, np.isin(assign_t.candidates, free)]
        superdiff = ct.superdifferential_mask(w, ctx.cost, free, vc=u_t)
        if np.any(member_t[cap2] != superdiff[cap2]):
            raise RuntimeError("argmin sets and superdifferentials disagree on captured customers")
        if f is not None:
            before = profit_from_prices(p, ctx, f)
            after = profit_from_prices(p_t, ctx, f)
            if after < before - ct._check_slack(ctx.tol, f.total_mass):
                raise RuntimeError("reformulation lowered the profit")
    return w, p_t


def profit_from_values(
    w: np.ndarray,
    ctx: PartitionContext,
    f: CustomerMeasure,
) -> float:
    """Profit from a subregion-concave value function.

    Customers with w <= v0 contribute w(x) minus the cheapest transport into
    the free-part superdifferential; the rest shop in the fixed part.
    """
    free = ctx.free
    vc = ct.c_transform_table(w, ctx.cost, free)
    if not ct.is_c_concave_table(w, ctx.cost, free, vc):
        raise ct.NotCConcaveError("profit needs a subregion-concave value function")
    delta = ct._transport(w, vc, ctx.cost[:, free], ctx.tol)
    captured = w <= ctx.v0 + ctx.tol
    return float(np.dot(f.weights, np.where(captured, w - delta, 0.0)))


def _batch_subregion_profit(ctx: PartitionContext, weights: np.ndarray, tol: float):
    cost_free = ctx.cost[:, ctx.free]
    v0 = ctx.v0

    def value(G: np.ndarray) -> np.ndarray:
        return np.min(cost_free[None, :, :] + G[:, None, :], axis=2)

    def score(W: np.ndarray) -> np.ndarray:
        WC = np.min(cost_free[None, :, :] - W[:, :, None], axis=1)
        delta = ct._transport(W, WC, cost_free, tol)
        captured = W <= v0[None, :] + tol
        return (np.where(captured, W - delta, 0.0) * weights[None, :]).sum(axis=1)

    return scored_by_value(value, score, *cost_free.shape)


def _w_search_report(ctx: PartitionContext, f: CustomerMeasure, g_best: np.ndarray, method: str, diagnostics: dict) -> ModelTwoSolveReport:
    w, price = reformulate(ctx.full_prices(g_best), ctx, check=False)
    captured, choice, assign, profit, _ = _capture_and_profit(ctx, price, f)
    j_value = profit_from_values(w, ctx, f)
    if abs(profit - j_value) > ct._check_slack(ctx.tol, f.total_mass):
        raise RuntimeError(f"price-side profit {profit} differs from value-side {j_value}")
    if np.any(captured != (w <= ctx.v0 + ctx.tol)):
        raise RuntimeError("capture set differs from {w <= v0}")
    diagnostics["profit_value_form"] = j_value
    return ModelTwoSolveReport(
        optimal_price=price,
        w_opt=w,
        profit=profit,
        captured=captured,
        assignment=assign,
        method=method,
        diagnostics=diagnostics,
    )


def solve_w_search(
    ctx: PartitionContext,
    f: CustomerMeasure,
    search: SearchConfig = SearchConfig(),
) -> ModelTwoSolveReport:
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
        g_best, _, diag = exhaustive_product(eval_batch, caps, search.levels, search.max_candidates)
    else:
        g_best, _, diag = coordinate_ascent(eval_batch, caps, seeded_starts(caps, search), search)
    return _w_search_report(ctx, f, g_best, METHOD_W_SEARCH, diag)


def _control_points(ctx: PartitionContext) -> np.ndarray:
    ctrl = np.nonzero(ctx.region.boundary_of_fixed & (ctx.region.mask == Mask.FREE))[0]
    if ctrl.size == 0:
        raise ValueError("boundary control needs free interface points")
    return ctrl


def solve_boundary_control(
    ctx: PartitionContext,
    f: CustomerMeasure,
    search: SearchConfig = SearchConfig(),
) -> ModelTwoSolveReport:
    """Metric-cost solver controlling prices on the discrete interface only.

    Interface prices phi (1-Lipschitz, 0 <= phi <= v0 there) determine the
    value function everywhere through w(x) = min over interface b of
    {d(x, b) + phi(b)}.  The optimized objective splits the profit into the
    free-part income plus the fixed-part income net of the transport distance
    back into the free part.
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
    free = ctx.free
    fixed_mask = ctx.region.mask == Mask.FIXED
    weights = f.weights
    cost_free = ctx.cost[:, free]

    def feasible(PHI: np.ndarray) -> np.ndarray:
        gap = PHI[:, :, None] - PHI[:, None, :] - dctrl[None, :, :]
        return (gap <= tol).all(axis=(1, 2))

    def value(PHI: np.ndarray) -> np.ndarray:
        return np.min(cost_ctrl[None, :, :] + PHI[:, None, :], axis=2)

    def score(W: np.ndarray) -> np.ndarray:
        WC = np.min(cost_free[None, :, :] - W[:, :, None], axis=1)
        delta = ct._transport(W, WC, cost_free, tol)
        captured = W <= ctx.v0[None, :] + tol
        # the free-side term also carries the capture condition: on coarse 2D
        # grids an interface-generated value can exceed the outside option at
        # distant free points, and those customers shop in the fixed part
        free_part = (np.where(captured, W, 0.0) * weights[None, :] * (~fixed_mask)[None, :]).sum(axis=1)
        fixed_part = (np.where(captured & fixed_mask[None, :], W - delta, 0.0) * weights[None, :]).sum(axis=1)
        return free_part + fixed_part

    eval_batch = scored_by_value(value, score, *cost_free.shape)
    k = ctrl.size
    levels = search.grid_n if search.grid_n**k <= search.max_candidates else search.levels
    if levels**k <= search.max_candidates:
        phi_best, val_best, diag = exhaustive_product(eval_batch, caps, levels, search.max_candidates, feasible=feasible)
    else:
        # each start becomes the largest 1-Lipschitz function below it on the control set
        starts = [ct.value_table(u, dctrl) for u in seeded_starts(caps, search)]
        phi_best, val_best, diag = coordinate_ascent(eval_batch, caps, starts, search, feasible=feasible)

    w = ct.value_table(phi_best, cost_ctrl)
    g_free = ct.value_table(phi_best, ctx.cost[np.ix_(ctrl, free)].T)
    report = _w_search_report(ctx, f, g_free, METHOD_BOUNDARY, diag)
    report.diagnostics.update(
        {
            "split_objective": val_best,
            "control_indices": ctrl.tolist(),
            "control_prices": phi_best.tolist(),
        }
    )
    if np.max(np.abs(report.w_opt - w)) > ct._check_slack(tol):
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
) -> ModelTwoSolveReport:
    """Two-scalar solver for the interval window case on [0, 1].

    The interface prices (p1 at alpha, p2 at beta) must stay below the
    constant imposed price and differ by at most beta - alpha.  The function
    maximizes p1 * F(min(s0, s1)) + p2 * (1 - F(max(s0, s2))) over a grid,
    where s1 = p0 - p1 + alpha, s2 = p2 - p0 + beta and s0 is the midpoint
    break, and F is the cumulative customer function.

    `cdf` may be any cumulative function (use geometry.uniform_cdf for the
    nonatomic uniform); alternatively pass `ctx` and `f` to use the atomic
    measure on the region grid (right-continuous F, with a warning when atoms
    sit near the break points).  The reported profit is the value-side profit
    of the reformulated price, which exceeds the two-scalar objective exactly
    by the (p1, p2)-independent transport premium collected outside the
    window.
    """
    if not (0.0 <= alpha < beta <= 1.0):
        raise ValueError("the window must satisfy 0 <= alpha < beta <= 1")
    if p0 < 0:
        raise ValueError("the imposed price must be nonnegative")
    atoms = None
    if cdf is None:
        if ctx is None or f is None:
            raise ValueError("pass a cdf, or a region context with a measure")
        coords = ctx.region.coords_1d()
        atoms = (coords, f.weights)
        cdf = step_cdf(ctx.region, f)
        if f.total_mass <= 0:
            raise ValueError("the customer measure must have positive mass")

    grid = np.linspace(0.0, p0, grid_n) if p0 > 0 else np.zeros(1)
    P1, P2 = np.meshgrid(grid, grid, indexing="ij")
    s1 = p0 - P1 + alpha
    s2 = P2 - p0 + beta
    s0 = 0.5 * (P2 - P1 + beta + alpha)
    low = np.minimum(s0, s1)
    high = np.maximum(s0, s2)
    objective = P1 * np.asarray(cdf(low)) + P2 * (np.asarray(cdf(np.ones_like(high))) - np.asarray(cdf(high)))
    infeasible = np.abs(P2 - P1) > (beta - alpha) + 1e-12
    if infeasible.all():
        raise ValueError("no feasible interface prices")
    objective = np.where(infeasible, -np.inf, objective)
    k = np.unravel_index(int(np.argmax(objective)), objective.shape)
    p1, p2 = float(P1[k]), float(P2[k])
    two_term = float(objective[k])
    b1, b2, b0 = p0 - p1 + alpha, p2 - p0 + beta, 0.5 * (p2 - p1 + beta + alpha)

    if atoms is not None:
        coords, wts = atoms
        btol = 1e-9 * (1.0 + p0)
        near = np.min(np.abs(coords[:, None] - np.array([b0, b1, b2])[None, :]), axis=1) <= btol
        if (wts[near] > 0).any():
            warnings.warn(
                "atoms of the customer measure sit on a break point; "
                "the objective uses the right-continuous cumulative there",
                stacklevel=2,
            )
        left = coords < alpha
        mid_l = (coords >= alpha) & (coords <= min(b0, b1))
        mid_r = (coords > max(b0, b2)) & (coords <= beta)
        right = coords > beta
        four = float(
            np.dot(wts[left], p1 + alpha - coords[left])
            + wts[mid_l].sum() * p1
            + wts[mid_r].sum() * p2
            + np.dot(wts[right], p2 + coords[right] - beta)
        )
        premium = float(np.dot(wts[left], alpha - coords[left]) + np.dot(wts[right], coords[right] - beta))
    else:
        premium = _stieltjes(cdf, lambda s: alpha - s, 0.0, alpha) + _stieltjes(
            cdf, lambda s: s - beta, beta, 1.0
        )
        four = two_term + premium

    diagnostics = {
        "p1": p1,
        "p2": p2,
        "objective_two_term": two_term,
        "transport_premium": premium,
        "four_integral_profit": four,
        "break_points": {"inner": b0, "left": b1, "right": b2},
        "grid_n": grid_n,
    }

    if ctx is not None and f is not None:
        coords = ctx.region.coords_1d()
        free = ctx.free
        xa = coords[free][np.argmin(np.abs(coords[free] - alpha))]
        xb = coords[free][np.argmin(np.abs(coords[free] - beta))]
        cone = np.minimum(p1 + np.abs(coords[free] - xa), p2 + np.abs(coords[free] - xb))
        price = ctx.full_prices(cone)
        w, price_t = reformulate(price, ctx, check=False)
        captured, choice, assign, profit, _ = _capture_and_profit(ctx, price_t, f)
        diagnostics["interface_points"] = [float(xa), float(xb)]
        return ModelTwoSolveReport(
            optimal_price=price_t,
            w_opt=w,
            profit=profit,
            captured=captured,
            assignment=assign,
            method=METHOD_ONE_D,
            diagnostics=diagnostics,
        )
    return ModelTwoSolveReport(
        optimal_price=None,
        w_opt=None,
        profit=four,
        captured=None,
        assignment=None,
        method=METHOD_ONE_D,
        diagnostics=diagnostics,
    )
