"""Two-agent price competition on a shared region.

Each agent prices its own subregion; a customer buys from whichever side
offers the lower total cost, and an exact tie sends the customer to the shop
in their home region.  Best responses search a family of frontier-cone
patterns (a margin plus the transport cost from the opponent's region,
capped by the opponent's standing offer), then polish the best cone with
one step level of the shared coordinate ascent: moves of one and two price
steps, the on-grid cap as an extra trial.  Payoffs use the home-region tie
rule throughout.

Each customer's income is written once (`_value_and_paid`, `_income`) and
shared by the dense batch payoff and the polish's trial hook.  The cone scan
scores each distinct cone once: it stops at the first cone that is the caps
at every point, as every later cone is that same row, and the polish scores
its start, the best cone, once more.  The price paid is a masked max over
the offers that tie with the best one, reduced in place, with no (rows, n,
m) temporary.  A polish trial moves one own price, so the hook
scores it in O(n) from per-customer state at the current prices and
re-scores densely only the customers whose unique best offer moved or whose
best offer falls by at most the tolerance; its payoffs are bit-equal to the
dense ones.  The ascent hands it the trials of a window of coordinates at
once, so a polish sweep that moves no price takes about log2(m) calls, and
the hook scores a call's trials together, gathering per-column state rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional

import numpy as np

from . import ctransform as ct
from ._search import SearchConfig, _sliced, _trial_rows, coordinate_ascent
from .geometry import CostKernel, CustomerMeasure, GridCosts, LineDistances, PricePattern, Region, _edge_tol, cost_table

__all__ = [
    "GameContext",
    "NashSearchConfig",
    "BestResponseResult",
    "DynamicsTrace",
    "EquilibriumReport",
    "payoffs",
    "best_response",
    "best_response_dynamics",
    "verify_equilibrium",
]

TIE_REL = 1e-11  # cone payoffs within this times (1 + price scale)(1 + mass) of the best tie: float noise picks no margin


@dataclass(frozen=True)
class GameContext:
    """Region split between players A and B, with overlap carrying no customers.

    Strategies are full-length price vectors; only the entries on the owner's
    points are read.  `price_cap` optionally bounds both players' prices.
    `cost` is `geometry.cost_table`'s (a `LineDistances` for the distance on a
    line, a `GridCosts` on a full 2D grid).
    """

    region: Region
    kernel: CostKernel
    a_mask: np.ndarray
    b_mask: np.ndarray
    f: CustomerMeasure
    cost: np.ndarray | LineDistances | GridCosts
    price_cap: Optional[float] = None

    @classmethod
    def build(
        cls,
        region: Region,
        kernel: CostKernel,
        a_mask: np.ndarray,
        b_mask: np.ndarray,
        f: CustomerMeasure,
        price_cap: Optional[float] = None,
    ) -> "GameContext":
        a = np.asarray(a_mask, dtype=bool)
        b = np.asarray(b_mask, dtype=bool)
        if a.shape != (region.size,) or b.shape != (region.size,):
            raise ValueError("player masks must cover the region point-by-point")
        if not (a | b).all():
            raise ValueError("every point must belong to at least one player")
        if not a.any() or not b.any():
            raise ValueError("both players need at least one point")
        w = f.weights.copy()
        w[a & b] = 0.0  # shared points carry no customers
        return cls(
            region=region,
            kernel=kernel,
            a_mask=a,
            b_mask=b,
            f=CustomerMeasure(w),
            cost=cost_table(kernel, region),
            price_cap=price_cap,
        )

    @classmethod
    def from_split(
        cls,
        region: Region,
        kernel: CostKernel,
        split: float,
        f: CustomerMeasure,
        price_cap: Optional[float] = None,
    ) -> "GameContext":
        """1D convenience: A owns points <= split, B owns points >= split."""
        x = region.coords_1d()
        eps = _edge_tol(split)
        return cls.build(region, kernel, x <= split + eps, x >= split - eps, f, price_cap)

    def indices(self, player: str) -> np.ndarray:
        if player == "A":
            return np.nonzero(self.a_mask)[0]
        if player == "B":
            return np.nonzero(self.b_mask)[0]
        raise ValueError("player must be 'A' or 'B'")

    def tie_home(self, player: str) -> np.ndarray:
        """Customers whose exact ties resolve to this player (home region)."""
        if player == "A":
            return self.a_mask
        return self.b_mask & ~self.a_mask

    @cached_property
    def tol(self) -> float:
        return ct.scale_tol(self.cost)


@dataclass(frozen=True)
class NashSearchConfig:
    """Quantized strategy family for best responses.

    Prices move on a fixed grid of step price_scale / grid_n (the scale
    defaults to the opponent's largest standing offer; the dynamics pin it
    once at the start so the grid does not drift between rounds).

    polish_sweeps : sweeps of the coordinate polish, which runs one step
                    level of `_search.coordinate_ascent` at the grid step,
                    with the on-grid cap as an extra trial per point.
    """

    grid_n: int = 200
    polish_sweeps: int = 4
    price_scale: Optional[float] = None


def _strategy_values(p: PricePattern | np.ndarray, idx: np.ndarray, n: int) -> np.ndarray:
    v = p.values if isinstance(p, PricePattern) else np.asarray(p, dtype=float)
    if v.shape != (n,):
        raise ValueError("strategies are full-length price vectors")
    if not np.isfinite(v[idx]).all():
        raise ValueError("strategy must be finite on the owner's points")
    return v


def _value_and_paid(totals: np.ndarray, P: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Each customer's best offer V over the last axis of `totals` and the
    price paid there: the largest of the prices P (broadcast to `totals`)
    whose offers tie with V.  Max does not round, so the masked reduce
    equals the max over np.where(member, P, -inf) up to the sign of a zero
    price, which the income sum drops."""
    V = totals.min(axis=-1)
    member = totals <= V[..., None] + tol
    return V, np.maximum.reduce(np.broadcast_to(P, totals.shape), axis=-1, where=member, initial=-np.inf)


def _income(V, paid, opp_offer, tie_home, weights, tol: float) -> np.ndarray:
    """Weighted income from customers whose best offer V beats the opponent's
    (exact ties go home)."""
    mine = (V < opp_offer - tol) | ((np.abs(V - opp_offer) <= tol) & tie_home)
    return np.where(mine, paid, 0.0) * weights


def _player_payoff_batch(ctx: GameContext, my_idx: np.ndarray, opp_offer: np.ndarray, tie_home: np.ndarray, tol: float):
    cost_my = ctx.cost[:, my_idx]
    weights = ctx.f.weights

    def payoff(P: np.ndarray) -> np.ndarray:
        V, paid = _value_and_paid(cost_my[None, :, :] + P[:, None, :], P[:, None, :], tol)
        return _income(V, paid, opp_offer, tie_home, weights, tol).sum(axis=1)

    return _sliced(payoff, cost_my.size)


def _player_trial_scores(ctx: GameContext, my_idx: np.ndarray, opp_offer: np.ndarray, tie_home: np.ndarray, tol: float):
    """The polish's trial scores for the payoff of `_player_payoff_batch`: a
    `TrialBatch` whose `points` hold one point u, the polish's one start (a
    call with more raises ValueError), and which scores every trial, floors
    unused.  The score of u with u[idx[k]] replaced by ts[k] is bit-equal to
    that payoff, in O(n) per pair from a cached base point.
    The pairs of one call are scored in slices of n cells per pair, and the
    cells a slice re-scores densely in slices of m each (geometry.BLOCK_CELLS).

    The base state of u is rebuilt when u moves: its offers T = C + u, per
    customer the best offer V, the second-smallest offer s2, the members M
    (offers within tol of V), the price paid (the largest member price) and
    the second-largest member price pm2.  A trial t at column i gives the
    offer ci = C[:, i] + t:
    - ci >= V keeps V; the price paid is the one without column i, raised
      to t when ci is a member;
    - ci + tol < V makes ci the only member, so t is paid at V' = ci;
    - the other rows are scored densely: those whose unique best offer is
      column i (moving it moves V to s2 and every membership with it), and
      knife edges, where ci lowers V by at most tol.
    Min, max and comparisons do not round, and every other entry takes the
    dense path's float operations, so the per-customer incomes and their
    sum are the dense ones.  (With a -0.0 price the max may pick the other
    zero than the dense row does; that only flips the sign of a zero
    income, which the sum drops.)
    """
    C = ctx.cost[:, my_idx]
    n, m = C.shape
    Ct = np.ascontiguousarray(C.T)
    weights = ctx.f.weights
    base: dict = {}

    def rescore(trial_rows: np.ndarray, flat: np.ndarray) -> np.ndarray:
        k, x = np.divmod(flat, n)
        P = trial_rows[k]
        V, paid = _value_and_paid(C[x] + P, P, tol)
        return _income(V, paid, opp_offer[x], tie_home[x], weights[x], tol)

    def state(u: np.ndarray) -> dict:
        key = u.tobytes()
        if base.get("key") != key:
            T = C + u
            V = T.min(axis=1)
            M = T <= V[:, None] + tol
            member_prices = np.where(M, u, -np.inf)
            if m > 1:
                s2 = np.partition(T, 1, axis=1)[:, 1]
                top = np.partition(member_prices, m - 2, axis=1)
                paid, pm2 = top[:, -1:], top[:, -2:-1]
            else:
                s2, paid, pm2 = np.full(n, np.inf), member_prices, np.full((n, 1), -np.inf)
            unique = (T == V[:, None]) & (s2 > V)[:, None]
            # per (column, customer): is it the unique best offer, and the price paid without it
            paid_wo = np.where(M & (u == paid) & ~unique, pm2, paid)
            base.update(key=key, V=V, Vtol=V + tol, unique=unique.T.copy(), paid_wo=paid_wo.T.copy())
        return base

    def trials(points: np.ndarray, owner: np.ndarray, idx: np.ndarray, ts: np.ndarray, floors) -> np.ndarray:
        (u,) = points  # the polish climbs one start
        b = state(u)

        def scores(ks: np.ndarray) -> np.ndarray:
            i, V, t = idx[ks], b["V"], ts[ks, None]
            ci = Ct[i] + t
            lower = ci < V
            paid_wo = b["paid_wo"][i]
            paid = np.where(lower, t, np.where(ci <= b["Vtol"], np.maximum(paid_wo, t), paid_wo))
            out = _income(np.where(lower, ci, V), paid, opp_offer, tie_home, weights, tol)
            redo = np.flatnonzero((lower & (ci + tol >= V)) | b["unique"][i])
            if redo.size:
                trial_rows = _trial_rows(points, owner[ks], i, ts[ks])
                out.flat[redo] = _sliced(lambda flat: rescore(trial_rows, flat), m)(redo)
            return out.sum(axis=1)

        return _sliced(scores, n)(np.arange(len(ts)))

    return trials


def payoffs(
    p: PricePattern | np.ndarray,
    q: PricePattern | np.ndarray,
    ctx: GameContext,
) -> tuple[float, float]:
    """Income of both players under the home-region tie rule.

    Captured customers pay the price at the tie-broken (price-maximizing)
    location inside the winning player's region.
    """
    a_idx, b_idx = ctx.indices("A"), ctx.indices("B")
    pv = _strategy_values(p, a_idx, ctx.region.size)
    qv = _strategy_values(q, b_idx, ctx.region.size)
    offer_a = ct.value_table(pv, ctx.cost, a_idx)
    offer_b = ct.value_table(qv, ctx.cost, b_idx)
    pay_a = _player_payoff_batch(ctx, a_idx, offer_b, ctx.tie_home("A"), ctx.tol)
    pay_b = _player_payoff_batch(ctx, b_idx, offer_a, ctx.tie_home("B"), ctx.tol)
    return float(pay_a(pv[a_idx][None, :])[0]), float(pay_b(qv[b_idx][None, :])[0])


@dataclass
class BestResponseResult:
    player: str
    prices: np.ndarray  # values on the player's own points
    payoff: float  # scored with the home-region tie rule
    diagnostics: dict = field(default_factory=dict)

    def pattern(self, ctx: GameContext) -> PricePattern:
        """Full-length pattern: own prices in place, zero elsewhere."""
        v = np.zeros(ctx.region.size)
        v[ctx.indices(self.player)] = self.prices
        return PricePattern(v)


def best_response(
    player: str,
    opponent_price: PricePattern | np.ndarray,
    ctx: GameContext,
    search: NashSearchConfig = NashSearchConfig(),
) -> BestResponseResult:
    """Best reply to a fixed opponent pattern, scored by the game payoff.

    The candidate family scans frontier-cone patterns min(cap, margin +
    transport from the opponent's region) over a quantized margin grid, then
    polishes coordinates on the price grid.  Prices are capped per point by
    the opponent's standing offer (and the optional global cap): charging
    more there can never win a customer.
    """
    my_idx = ctx.indices(player)
    opp_idx = ctx.indices("B" if player == "A" else "A")
    opp_vals = _strategy_values(opponent_price, opp_idx, ctx.region.size)
    opp_offer = ct.value_table(opp_vals, ctx.cost, opp_idx)
    if ctx.kernel.is_metric:
        caps = opp_offer[my_idx].copy()
    else:
        caps = np.full(my_idx.size, float(opp_offer.max()))
    if ctx.price_cap is not None:
        caps = np.minimum(caps, ctx.price_cap)
    caps = np.maximum(caps, 0.0)
    frontier = ctx.cost[np.ix_(my_idx, opp_idx)].min(axis=1)
    pay = _player_payoff_batch(ctx, my_idx, opp_offer, ctx.tie_home(player), ctx.tol)

    cap_global = float(caps.max()) if caps.size else 0.0
    scale = search.price_scale if search.price_scale is not None else cap_global
    step = scale / search.grid_n if scale > 0 else 0.0
    # margins live on a fixed absolute grid: opponents built on the same grid
    # are undercut by exactly one step, never by a vanishing sliver
    margins = np.arange(0.0, cap_global + 0.5 * step, step) if step > 0 else np.zeros(1)
    cones = np.minimum(caps[None, :], margins[:, None] + frontier[None, :])
    # every later cone repeats the first all-capped one, and ties go to the smallest margin
    capped = (cones == caps).all(axis=1)
    vals = pay(cones[: int(np.argmax(capped)) + 1 if capped.any() else len(cones)])
    # prefer the smallest margin among near-equal payoffs so that exact
    # knife-edges between tying and undercutting resolve deterministically
    tie_eps = TIE_REL * (1.0 + scale) * (1.0 + ctx.f.total_mass)
    j = int(np.argmax(vals >= vals.max() - tie_eps))
    best = cones[j].copy()
    best_val = float(vals[j])
    n_eval = len(margins)

    if step > 0:
        polish = SearchConfig(max_sweeps=search.polish_sweeps, refine_halvings=0)
        trials = _player_trial_scores(ctx, my_idx, opp_offer, ctx.tie_home(player), ctx.tol)
        best, best_val, diag = coordinate_ascent(pay, caps, [best], polish, step=step, on_grid_cap=True, trials=trials)
        n_eval += diag["evaluations"]

    return BestResponseResult(player=player, prices=best, payoff=best_val, diagnostics={"evaluations": n_eval, "price_step": step})


@dataclass
class RoundRecord:
    round: int
    p: np.ndarray  # prices on A's points
    q: np.ndarray  # prices on B's points
    payoff_a: float
    payoff_b: float
    delta_p: float
    delta_q: float


@dataclass
class DynamicsTrace:
    rounds: list[RoundRecord]
    converged: bool
    oscillation_period: Optional[int]
    eps: float

    @property
    def final(self) -> tuple[np.ndarray, np.ndarray]:
        last = self.rounds[-1]
        return last.p, last.q


def best_response_dynamics(
    p_init: PricePattern | np.ndarray,
    q_init: PricePattern | np.ndarray,
    ctx: GameContext,
    rounds: int,
    eps: float,
    search: NashSearchConfig = NashSearchConfig(),
) -> DynamicsTrace:
    """Alternating best responses (A moves first within each round).

    Stops when a round changes neither strategy by more than eps in sup norm,
    or when the pair revisits a recent state (cycle of period 2..4, recorded);
    non-convergence within the round budget is a valid outcome.
    """
    if rounds < 1:
        raise ValueError("the dynamics need at least one round")
    a_idx, b_idx = ctx.indices("A"), ctx.indices("B")
    n = ctx.region.size
    # strategies are full-length vectors read only on the owner's points
    pv = _strategy_values(p_init, a_idx, n)
    qv = _strategy_values(q_init, b_idx, n)
    p, q = pv[a_idx], qv[b_idx]
    if search.price_scale is None:
        # pin one price grid for the whole run so undercuts step uniformly
        scale = max(float(ct.value_table(qv, ctx.cost, b_idx).max()), float(ct.value_table(pv, ctx.cost, a_idx).max()))
        if ctx.price_cap is not None:
            scale = min(scale, float(ctx.price_cap) + float(ctx.cost.max()))
        search = replace(search, price_scale=scale)
    history: list[tuple[np.ndarray, np.ndarray]] = [(p.copy(), q.copy())]
    trace: list[RoundRecord] = []
    converged = False
    oscillation = None
    for r in range(1, rounds + 1):
        ra = best_response("A", qv, ctx, search)
        pv = ra.pattern(ctx)
        rb = best_response("B", pv, ctx, search)
        qv = rb.pattern(ctx)
        delta_p = float(np.max(np.abs(ra.prices - p))) if p.size else 0.0
        delta_q = float(np.max(np.abs(rb.prices - q))) if q.size else 0.0
        p, q = ra.prices, rb.prices
        pi_a, pi_b = payoffs(pv, qv, ctx)
        trace.append(RoundRecord(r, p.copy(), q.copy(), pi_a, pi_b, delta_p, delta_q))
        if max(delta_p, delta_q) <= eps:
            converged = True
            break
        for back in range(2, min(4, len(history)) + 1):
            hp, hq = history[-back]
            if np.max(np.abs(hp - p)) <= eps and np.max(np.abs(hq - q)) <= eps:
                oscillation = back
                break
        if oscillation is not None:
            break
        history.append((p.copy(), q.copy()))
    return DynamicsTrace(rounds=trace, converged=converged, oscillation_period=oscillation, eps=eps)


@dataclass
class EquilibriumReport:
    is_equilibrium: bool
    best_deviation_gain_a: float
    best_deviation_gain_b: float
    tol: float


def verify_equilibrium(
    p_star: PricePattern | np.ndarray,
    q_star: PricePattern | np.ndarray,
    ctx: GameContext,
    search: NashSearchConfig = NashSearchConfig(),
) -> EquilibriumReport:
    """Check that neither player gains from a unilateral family deviation by
    more than one price step per unit of customer mass plus the tolerance.

    Deviations are searched over the best-response family only; a
    profitable deviation outside it cannot be detected.  Unless
    `search.price_scale` is pinned, each best response builds its price
    grid from the caps at the strategies checked, not from the grid the
    dynamics used, so the strategy itself may not be on it.  A reported gain
    can then be slightly negative: the golden scenario
    `nash_verify_tiny_cap` reports -1.75e-11 for player A."""
    a_idx, b_idx = ctx.indices("A"), ctx.indices("B")
    n = ctx.region.size
    pv = _strategy_values(p_star, a_idx, n)
    qv = _strategy_values(q_star, b_idx, n)
    pi_a, pi_b = payoffs(pv, qv, ctx)
    ra = best_response("A", qv, ctx, search)
    rb = best_response("B", pv, ctx, search)
    gain_a = ra.payoff - pi_a
    gain_b = rb.payoff - pi_b
    step = max(ra.diagnostics["price_step"], rb.diagnostics["price_step"])
    tol = step * ctx.f.total_mass + ctx.tol
    return EquilibriumReport(
        is_equilibrium=bool(gain_a <= tol and gain_b <= tol),
        best_deviation_gain_a=float(gain_a),
        best_deviation_gain_b=float(gain_b),
        tol=float(tol),
    )
