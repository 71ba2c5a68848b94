"""Independent dense re-scoring of solver answers, in numpy only.

Written apart from the library so that a faster library kernel cannot be
wrong in the same way as the library's own self-checks.  Every function
builds the full cost table and evaluates one price vector directly:

- a customer at x pays p(y) + c(x, y) and buys where that total is
  smallest; among totals within TIE_TOL of the minimum the highest price
  wins (the price-maximizing tie rule);
- in subregion pricing a customer is captured when some cheapest location
  is a free point, and then pays the highest free price among them;
- in the two-player game the lower offer wins, and an exact tie goes to the
  customer's home player.

TIE_TOL is 1e-9 * (1 + max |c|), the tie width the solvers are specified
with; profits must agree within PROFIT_RTOL relative to 1 + |profit|.
"""

from __future__ import annotations

import numpy as np

PROFIT_RTOL = 1e-9


def cost_table(points: np.ndarray, cost: str, alpha: float) -> np.ndarray:
    d = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=-1))
    return 0.5 * d * d if cost == "quadratic" else d**alpha


def tie_tol(c: np.ndarray) -> float:
    return 1e-9 * (1.0 + float(np.abs(c).max()))


def _paid(c: np.ndarray, prices: np.ndarray, cols: np.ndarray, cheapest: np.ndarray, tol: float):
    """Per customer: whether a column's total is within tol of `cheapest`, and the highest such price."""
    totals = c[:, cols] + prices[cols][None, :]
    member = totals <= cheapest[:, None] + tol
    return member.any(axis=1), np.where(member, prices[cols][None, :], -np.inf).max(axis=1)


def profit_whole(prices: np.ndarray, c: np.ndarray, w: np.ndarray) -> float:
    """Model one: every customer buys somewhere and pays the tie-broken price."""
    cheapest = (c + prices[None, :]).min(axis=1)
    _, paid = _paid(c, prices, np.arange(len(prices)), cheapest, tie_tol(c))
    return float(w @ paid)


def profit_subregion(prices: np.ndarray, c: np.ndarray, w: np.ndarray, free: np.ndarray) -> float:
    """Model two: only customers with a cheapest location in the free part pay the agent."""
    cheapest = (c + prices[None, :]).min(axis=1)
    captured, paid = _paid(c, prices, np.flatnonzero(free), cheapest, tie_tol(c))
    return float(w @ np.where(captured, paid, 0.0))


def payoffs_game(p: np.ndarray, q: np.ndarray, c: np.ndarray, w: np.ndarray,
                 a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Two players on owned points a and b; shared points carry no customers."""
    tol = tie_tol(c)
    w = np.where(a & b, 0.0, w)
    offer_a = (c[:, a] + p[a][None, :]).min(axis=1)
    offer_b = (c[:, b] + q[b][None, :]).min(axis=1)
    _, paid_a = _paid(c, p, np.flatnonzero(a), offer_a, tol)
    _, paid_b = _paid(c, q, np.flatnonzero(b), offer_b, tol)
    tie = np.abs(offer_a - offer_b) <= tol
    win_a = (offer_a < offer_b - tol) | (tie & a)
    win_b = (offer_b < offer_a - tol) | (tie & b & ~a)
    return float(w @ np.where(win_a, paid_a, 0.0)), float(w @ np.where(win_b, paid_b, 0.0))


def close(x: float, y: float) -> bool:
    return abs(x - y) <= PROFIT_RTOL * (1.0 + abs(y))
