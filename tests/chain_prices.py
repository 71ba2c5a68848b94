"""Exact prices of 1D model one for a fixed nondecreasing assignment, a test
oracle for the quadratic and other twist costs.

Customers x_0 < ... < x_{n-1} buy in blocks I_1 < ... < I_K at points
y_1 < ... < y_K, and every unused point is priced at its bound p0.  Prices
p_k at the y_k support that assignment when

- p_k <= U_k = min over x in I_k of (v0(x) - c(x, y_k)), v0 the value
  function of the bound (v0(x) = min_y {c(x, y) + p0(y)}): no customer of
  the block prefers an unused point, and p_k <= p0(y_k);
- p_k - p_{k+1} <= c(b_k, y_{k+1}) - c(b_k, y_k), b_k the last customer
  of I_k;
- p_{k+1} - p_k <= c(a_{k+1}, y_k) - c(a_{k+1}, y_{k+1}), a_{k+1} the
  first customer of I_{k+1}.

Under a twist cost the argmin sets are monotone in x (single crossing), so
these adjacent-block constraints imply every other one.  A set of
difference constraints is closed under max, so its greatest element
maximizes every sum of block prices with nonnegative weights; on a chain
one forward and one backward min pass compute it.
"""

import numpy as np


def chain_prices(choice: np.ndarray, cost: np.ndarray, p0: np.ndarray) -> np.ndarray:
    """The greatest prices that support `choice` (customer i buys at point
    choice[i]; points sorted by coordinate, choice nondecreasing), with
    every unused point priced at its bound p0.  Raises ValueError when the
    assignment decreases."""
    choice = np.asarray(choice)
    if np.any(np.diff(choice) < 0):
        raise ValueError("the assignment must be nondecreasing")
    v0 = np.min(cost + p0[None, :], axis=1)
    first = np.flatnonzero(np.r_[True, choice[1:] != choice[:-1]])  # a_k
    last = np.r_[first[1:], len(choice)] - 1  # b_k
    ys = choice[first]
    p = np.array([np.min(v0[a : b + 1] - cost[a : b + 1, y]) for a, b, y in zip(first, last, ys)])
    for k in range(len(ys) - 1):
        a = first[k + 1]
        p[k + 1] = min(p[k + 1], p[k] + cost[a, ys[k]] - cost[a, ys[k + 1]])
    for k in range(len(ys) - 2, -1, -1):
        b = last[k]
        p[k] = min(p[k], p[k + 1] + cost[b, ys[k + 1]] - cost[b, ys[k]])
    prices = np.array(p0, dtype=float)
    prices[ys] = p
    return prices
