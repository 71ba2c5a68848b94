"""Transforms and value functions for cost-concave pricing analysis.

Everything here reduces to exact min-plus arithmetic on the finite cost
table: the customer value function v(x) = min_y {c(x, y) + p(y)}, the
c-transform v^c(y) = min_x {c(x, y) - v(x)}, superdifferentials, and the
tie-breaking rule used when several purchase locations are cost-equivalent.
Every function takes the (n, m) cost table and plain arrays; callers build
the table once (`geometry.eval_cost`) and keep it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "AssignmentMap",
    "NotCConcaveError",
    "scale_tol",
    "value_table",
    "c_transform_table",
    "double_transform_table",
    "is_c_concave_table",
    "superdifferential_mask",
    "assignment_table",
    "tie_break",
]


class NotCConcaveError(ValueError):
    """Raised when an operation requires a cost-concave input and the check fails."""


def scale_tol(cost: np.ndarray) -> float:
    """Scale-aware equality tolerance of a cost table; comparisons derive it from their table, callers never pass one."""
    return 1e-9 * (1.0 + float(np.max(np.abs(cost))))


def _check_slack(tol: float, mass: float = 0.0) -> float:
    """Slack of the runtime self-checks: 10 tolerances per unit of mass, plus 10."""
    return 10.0 * tol * (1.0 + mass)


def value_table(prices: np.ndarray, cost: np.ndarray, candidates: Optional[np.ndarray] = None) -> np.ndarray:
    """v(x) = min over candidate y of {c(x, y) + p(y)}; +inf prices are skipped."""
    cols = cost if candidates is None else cost[:, candidates]
    pvals = prices if candidates is None else prices[candidates]
    if not np.isfinite(pvals).any():
        raise ValueError("improper prices: no finite value inside the candidate set")
    return np.min(cols + pvals[None, :], axis=1)


def c_transform_table(values: np.ndarray, cost: np.ndarray, target: Optional[np.ndarray] = None) -> np.ndarray:
    """v^c(y) = min_x {c(x, y) - v(x)} for y in target (default: all points)."""
    if not np.all(np.isfinite(values)):
        raise ValueError("c-transform requires finite values everywhere")
    cols = cost if target is None else cost[:, target]
    return np.min(cols - values[:, None], axis=0)


def double_transform_table(
    values: np.ndarray, cost: np.ndarray, generators: Optional[np.ndarray] = None, vc: Optional[np.ndarray] = None
) -> np.ndarray:
    """Smallest cost-concave (w.r.t. the generators) function above `values`:
    min over generator y of {c(x, y) - v^c(y)} for every x.  `vc`, when
    given, is v^c over the generators."""
    if vc is None:
        vc = c_transform_table(values, cost, generators)
    cols = cost if generators is None else cost[:, generators]
    return np.min(cols - vc[None, :], axis=1)


def is_c_concave_table(
    values: np.ndarray,
    cost: np.ndarray,
    within: Optional[np.ndarray] = None,
    vc: Optional[np.ndarray] = None,
) -> bool:
    """True iff the double transform (over `within`) reproduces the values up
    to the table's tolerance; `vc`, when given, is v^c over `within`."""
    return bool(np.max(np.abs(double_transform_table(values, cost, within, vc) - values)) <= scale_tol(cost))


def superdifferential_mask(
    values: np.ndarray,
    cost: np.ndarray,
    within: Optional[np.ndarray] = None,
    vc: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Boolean (n, |within|) membership table of y in the superdifferential at x.

    Raises NotCConcaveError when some point has an empty superdifferential,
    which signals that `values` is not cost-concave w.r.t. `within`.
    """
    tol = scale_tol(cost)
    if vc is None:
        vc = c_transform_table(values, cost, within)
    cols = cost if within is None else cost[:, within]
    member = np.abs(values[:, None] + vc[None, :] - cols) <= tol
    if not member.any(axis=1).all():
        raise NotCConcaveError("empty superdifferential: values are not cost-concave on the given set")
    return member


def _transport(values: np.ndarray, vc: np.ndarray, cols: np.ndarray, tol: float) -> np.ndarray:
    """Cheapest c(x, y) into the superdifferential at each x (+inf if empty).

    Membership v(x) + v^c(y) - c(x, y) >= -tol is one-sided, since v^c bounds
    it above by 0; leading axes of `values` and `vc` are a batch."""
    gap = values[..., :, None] + vc[..., None, :]
    gap -= cols
    member = gap >= -tol
    del gap
    return np.where(member, cols, np.inf).min(axis=-1)


@dataclass(frozen=True)
class AssignmentMap:
    """Customer assignment: argmin sets, tie-broken choices, expenditures.

    candidates  : sorted global indices of admissible purchase points.
    member      : (n, len(candidates)) bool, y in the argmin set of x.
    expenditure : (n,) minimal total expenditure v_p(x).
    choice      : (n,) global index of the tie-broken purchase point.
    """

    candidates: np.ndarray
    member: np.ndarray
    expenditure: np.ndarray
    choice: np.ndarray


def assignment_table(
    prices: np.ndarray,
    cost: np.ndarray,
    candidates: Optional[np.ndarray] = None,
) -> AssignmentMap:
    """Argmin sets of c(x, y) + p(y) over the candidate set, with tie-broken choice.

    The choice maximizes the price over the argmin set (equivalently minimizes
    transport); remaining ties go to the smallest point index.
    """
    tol = scale_tol(cost)
    cand = np.arange(cost.shape[1]) if candidates is None else np.sort(np.asarray(candidates, dtype=int))
    if not np.isfinite(prices[cand]).any():
        raise ValueError("improper prices: no finite value inside the candidate set")
    totals = cost[:, cand] + prices[cand][None, :]
    expenditure = totals.min(axis=1)
    member = totals <= expenditure[:, None] + tol
    priced = np.where(member, prices[cand][None, :], -np.inf)
    choice = cand[np.argmax(priced, axis=1)]  # argmax takes the first max: smallest index
    return AssignmentMap(candidates=cand, member=member, expenditure=expenditure, choice=choice)


def tie_break(
    assign: AssignmentMap,
    prices: np.ndarray,
    within: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Chosen purchase point per customer, restricted to `within`.

    Among the argmin set intersected with `within`, picks the price-maximizing
    point, then the smallest index.  Customers whose intersection is empty get
    -1 (they are lost to the outside option).
    """
    if within is None:
        keep = np.ones(len(assign.candidates), dtype=bool)
    else:
        keep = np.isin(assign.candidates, np.asarray(within, dtype=int))
    member = assign.member & keep[None, :]
    priced = np.where(member, prices[assign.candidates][None, :], -np.inf)
    has_any = member.any(axis=1)
    choice = np.where(has_any, assign.candidates[np.argmax(priced, axis=1)], -1)
    return choice
