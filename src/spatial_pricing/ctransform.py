"""Transforms and value functions for cost-concave pricing analysis.

Everything here reduces to exact min-plus arithmetic on the finite cost
table: the customer value function v(x) = min_y {c(x, y) + p(y)}, the
c-transform v^c(y) = min_x {c(x, y) - v(x)}, superdifferentials, and the
tie-breaking rule used when several purchase locations are cost-equivalent.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import CostKernel, PricePattern, Region, eval_cost

__all__ = [
    "ValueKind",
    "ValueFunction",
    "AssignmentMap",
    "NotCConcaveError",
    "scale_tol",
    "value_table",
    "value_function",
    "c_transform_table",
    "c_transform",
    "double_transform_table",
    "is_c_concave_table",
    "is_c_concave",
    "superdifferential_mask",
    "superdifferential",
    "assignment_table",
    "assignment",
    "tie_break",
]


class ValueKind(enum.Enum):
    FULL = "full"          # concave w.r.t. generators on the whole region
    SUBREGION = "subregion"  # generators restricted to a point subset


class NotCConcaveError(ValueError):
    """Raised when an operation requires a cost-concave input and the check fails."""


def scale_tol(cost: np.ndarray) -> float:
    """Scale-aware equality tolerance used for all argmin/profit comparisons."""
    return 1e-9 * (1.0 + float(np.max(np.abs(cost))))


@dataclass(frozen=True)
class ValueFunction:
    """Pointwise minimal-expenditure function over the region.

    values     : one real per region point.
    kind       : FULL when generated over the whole region, SUBREGION when
                 generated over `generators` only.
    generators : index set of admissible purchase points (None = all).
    """

    values: np.ndarray
    kind: ValueKind = ValueKind.FULL
    generators: Optional[np.ndarray] = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if self.generators is not None:
            g = np.sort(np.asarray(self.generators, dtype=int))
            object.__setattr__(self, "generators", g)


def _prices_array(p, n: Optional[int] = None) -> np.ndarray:
    v = p.values if isinstance(p, PricePattern) else np.asarray(p, dtype=float)
    if n is not None and v.shape != (n,):
        raise ValueError("price vector does not match the region size")
    return v


def _values_array(v) -> np.ndarray:
    return v.values if isinstance(v, ValueFunction) else np.asarray(v, dtype=float)


def value_table(prices: np.ndarray, cost: np.ndarray, candidates: Optional[np.ndarray] = None) -> np.ndarray:
    """v(x) = min over candidate y of {c(x, y) + p(y)}; +inf prices are skipped."""
    cols = cost if candidates is None else cost[:, candidates]
    pvals = prices if candidates is None else prices[candidates]
    if not np.isfinite(pvals).any():
        raise ValueError("improper prices: no finite value inside the candidate set")
    return np.min(cols + pvals[None, :], axis=1)


def value_function(
    p: PricePattern | np.ndarray,
    kernel: CostKernel,
    region: Region,
    restrict_to: Optional[np.ndarray] = None,
) -> ValueFunction:
    """Value function of p; with `restrict_to`, the subregion value function."""
    vals = value_table(_prices_array(p, region.size), eval_cost(kernel, region), restrict_to)
    kind = ValueKind.FULL if restrict_to is None else ValueKind.SUBREGION
    return ValueFunction(vals, kind, None if restrict_to is None else np.asarray(restrict_to, dtype=int))


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


def c_transform(
    v: ValueFunction | np.ndarray,
    kernel: CostKernel,
    region: Region,
    target: Optional[np.ndarray] = None,
) -> np.ndarray:
    return c_transform_table(_values_array(v), eval_cost(kernel, region), target)


def is_c_concave_table(
    values: np.ndarray,
    cost: np.ndarray,
    within: Optional[np.ndarray] = None,
    tol: Optional[float] = None,
    vc: Optional[np.ndarray] = None,
) -> bool:
    """True iff the double transform (over `within`) reproduces the values up
    to tol; `vc`, when given, is v^c over `within`."""
    tol = scale_tol(cost) if tol is None else tol
    return bool(np.max(np.abs(double_transform_table(values, cost, within, vc) - values)) <= tol)


def is_c_concave(
    v: ValueFunction | np.ndarray,
    kernel: CostKernel,
    region: Region,
    within: Optional[np.ndarray] = None,
    tol: Optional[float] = None,
) -> bool:
    return is_c_concave_table(_values_array(v), eval_cost(kernel, region), within, tol)


def superdifferential_mask(
    values: np.ndarray,
    cost: np.ndarray,
    within: Optional[np.ndarray] = None,
    tol: Optional[float] = None,
    vc: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Boolean (n, |within|) membership table of y in the superdifferential at x.

    Raises NotCConcaveError when some point has an empty superdifferential,
    which signals that `values` is not cost-concave w.r.t. `within`.
    """
    tol = scale_tol(cost) if tol is None else tol
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


def superdifferential(
    v: ValueFunction | np.ndarray,
    kernel: CostKernel,
    region: Region,
    x: int,
    within: Optional[np.ndarray] = None,
    tol: Optional[float] = None,
) -> np.ndarray:
    """Global indices y in `within` with v(x) + v^c(y) = c(x, y) up to tol."""
    cost = eval_cost(kernel, region)
    values = _values_array(v)
    tol = scale_tol(cost) if tol is None else tol
    vc = c_transform_table(values, cost, within)
    cols = cost[x] if within is None else cost[x, within]
    local = np.nonzero(np.abs(values[x] + vc - cols) <= tol)[0]
    if local.size == 0:
        raise NotCConcaveError(f"empty superdifferential at point {x}")
    return local if within is None else np.asarray(within)[local]


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
    tol: Optional[float] = None,
) -> AssignmentMap:
    """Argmin sets of c(x, y) + p(y) over the candidate set, with tie-broken choice.

    The choice maximizes the price over the argmin set (equivalently minimizes
    transport); remaining ties go to the smallest point index.
    """
    tol = scale_tol(cost) if tol is None else tol
    cand = np.arange(cost.shape[1]) if candidates is None else np.sort(np.asarray(candidates, dtype=int))
    if not np.isfinite(prices[cand]).any():
        raise ValueError("improper prices: no finite value inside the candidate set")
    totals = cost[:, cand] + prices[cand][None, :]
    expenditure = totals.min(axis=1)
    member = totals <= expenditure[:, None] + tol
    priced = np.where(member, prices[cand][None, :], -np.inf)
    choice = cand[np.argmax(priced, axis=1)]  # argmax takes the first max: smallest index
    return AssignmentMap(candidates=cand, member=member, expenditure=expenditure, choice=choice)


def assignment(
    p: PricePattern | np.ndarray,
    kernel: CostKernel,
    region: Region,
    candidates: Optional[np.ndarray] = None,
    tol: Optional[float] = None,
) -> AssignmentMap:
    return assignment_table(_prices_array(p, region.size), eval_cost(kernel, region), candidates, tol)


def tie_break(
    assign: AssignmentMap,
    p: PricePattern | np.ndarray,
    within: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Chosen purchase point per customer, restricted to `within`.

    Among the argmin set intersected with `within`, picks the price-maximizing
    point, then the smallest index.  Customers whose intersection is empty get
    -1 (they are lost to the outside option).
    """
    prices = _prices_array(p)
    if within is None:
        keep = np.ones(len(assign.candidates), dtype=bool)
    else:
        keep = np.isin(assign.candidates, np.asarray(within, dtype=int))
    member = assign.member & keep[None, :]
    priced = np.where(member, prices[assign.candidates][None, :], -np.inf)
    has_any = member.any(axis=1)
    choice = np.where(has_any, assign.candidates[np.argmax(priced, axis=1)], -1)
    return choice
