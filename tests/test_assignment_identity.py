"""Bit-identity of `assignment_table`'s choices with their candidate-set versions.

The two functions below are earlier library code, kept verbatim as the
oracle: it restricted purchases to a `candidates` subset and copied the cost
columns of that subset, and it restricted choices to `within` from a stored
argmin-set table.  Every caller passed all points, so the library now works
on the full table, in one pass; on all points both must give the same bits.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest

import spatial_pricing as sp
from spatial_pricing.ctransform import assignment_table, scale_tol

from helpers import random_points, region_from_points


@dataclass(frozen=True)
class AssignmentMap:
    candidates: np.ndarray
    member: np.ndarray
    expenditure: np.ndarray
    choice: np.ndarray


def candidate_set_assignment_table(
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


def candidate_set_tie_break(
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


KERNELS = ["metric_1", "metric_power", "quadratic", "custom_table"]


def _kernel(kind, rng, n):
    if kind == "metric_1":
        return sp.CostKernel.metric(1.0)
    if kind == "metric_power":
        return sp.CostKernel.metric(float(rng.uniform(0.3, 1.0)))
    if kind == "quadratic":
        return sp.CostKernel.quadratic()
    # a coarse symmetric table: equal entries make exact ties common
    t = np.round(rng.uniform(0.05, 2.0, (n, n)), 1)
    t = np.maximum(t, t.T)
    np.fill_diagonal(t, 0.0)
    return sp.CostKernel.custom(t)


def _region(rng, dim, grid):
    """Equally spaced points (exact distance ties) when `grid`, random points otherwise."""
    if dim == 1:
        n = int(rng.integers(2, 30))
        return sp.build_interval_region(n, 0.0, 1.0) if grid else region_from_points(random_points(rng, n))
    nx, ny = int(rng.integers(2, 6)), int(rng.integers(2, 6))
    return sp.build_grid_region(nx, ny) if grid else region_from_points(random_points(rng, nx * ny, 2))


def _within_sets(rng, n):
    """Empty, all points, and random subsets in random order."""
    yield np.array([], dtype=int)
    yield np.arange(n)
    for _ in range(3):
        yield rng.permutation(n)[: int(rng.integers(1, n + 1))]


@pytest.mark.parametrize("kind", KERNELS)
@pytest.mark.parametrize("dim", [1, 2])
def test_bit_identical_to_the_candidate_set_version(kind, dim):
    rng = np.random.default_rng(100 * dim + KERNELS.index(kind))
    ties = lost = 0
    for case in range(40):
        region = _region(rng, dim, grid=case % 2 == 0)
        n = region.size
        cost = sp.eval_cost(_kernel(kind, rng, n), region)
        # prices on a coarse grid tie exactly; about a quarter are +inf
        prices = np.round(rng.uniform(0.0, 2.0, n) * 4) / 4
        prices[rng.uniform(size=n) < 0.25] = np.inf
        if not np.isfinite(prices).any():
            prices[int(rng.integers(n))] = 0.5
        want = candidate_set_assignment_table(prices, cost)
        tol = scale_tol(cost)
        expenditure, choice = assignment_table(prices, cost, tol)
        assert np.array_equal(expenditure, want.expenditure)
        assert np.array_equal(choice, want.choice)
        assert np.array_equal(assignment_table(prices, cost, tol, np.arange(n))[2], candidate_set_tie_break(want, prices))
        for within in _within_sets(rng, n):
            chosen = assignment_table(prices, cost, tol, within)[2]
            assert np.array_equal(chosen, candidate_set_tie_break(want, prices, within))
            lost += int((chosen < 0).sum())
        ties += int((want.member.sum(axis=1) > 1).sum())
    assert ties > 0 and lost > 0  # both the tie rule and the lost-customer branch ran
