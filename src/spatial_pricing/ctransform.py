"""Transforms and value functions for cost-concave pricing analysis.

Everything here reduces to exact min-plus arithmetic on the finite cost
table: the customer value function v(x) = min_y {c(x, y) + p(y)}, the
c-transform v^c(y) = min_x {c(x, y) - v(x)}, superdifferentials, and the
tie-breaking rule used when several purchase locations are cost-equivalent.
Every function takes the (n, m) cost table and plain arrays.  The table is
a context's (`geometry.cost_table`): an array, or an on-demand table
(`geometry.LineDistances` for the distance on a line, `geometry.GridCosts`
on a full 2D grid), which computes each block as it is read.  The table
functions only read blocks of it (row blocks, column blocks and their
column subsets) and take its `max` and `min`, so they never hold it
whole.  Each holds its one full-size output plus temporaries of at most
`geometry.BLOCK_CELLS` cells: it works in blocks of the axis it does not
reduce, so its results are bit-identical to one dense expression.  A call
allocates its block buffers once and works on every block in them.  An
on-demand table writes each block into them (`fill`) in the layout numpy
gives that index of an array; an array table answers with numpy's own
`cost[rows, cols]`, a view or a gathered block, in no buffer.  Only
`_value_profit`'s scan, the searches' one, takes new temporaries per block.

Model one is model two with nothing fixed, so both score a value function w
with one profit kernel: a customer with w(x) <= v0(x) pays w(x) minus the
cheapest transport into the superdifferential at x, the others shop outside
(model one: v0 = +inf).  `_generator_score` scores a batch of value
functions generated on some columns, for every search; `_value_profit` one
value function, for the reports.  `_generator_bound` bounds the score from
above by each customer's cheapest column, for every search objective.

The searches skip most of the transport scan by a nearest-column rule: when
a customer's cheapest column j*(x) is in the superdifferential at x, the
transport is its cost c*(x), the row minimum, with no scan.  With the
distance cost it resolves about 95% of a model-two search's customers (a
1-Lipschitz value keeps free customers at home; captured fixed ones mostly
travel to the nearest free point).  Model one's j*(x) is x itself, a member
only where the customer buys at home, so where customers travel its batches
take the dense fallback, which the share of customers missed in each batch
decides.  The reports keep the dense scan, so their self-checks stay
independent.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .geometry import row_blocks

__all__ = [
    "NotCConcaveError",
    "scale_tol",
    "value_table",
    "c_transform_table",
    "double_transform_table",
    "is_c_concave_table",
    "assignment_table",
]


class NotCConcaveError(ValueError):
    """Raised when an operation requires a cost-concave input and the check fails."""


def scale_tol(cost: np.ndarray) -> float:
    """Scale-aware equality tolerance of a cost table; a context computes it once (`.tol`) and passes it to every comparison."""
    return 1e-9 * (1.0 + max(float(cost.max()), -float(cost.min())))


def _check_slack(tol: float, mass: float = 0.0) -> float:
    """Slack of the runtime self-checks: 10 tolerances per unit of mass, plus 10."""
    return 10.0 * tol * (1.0 + mass)


def _buffer(rows: int, width: int, dtype=float) -> np.ndarray:
    """One buffer for every block of a call that reads `rows` rows of
    `width` cells in `row_blocks`: the cells of its largest block."""
    first = next(row_blocks(rows, width), slice(0, 0))
    return np.empty((first.stop - first.start) * width, dtype)


def _shaped(buf: Optional[np.ndarray], rows: int, width: int, f_order: bool = False) -> Optional[np.ndarray]:
    """The leading cells of `buf` as a (rows, width) array, F-ordered when asked (None for None)."""
    if buf is None:
        return None
    cells = buf[: rows * width]
    return cells.reshape(width, rows).T if f_order else cells.reshape(rows, width)


def _block(cost, rows: slice, cols, out: Optional[np.ndarray]) -> np.ndarray:
    """The block (rows, cols) of the table, `cols` a slice or an index
    array, in the layout numpy gives that index of an array (`out`'s):
    an on-demand table writes it into `out`, an array answers with numpy's
    own `cost[rows, cols]` and needs no `out`."""
    if isinstance(cost, np.ndarray):
        return cost[rows, cols]
    cost.fill(rows, cols, out)
    return out


def value_table(prices: np.ndarray, cost: np.ndarray, candidates: Optional[np.ndarray] = None) -> np.ndarray:
    """v(x) = min over candidate y of {c(x, y) + p(y)}; +inf prices are skipped."""
    pvals = prices if candidates is None else prices[candidates]
    if not np.isfinite(pvals).any():
        raise ValueError("improper prices: no finite value inside the candidate set")
    return _row_min(cost, candidates, pvals, np.add)


def _row_min(cost, cols: Optional[np.ndarray], column_values: np.ndarray, op) -> np.ndarray:
    """min over the columns `cols` (all when None) of op(c(x, y), column_values(y)), for every x."""
    n, m = cost.shape[0], column_values.size
    out = np.empty(n)
    buf = _buffer(n, m)
    for rows in row_blocks(n, m):
        block = _shaped(buf, rows.stop - rows.start, m, cols is not None)
        op(_block(cost, rows, slice(None) if cols is None else cols, block), column_values, out=block)
        np.min(block, axis=1, out=out[rows])
    return out


def c_transform_table(values: np.ndarray, cost: np.ndarray, target: Optional[np.ndarray] = None) -> np.ndarray:
    """v^c(y) = min_x {c(x, y) - v(x)} for y in target (default: all points)."""
    if not np.all(np.isfinite(values)):
        raise ValueError("c-transform requires finite values everywhere")
    n = cost.shape[0]
    m = cost.shape[1] if target is None else len(target)
    out = np.empty(m)
    buf = _buffer(m, n)
    for cols in row_blocks(m, n):
        block = _shaped(buf, n, cols.stop - cols.start, target is not None)
        np.subtract(_block(cost, slice(None), cols if target is None else target[cols], block), values[:, None], out=block)
        np.min(block, axis=0, out=out[cols])
    return out


def double_transform_table(
    values: np.ndarray, cost: np.ndarray, generators: Optional[np.ndarray] = None, vc: Optional[np.ndarray] = None
) -> np.ndarray:
    """Smallest cost-concave (w.r.t. the generators) function above `values`:
    min over generator y of {c(x, y) - v^c(y)} for every x.  `vc`, when
    given, is v^c over the generators."""
    if vc is None:
        vc = c_transform_table(values, cost, generators)
    return _row_min(cost, generators, vc, np.subtract)


def is_c_concave_table(
    values: np.ndarray,
    cost: np.ndarray,
    tol: float,
    within: Optional[np.ndarray] = None,
    vc: Optional[np.ndarray] = None,
) -> bool:
    """True iff the double transform (over `within`) reproduces the values up
    to `tol`; `vc`, when given, is v^c over `within`."""
    return bool(np.max(np.abs(double_transform_table(values, cost, within, vc) - values)) <= tol)


def _nearest(cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's cheapest column j*(x) (the first, on ties) and its cost c*(x)."""
    j = np.argmin(cols, axis=1)
    return j, cols[np.arange(cols.shape[0]), j]


def _transport(
    values: np.ndarray, vc: np.ndarray, cols: np.ndarray, tol: float, nearest: Optional[tuple[np.ndarray, np.ndarray]] = None
) -> np.ndarray:
    """Cheapest c(x, y) into the superdifferential at each x (+inf if empty).

    Membership v(x) + v^c(y) - c(x, y) >= -tol is one-sided, since v^c bounds
    it above by 0; leading axes of `values` and `vc` are a batch.

    With `nearest` = `_nearest(cols)`, a customer whose cheapest column j* is
    a member costs c*(x) without a scan: the transport is a min over members
    and c*(x) is the row minimum.  The membership entry at j* uses the dense
    entry's float operations and min does not round, so the result is
    bit-identical (up to the sign of a zero minimum, which min leaves open
    in a row holding 0.0 and -0.0).  Only the other customers are scanned,
    as one (K, m) block, or the whole batch when they are most of it."""
    if nearest is None:
        gap = values[..., :, None] + vc[..., None, :]
        gap -= cols
        member = gap >= -tol
        del gap
        return np.where(member, cols, np.inf).min(axis=-1)
    j, c = nearest
    gap = np.take(vc, j, axis=-1)
    gap += values  # the dense entry's float operations: + is commutative, bit for bit
    gap -= c
    miss = ~(gap >= -tol)
    if 2 * np.count_nonzero(miss) > miss.size:
        # most customers need the scan: one dense pass costs less than gathering them
        return _transport(values, vc, cols, tol)
    n, m = cols.shape
    out = np.where(miss, np.inf, c)
    b, x = np.nonzero(miss.reshape(-1, n))
    if b.size:
        # each missed customer is a batch of one, scanned over all columns
        scanned = _transport(values.reshape(-1, n)[b, x, None], vc.reshape(-1, m)[b], cols[x, None, :], tol)
        out.reshape(-1, n)[b, x] = scanned[:, 0]
    return out


def _generator_score(cols: np.ndarray, v0, weights: np.ndarray, tol: float) -> Callable[[np.ndarray], np.ndarray]:
    """Profit of each value function of a batch W (..., n) generated on the
    columns `cols`: a customer with w(x) <= v0(x) + tol pays w(x) minus the
    cheapest transport into the superdifferential over `cols`, the others
    shop outside (model one: v0 = +inf).  Each customer's nearest column is
    found once, here."""
    nearest = _nearest(cols)

    def score(W: np.ndarray) -> np.ndarray:
        WC = np.min(cols - W[..., :, None], axis=-2)
        net = np.where(W <= v0 + tol, W - _transport(W, WC, cols, tol, nearest), 0.0)
        return (net * weights).sum(axis=-1)

    return score


def _generator_bound(cols: np.ndarray, v0, weights: np.ndarray, tol: float) -> Callable[[np.ndarray], np.ndarray]:
    """An upper bound on `_generator_score` of each value function of a batch
    W (..., n), for a fraction of its cost: each captured customer's
    transport replaced by c*(x), the row minimum of `cols`.

    Exact in floating point, row for row: the transport is a min over part
    of the row, so it is >= c*(x); the subtraction, the product with a
    weight >= 0 and every addition of the sum (the same pairwise tree over
    contiguous rows as the score's) are monotone under rounding."""
    c_star = cols.min(axis=1)

    def bound(W: np.ndarray) -> np.ndarray:
        return (np.where(W <= v0 + tol, W - c_star, 0.0) * weights).sum(axis=-1)

    return bound


def _value_profit(values: np.ndarray, cost: np.ndarray, within: Optional[np.ndarray], v0, weights: np.ndarray, tol: float) -> float:
    """`_generator_score` of one value function against the columns `within`
    (all when None) of the full table, a row block at a time, summed by one
    dot product.  Raises NotCConcaveError unless the values are cost concave
    w.r.t. `within`."""
    vc = c_transform_table(values, cost, within)
    if not is_c_concave_table(values, cost, tol, within, vc):
        raise NotCConcaveError("profit needs a value function that is cost concave w.r.t. the generators")
    n, m = cost.shape[0], vc.size
    delta = np.empty(n)
    buf = None if isinstance(cost, np.ndarray) else _buffer(n, m)  # cost blocks only
    for rows in row_blocks(n, m):
        block = _block(cost, rows, slice(None) if within is None else within, _shaped(buf, rows.stop - rows.start, m, within is not None))
        delta[rows] = _transport(values[rows], vc, block, tol)
    return float(np.dot(weights, np.where(values <= v0 + tol, values - delta, 0.0)))


def assignment_table(prices: np.ndarray, cost: np.ndarray, tol: float, within: Optional[np.ndarray] = None) -> tuple[np.ndarray, ...]:
    """Expenditure v_p(x) = min_y {c(x, y) + p(y)} and tie-broken purchase point of each customer.

    The argmin set holds the points within `tol` of the minimum.  The choice
    maximizes the price over it (equivalently minimizes transport);
    remaining ties go to the smallest point index.  Returns (expenditure,
    choice); with `within`, also the same choice over the argmin set
    intersected with `within` (-1 where that is empty: the customer is lost
    to the outside option) and the cheapest c(x, y) over it (+inf where
    empty).  Argmin sets exist one row block at a time.
    """
    if not np.isfinite(prices).any():
        raise ValueError("improper prices: no finite value anywhere")
    n, m = cost.shape
    expenditure = np.empty(n)
    choice = np.empty(n, dtype=np.intp)
    if within is not None:
        keep = np.zeros(len(prices), dtype=bool)
        keep[within] = True
        outside = None if keep.all() else ~keep  # None: within holds every column, so its choice is the choice
        within_choice = choice if outside is None else np.empty(n, dtype=np.intp)
        transport = np.empty(n)
    # the cost block, read once (an array table's own), and one buffer:
    # totals, then member prices, then member costs
    cost_buf = None if isinstance(cost, np.ndarray) else _buffer(n, m)
    totals_buf, member_buf = _buffer(n, m), _buffer(n, m, bool)
    for rows in row_blocks(n, m):
        r = rows.stop - rows.start
        block = _block(cost, rows, slice(None), _shaped(cost_buf, r, m))
        totals = np.add(block, prices, out=_shaped(totals_buf, r, m))
        np.min(totals, axis=1, out=expenditure[rows])
        member = np.less_equal(totals, expenditure[rows, None] + tol, out=_shaped(member_buf, r, m))
        np.copyto(totals, -np.inf)
        np.copyto(totals, prices, where=member)
        # argmax takes the first max: smallest index
        np.argmax(totals, axis=1, out=choice[rows])
        if within is not None:
            if outside is not None:
                member &= keep
                np.copyto(totals, -np.inf, where=outside)
                within_choice[rows] = np.where(member.any(axis=1), np.argmax(totals, axis=1), -1)
            np.copyto(totals, np.inf)
            np.copyto(totals, block, where=member)
            transport[rows] = totals.min(axis=1) + 0.0  # one zero: the min may return 0.0 or -0.0
    if within is None:
        return expenditure, choice
    return expenditure, choice, within_choice, transport
