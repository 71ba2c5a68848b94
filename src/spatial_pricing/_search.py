"""Generic quantized-vector search: exhaustive product scan and coordinate ascent.

Both searches maximize a batched objective over vectors u with 0 <= u_i <=
caps_i.  Candidate evaluation is pure, so batches can be evaluated in any
order; ties are resolved deterministically (lexicographically first candidate
for the exhaustive scan, no-move for the ascent).  Both return the best
vector, its value, and diagnostics: `mode` and `evaluations`, plus `starts`
for the ascent or `levels` and `search_space` for the exhaustive scan.

`EvalBatch` contract: a row's score must not depend on the other rows of its
batch, bit for bit.  The ascent relies on it to reuse scores it already holds
instead of asking for them again and to score the trials of all its starts
in one call, and `Objective` to score a batch in row slices and from its
memo.  `evaluations` counts the candidates compared, reused scores
included, so it does not depend on that reuse.

The exhaustive scan also takes an upper bound: an `EvalBatch` whose row is
>= the objective's row, exactly, in floating point.  It then scores only
the rows the bound cannot rule out, through `_floored`.  A bound that is
cheap next to the score and tight at the optimum (`ctransform._generator_bound`,
which every `Objective` of models one and two carries) leaves a
handful of the product scan's rows to score.  A NaN score in the exhaustive
scan raises RuntimeError naming its candidate.

The ascent asks for trials, one-coordinate moves of its starts' current
points, and a round gathers the trials of all its starts into one
`TrialBatch` call.  `TrialBatch` contract: `trials(points, owner, idx, ts,
floors)` returns, for each k, the score of points[owner[k]] with coordinate
idx[k] replaced by ts[k], bit-equal to `eval_batch` on that row, or, where
an upper bound of that score is at most floors[k], that bound.  Without
one, the ascent builds the rows and scores them with `eval_batch`.  An
`Objective` with a `ValueMap` answers trials for less: it values a trial
in O(n) from its start's point, bounds it, and scores only the trials
whose bound exceeds their floor (`_floored`, the one place that prunes
below a floor).

Every trial request holds the fresh trials of a window of coordinates at
the current point, starting at the first coordinate with fresh trials.  The
window doubles after each request and falls back to one coordinate after
an accepted move, so a sweep that moves nothing takes about log2(m)
requests, and the scores a move makes stale are at most about as many as
those compared since the last move.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Optional

import numpy as np

from . import geometry

__all__ = [
    "BudgetExceededError",
    "SearchMode",
    "SearchConfig",
    "seeded_starts",
    "exhaustive_product",
    "coordinate_ascent",
]

EvalBatch = Callable[[np.ndarray], np.ndarray]  # (B, m) -> (B,)
# (points (S, m), owner (K,), idx (K,), ts (K,), floors (K,)) -> (K,)
TrialBatch = Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray]

# candidates per exhaustive-scan batch; the row slices of `_sliced`, each
# within geometry.BLOCK_CELLS cells of temporaries, bound memory, not CHUNK
CHUNK = 4096
# value-function cells one objective's memo keeps (256 KiB of keys): enough for
# the repeats of an ascent, while a memo over the whole solve raised the
# ascent benchmark's peak RSS by 14%
MEMO_CELLS = 1 << 15

# ascent tolerances
MIN_STEP = 1e-12  # the default step halves no further: also ends the ascent when all caps are 0
ACCEPT_REL = 1e-13  # a move must gain this times (1 + largest cap): float noise in a score is no gain
GRID_CAP_SLACK = 1e-12  # steps by which cap / step may fall short of a grid point and still round up to it
DISTINCT_TRIAL = 1e-15  # a trial closer than this to the current coordinate is no move


class BudgetExceededError(RuntimeError):
    """An exhaustive scan was refused because the candidate count exceeds the budget."""


class SearchMode(enum.Enum):
    EXHAUSTIVE = "exhaustive"
    ASCENT = "ascent"


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the discrete solvers.

    mode            : EXHAUSTIVE scans the product grid of `levels` prices per
                      coordinate, ASCENT runs multi-start coordinate ascent
                      (boundary control scans when its grid fits the budget).
    levels          : quantization levels per point (exhaustive grid, initial
                      ascent step = cap / (levels - 1)).
    multistarts     : ascent starts, counting the deterministic ones (zero, the
                      caps, half the caps, solver extras) and topped up with
                      seeded random ones; when the deterministic ones are more,
                      all of them run (model one with multistarts=4 runs 5).
    seed            : seed of the random ascent starts, so a run repeats.
    max_candidates  : budget of an exhaustive scan: one of more candidates
                      (levels ** coordinates) raises BudgetExceededError.
    max_sweeps      : sweeps over every coordinate per ascent step; a step
                      ends early after a sweep that moves nothing.
    refine_halvings : times the ascent step halves after its first level (the
                      default step halves no further than MIN_STEP).
    grid_n          : per-axis resolution of the low-dimensional scans
                      (two-parameter interval solver, boundary controls).
    price_cap       : optional absolute cap overriding the derived per-point caps.
    """

    mode: SearchMode = SearchMode.ASCENT
    levels: int = 8
    multistarts: int = 16
    seed: int = 0
    max_candidates: int = 2_000_000
    max_sweeps: int = 8
    refine_halvings: int = 6
    grid_n: int = 201
    price_cap: Optional[float] = None


def seeded_starts(caps: np.ndarray, search: SearchConfig, *extra: np.ndarray) -> list[np.ndarray]:
    """Ascent starts: zero, the caps, half the caps, then `extra`, topped up
    to `search.multistarts` with uniform draws seeded by `search.seed`."""
    rng = np.random.default_rng(search.seed)
    starts = [np.zeros_like(caps), caps, 0.5 * caps, *extra]
    while len(starts) < search.multistarts:
        starts.append(rng.uniform(0.0, caps))
    return starts


def _sliced(fn: EvalBatch, cells_per_row: int) -> EvalBatch:
    """`fn` applied in the row slices of `geometry.row_blocks`, each within
    BLOCK_CELLS cells; exact by the `EvalBatch` contract.  `cells_per_row`
    is the cells of every temporary a row of `fn` holds at once, a bool
    mask counting as a float array, so a slice's temporaries stay within
    the budget together."""

    def sliced(batch: np.ndarray) -> np.ndarray:
        if len(batch) * cells_per_row <= geometry.BLOCK_CELLS:
            return fn(batch)
        return np.concatenate([fn(batch[rows]) for rows in geometry.row_blocks(len(batch), cells_per_row)])

    return sliced


def _trial_rows(points: np.ndarray, owner: np.ndarray, idx: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """The candidate rows of trials: points[owner[k]] with coordinate idx[k] replaced by ts[k]."""
    rows = points[owner]
    rows[np.arange(len(ts)), idx] = ts
    return rows


def _floored(
    items: np.ndarray, floors: np.ndarray, score: EvalBatch, bound: Optional[EvalBatch], candidate: Callable[[int], np.ndarray]
) -> np.ndarray:
    """score(items), except where the bound of an item is at most its floor:
    that item is answered by its bound, and not scored.  A scored item above
    its bound, or NaN under a bound that is not, raises RuntimeError naming
    `candidate(k)`, the row of item k.  `bound`, when given, must be >=
    `score` item for item, exactly.  Both searches prune here and nowhere
    else: the ascent below a start's value, the product scan below its floor."""
    if bound is None:
        return score(items)
    ub = bound(items)
    keep = np.flatnonzero(~(ub <= floors))
    if keep.size:
        vals, kept = score(items[keep]), ub[keep]
        bad = ~(vals <= kept) & ~np.isnan(kept)
        if bad.any():
            j = int(np.argmax(bad))
            raise RuntimeError(f"search score {float(vals[j])!r} exceeds its upper bound {float(kept[j])!r} at {candidate(int(keep[j])).tolist()}")
        ub[keep] = vals
    return ub


class ValueMap:
    """The value functions of generator prices over the cost columns C:
    v(x) = min_y {C[x, y] + h(g_y)}, with h the clamp min(g_y, clamp_y), or
    the identity without a clamp.  Called on (..., m) prices it returns the
    (..., n) value functions through (..., n, m) temporaries.

    `trials` values one-coordinate moves in O(n) each.  At a point u it
    keeps, per row x, the cheapest column j1 of C + h(u) and the smallest and
    second-smallest of its entries, m1 and m2.  The value of u with u_i
    replaced by t is then min(m2 if j1 == i else m1, C[:, i] + h_i(t)): the
    other columns keep their entries, the second smallest is the smallest
    without j1, and min does not round, so the values are the dense map's
    bytes.  A call keeps the states of its points, for the next call: every
    start still climbing asks in every round of an ascent, so its point is
    in each call until it moves.
    """

    def __init__(self, cols: np.ndarray, clamp: Optional[np.ndarray] = None):
        self.cols = cols
        self.clamp = clamp
        self._cols_t = np.ascontiguousarray(cols.T)
        self._states: dict[bytes, np.ndarray] = {}

    def _offers(self, G: np.ndarray, idx=slice(None)) -> np.ndarray:
        return G if self.clamp is None else np.minimum(G, self.clamp[idx])

    def __call__(self, G: np.ndarray) -> np.ndarray:
        return np.min(self.cols + self._offers(G)[..., None, :], axis=-1)

    def _state(self, u: np.ndarray) -> np.ndarray:
        """The rows j1, m1 and m2 at u, one (3, n) array, from one dense pass."""
        T = self.cols + self._offers(u)
        rows = np.arange(T.shape[0])
        state = np.empty((3, T.shape[0]))
        state[0] = j1 = T.argmin(axis=1)
        state[1] = T[rows, j1]
        T[rows, j1] = np.inf
        state[2] = T.min(axis=1)  # m2 is +inf with one column
        return state

    def trials(self, points: np.ndarray, owner: np.ndarray, idx: np.ndarray, ts: np.ndarray) -> np.ndarray:
        """(K, n) value functions of the trial rows `_trial_rows(points, owner, idx, ts)`,
        through (K, n) temporaries."""
        keys = [u.tobytes() for u in points]
        last, self._states = self._states, {}
        for key, u in zip(keys, points):
            if key not in self._states:
                self._states[key] = last[key] if key in last else self._state(u)
        j1, m1, m2 = np.stack([self._states[key] for key in keys], axis=1)[:, owner]
        out = self._cols_t[idx]
        out += self._offers(ts, idx)[:, None]
        return np.minimum(np.where(j1 == idx[:, None], m2, m1), out, out=out)


class Objective:
    """A search objective: calling it on (B, k) rows returns score(value(rows)),
    where `value` maps the rows to their (B, n) value functions.  Each part
    of a call runs in the row slices of `_sliced`, counting its own
    temporaries per row: `value` n x k cells, as a `ValueMap`'s (n, k) are,
    and `score` n x m, whose slices also hold the memo's keys (n per row).

    A row's score depends on the row only through its value function.  Many
    price vectors share one (raising a price that is nowhere the argmin, or
    a model-one price above the bound, which the value map clamps at the
    bound, leaves it unchanged), so each distinct value function, compared
    by its bytes, is scored once: the others are answered from a FIFO memo
    of max(1, MEMO_CELLS // n) entries, one per objective, and repeats
    inside a score slice reach `score` once.  Exact by both contracts; a
    value that differs only in the sign of a zero is a miss, scored again.

    `bound` maps value functions to an upper bound of `score`, row for row;
    `.bound` is bound(value(rows)), without the memo, in slices of n x k
    cells per row, the value map's (the bound's own temporaries are n per
    row).

    `.trials` is a `TrialBatch` for `coordinate_ascent`, for a `value` that
    is a `ValueMap`.  It takes the trials in slices of n cells per trial:
    it values a slice by `ValueMap.trials` and bounds it, in O(n) per trial,
    then scores, through the memo, the trials whose bound exceeds their
    floor.  The ascent gets it as its own keyword, next to the objective.
    """

    def __init__(self, score: EvalBatch, n: int, m: int, value: ValueMap, bound: EvalBatch):
        # the closures below hold no reference to self: in a cycle the memo
        # and the cost slices they hold would outlive the objective until a GC pass
        size = max(1, MEMO_CELLS // n)
        memo: dict[bytes, float] = {}

        def memoized(V: np.ndarray) -> np.ndarray:
            keys = [row.tobytes() for row in V]
            misses: dict[bytes, int] = {}  # value bytes not in the memo -> first row
            for r, key in enumerate(keys):
                if key not in memo:
                    misses.setdefault(key, r)
            if len(misses) == len(keys):
                out = score(V)
                fresh = dict(zip(keys, out.tolist()))
            else:
                fresh = dict(zip(misses, score(V[list(misses.values())]).tolist())) if misses else {}
                out = np.array([fresh[key] if key in fresh else memo[key] for key in keys])
            # first in, first out: of this batch's new values only the last `size` can stay
            memo.update(islice(fresh.items(), max(0, len(fresh) - size), None))
            for key in list(islice(memo, max(0, len(memo) - size))):
                del memo[key]
            return out

        scored = _sliced(memoized, n * m)

        def valued(fn: EvalBatch) -> EvalBatch:
            """`fn` on (B, k) rows in slices of a value map's n x k cells per row."""
            return lambda G: _sliced(fn, n * G.shape[1])(G)

        self._scored = valued(lambda G: scored(value(G)))
        self.bound = valued(lambda G: bound(value(G)))

        def trials(points: np.ndarray, owner: np.ndarray, idx: np.ndarray, ts: np.ndarray, floors: np.ndarray) -> np.ndarray:
            def part(ks: np.ndarray) -> np.ndarray:
                o, i, t = owner[ks], idx[ks], ts[ks]
                V = value.trials(points, o, i, t)
                return _floored(V, floors[ks], scored, bound, lambda k: _trial_rows(points, o[[k]], i[[k]], t[[k]])[0])

            return _sliced(part, n)(np.arange(len(ts)))

        self.trials = trials

    def __call__(self, batch: np.ndarray) -> np.ndarray:
        return self._scored(batch)


def exhaustive_product(
    eval_batch: EvalBatch,
    caps: np.ndarray,
    levels: int,
    max_candidates: int,
    feasible: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    bound: Optional[EvalBatch] = None,
) -> tuple[np.ndarray, float, dict]:
    """Scan all level combinations u_i in linspace(0, caps_i, levels).

    Ties keep the lexicographically first candidate.  Each CHUNK of grid
    points is scored through `_floored`: no array grows with the candidates.

    With `bound`, which must be >= `eval_batch` row for row, a first pass
    keeps each chunk's largest bound (NaN counts as +inf) and scores the
    first row with the largest non-NaN bound: a floor below the best score.
    The second revisits only the chunks whose largest bound reaches the
    floor and prunes the rows whose bound is below it; it takes the rows
    and bounds of the floor row's chunk from the first pass, and rebuilds
    and bounds the other chunks again.  The first best row,
    bound >= best >= floor, is scored, so the result is bit-identical to
    the scan without a bound.  `evaluations` counts every feasible candidate.

    A NaN score raises RuntimeError naming its candidate, in both scans (a
    row the bound prunes is not scored, so its score is not seen).
    """
    caps = np.asarray(caps, dtype=float)
    m = caps.size
    total = levels**m
    if total > max_candidates:
        raise BudgetExceededError(
            f"exhaustive scan needs {total} candidates, budget is {max_candidates}"
        )
    scale = caps / max(levels - 1, 1)
    radix = levels ** np.arange(m - 1, -1, -1, dtype=np.int64)

    def chunk(start: int) -> np.ndarray:
        """The feasible candidates of the CHUNK grid points from `start`."""
        ids = np.arange(start, min(start + CHUNK, total), dtype=np.int64)
        cand = (ids[:, None] // radix[None, :]) % levels * scale[None, :]
        return cand if feasible is None else cand[feasible(cand)]

    def checked(cand: np.ndarray) -> np.ndarray:
        """Scores of `cand`; a NaN score raises RuntimeError."""
        vals = eval_batch(cand)
        nan = np.isnan(vals)
        if nan.any():
            raise RuntimeError(f"search score is NaN at {cand[int(np.argmax(nan))].tolist()}")
        return vals

    n_eval = 0
    starts = range(0, total, CHUNK)
    floors = -np.inf
    kept_start = None  # the chunk that holds the floor row: its start, feasible rows and bounds
    if bound is not None:
        reach = []  # (start, largest bound) of each chunk with feasible rows
        top, top_ub = None, -np.inf  # in the kept chunk, the first row with the largest non-NaN bound, and that bound
        for start in starts:
            cand = chunk(start)
            if len(cand):
                n_eval += len(cand)
                ub = bound(cand)
                reach.append((start, np.max(ub)))
                clean = np.where(np.isnan(ub), -np.inf, ub)
                j = int(np.argmax(clean))
                if top is None or clean[j] > top_ub:
                    top, top_ub = j, clean[j]
                    kept_start, kept_cand, kept_ub = start, cand, ub
        if top is not None:
            floor = _floored(kept_cand[[top]], floors, checked, lambda _: kept_ub[[top]], lambda k: kept_cand[top])[0]
            floors = np.nextafter(floor, -np.inf)
            starts = [start for start, hi in reach if not hi < floor]
    best_u, best_val = None, -np.inf
    for start in starts:
        if start == kept_start:
            cand, rows_bound = kept_cand, lambda _: kept_ub
        else:
            cand, rows_bound = chunk(start), bound
        if not len(cand):
            continue
        if bound is None:
            n_eval += len(cand)
        vals = _floored(cand, floors, checked, rows_bound, lambda k: cand[k])
        j = int(np.argmax(vals))
        if vals[j] > best_val:
            best_val = float(vals[j])
            best_u = cand[j].copy()
    if best_u is None:
        raise ValueError("no feasible candidate in the exhaustive scan")
    return best_u, best_val, {"mode": "exhaustive", "evaluations": n_eval, "levels": levels, "search_space": total}


def _first_max(vals: list[float]) -> int:
    """np.argmax of a list of floats without building an array: the first
    NaN, or else the first of the largest values."""
    for k, v in enumerate(vals):
        if v != v:
            return k
    return vals.index(max(vals))


def coordinate_ascent(
    eval_batch: EvalBatch,
    caps: np.ndarray,
    starts: list[np.ndarray],
    search: SearchConfig,
    feasible: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    *,
    step: Optional[float] = None,
    on_grid_cap: bool = False,
    trials: Optional[TrialBatch] = None,
) -> tuple[np.ndarray, float, dict]:
    """Multi-start coordinate ascent with step halving.

    Each coordinate tries moves of +-step and +-2*step (plus the box
    endpoints) while the others are held; accepted moves must improve
    strictly.  The step starts at max(caps) / (levels - 1) and halves
    whenever a full sweep makes no progress, `refine_halvings` times, but
    not below MIN_STEP.  A `step` replaces that first step and always runs
    its first level, however small; one that is not a positive finite
    number raises ValueError.  With `on_grid_cap` each
    coordinate also tries its cap rounded down to the step grid,
    floor(cap / step + GRID_CAP_SLACK) * step.  The Nash best-response
    polish is one such level.

    One `eval_batch` call scores the feasible starts.  The starts then climb
    in lockstep rounds.  In a round each start that is still climbing asks
    for the scores of its next trials: where coordinate i has fresh trials,
    those of coordinates i .. i + width - 1 at its current point, after
    `feasible` has dropped some.  The width starts at 1, doubles after each
    request and returns to 1 after an accepted move.  The scores ahead of i
    stay valid until the point moves, and so do the trials `feasible`
    dropped.  One call scores every start's trials together, and each start
    then moves exactly as it would alone, so the call count is at most that
    of the longest start, while each start's path and `evaluations` do not
    change.  The best start is the first, in start order, with the largest
    value.

    No score is requested twice where the answer is already known: trials
    scored at the current point are remembered until the point moves, and a
    start that reaches, at the top of a step level, a (point, step) state
    from which another start has already ended takes over that start's
    outcome and its evaluations from there on.  The rest of an ascent
    depends on that state alone, so the result is unchanged.  A start that
    reaches the state of one still climbing climbs on, to the same outcome.

    The trials are scored by `trials`, a `TrialBatch` such as an
    `Objective`'s `.trials`, or else by `eval_batch` on the trial rows.
    `trials` is passed beside `eval_batch`, not read off it, so that an
    `eval_batch` wrapped in a plain function keeps it.  A trial answered by
    a bound keeps it in place of its score until the point moves: it can be
    neither accepted nor the best of a coordinate's trials when another one
    is, so the result and `evaluations` do not depend on the scorer.
    """
    if step is not None and not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be a positive finite number, got {step!r}")
    caps = np.asarray(caps, dtype=float)
    m = caps.size
    cap_list = caps.tolist()
    cap_max = float(np.max(caps, initial=0.0))
    step0 = cap_max / max(search.levels - 1, 1) if step is None else step
    min_step = step0 / 2**search.refine_halvings
    if step is None:
        min_step = max(min_step, MIN_STEP)
    accept_eps = ACCEPT_REL * (1.0 + cap_max)
    if trials is None:

        def trials(points, owner, idx, ts, floors):
            return eval_batch(_trial_rows(points, owner, idx, ts))

    def trials_at(u: np.ndarray, i: int, step: float) -> list[float]:
        """Coordinate i's trials at u, in increasing order."""
        base, cap = float(u[i]), cap_list[i]
        moves = (base - 2 * step, base - step, base + step, base + 2 * step, 0.0, cap)
        if on_grid_cap:
            moves += (math.floor(cap / step + GRID_CAP_SLACK) * step,)
        return [t for t in sorted({min(max(x, 0.0), cap) for x in moves}) if abs(t - base) > DISTINCT_TRIAL]

    # (point bytes, step) at the top of a step level, once a start that
    # reached it has ended -> (final point, final value, evaluations from that state on)
    outcomes: dict[tuple[bytes, float], tuple[np.ndarray, float, int]] = {}

    def climb(u: np.ndarray, cur: float):
        """One start's ascent from u, scored `cur`.  Yields (u, window,
        floor) requests, window a list of (coordinate, trial) pairs, and is
        sent their scores; returns (final point, final value, evaluations)."""
        n_eval = 1
        visited = []
        # (coordinate, trial) -> score (or pruning bound) at u; None: infeasible
        known: dict[tuple[int, float], Optional[float]] = {}
        width = 1  # coordinates in the next request
        step = step0
        while step >= min_step:
            state = (u.tobytes(), step)
            if state in outcomes:
                u, cur, n_rest = outcomes[state]
                n_eval += n_rest
                break
            visited.append((state, n_eval))
            for _ in range(search.max_sweeps):
                improved = False
                ahead: dict[int, list[float]] = {}  # trials of coordinates not yet visited in this sweep
                for i in range(m):
                    moves = ahead.pop(i) if i in ahead else trials_at(u, i, step)
                    window = [(i, t) for t in moves if (i, t) not in known]
                    if window:
                        for j in range(i + 1, min(i + width, m)):
                            if j not in ahead:
                                ahead[j] = trials_at(u, j, step)
                            window += [(j, t) for t in ahead[j] if (j, t) not in known]
                        width *= 2
                        if feasible is not None:
                            rows = _trial_rows(u[None], np.zeros(len(window), dtype=np.intp), *zip(*window))
                            keep = feasible(rows).tolist()
                            known.update((pair, None) for pair, ok in zip(window, keep) if not ok)
                            window = [pair for pair, ok in zip(window, keep) if ok]
                        if window:
                            scores = yield u, window, cur + accept_eps
                            known.update(zip(window, scores.tolist()))
                    vals = [known[i, t] for t in moves]
                    if feasible is not None:  # without the trials it dropped
                        moves = [t for t, v in zip(moves, vals) if v is not None]
                        vals = [v for v in vals if v is not None]
                    if not vals:
                        continue
                    n_eval += len(vals)
                    j = _first_max(vals)
                    if vals[j] > cur + accept_eps:
                        cur = vals[j]
                        u[i] = moves[j]
                        known.clear()
                        width = 1
                        improved = True
                if not improved:
                    break
            step *= 0.5
        for state, n_then in visited:
            outcomes[state] = (u, cur, n_eval - n_then)
        return u, cur, n_eval

    points = [np.clip(np.asarray(u0, dtype=float), 0.0, caps) for u0 in starts]
    live = list(range(len(points)))
    if live and feasible is not None:
        live = np.flatnonzero(feasible(np.stack(points))).tolist()
    results: list = [None] * len(starts)
    climbing = {}
    if live:
        firsts = eval_batch(np.stack([points[k] for k in live])).tolist()
        climbing = {k: climb(points[k], cur) for k, cur in zip(live, firsts)}
    answers: dict[int, np.ndarray] = {}
    while climbing:
        asked: dict[int, tuple] = {}
        for k, climber in list(climbing.items()):
            try:
                asked[k] = climber.send(answers.get(k))
            except StopIteration as stop:
                results[k] = stop.value
                del climbing[k]
        if not asked:
            break
        requests = list(asked.values())
        counts = [len(window) for _, window, _ in requests]
        pairs = [pair for _, window, _ in requests for pair in window]
        scores = trials(
            np.stack([u for u, _, _ in requests]),
            np.repeat(np.arange(len(requests)), counts),
            np.array([j for j, _ in pairs], dtype=np.intp),
            np.array([t for _, t in pairs], dtype=float),
            np.repeat([floor for _, _, floor in requests], counts),
        )
        answers = {}
        end = 0
        for k, count in zip(asked, counts):
            answers[k] = scores[end : end + count]
            end += count

    best_u, best_val = None, -np.inf
    n_eval = 0
    for result in results:
        if result is None:
            continue
        u, cur, n = result
        n_eval += n
        if cur > best_val:
            best_val = cur
            best_u = u.copy()
    if best_u is None:
        raise ValueError("no feasible start for the coordinate ascent")
    return best_u, best_val, {"mode": "ascent", "evaluations": n_eval, "starts": len(starts)}
