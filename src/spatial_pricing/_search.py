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

Both searches also take an upper bound: an `EvalBatch` whose row is >= the
objective's row, exactly, in floating point.  They then score only the rows
the bound cannot rule out.  A bound that is cheap next to the score and
tight at the optimum (`ctransform._generator_bound`, which boundary
control's scan and model two's ascents pass) leaves a handful of the
product scan's rows to score.  The ascent rules out the trials that cannot
beat their start's current value; its rounds gather the trials of all its
starts into one bound call and one objective call.  A NaN score in the
exhaustive scan raises RuntimeError naming its candidate.

`TrialScores` contract: `trial_scores(u, idx, ts)` returns, for each k, the
score of u with u[idx[k]] replaced by ts[k], bit-equal to `eval_batch` on
that row.  An objective that keeps state at u can score such one-coordinate
moves for less than full rows.  The ascent then asks, in one call, for the
fresh trials of a window of coordinates at the current point, starting at
the first coordinate with fresh trials.  The window doubles after each call
and falls back to one coordinate after an accepted move, so a sweep that
moves nothing takes about log2(m) calls, and the scores a move makes stale
are at most about as many as those compared since the last move.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Optional

import numpy as np

__all__ = [
    "BudgetExceededError",
    "SearchMode",
    "SearchConfig",
    "seeded_starts",
    "exhaustive_product",
    "coordinate_ascent",
]

EvalBatch = Callable[[np.ndarray], np.ndarray]  # (B, m) -> (B,)
TrialScores = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]  # (u, idx (K,), ts (K,)) -> (K,)

CHUNK = 4096  # candidates per exhaustive-scan batch; CELL_BUDGET, not CHUNK, bounds memory
# cells (rows x n x m) one batched-objective call may span: 32 MiB per float64 temporary
CELL_BUDGET = 1 << 22
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

    levels       : quantization levels per point (exhaustive grid, initial
                   ascent step = cap / (levels - 1)).
    multistarts  : ascent starts, counting the deterministic ones (zero, the
                   caps, half the caps, solver extras) and topped up with
                   seeded random ones; when the deterministic ones are more,
                   all of them run (model one with multistarts=4 runs 5).
    grid_n       : per-axis resolution of the low-dimensional scans
                   (two-parameter interval solver, boundary controls).
    price_cap    : optional absolute cap overriding the derived per-point caps.
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
    """`fn`, whose rows span `cells_per_row` cells of temporaries, applied in
    row slices of at most CELL_BUDGET cells; exact by the `EvalBatch` contract."""
    rows = max(1, CELL_BUDGET // cells_per_row)

    def sliced(batch: np.ndarray) -> np.ndarray:
        if len(batch) <= rows:
            return fn(batch)
        return np.concatenate([fn(batch[k : k + rows]) for k in range(0, len(batch), rows)])

    return sliced


class Objective:
    """A search objective: calling it on (B, k) rows returns score(value(rows)),
    where `value` maps rows to (B, n) value functions through (n, m)
    temporaries per row (None: the identity, for a score of the row alone),
    in row slices of at most CELL_BUDGET cells.

    A row's score depends on the row only through its value function.  Many
    price vectors share one (raising a price that is nowhere the argmin, or
    a model-one price above the bound, which the value map clamps at the
    bound, leaves it unchanged), so each distinct value function, compared
    by its bytes, is scored once: the others are answered from a FIFO memo
    of max(1, MEMO_CELLS // n) entries, one per objective, and repeats
    inside a batch reach `score` once.  Exact by both contracts; a value
    that differs only in the sign of a zero is a miss, scored again.

    `bound`, when given, maps value functions to an upper bound of `score`,
    row for row; `.bound` is then bound(value(rows)) in the score's slices
    (slices sized by the bound's own smaller temporaries raised a benchmark's
    peak RSS by 5%), without the memo, and otherwise None.  The objective
    keeps the rows and value functions of the last slice it bounded, and a
    call then takes the value functions of those rows from there: the
    ascent scores a few of the rows it has just bounded, and its value map
    costs as much as the bound.  Exact as long as `value` maps each row on
    its own, as a row-wise min does.
    """

    def __init__(self, score: EvalBatch, n: int, m: int, value: Optional[Callable] = None, bound: Optional[EvalBatch] = None):
        # the closures below hold no reference to self: in a cycle the memo
        # and the cost slices they hold would outlive the objective until a GC pass
        size = max(1, MEMO_CELLS // n)
        memo: dict[bytes, float] = {}
        last: dict = {}  # the last bound slice: its rows, their value functions, row bytes -> position

        def valued(batch: np.ndarray) -> np.ndarray:
            """value(batch), with the value functions of rows of the last bound slice taken from it."""
            if not last:
                return value(batch)
            if "position" not in last:
                # built on demand: the product scan bounds thousands of rows and scores a few
                last["position"] = {row.tobytes(): r for r, row in enumerate(last["rows"])}
            at = [last["position"].get(row.tobytes(), -1) for row in batch]
            V = last["values"][at]
            miss = [r for r, p in enumerate(at) if p < 0]
            if miss:
                V[miss] = value(batch[miss])
            return V

        def bound_slice(batch: np.ndarray) -> np.ndarray:
            V = value(batch)
            last.clear()
            last.update(rows=batch.copy(), values=V)  # a copy: the caller may reuse its array
            return bound(V)

        def scored(batch: np.ndarray) -> np.ndarray:
            V = batch if value is None else valued(batch)
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

        self._scored = _sliced(scored, n * m)
        self.bound = None if bound is None else _sliced(bound if value is None else bound_slice, n * m)

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

    Ties keep the lexicographically first candidate.

    With `bound`, which must be >= `eval_batch` row for row, the scan runs
    in two passes.  The first takes the bound of every feasible candidate
    and scores the first one with the largest bound: a floor below the best
    score.  The second scores, in order, only the rows whose bound is not
    below the floor (NaN bounds stay).  The first best row has bound >=
    best >= floor, so it is scored, and the result is bit-identical to the
    scan without a bound.  A scored row above its bound raises RuntimeError.
    `evaluations` counts every feasible candidate either way.

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

    def grid(ids: np.ndarray) -> np.ndarray:
        return (ids[:, None] // radix[None, :]) % levels * scale[None, :]

    n_eval = 0

    def chunks():
        """(ids, candidates) of the feasible candidates, CHUNK grid points at a time."""
        nonlocal n_eval
        for start in range(0, total, CHUNK):
            ids = np.arange(start, min(start + CHUNK, total), dtype=np.int64)
            cand = grid(ids)
            if feasible is not None:
                keep = feasible(cand)
                ids, cand = ids[keep], cand[keep]
            if len(ids):
                n_eval += len(ids)
                yield ids, cand

    def checked(cand: np.ndarray, ub: Optional[np.ndarray] = None) -> np.ndarray:
        """Scores of `cand`; a NaN score, or a score above its bound `ub`, raises RuntimeError."""
        vals = eval_batch(cand)
        nan = np.isnan(vals)
        if nan.any():
            raise RuntimeError(f"search score is NaN at {cand[int(np.argmax(nan))].tolist()}")
        if ub is not None and (vals > ub).any():
            j = int(np.argmax(vals > ub))
            raise RuntimeError(f"search score {float(vals[j])!r} exceeds its upper bound {float(ub[j])!r} at {cand[j].tolist()}")
        return vals

    def pruned():
        """(candidates, scores) of the rows whose bound reaches the floor, CHUNK rows at a time."""
        found = [(ids, bound(cand)) for ids, cand in chunks()]
        if not found:
            return
        ids, ub = (np.concatenate(part) for part in zip(*found))
        del found
        top = int(np.argmax(np.where(np.isnan(ub), -np.inf, ub)))  # the first largest bound
        floor = checked(grid(ids[top : top + 1]), ub[top : top + 1])[0]
        keep = ~(ub < floor)
        ids, ub = ids[keep], ub[keep]
        for k in range(0, len(ids), CHUNK):
            cand = grid(ids[k : k + CHUNK])
            yield cand, checked(cand, ub[k : k + CHUNK])

    scored = pruned() if bound is not None else ((cand, checked(cand)) for _, cand in chunks())
    best_u, best_val = None, -np.inf
    for cand, vals in scored:
        j = int(np.argmax(vals))
        if vals[j] > best_val:
            best_val = float(vals[j])
            best_u = cand[j].copy()
    if best_u is None:
        raise ValueError("no feasible candidate in the exhaustive scan")
    return best_u, best_val, {"mode": "exhaustive", "evaluations": n_eval, "levels": levels, "search_space": total}


def coordinate_ascent(
    eval_batch: EvalBatch,
    caps: np.ndarray,
    starts: list[np.ndarray],
    search: SearchConfig,
    feasible: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    *,
    step: Optional[float] = None,
    on_grid_cap: bool = False,
    trial_scores: Optional[TrialScores] = None,
    bound: Optional[EvalBatch] = None,
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

    The starts climb in lockstep rounds.  In a round each start that is
    still climbing asks for the scores of its next rows: its start point,
    or one coordinate's fresh trials, after `feasible` has filtered them.
    One `eval_batch` call scores every start's rows together, and each start
    then moves exactly as it would alone, so the call count is at most that
    of the longest start, while each start's path and `evaluations` do not
    change.  The best start is the first, in start order, with the largest
    value.

    No score is requested twice where the answer is already known: trials
    scored at the current point are remembered until the point moves, and a
    start that reaches the (point, step) state another start reached first,
    at the top of a step level, takes over that start's outcome and its
    evaluations from there on.  The rest of an ascent depends on that state
    alone, so the result is unchanged.  While the other start still climbs,
    the later one parks and takes the outcome when it ends.  The start it
    waits on is past that state: still climbing, or parked at a smaller
    step, so parking cannot cycle; a round in which every start waits
    raises RuntimeError.

    `bound`, when given, must be >= `eval_batch` row for row, exactly, as in
    `exhaustive_product`.  A round then bounds all its rows and scores only
    those whose bound exceeds the floor of their start, its current value
    plus the acceptance margin, or is NaN.  A pruned row keeps its bound in
    place of its score until the point moves: it can be neither accepted
    nor the best of a coordinate's trials when another one is, so the
    result and `evaluations` do not depend on the bound.  A scored row
    above its bound, or NaN under a bound that is not, raises RuntimeError.

    `trial_scores`, when given, scores the trials in place of `eval_batch`,
    by the `TrialScores` contract, so the result and `evaluations` do not
    depend on it.  Where coordinate i has fresh trials, one call scores
    those of coordinates i .. i + width - 1 at the current point; width
    starts at 1, doubles after each call and returns to 1 after an accepted
    move.  The scores ahead of i stay valid until the point moves, which
    also ends the window.  Without the hook each request holds one
    coordinate's trials: a dense row costs a full objective row, so scores
    a move would make stale are not worth asking for.  Starts are still
    scored by `eval_batch`.  The hook combines neither with `feasible`,
    which may drop trials, nor with `bound`.
    """
    if feasible is not None and trial_scores is not None:
        raise ValueError("trial_scores and feasible do not combine")
    if bound is not None and trial_scores is not None:
        raise ValueError("trial_scores and bound do not combine")
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

    def trials_at(u: np.ndarray, i: int, step: float) -> list[float]:
        """Coordinate i's trials at u, in increasing order."""
        base, cap = float(u[i]), cap_list[i]
        moves = (base - 2 * step, base - step, base + step, base + 2 * step, 0.0, cap)
        if on_grid_cap:
            moves += (math.floor(cap / step + GRID_CAP_SLACK) * step,)
        return [t for t in sorted({min(max(x, 0.0), cap) for x in moves}) if abs(t - base) > DISTINCT_TRIAL]

    # (point bytes, step) at the top of a step level, once a start has reached it
    held: set[tuple[bytes, float]] = set()
    # the same states once their start has ended -> (final point, final value,
    # evaluations from that state on)
    outcomes: dict[tuple[bytes, float], tuple[np.ndarray, float, int]] = {}

    def climb(u0: np.ndarray):
        """One start's ascent.  Yields (rows, floor) and is sent their scores,
        or yields None while it waits for another start's outcome; returns
        (final point, final value, evaluations), or None if the start is infeasible."""
        u = np.clip(np.asarray(u0, dtype=float), 0.0, caps)
        if feasible is not None and not feasible(u[None])[0]:
            return None
        cur = float((yield u[None], -math.inf)[0])
        n_eval = 1
        visited = []
        known: dict[tuple[int, float], float] = {}  # (coordinate, trial) -> score (or pruning bound) at u
        width = 1  # coordinates in the next trial_scores call
        step = step0
        while step >= min_step:
            state = (u.tobytes(), step)
            if state in held:
                while state not in outcomes:
                    yield None
                u, cur, n_rest = outcomes[state]
                n_eval += n_rest
                break
            held.add(state)
            visited.append((state, n_eval))
            for _ in range(search.max_sweeps):
                improved = False
                ahead: dict[int, list[float]] = {}  # trials of coordinates not yet visited in this sweep
                for i in range(m):
                    trials = ahead.pop(i) if i in ahead else trials_at(u, i, step)
                    fresh = [t for t in trials if (i, t) not in known]
                    if fresh and trial_scores is not None:
                        idx, ts = [i] * len(fresh), list(fresh)
                        for j in range(i + 1, min(i + width, m)):
                            if j not in ahead:
                                ahead[j] = trials_at(u, j, step)
                            more = [t for t in ahead[j] if (j, t) not in known]
                            idx += [j] * len(more)
                            ts += more
                        scores = trial_scores(u, np.array(idx, dtype=np.intp), np.array(ts, dtype=float))
                        known.update(zip(zip(idx, ts), scores.tolist()))
                        width *= 2
                    elif fresh:
                        batch = np.repeat(u[None, :], len(fresh), axis=0)
                        batch[:, i] = fresh
                        if feasible is not None:
                            batch = batch[feasible(batch)]
                        if len(batch):
                            scores = yield batch, cur + accept_eps
                            known.update(zip(zip([i] * len(batch), batch[:, i].tolist()), scores.tolist()))
                    trials = [t for t in trials if (i, t) in known]
                    if not trials:
                        continue
                    vals = [known[i, t] for t in trials]
                    n_eval += len(vals)
                    j = int(np.argmax(vals))
                    if vals[j] > cur + accept_eps:
                        cur = vals[j]
                        u[i] = trials[j]
                        known.clear()
                        width = 1
                        improved = True
                if not improved:
                    break
            step *= 0.5
        for state, n_then in visited:
            outcomes[state] = (u, cur, n_eval - n_then)
        return u, cur, n_eval

    def scored(requests: list[tuple[np.ndarray, float]]) -> np.ndarray:
        """Scores of the rows of all (rows, floor) requests; with a bound, a
        row whose bound is at most its floor is answered by its bound."""
        rows = np.concatenate([r for r, _ in requests])
        if bound is None:
            return eval_batch(rows)
        floors = np.repeat([floor for _, floor in requests], [len(r) for r, _ in requests])
        ub = bound(rows)
        keep = ~(ub <= floors)
        if keep.any():
            rows, kept = rows[keep], ub[keep]
            vals = eval_batch(rows)
            bad = ~(vals <= kept) & ~np.isnan(kept)
            if bad.any():
                j = int(np.argmax(bad))
                raise RuntimeError(f"search score {float(vals[j])!r} exceeds its upper bound {float(kept[j])!r} at {rows[j].tolist()}")
            ub[keep] = vals
        return ub

    results: list = [None] * len(starts)
    climbing = {k: climb(u0) for k, u0 in enumerate(starts)}
    answers: dict[int, np.ndarray] = {}
    while climbing:
        asked: dict[int, tuple[np.ndarray, float]] = {}
        ended = False
        for k, climber in list(climbing.items()):
            try:
                request = climber.send(answers.get(k))
            except StopIteration as stop:
                results[k] = stop.value
                del climbing[k]
                ended = True
                continue
            if request is not None:
                asked[k] = request
        answers = {}
        if not asked:
            if climbing and not ended:
                raise RuntimeError("coordinate ascent deadlocked: every climbing start waits on another")
            continue
        scores, end = scored(list(asked.values())), 0
        for k, (rows, _) in asked.items():
            answers[k] = scores[end : end + len(rows)]
            end += len(rows)

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
