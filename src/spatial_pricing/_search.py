"""Generic quantized-vector search: exhaustive product scan and coordinate ascent.

Both searches maximize a batched objective over vectors u with 0 <= u_i <=
caps_i.  Candidate evaluation is pure, so batches can be evaluated in any
order; ties are resolved deterministically (lexicographically first candidate
for the exhaustive scan, no-move for the ascent).  Both return the best
vector, its value, and diagnostics: `mode` and `evaluations`, plus `starts`
for the ascent or `levels` and `search_space` for the exhaustive scan.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
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

# candidates per exhaustive-scan batch; the batched objectives' temporaries
# grow with it, so it sets the scan's peak memory
CHUNK = 4096


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
    multistarts  : total number of ascent starts (a few deterministic ones
                   plus seeded random ones).
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


def exhaustive_product(
    eval_batch: EvalBatch,
    caps: np.ndarray,
    levels: int,
    max_candidates: int,
    feasible: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> tuple[np.ndarray, float, dict]:
    """Scan all level combinations u_i in linspace(0, caps_i, levels).

    Ties keep the lexicographically first candidate.
    """
    caps = np.asarray(caps, dtype=float)
    m = caps.size
    total = levels**m
    if total > max_candidates:
        raise BudgetExceededError(
            f"exhaustive scan needs {total} candidates, budget is {max_candidates}"
        )
    scale = caps / max(levels - 1, 1)
    best_u, best_val = None, -np.inf
    n_eval = 0
    radix = levels ** np.arange(m - 1, -1, -1, dtype=np.int64)
    for start in range(0, total, CHUNK):
        ids = np.arange(start, min(start + CHUNK, total), dtype=np.int64)
        digits = (ids[:, None] // radix[None, :]) % levels
        cand = digits * scale[None, :]
        if feasible is not None:
            keep = feasible(cand)
            if not keep.any():
                continue
            cand = cand[keep]
        vals = eval_batch(cand)
        n_eval += len(cand)
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
) -> tuple[np.ndarray, float, dict]:
    """Multi-start coordinate ascent with step halving.

    Each coordinate tries moves of +-step and +-2*step (plus the box
    endpoints) while the others are held; accepted moves must improve
    strictly.  The step starts at max(caps) / (levels - 1) and halves
    whenever a full sweep makes no progress, `refine_halvings` times.
    """
    caps = np.asarray(caps, dtype=float)
    m = caps.size
    cap_max = float(np.max(caps, initial=0.0))
    step0 = cap_max / max(search.levels - 1, 1)
    min_step = max(step0 / 2**search.refine_halvings, 1e-12)
    accept_eps = 1e-13 * (1.0 + cap_max)
    best_u, best_val = None, -np.inf
    n_eval = 0
    for u0 in starts:
        u = np.clip(np.asarray(u0, dtype=float), 0.0, caps)
        if feasible is not None and not feasible(u[None])[0]:
            continue
        cur = float(eval_batch(u[None])[0])
        n_eval += 1
        step = step0
        while step >= min_step:
            for _ in range(search.max_sweeps):
                improved = False
                for i in range(m):
                    base = u[i]
                    trials = np.unique(
                        np.clip(
                            np.array([base - 2 * step, base - step, base + step, base + 2 * step, 0.0, caps[i]]),
                            0.0,
                            caps[i],
                        )
                    )
                    trials = trials[np.abs(trials - base) > 1e-15]
                    if trials.size == 0:
                        continue
                    batch = np.repeat(u[None, :], trials.size, axis=0)
                    batch[:, i] = trials
                    if feasible is not None:
                        keep = feasible(batch)
                        batch, trials = batch[keep], trials[keep]
                        if trials.size == 0:
                            continue
                    vals = eval_batch(batch)
                    n_eval += len(batch)
                    j = int(np.argmax(vals))
                    if vals[j] > cur + accept_eps:
                        cur = float(vals[j])
                        u[i] = trials[j]
                        improved = True
                if not improved:
                    break
            step *= 0.5
        if cur > best_val:
            best_val = cur
            best_u = u.copy()
    if best_u is None:
        raise ValueError("no feasible start for the coordinate ascent")
    return best_u, best_val, {"mode": "ascent", "evaluations": n_eval, "starts": len(starts)}
