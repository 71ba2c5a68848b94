"""Seeded instance specifications for the benchmark workloads.

Pure numpy, no import of the library: the worker turns a spec into library
objects, and the checker re-scores results from the same spec with its own
dense evaluation, so both sides read one definition of the inputs.

Sizes are fixed per workload; the seed varies only values (customer
weights, bounds, imposed prices, search seeds), so every seed asks the
solvers for about the same amount of work.
"""

from __future__ import annotations

import numpy as np

WORKLOADS = ("ascent_sweep", "batch_scan", "closed_form_cli")

# Every SearchConfig field, set explicitly so that a changed library default
# cannot silently change a workload.
SEARCH_BASE = {
    "mode": "ascent",
    "levels": 8,
    "multistarts": 4,
    "max_candidates": 2_000_000,
    "max_sweeps": 8,
    "refine_halvings": 6,
    "grid_n": 201,
    "price_cap": None,
}

# Every NashSearchConfig field and game setting, set explicitly.
NASH_BASE = {
    "grid_n": 200,
    "polish_sweeps": 4,
    "price_scale": None,
    "rounds": 30,
    "eps": 1e-9,
    "price_cap": None,
    "split": 0.5,
}


def interval(n: int, a: float = 0.0, b: float = 1.0) -> np.ndarray:
    """(n, 1) points, as the library's interval regions lay them out."""
    return np.linspace(a, b, n)[:, None]


def grid(nx: int, ny: int) -> np.ndarray:
    """(nx*ny, 2) points on [0, 1]^2, row-major with x fastest."""
    X, Y = np.meshgrid(np.linspace(0.0, 1.0, nx), np.linspace(0.0, 1.0, ny))
    return np.column_stack([X.ravel(), Y.ravel()])


def _weights(rng: np.random.Generator, n: int) -> np.ndarray:
    w = rng.uniform(0.5, 1.5, n)
    return w / w.sum()


def _rngs(seed: int, count: int) -> list[np.random.Generator]:
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(count)]


def _search(rng: np.random.Generator) -> dict:
    return dict(SEARCH_BASE, seed=int(rng.integers(0, 2**31 - 1)))


# The number of ascent evaluations varies by about 8% between seeds; four
# instances of each solver keep a pass's total work steady across seeds.
ASCENT_EACH = 4


def ascent_sweep(seed: int) -> list[dict]:
    """Model-one general search (1D quadratic) and model-two w_search (2D distance)."""
    specs = []
    rngs = _rngs(seed, 2 * ASCENT_EACH)
    for k in range(ASCENT_EACH):
        rng = rngs[k]
        x = interval(41)[:, 0]
        specs.append(
            {
                "id": f"general_{k}",
                "kind": "general",
                "points": interval(41),
                "cost": "quadratic",
                "alpha": 1.0,
                "p0": (x - 0.5 * x * x) * rng.uniform(0.9, 1.1),
                "weights": _weights(rng, 41),
                "search": _search(rng),
            }
        )
    for k in range(ASCENT_EACH):
        rng = rngs[ASCENT_EACH + k]
        specs.append(
            {
                "id": f"w_search_{k}",
                "kind": "w_search",
                "grid": (9, 9),
                "box": ((0.3, 0.7), (0.3, 0.7)),
                "points": grid(9, 9),
                "cost": "metric",
                "alpha": 1.0,
                "p0": np.full(81, rng.uniform(0.3, 0.5)),
                "weights": _weights(rng, 81),
                "search": _search(rng),
            }
        )
    return specs


def batch_scan(seed: int) -> list[dict]:
    """Model-two boundary control on a 1D window, and Nash dynamics plus verification."""
    rng_bc, rng_nash = _rngs(seed, 2)
    return [
        {
            "id": "boundary_control",
            "kind": "boundary_control",
            "window": (0.3, 0.7),
            "points": interval(81),
            "cost": "metric",
            "alpha": 1.0,
            "p0": np.full(81, rng_bc.uniform(0.3, 0.5)),
            "weights": _weights(rng_bc, 81),
            "search": _search(rng_bc),
        },
        {
            "id": "nash",
            "kind": "nash",
            "points": interval(201),
            "cost": "metric",
            "alpha": 1.0,
            "weights": _weights(rng_nash, 201),
            "init_p": np.full(201, rng_nash.uniform(0.8, 1.2)),
            "init_q": np.full(201, rng_nash.uniform(0.8, 1.2)),
            "game": dict(NASH_BASE),
        },
    ]


def closed_form_cli(seed: int) -> list[dict]:
    """Scenario files for `run`: metric closed form in 1D and 2D, and the 1D reduction."""
    r1, r2, r3 = _rngs(seed, 3)
    return [
        {
            "id": "metric_1d",
            "kind": "cli",
            "scenario": {
                "model": "one",
                "seed": seed,
                "region": {"dimension": 1, "n": 2001, "bounds": [0.0, 1.0]},
                "cost": {"kind": "metric_power", "alpha": 1.0},
                "measure": {"kind": "weights", "values": _weights(r1, 2001).tolist()},
                "prices": {"p0": {"kind": "per_point", "values": r1.uniform(0.2, 1.0, 2001).tolist()}},
                "solver": {"method": "metric_closed_form"},
            },
            "points": interval(2001),
        },
        {
            "id": "metric_2d",
            "kind": "cli",
            "scenario": {
                "model": "one",
                "seed": seed,
                "region": {"dimension": 2, "nx": 41, "ny": 41, "bounds": [[0.0, 1.0], [0.0, 1.0]]},
                "cost": {"kind": "metric_power", "alpha": 0.5},
                "measure": {"kind": "weights", "values": _weights(r2, 1681).tolist()},
                "prices": {"p0": {"kind": "per_point", "values": r2.uniform(0.2, 1.0, 1681).tolist()}},
                "solver": {"method": "metric_closed_form"},
            },
            "points": grid(41, 41),
        },
        {
            "id": "one_d",
            "kind": "cli",
            "scenario": {
                "model": "two",
                "seed": seed,
                "region": {"dimension": 1, "n": 2001, "bounds": [0.0, 1.0], "fixed_window": [0.3, 0.7]},
                "cost": {"kind": "metric_power", "alpha": 1.0},
                "measure": {"kind": "weights", "values": _weights(r3, 2001).tolist()},
                "fixed_price": {"kind": "constant", "value": 0.4},
                "solver": {"method": "one_d", "search": dict(SEARCH_BASE, grid_n=201)},
            },
            "points": interval(2001),
        },
    ]


def build(workload: str, seed: int) -> list[dict]:
    """Instance specs of one workload; the same seed gives the same specs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return globals()[workload](seed)
