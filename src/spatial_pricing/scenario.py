"""Scenario files: a JSON document describing region, cost, measure, prices, solver.

The exact grammar is documented in the README.  Validation happens before any
solver runs or any output file is created; every problem found raises
ScenarioError with a readable message.  `METHODS` is the one table of solver
methods: the model each belongs to, what it needs of a scenario, and how it
solves one.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from . import model_one, model_two, nash
from .geometry import (
    CostKernel,
    CustomerMeasure,
    Mask,
    PricePattern,
    Region,
    build_grid_region,
    build_interval_region,
    eval_cost,
    uniform_cdf,
)
from ._search import SearchConfig, SearchMode

__all__ = ["METHODS", "Method", "Scenario", "ScenarioError", "load_scenario"]

UNIT_END_TOL = 1e-12  # a 1D region whose ends lie this close to 0 and 1 is the unit interval: bounds written as decimals
QUADRATIC_BOUND_TOL = 1e-9  # a bound this close to x - x^2/2 at every point is that bound, as a JSON file can state it
GAME_EPS = 1e-9  # default game.eps: a round that moves no price by more is float noise, and the dynamics stop


class ScenarioError(ValueError):
    """Scenario file is malformed or internally inconsistent."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ScenarioError(message)


def _is_number(value: Any) -> bool:
    """A JSON number: an int or a float, not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _integer(value: Any, least: int, name: str) -> int:
    """`value` as an integer >= `least`; `name` is the key or flag it came from."""
    _require(
        _is_number(value) and math.isfinite(value) and value >= least and value == int(value),
        f"{name}: must be an integer >= {least}, got {value!r}",
    )
    return int(value)


def _count(spec: dict, key: str, default: int, what: str, least: int = 1) -> int:
    """The integer >= `least` at `spec[key]`: a grid size, a level count, a budget or a seed."""
    return _integer(spec.get(key, default), least, f"{what}.{key}")


def _finite_number(value: Any, name: str) -> float:
    """`value` as a finite number; `name` is the key path it came from."""
    _require(_is_number(value) and math.isfinite(value), f"{name}: must be a finite number, got {value!r}")
    return float(value)


def _finite(spec: dict, key: str, what: str) -> float:
    """The finite number at `spec[key]`."""
    return _finite_number(spec[key], f"{what}.{key}")


def _finite_pair(value: Any, name: str) -> tuple[float, float]:
    """`value` as a list [lo, hi] of two finite numbers, named `name[0]` and `name[1]`."""
    _require(isinstance(value, list) and len(value) == 2, f"{name}: must be a list of two numbers, got {value!r}")
    return _finite_number(value[0], f"{name}[0]"), _finite_number(value[1], f"{name}[1]")


def _box(value: Any, name: str) -> tuple[tuple[float, float], tuple[float, float]]:
    """`value` as [[x_lo, x_hi], [y_lo, y_hi]] of finite numbers."""
    _require(isinstance(value, list) and len(value) == 2, f"{name}: must be [[x_lo, x_hi], [y_lo, y_hi]], got {value!r}")
    return _finite_pair(value[0], f"{name}[0]"), _finite_pair(value[1], f"{name}[1]")


def _nonnegative(spec: dict, key: str, what: str, default: Optional[float] = None) -> Optional[float]:
    """The finite number >= 0 at `spec[key]`; None only when the key is absent or null and there is no default."""
    value = spec.get(key, default)
    _require(
        (value is None and default is None) or (_is_number(value) and math.isfinite(value) and value >= 0),
        f"{what}.{key}: must be a finite number >= 0, got {value!r}",
    )
    return None if value is None else float(value)


def _numbers(values: list, name: str) -> None:
    """Refuse a list with an entry that is not a JSON number: a bool or a numeric string too."""
    for v in values:
        _require(_is_number(v), f"{name}: entries must be numbers, got {v!r}")


def _price_token(value: Any, what: str) -> float:
    """One price: a JSON number, or "+inf"/"inf" for no bound."""
    if isinstance(value, str) and value in ("+inf", "inf"):
        return np.inf
    _require(_is_number(value), f"{what}: unknown price token {value!r}")
    return float(value)


def _price_values(spec: Any, n: int, what: str, allow_inf: bool) -> np.ndarray:
    _require(isinstance(spec, dict) and "kind" in spec, f"{what}: expected an object with a 'kind'")
    kind = spec["kind"]
    if kind == "constant":
        _require("value" in spec, f"{what}: constant price needs a 'value'")
        out = np.full(n, _price_token(spec["value"], what))
    elif kind == "per_point":
        vals = spec.get("values")
        _require(isinstance(vals, list) and len(vals) == n, f"{what}: per_point needs {n} values")
        out = np.array([_price_token(v, what) for v in vals])
    else:
        raise ScenarioError(f"{what}: unknown price kind {kind!r}")
    _require(not np.isnan(out).any() and not (out == -np.inf).any(), f"{what}: prices must be real numbers or +inf")
    _require(allow_inf or np.isfinite(out).all(), f"{what}: +inf is only allowed in bound patterns")
    return out


@dataclass
class Scenario:
    model: str
    region: Region
    kernel: CostKernel
    measure: CustomerMeasure
    method: str
    search: SearchConfig
    seed: int
    p0: Optional[PricePattern] = None  # model one bound / model two imposed prices
    p0_constant: Optional[float] = None
    fixed_window: Optional[tuple[float, float]] = None
    uniform_mass: Optional[float] = None  # measure.mass of a uniform measure, as declared
    game: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Method:
    """A solver method of `model`, the model's default when it is its first entry in METHODS.

    `checks` are (predicate, message) pairs run in order on the parsed
    scenario after its model's own checks; `solve(sc)` returns the result,
    the summary and the output series by file name.
    """

    model: str
    solve: Callable[[Scenario], tuple]
    checks: tuple[tuple[Callable[[Scenario], bool], str], ...] = ()
    reads_price_cap: bool = False


def _build_region(spec: Any) -> tuple[Region, Optional[tuple[float, float]]]:
    _require(isinstance(spec, dict), "region: expected an object")
    dim = spec.get("dimension", 1)
    if dim == 1 and not isinstance(dim, bool):
        _require("n" in spec, "region: 1D region needs 'n'")
        a, b = _finite_pair(spec.get("bounds", [0.0, 1.0]), "region.bounds")
        window = spec.get("fixed_window")
        if window is not None:
            _require(isinstance(window, list) and len(window) == 2, "region: fixed_window must be [alpha, beta]")
            ends = dict(zip(("alpha", "beta"), window))
            window = (_finite(ends, "alpha", "region.fixed_window"), _finite(ends, "beta", "region.fixed_window"))
        n = _count(spec, "n", 0, "region")
        try:
            region = build_interval_region(n, a, b, window)
        except ValueError as e:
            raise ScenarioError(f"region: {e}") from e
        return region, window
    if dim == 2:
        _require("nx" in spec and "ny" in spec, "region: 2D region needs 'nx' and 'ny'")
        bounds = _box(spec.get("bounds", [[0.0, 1.0], [0.0, 1.0]]), "region.bounds")
        box = spec.get("fixed_box")
        box = None if box is None else _box(box, "region.fixed_box")
        nx, ny = _count(spec, "nx", 0, "region"), _count(spec, "ny", 0, "region")
        try:
            region = build_grid_region(nx, ny, bounds, box)
        except ValueError as e:
            raise ScenarioError(f"region: {e}") from e
        return region, None
    raise ScenarioError(f"region: unsupported dimension {dim!r}")


def _build_kernel(spec: Any) -> CostKernel:
    _require(isinstance(spec, dict) and "kind" in spec, "cost: expected an object with a 'kind'")
    kind = spec["kind"]
    alpha = _finite(spec, "alpha", "cost") if kind == "metric_power" and "alpha" in spec else 1.0
    if kind == "custom_table":
        rows = spec.get("values")
        _require(
            isinstance(rows, list) and all(isinstance(r, list) and len(r) == len(rows) for r in rows),
            "cost.values: custom_table needs a square list of rows",
        )
        for i, row in enumerate(rows):
            _numbers(row, f"cost.values[{i}]")
    try:
        if kind == "metric_power":
            return CostKernel.metric(alpha)
        if kind == "quadratic":
            return CostKernel.quadratic()
        if kind == "custom_table":
            return CostKernel.custom(np.asarray(rows, dtype=float))
    except ValueError as e:
        raise ScenarioError(f"cost: {e}") from e
    raise ScenarioError(f"cost: unknown kind {kind!r}")


def _build_measure(spec: Any, n: int) -> tuple[CustomerMeasure, Optional[float]]:
    """The measure, and the declared mass when it is uniform (None for weights)."""
    _require(isinstance(spec, dict) and "kind" in spec, "measure: expected an object with a 'kind'")
    if spec["kind"] == "uniform":
        mass = _nonnegative(spec, "mass", "measure", default=1.0)
        return CustomerMeasure.uniform(n, mass=mass), mass
    if spec["kind"] == "weights":
        vals = spec.get("values")
        _require(isinstance(vals, list) and len(vals) == n, f"measure: weights need {n} values")
        _numbers(vals, "measure.values")
        try:
            return CustomerMeasure(np.asarray(vals, dtype=float)), None
        except ValueError as e:
            raise ScenarioError(f"measure: {e}") from e
    raise ScenarioError(f"measure: unknown kind {spec['kind']!r}")


def _build_search(spec: Any, seed: int) -> SearchConfig:
    if spec is None:
        return SearchConfig(seed=seed)
    _require(isinstance(spec, dict), "solver.search: expected an object")
    mode = spec.get("mode", "ascent")
    _require(mode in ("ascent", "exhaustive"), f"solver.search: unknown mode {mode!r}")
    return SearchConfig(
        mode=SearchMode.EXHAUSTIVE if mode == "exhaustive" else SearchMode.ASCENT,
        levels=_count(spec, "levels", 8, "solver.search"),
        multistarts=_count(spec, "multistarts", 16, "solver.search"),
        seed=seed,
        max_candidates=_count(spec, "max_candidates", 2_000_000, "solver.search"),
        grid_n=_count(spec, "grid_n", 201, "solver.search"),
        price_cap=_nonnegative(spec, "price_cap", "solver.search"),
    )


def load_scenario(path: str, method_override: Optional[str] = None, seed_override: Optional[int] = None) -> Scenario:
    """Parse and fully validate a scenario file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as e:
        raise ScenarioError(f"cannot read scenario: {e}") from e
    except json.JSONDecodeError as e:
        raise ScenarioError(f"scenario is not valid JSON: {e}") from e
    try:
        return _parse(raw, method_override, seed_override)
    except (TypeError, OverflowError) as e:
        # null, a list or an object where a number or a name belongs, or an
        # infinity (json reads 1e400 as one) where a count belongs
        raise ScenarioError(f"scenario: wrongly typed or out-of-range value: {e}") from e


def _parse(raw: Any, method_override: Optional[str], seed_override: Optional[int]) -> Scenario:
    _require(isinstance(raw, dict), "scenario: top level must be an object")
    model = raw.get("model")
    models = {m.model for m in METHODS.values()}
    _require(model in models, f"scenario: model must be one of {sorted(models)}")
    region, window = _build_region(raw.get("region"))
    kernel = _build_kernel(raw.get("cost"))
    if kernel.kind.value == "custom_table":
        _require(kernel.table.shape[0] == region.size, "cost: custom table does not match the region size")
    measure, uniform_mass = _build_measure(raw.get("measure"), region.size)
    seed = _count(raw, "seed", 0, "scenario", least=0) if seed_override is None else _integer(seed_override, 0, "--seed")
    solver = raw.get("solver") or {}
    _require(isinstance(solver, dict), "solver: expected an object")
    names = [name for name, m in METHODS.items() if m.model == model]
    method = method_override or solver.get("method")
    if method is None:
        method = names[0]
    _require(method in names, f"solver: method {method!r} does not apply to model {model!r}")
    entry = METHODS[method]
    search = _build_search(solver.get("search"), seed)
    _require(
        search.price_cap is None or entry.reads_price_cap,
        f"solver.search.price_cap: method {method!r} does not read a price cap; set it to null or drop it",
    )

    sc = Scenario(
        model=model,
        region=region,
        kernel=kernel,
        measure=measure,
        method=method,
        search=search,
        seed=seed,
        fixed_window=window,
        uniform_mass=uniform_mass,
    )

    if model == "one":
        _require("prices" in raw and isinstance(raw["prices"], dict), "scenario: model one needs a 'prices' object")
        _require("p0" in raw["prices"], "prices: model one needs the bound 'p0'")
        vals = _price_values(raw["prices"]["p0"], region.size, "prices.p0", allow_inf=True)
        _require(bool(np.isfinite(vals).any()), "prices.p0: bound is +inf everywhere")
        _require(not (vals < 0).any(), "prices.p0: bound must be nonnegative")
        sc.p0 = PricePattern(vals)
    elif model == "two":
        _require(region.has_partition, "scenario: model two needs a region with a fixed window/box")
        _require("fixed_price" in raw, "scenario: model two needs 'fixed_price'")
        vals = _price_values(raw["fixed_price"], region.size, "fixed_price", allow_inf=True)
        sc.p0 = PricePattern(vals)
        if raw["fixed_price"]["kind"] == "constant":
            sc.p0_constant = float(vals[0])
    else:  # nash
        game = raw.get("game")
        _require(isinstance(game, dict), "scenario: model nash needs a 'game' object")
        _require(region.dimension == 1, "nash scenarios use 1D regions")
        _require("split" in game or "masks" in game, "game: needs 'split' or explicit 'masks'")
        masks = None
        if "masks" in game:
            m = game["masks"]
            _require(
                isinstance(m, dict)
                and isinstance(m.get("a"), list)
                and isinstance(m.get("b"), list)
                and len(m["a"]) == region.size
                and len(m["b"]) == region.size,
                "game.masks: needs boolean lists 'a' and 'b' covering the region",
            )
            for key in ("a", "b"):
                for v in m[key]:
                    _require(isinstance(v, bool), f"game.masks.{key}: entries must be true or false, got {v!r}")
            masks = (np.asarray(m["a"], dtype=bool), np.asarray(m["b"], dtype=bool))
        verify = game.get("verify", False)
        _require(isinstance(verify, bool), f"game.verify: must be true or false, got {verify!r}")
        sc.game = {
            "split": None if "split" not in game else _finite(game, "split", "game"),
            "masks": masks,
            "init_p": _price_values(game.get("init_p", {"kind": "constant", "value": 1.0}), region.size, "game.init_p", allow_inf=False),
            "init_q": _price_values(game.get("init_q", {"kind": "constant", "value": 1.0}), region.size, "game.init_q", allow_inf=False),
            "rounds": _count(game, "rounds", 30, "game"),
            "eps": _nonnegative(game, "eps", "game", default=GAME_EPS),
            "grid_n": _count(game, "grid_n", 200, "game"),
            "price_cap": _nonnegative(game, "price_cap", "game"),
            "verify": verify,
        }
    for holds, message in entry.checks:
        _require(holds(sc), message)
    return sc


_MASK_NAMES = {int(Mask.NONE): "none", int(Mask.FREE): "free", int(Mask.FIXED): "fixed"}


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_column(values: np.ndarray) -> list[str]:
    """`_fmt` of each entry, formatted from Python floats."""
    return [format(x, ".17g") for x in np.asarray(values, dtype=float).tolist()]


def _reported(solve: Callable[[Scenario], Any]) -> Callable[[Scenario], tuple]:
    """The registry solve of a model-one or model-two method whose SolveReport is `solve(sc)`."""

    def solved(sc: Scenario):
        rep = solve(sc)
        summary = {"profit": rep.profit, "method": rep.method}
        summary.update((k, v) for k, v in rep.diagnostics.items() if k in ("p1", "p2", "objective_two_term"))
        return rep, summary, _series_model_one_two(sc, rep)

    return solved


def _quadratic_reference(sc: Scenario):
    v, p, _ = model_one.quadratic_1d_reference(sc.region.coords_1d())
    cost = eval_cost(sc.kernel, sc.region)
    return model_one.price_report(PricePattern(p), v, cost, sc.measure, model_one.METHOD_QUADRATIC_REFERENCE, {})


def _partition(sc: Scenario) -> model_two.PartitionContext:
    return model_two.PartitionContext.build(sc.region, sc.kernel, sc.p0)


def _one_d(sc: Scenario):
    """A uniform measure is the continuum uniform of its declared mass; weights use their atoms."""
    mass, unit = sc.uniform_mass, uniform_cdf(0.0, 1.0)
    cdf = None if mass is None else (lambda t: mass * unit(t))
    alpha, beta = sc.fixed_window
    return model_two.one_d_reduction(alpha, beta, sc.p0_constant, cdf, ctx=_partition(sc), f=sc.measure, grid_n=sc.search.grid_n)


def _solve_nash(sc: Scenario):
    region, g = sc.region, sc.game
    if g["masks"] is not None:
        ctx = nash.GameContext.build(region, sc.kernel, *g["masks"], sc.measure, price_cap=g["price_cap"])
    else:
        ctx = nash.GameContext.from_split(region, sc.kernel, g["split"], sc.measure, price_cap=g["price_cap"])
    cfg = nash.NashSearchConfig(grid_n=g["grid_n"])
    trace = nash.best_response_dynamics(g["init_p"], g["init_q"], ctx, g["rounds"], g["eps"], cfg)
    last = trace.rounds[-1]
    summary = {
        "method": "dynamics", "rounds_used": len(trace.rounds), "converged": trace.converged,
        "oscillation_period": trace.oscillation_period, "payoff_a": last.payoff_a, "payoff_b": last.payoff_b,
        "profit": last.payoff_a + last.payoff_b,
    }
    pv, qv = np.zeros(region.size), np.zeros(region.size)
    pv[ctx.indices("A")], qv[ctx.indices("B")] = last.p, last.q
    if g["verify"]:
        ver = nash.verify_equilibrium(pv, qv, ctx, cfg)
        for key in ("is_equilibrium", "best_deviation_gain_a", "best_deviation_gain_b"):
            summary[key] = getattr(ver, key)
    series = [["index", "x", "region", "price_a", "price_b"]]
    for i in range(region.size):
        in_a, in_b = bool(ctx.a_mask[i]), bool(ctx.b_mask[i])
        owner = "AB" if in_a and in_b else ("A" if in_a else "B")
        series.append([str(i), _fmt(region.points[i, 0]), owner, _fmt(pv[i]) if in_a else "", _fmt(qv[i]) if in_b else ""])
    trace_rows = [["round", "player", "sup_delta", "payoff"]]
    for r in trace.rounds:
        trace_rows.append([str(r.round), "A", _fmt(r.delta_p), _fmt(r.payoff_a)])
        trace_rows.append([str(r.round), "B", _fmt(r.delta_q), _fmt(r.payoff_b)])
    return trace, summary, {"series.csv": series, "trace.csv": trace_rows}


def _series_model_one_two(sc: Scenario, rep):
    """series.csv of a model-one or model-two report; model one captures every customer."""
    region, n = sc.region, sc.region.size
    axes = ["x"] if region.dimension == 1 else ["x", "y"]
    columns = [
        [str(i) for i in range(n)],
        *(_fmt_column(region.points[:, k]) for k in range(region.dimension)),
        [_MASK_NAMES[m] for m in region.mask.tolist()],
        [_fmt(p) if math.isfinite(p) else "+inf" for p in sc.p0.values.tolist()],
        _fmt_column(rep.optimal_price.values),
        _fmt_column(rep.optimal_value),
        [str(j) for j in np.asarray(rep.choice, dtype=np.intp).tolist()],
        ["1"] * n if rep.captured is None else [str(int(c)) for c in np.asarray(rep.captured, dtype=bool).tolist()],
    ]
    header = ["index", *axes, "mask", "bound_or_fixed_price", "price", "value", "assignment", "captured"]
    return {"series.csv": [header, *zip(*columns)]}


def _on_unit_interval(sc: Scenario) -> bool:
    """True when the 1D region runs from 0 to 1 (each end within UNIT_END_TOL)."""
    x = sc.region.coords_1d()
    return abs(x[0]) < UNIT_END_TOL and abs(x[-1] - 1.0) < UNIT_END_TOL


def _has_quadratic_bound(sc: Scenario) -> bool:
    x = sc.region.coords_1d()
    return bool(np.all(np.abs(sc.p0.values - (x - 0.5 * x**2)) <= QUADRATIC_BOUND_TOL))


def _distance_cost(sc: Scenario) -> bool:
    return sc.kernel.is_metric and sc.kernel.alpha == 1.0


# Solvers are looked up on their modules at call time, so a wrapper installed
# on a module attribute (a profiler, a test double) sees every call.
METHODS: dict[str, Method] = {
    "metric_closed_form": Method(
        "one", _reported(lambda sc: model_one.solve_metric(sc.p0, sc.kernel, sc.region, sc.measure)),
        ((lambda sc: sc.kernel.is_metric, "metric_closed_form needs a metric cost kernel"),),
    ),
    "general_search": Method(
        "one", _reported(lambda sc: model_one.solve_general(sc.p0, sc.kernel, sc.region, sc.measure, sc.search)),
        reads_price_cap=True,
    ),
    "quadratic_reference": Method(
        "one", _reported(_quadratic_reference),
        (
            (lambda sc: sc.kernel.kind.value == "quadratic", "quadratic_reference needs the quadratic cost"),
            (lambda sc: sc.region.dimension == 1, "quadratic_reference needs a 1D region"),
            (_on_unit_interval, "quadratic_reference needs the region [0, 1]"),
            (_has_quadratic_bound, "quadratic_reference needs the bound x - x^2/2"),
        ),
    ),
    "w_search": Method("two", _reported(lambda sc: model_two.solve_w_search(_partition(sc), sc.measure, sc.search))),
    "one_d": Method(
        "two", _reported(_one_d),
        (
            (lambda sc: sc.region.dimension == 1, "one_d needs a 1D region"),
            (lambda sc: sc.p0_constant is not None, "one_d needs a constant fixed_price"),
            (_distance_cost, "one_d needs the distance cost"),
            (_on_unit_interval, "one_d needs the region [0, 1]"),
        ),
    ),
    "boundary_control": Method(
        "two", _reported(lambda sc: model_two.solve_boundary_control(_partition(sc), sc.measure, sc.search)),
        ((_distance_cost, "boundary_control needs the distance cost"),),
    ),
    "dynamics": Method("nash", _solve_nash),
}
