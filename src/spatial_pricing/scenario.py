"""Scenario files: a JSON document describing region, cost, measure, prices, solver.

The exact grammar is documented in the README.  Validation happens before any
solver runs or any output file is created; every problem found raises
ScenarioError with a readable message.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from .geometry import (
    CostKernel,
    CustomerMeasure,
    PricePattern,
    Region,
    build_grid_region,
    build_interval_region,
)
from ._search import SearchConfig, SearchMode

__all__ = ["Scenario", "ScenarioError", "load_scenario"]

MODEL_METHODS = {
    "one": ("metric_closed_form", "general_search", "quadratic_reference"),
    "two": ("w_search", "one_d", "boundary_control"),
    "nash": ("dynamics",),
}


class ScenarioError(ValueError):
    """Scenario file is malformed or internally inconsistent."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ScenarioError(message)


def _is_number(value: Any) -> bool:
    """A JSON number: an int or a float, not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _count(spec: dict, key: str, default: int, what: str, least: int = 1) -> int:
    """The integer >= `least` at `spec[key]`: a grid size, a level count, a budget or a seed."""
    value = spec.get(key, default)
    _require(
        _is_number(value) and math.isfinite(value) and value >= least and value == int(value),
        f"{what}.{key}: must be an integer >= {least}, got {value!r}",
    )
    return int(value)


def _nonnegative(spec: dict, key: str, what: str, default: Optional[float] = None) -> Optional[float]:
    """The finite number >= 0 at `spec[key]`; None only when the key is absent or null and there is no default."""
    value = spec.get(key, default)
    _require(
        (value is None and default is None) or (_is_number(value) and math.isfinite(value) and value >= 0),
        f"{what}.{key}: must be a finite number >= 0, got {value!r}",
    )
    return None if value is None else float(value)


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


def _on_unit_interval(region: Region) -> bool:
    """True when the 1D region runs from 0 to 1 (each end within 1e-12)."""
    x = region.coords_1d()
    return abs(x[0]) < 1e-12 and abs(x[-1] - 1.0) < 1e-12


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
    game: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)


def _build_region(spec: Any) -> tuple[Region, Optional[tuple[float, float]]]:
    _require(isinstance(spec, dict), "region: expected an object")
    dim = spec.get("dimension", 1)
    if dim == 1:
        _require("n" in spec, "region: 1D region needs 'n'")
        bounds = spec.get("bounds", [0.0, 1.0])
        _require(isinstance(bounds, list) and len(bounds) == 2, "region: bounds must be [a, b]")
        window = spec.get("fixed_window")
        if window is not None:
            _require(isinstance(window, list) and len(window) == 2, "region: fixed_window must be [alpha, beta]")
            window = (float(window[0]), float(window[1]))
        try:
            region = build_interval_region(int(spec["n"]), float(bounds[0]), float(bounds[1]), window)
        except ValueError as e:
            raise ScenarioError(f"region: {e}") from e
        return region, window
    if dim == 2:
        _require("nx" in spec and "ny" in spec, "region: 2D region needs 'nx' and 'ny'")
        bounds = spec.get("bounds", [[0.0, 1.0], [0.0, 1.0]])
        box = spec.get("fixed_box")
        try:
            region = build_grid_region(
                int(spec["nx"]),
                int(spec["ny"]),
                ((float(bounds[0][0]), float(bounds[0][1])), (float(bounds[1][0]), float(bounds[1][1]))),
                None if box is None else ((float(box[0][0]), float(box[0][1])), (float(box[1][0]), float(box[1][1]))),
            )
        except (ValueError, TypeError, IndexError) as e:
            raise ScenarioError(f"region: {e}") from e
        return region, None
    raise ScenarioError(f"region: unsupported dimension {dim}")


def _build_kernel(spec: Any) -> CostKernel:
    _require(isinstance(spec, dict) and "kind" in spec, "cost: expected an object with a 'kind'")
    kind = spec["kind"]
    try:
        if kind == "metric_power":
            return CostKernel.metric(float(spec.get("alpha", 1.0)))
        if kind == "quadratic":
            return CostKernel.quadratic()
        if kind == "custom_table":
            _require("values" in spec, "cost: custom_table needs 'values'")
            return CostKernel.custom(np.asarray(spec["values"], dtype=float))
    except ValueError as e:
        raise ScenarioError(f"cost: {e}") from e
    raise ScenarioError(f"cost: unknown kind {kind!r}")


def _build_measure(spec: Any, n: int) -> CustomerMeasure:
    _require(isinstance(spec, dict) and "kind" in spec, "measure: expected an object with a 'kind'")
    if spec["kind"] == "uniform":
        return CustomerMeasure.uniform(n, mass=float(spec.get("mass", 1.0)))
    if spec["kind"] == "weights":
        vals = spec.get("values")
        _require(isinstance(vals, list) and len(vals) == n, f"measure: weights need {n} values")
        try:
            return CustomerMeasure(np.asarray(vals, dtype=float))
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
    _require(model in MODEL_METHODS, f"scenario: model must be one of {sorted(MODEL_METHODS)}")
    region, window = _build_region(raw.get("region"))
    kernel = _build_kernel(raw.get("cost"))
    if kernel.kind.value == "custom_table":
        _require(kernel.table.shape[0] == region.size, "cost: custom table does not match the region size")
    measure = _build_measure(raw.get("measure"), region.size)
    seed = _count(raw, "seed", 0, "scenario", least=0) if seed_override is None else seed_override
    solver = raw.get("solver") or {}
    _require(isinstance(solver, dict), "solver: expected an object")
    method = method_override or solver.get("method")
    if method is None:
        method = MODEL_METHODS[model][0]
    _require(method in MODEL_METHODS[model], f"solver: method {method!r} does not apply to model {model!r}")
    search = _build_search(solver.get("search"), seed)

    sc = Scenario(
        model=model,
        region=region,
        kernel=kernel,
        measure=measure,
        method=method,
        search=search,
        seed=seed,
        fixed_window=window,
        raw=raw,
    )

    if model == "one":
        _require("prices" in raw and isinstance(raw["prices"], dict), "scenario: model one needs a 'prices' object")
        _require("p0" in raw["prices"], "prices: model one needs the bound 'p0'")
        vals = _price_values(raw["prices"]["p0"], region.size, "prices.p0", allow_inf=True)
        _require(bool(np.isfinite(vals).any()), "prices.p0: bound is +inf everywhere")
        _require(not (vals < 0).any(), "prices.p0: bound must be nonnegative")
        sc.p0 = PricePattern(vals)
        if method == "quadratic_reference":
            _require(kernel.kind.value == "quadratic", "quadratic_reference needs the quadratic cost")
            _require(region.dimension == 1, "quadratic_reference needs a 1D region")
            _require(_on_unit_interval(region), "quadratic_reference needs the region [0, 1]")
            x = region.coords_1d()
            _require(
                bool(np.all(np.abs(vals - (x - 0.5 * x**2)) <= 1e-9)),
                "quadratic_reference needs the bound x - x^2/2",
            )
        if method == "metric_closed_form":
            _require(kernel.is_metric, "metric_closed_form needs a metric cost kernel")
    elif model == "two":
        _require(region.has_partition, "scenario: model two needs a region with a fixed window/box")
        _require("fixed_price" in raw, "scenario: model two needs 'fixed_price'")
        vals = _price_values(raw["fixed_price"], region.size, "fixed_price", allow_inf=True)
        sc.p0 = PricePattern(vals)
        if raw["fixed_price"]["kind"] == "constant":
            sc.p0_constant = float(vals[0])
        if method == "one_d":
            _require(region.dimension == 1, "one_d needs a 1D region")
            _require(window is not None, "one_d needs a fixed_window")
            _require(sc.p0_constant is not None, "one_d needs a constant fixed_price")
            _require(kernel.is_metric and kernel.alpha == 1.0, "one_d needs the distance cost")
            _require(_on_unit_interval(region), "one_d needs the region [0, 1]")
        if method == "boundary_control":
            _require(kernel.is_metric and kernel.alpha == 1.0, "boundary_control needs the distance cost")
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
            masks = (np.asarray(m["a"], dtype=bool), np.asarray(m["b"], dtype=bool))
        verify = game.get("verify", False)
        _require(isinstance(verify, bool), f"game.verify: must be true or false, got {verify!r}")
        sc.game = {
            "split": None if "split" not in game else float(game["split"]),
            "masks": masks,
            "init_p": _price_values(game.get("init_p", {"kind": "constant", "value": 1.0}), region.size, "game.init_p", allow_inf=False),
            "init_q": _price_values(game.get("init_q", {"kind": "constant", "value": 1.0}), region.size, "game.init_q", allow_inf=False),
            "rounds": _count(game, "rounds", 30, "game"),
            "eps": _nonnegative(game, "eps", "game", default=1e-9),
            "grid_n": _count(game, "grid_n", 200, "game"),
            "price_cap": _nonnegative(game, "price_cap", "game"),
            "verify": verify,
        }
    return sc
