"""Correctness checks of one workload run's per-instance results.

Each answer is re-scored by rescore.py from the instance spec and compared
with the profit the library reported, and checked for feasibility.  Where
references.json holds the results recorded for this workload and seed, the
answer must also match them: profit (and for Nash the rounds used and final
payoffs) within rescore.PROFIT_RTOL, and for the CLI the sha256 of
result.json and series.csv exactly.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

import rescore

REFERENCES = Path(__file__).resolve().parent / "references.json"


def load_references() -> dict:
    return json.loads(REFERENCES.read_text(encoding="utf-8")) if REFERENCES.exists() else {}


def _cli_answer(result: dict) -> tuple[float, np.ndarray]:
    out = Path(result["out_dir"])
    profit = json.loads((out / "result.json").read_text(encoding="utf-8"))["summary"]["profit"]
    with open(out / "series.csv", newline="", encoding="utf-8") as fh:
        prices = np.array([float(row["price"]) for row in csv.DictReader(fh)])
    return profit, prices


def reference_record(spec: dict, result: dict) -> dict:
    """The parts of a result that references.json keeps."""
    if spec["kind"] == "nash":
        return {k: result[k] for k in ("rounds", "payoff_a", "payoff_b")}
    if spec["kind"] == "cli":
        return {"profit": _cli_answer(result)[0],
                "result.json": result["sha256"]["result.json"], "series.csv": result["sha256"]["series.csv"]}
    return {"profit": result["profit"]}


def _free_mask(points: np.ndarray, window=None, box=None) -> np.ndarray:
    """Free points: outside the open fixed window (1D) or box (2D).

    Points within 1e-12 * (1 + sum of |bounds|) of an edge count as free,
    the rule the region constructors document, on the unit interval or square.
    """
    if box is not None:
        (x0, x1), (y0, y1) = box
        edge = 5e-12
        inside = ((points[:, 0] > x0 + edge) & (points[:, 0] < x1 - edge)
                  & (points[:, 1] > y0 + edge) & (points[:, 1] < y1 - edge))
    else:
        a, b = window
        edge = 2e-12
        inside = (points[:, 0] > a + edge) & (points[:, 0] < b - edge)
    return ~inside


def _priced_problems(prices, profit, p0, c, w, free) -> list[str]:
    """Checks of a model-one (free is None) or model-two price vector and its reported profit."""
    problems = []
    if not np.all(np.isfinite(prices)):
        return ["non-finite price"]
    tol = rescore.tie_tol(c)
    if free is None:
        if np.any(prices > p0 + tol) or np.any(prices < -tol):
            problems.append("price outside [0, bound]")
        mine = rescore.profit_whole(prices, c, w)
    else:
        if not np.array_equal(prices[~free], p0[~free]):
            problems.append("prices differ from the imposed prices on the fixed part")
        mine = rescore.profit_subregion(prices, c, w, free)
    if not rescore.close(mine, profit):
        problems.append(f"re-scored profit {mine!r} differs from the reported {profit!r}")
    return problems


def _nash_problems(spec: dict, result: dict) -> list[str]:
    problems = []
    pts = spec["points"]
    c = rescore.cost_table(pts, spec["cost"], spec["alpha"])
    split = spec["game"]["split"]
    eps = 1e-12 * (1.0 + abs(split))
    a, b = pts[:, 0] <= split + eps, pts[:, 0] >= split - eps
    pay = rescore.payoffs_game(np.asarray(result["p"]), np.asarray(result["q"]), c, spec["weights"], a, b)
    for name, got in zip(("payoff_a", "payoff_b"), pay):
        if not rescore.close(got, result[name]):
            problems.append(f"re-scored {name} {got!r} differs from the reported {result[name]!r}")
    if not 1 <= result["rounds"] <= spec["game"]["rounds"]:
        problems.append(f"rounds used {result['rounds']} outside [1, {spec['game']['rounds']}]")
    return problems


def check(spec: dict, result: dict, reference: dict | None) -> list[str]:
    """Problems found with one instance's result; empty when it is correct."""
    pts, kind = spec["points"], spec["kind"]
    if kind == "nash":
        problems = _nash_problems(spec, result)
    elif kind == "cli":
        sc = spec["scenario"]
        profit, prices = _cli_answer(result)
        c = rescore.cost_table(pts, "metric", sc["cost"]["alpha"])
        w = np.asarray(sc["measure"]["values"])
        if sc["model"] == "one":
            p0, free = np.asarray(sc["prices"]["p0"]["values"]), None
        else:
            p0 = np.full(len(pts), sc["fixed_price"]["value"])
            free = _free_mask(pts, window=sc["region"]["fixed_window"])
        problems = _priced_problems(prices, profit, p0, c, w, free)
    else:
        c = rescore.cost_table(pts, spec["cost"], spec["alpha"])
        free = None if kind == "general" else _free_mask(pts, spec.get("window"), spec.get("box"))
        problems = _priced_problems(np.asarray(result["prices"]), result["profit"], spec["p0"], c, spec["weights"], free)
    if reference is not None:
        got = reference_record(spec, result)
        for key, want in reference.items():
            same = rescore.close(got[key], want) if isinstance(want, float) else got[key] == want
            if not same:
                problems.append(f"{key} {got[key]!r} differs from the recorded reference {want!r}")
    return problems
