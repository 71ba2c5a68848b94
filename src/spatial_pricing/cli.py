"""Command-line front end: run a scenario or compare several methods on it.

Outputs are machine readable: a structured JSON result plus CSV data series
for external plotting (grammar documented in the README).  Identical scenario
and seed produce byte-identical outputs; wall-clock timings go to stdout
only.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__, model_one, model_two, nash
from ._search import BudgetExceededError
from .geometry import Mask, PricePattern, eval_cost, uniform_cdf
from .model_two import PartitionContext
from .nash import GameContext, NashSearchConfig
from .scenario import Scenario, load_scenario

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3

_MASK_NAMES = {int(Mask.NONE): "none", int(Mask.FREE): "free", int(Mask.FIXED): "fixed"}


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _scenario_hash(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _solve(sc: Scenario):
    """Dispatch a validated scenario; returns (report-like, summary dict, series rows)."""
    region, kernel, f = sc.region, sc.kernel, sc.measure
    if sc.model == "nash":
        return _solve_nash(sc)
    if sc.method == "metric_closed_form":
        rep = model_one.solve_metric(sc.p0, kernel, region, f)
    elif sc.method == "general_search":
        rep = model_one.solve_general(sc.p0, kernel, region, f, sc.search)
    elif sc.method == "quadratic_reference":
        v, p, _ = model_one.quadratic_1d_reference(region.coords_1d())
        rep = model_one.price_report(
            PricePattern(p), v, eval_cost(kernel, region), f, model_one.METHOD_QUADRATIC_REFERENCE, {}
        )
    else:  # model two
        ctx = PartitionContext.build(region, kernel, sc.p0)
        if sc.method == "w_search":
            rep = model_two.solve_w_search(ctx, f, sc.search)
        elif sc.method == "boundary_control":
            rep = model_two.solve_boundary_control(ctx, f, sc.search)
        else:  # one_d
            alpha, beta = sc.fixed_window
            cdf = uniform_cdf(0.0, 1.0) if sc.raw["measure"]["kind"] == "uniform" else None
            rep = model_two.one_d_reduction(
                alpha, beta, sc.p0_constant, cdf, ctx=ctx, f=f, grid_n=sc.search.grid_n
            )
    summary = {"profit": rep.profit, "method": rep.method}
    for key in ("p1", "p2", "objective_two_term"):
        if key in rep.diagnostics:
            summary[key] = rep.diagnostics[key]
    return rep, summary, _series_model_one_two(sc, rep)


def _solve_nash(sc: Scenario):
    region, kernel, f = sc.region, sc.kernel, sc.measure
    g = sc.game
    if g["masks"] is not None:
        ctx = GameContext.build(region, kernel, g["masks"][0], g["masks"][1], f, price_cap=g["price_cap"])
    else:
        ctx = GameContext.from_split(region, kernel, g["split"], f, price_cap=g["price_cap"])
    cfg = NashSearchConfig(grid_n=g["grid_n"])
    trace = nash.best_response_dynamics(g["init_p"], g["init_q"], ctx, g["rounds"], g["eps"], cfg)
    last = trace.rounds[-1]
    summary = {
        "method": "dynamics",
        "rounds_used": len(trace.rounds),
        "converged": trace.converged,
        "oscillation_period": trace.oscillation_period,
        "payoff_a": last.payoff_a,
        "payoff_b": last.payoff_b,
        "profit": last.payoff_a + last.payoff_b,
    }
    if g["verify"]:
        a_idx, b_idx = ctx.indices("A"), ctx.indices("B")
        pv = np.zeros(region.size)
        pv[a_idx] = last.p
        qv = np.zeros(region.size)
        qv[b_idx] = last.q
        ver = nash.verify_equilibrium(pv, qv, ctx, cfg)
        summary["is_equilibrium"] = ver.is_equilibrium
        summary["best_deviation_gain_a"] = ver.best_deviation_gain_a
        summary["best_deviation_gain_b"] = ver.best_deviation_gain_b
    series = _series_nash(sc, ctx, last)
    series["trace.csv"] = _trace_rows(trace)
    return trace, summary, series


def _series_model_one_two(sc: Scenario, rep):
    """series.csv of a model-one or model-two report; model one captures every customer."""
    region = sc.region
    header = ["index"] + (["x"] if region.dimension == 1 else ["x", "y"]) + [
        "mask",
        "bound_or_fixed_price",
        "price",
        "value",
        "assignment",
        "captured",
    ]
    rows = [header]
    p0 = sc.p0.values
    pv = rep.optimal_price.values
    for i in range(region.size):
        coords = [_fmt(c) for c in region.points[i]]
        rows.append(
            [str(i)]
            + coords
            + [
                _MASK_NAMES[int(region.mask[i])],
                _fmt(p0[i]) if np.isfinite(p0[i]) else "+inf",
                _fmt(pv[i]),
                _fmt(rep.optimal_value[i]),
                str(int(rep.choice[i])),
                str(1 if rep.captured is None else int(bool(rep.captured[i]))),
            ]
        )
    return {"series.csv": rows}


def _series_nash(sc: Scenario, ctx: GameContext, last):
    region = sc.region
    a_idx, b_idx = ctx.indices("A"), ctx.indices("B")
    pa = {int(i): v for i, v in zip(a_idx, last.p)}
    qb = {int(i): v for i, v in zip(b_idx, last.q)}
    rows = [["index", "x", "region", "price_a", "price_b"]]
    for i in range(region.size):
        in_a, in_b = bool(ctx.a_mask[i]), bool(ctx.b_mask[i])
        rows.append(
            [
                str(i),
                _fmt(region.points[i, 0]),
                "AB" if in_a and in_b else ("A" if in_a else "B"),
                _fmt(pa[i]) if in_a else "",
                _fmt(qb[i]) if in_b else "",
            ]
        )
    return {"series.csv": rows}


def _trace_rows(trace) -> list[list[str]]:
    rows = [["round", "player", "sup_delta", "payoff"]]
    for r in trace.rounds:
        rows.append([str(r.round), "A", _fmt(r.delta_p), _fmt(r.payoff_a)])
        rows.append([str(r.round), "B", _fmt(r.delta_q), _fmt(r.payoff_b)])
    return rows


def _load_and_solve(scenario_path: str, context: str = "", **overrides):
    """(scenario, solved, seconds), or the exit code of a refusal, reported on stderr.

    `run` and `compare` share this mapping: a validation error (ScenarioError
    is a ValueError) exits 2, a budget refusal exits 3.
    """
    try:
        sc = load_scenario(scenario_path, **overrides)
        t0 = time.perf_counter()
        solved = _solve(sc)
    except BudgetExceededError as e:
        print(f"solver refused{context}: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as e:
        print(f"scenario error{context}: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    return sc, solved, time.perf_counter() - t0


def run(scenario_path: str, out_dir: str, method: Optional[str] = None, seed: Optional[int] = None, fmt: str = "both") -> int:
    """Run one scenario; returns the process exit code."""
    outcome = _load_and_solve(scenario_path, method_override=method, seed_override=seed)
    if isinstance(outcome, int):
        return outcome
    sc, (_, summary, series), elapsed = outcome

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    bundle = {
        "schema": "spatial-pricing-result/1",
        "tool_version": __version__,
        "scenario_sha256": _scenario_hash(scenario_path),
        "model": sc.model,
        "method": sc.method,
        "seed": sc.seed,
        "summary": summary,
    }
    if fmt in ("both", "structured"):
        with open(out / "result.json", "w", encoding="utf-8") as fh:
            json.dump(bundle, fh, sort_keys=True, indent=2)
            fh.write("\n")
    if fmt in ("both", "csv"):
        for name, rows in series.items():
            with open(out / name, "w", newline="", encoding="utf-8") as fh:
                csv.writer(fh).writerows(rows)
    print(f"ok: model={sc.model} method={sc.method} profit={summary.get('profit')} runtime={elapsed:.3f}s")
    return EXIT_OK


def compare(scenario_path: str, methods: list[str], out_dir: Optional[str] = None) -> int:
    """Run several methods on one scenario and tabulate profits and deviations."""
    if not methods:
        print("compare: --methods names no method", file=sys.stderr)
        return EXIT_VALIDATION
    rows = []
    first_price = None
    for m in methods:
        outcome = _load_and_solve(scenario_path, f" for method {m!r}", method_override=m)
        if isinstance(outcome, int):
            return outcome
        _, (rep, summary, _), elapsed = outcome
        price = getattr(rep, "optimal_price", None)
        if price is not None and first_price is None:
            first_price = price.values
            deviation = 0.0
        elif price is not None:
            deviation = float(np.max(np.abs(price.values - first_price)))
        else:
            deviation = float("nan")
        rows.append((m, summary["profit"], deviation, elapsed))
    print(f"{'method':<22} {'profit':>14} {'max_price_dev':>14} {'runtime_s':>10}")
    for m, profit, dev, el in rows:
        print(f"{m:<22} {profit:>14.8f} {dev:>14.8f} {el:>10.3f}")
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "compare.csv", "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["method", "profit", "max_price_deviation", "runtime_s"])
            for m, profit, dev, el in rows:
                w.writerow([m, _fmt(profit), _fmt(dev), f"{el:.3f}"])
    return EXIT_OK


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="spatial-pricing",
        description="Discrete solvers for optimal spatial pricing under transportation costs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario")
    p_run.add_argument("--scenario", required=True, help="path to the scenario JSON file")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--method", default=None, help="override the solver method")
    p_run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_run.add_argument("--format", choices=("csv", "structured", "both"), default="both")

    p_cmp = sub.add_parser("compare", help="run several methods on one scenario")
    p_cmp.add_argument("--scenario", required=True)
    p_cmp.add_argument("--methods", required=True, help="comma-separated method names")
    p_cmp.add_argument("--out", default=None, help="optional directory for compare.csv")

    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.scenario, args.out, method=args.method, seed=args.seed, fmt=args.format)
    return compare(args.scenario, [m.strip() for m in args.methods.split(",") if m.strip()], args.out)


if __name__ == "__main__":
    sys.exit(main())
