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

from . import __version__
from ._search import BudgetExceededError
from .ctransform import NotCConcaveError
from .scenario import METHODS, _fmt, load_scenario

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3
EXIT_SELF_CHECK = 4


def _load_and_solve(scenario_path: str, context: str = "", **overrides):
    """(scenario, solved, seconds), or the exit code of a refusal, reported on stderr.

    `run` and `compare` share this mapping: a validation error (ScenarioError
    is a ValueError) exits 2, a budget refusal exits 3, and a failed runtime
    self-check of a solver (any other RuntimeError, or a report's
    NotCConcaveError, a ValueError) exits 4.
    """
    try:
        sc = load_scenario(scenario_path, **overrides)
        t0 = time.perf_counter()
        solved = METHODS[sc.method].solve(sc)
    except BudgetExceededError as e:
        print(f"solver refused{context}: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except (RuntimeError, NotCConcaveError) as e:
        print(f"solver self-check failed{context}: {e}", file=sys.stderr)
        return EXIT_SELF_CHECK
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
        "scenario_sha256": hashlib.sha256(Path(scenario_path).read_bytes()).hexdigest(),
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
