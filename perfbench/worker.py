"""One benchmark child process: set up a workload's instances, then solve them.

Started by run.py, once per measurement, so that the peak-memory figure
belongs to this workload run alone.  It writes one JSON document to --out:
its set-up time, the time of every pass over the instances, the per-instance
results of the first pass, and, with --trace 1, the per-layer counters.

    python3 perfbench/worker.py --workload batch_scan --seed 3 --seconds 10 \
        --workdir perfbench/out/work --out perfbench/out/child.json \
        --spawned-at <time.monotonic() of the parent> [--setup-only] [--trace 1]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def _import_library():
    """Import numpy and the checkout's own library, refusing any other copy."""
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401

    import spatial_pricing

    where = Path(spatial_pricing.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise RuntimeError(f"spatial_pricing was imported from {where}, not from {SRC}")
    return spatial_pricing


def _search_config(sp, spec: dict):
    s = spec["search"]
    return sp.SearchConfig(
        mode=sp.SearchMode(s["mode"]),
        levels=s["levels"],
        multistarts=s["multistarts"],
        seed=s["seed"],
        max_candidates=s["max_candidates"],
        max_sweeps=s["max_sweeps"],
        refine_halvings=s["refine_halvings"],
        grid_n=s["grid_n"],
        price_cap=s["price_cap"],
    )


def _kernel(sp, spec: dict):
    return sp.CostKernel.quadratic() if spec["cost"] == "quadratic" else sp.CostKernel.metric(spec["alpha"])


def prepare(sp, spec: dict, workdir: Path):
    """Build the library objects of one instance.

    Returns (solve, finish): solve() is the timed call, finish(raw) turns its
    return value into plain data for the checks, outside the timed region.
    """
    import numpy as np

    from spatial_pricing import cli, model_one, model_two, nash

    kind = spec["kind"]
    if kind == "cli":
        scen = workdir / f"{spec['id']}.json"
        scen.write_text(json.dumps(spec["scenario"]), encoding="utf-8")
        out = workdir / spec["id"]

        def solve():
            code = cli.run(str(scen), str(out), fmt="both")
            if code != 0:
                raise RuntimeError(f"cli.run returned exit code {code}")
            return code

        def finish(code):
            files = sorted(p.name for p in out.iterdir())
            return {
                "exit_code": code,
                "out_dir": str(out),
                "sha256": {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in files},
                "out_bytes": sum((out / name).stat().st_size for name in files),
            }

        return solve, finish

    f = sp.CustomerMeasure(spec["weights"])
    kernel = _kernel(sp, spec)
    n = len(spec["points"])

    def finish_priced(rep):
        return {"profit": rep.profit, "prices": rep.optimal_price.values.tolist(),
                "evaluations": rep.diagnostics["evaluations"]}

    if kind == "general":
        region = sp.build_interval_region(n, 0.0, 1.0)
        p0 = sp.PricePattern(spec["p0"])
        cfg = _search_config(sp, spec)
        return (lambda: model_one.solve_general(p0, kernel, region, f, cfg)), finish_priced

    if kind in ("w_search", "boundary_control"):
        if kind == "w_search":
            region = sp.build_grid_region(*spec["grid"], ((0.0, 1.0), (0.0, 1.0)), spec["box"])
        else:
            region = sp.build_interval_region(n, 0.0, 1.0, spec["window"])
        solver = getattr(model_two, f"solve_{kind}")
        ctx = model_two.PartitionContext.build(region, kernel, sp.PricePattern(spec["p0"]))
        cfg = _search_config(sp, spec)
        return (lambda: solver(ctx, f, cfg)), finish_priced

    if kind == "nash":
        g = spec["game"]
        region = sp.build_interval_region(n, 0.0, 1.0)
        ctx = nash.GameContext.from_split(region, kernel, g["split"], f, price_cap=g["price_cap"])
        cfg = nash.NashSearchConfig(grid_n=g["grid_n"], polish_sweeps=g["polish_sweeps"], price_scale=g["price_scale"])
        a_idx, b_idx = ctx.indices("A"), ctx.indices("B")

        def solve():
            trace = nash.best_response_dynamics(spec["init_p"], spec["init_q"], ctx, g["rounds"], g["eps"], cfg)
            last = trace.rounds[-1]
            pv = np.zeros(n)
            pv[a_idx] = last.p
            qv = np.zeros(n)
            qv[b_idx] = last.q
            return trace, pv, qv, nash.verify_equilibrium(pv, qv, ctx, cfg)

        def finish(raw):
            trace, pv, qv, ver = raw
            last = trace.rounds[-1]
            return {
                "rounds": len(trace.rounds),
                "converged": trace.converged,
                "oscillation_period": trace.oscillation_period,
                "payoff_a": last.payoff_a,
                "payoff_b": last.payoff_b,
                "p": pv.tolist(),
                "q": qv.tolist(),
                "is_equilibrium": ver.is_equilibrium,
            }

        return solve, finish

    raise ValueError(f"unknown instance kind {kind!r}")


def _failure(e: Exception) -> str:
    where = traceback.extract_tb(e.__traceback__)[-1]
    return f"{type(e).__name__}: {e} (at {Path(where.filename).name}:{where.lineno})"


def _digest(result: dict) -> str:
    return hashlib.sha256(json.dumps(result, sort_keys=True).encode()).hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="passes stop once another would end past this")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spawned-at", type=float, required=True, help="time.monotonic() when the parent started this process")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: record layer spans in every pass")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(BENCH_DIR))
    sp = _import_library()
    import instances

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
        tracer.begin_instance("setup")

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    prepared = []  # (id, solve, finish, failure of its set-up or None)
    for spec in instances.build(args.workload, args.seed):
        try:
            prepared.append((spec["id"], *prepare(sp, spec, workdir), None))
        except Exception as e:  # counted as a failed instance in every pass
            prepared.append((spec["id"], None, None, _failure(e)))
    doc = {"setup_s": time.monotonic() - args.spawned_at}
    if tracer is not None:
        tracer.end_instance()
        doc["setup_counters"] = tracer.take_pass()
    if args.setup_only:
        Path(args.out).write_text(json.dumps(doc), encoding="utf-8")
        return 0

    passes = []  # per pass: wall time, per-instance times, failures, layer counters
    first: dict = {}
    digests: dict = {}
    started = time.perf_counter()
    while True:
        inst_s, failed = {}, {}
        for iid, solve, finish, broken in prepared:
            if broken:
                failed[iid] = broken
                continue
            if tracer is not None:
                tracer.begin_instance(iid)
            t0 = time.perf_counter()
            try:
                raw = solve()
            except Exception as e:  # a failed instance is counted, the run goes on
                raw = e
            inst_s[iid] = time.perf_counter() - t0
            if tracer is not None:
                tracer.end_instance()
            if isinstance(raw, Exception):
                failed[iid] = _failure(raw)
                continue
            try:
                result = finish(raw)
            except Exception as e:
                failed[iid] = _failure(e)
                continue
            digest = _digest(result)
            if iid not in first:
                first[iid], digests[iid] = result, digest
            elif digest != digests[iid]:
                failed[iid] = "result differs from the first pass of this run"
        wall = sum(inst_s.values())
        entry = {"wall_s": wall, "instance_s": inst_s, "failed": failed}
        if tracer is not None:
            entry["counters"] = tracer.take_pass()
        passes.append(entry)
        if not inst_s or time.perf_counter() - started + wall > args.seconds:
            break

    doc.update(
        {
            "passes": passes,
            "results": first,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    )
    if tracer is not None:
        tracer.write_spans(Path(args.out).with_suffix(".spans.jsonl"))
    Path(args.out).write_text(json.dumps(doc), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
