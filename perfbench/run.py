"""Benchmark of the spatial-pricing solvers: one workload run, one result line.

    python3 perfbench/run.py --workload ascent_sweep --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from its `src/`.
Every measurement happens in a fresh child process (worker.py), single
threaded, so peak memory belongs to one workload run.

--trace 0  end-to-end metrics.  Four set-up-only children and one
           measuring child; setup_s is the median of their five set-up
           times, wall_s the mean time of a pass over the instances,
           peak_rss_mb the measuring child's high-water mark.  (The mean,
           not the median, of the passes: the speed of a shared host can
           switch between levels ~40% apart for tens of seconds, and a
           median then jumps between levels where a mean moves smoothly.)
--trace 1  per-layer metrics.  One untraced child and two traced children
           share the time; layer times are medians over the traced passes,
           the exact counts must repeat across all traced passes of both
           children, and trace.overhead_s is the traced minus the untraced
           mean pass time.

Every result is checked (checks.py); an instance fails if its set-up or
solver raised, the CLI exited non-zero, or a check failed.  The last line printed
is one JSON object with `correct`, `attempted`, `failed` and `metrics`; the
exit code is 0 only when every instance passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
LIBRARY = ROOT / "src" / "spatial_pricing"
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150.0

# counts that must repeat exactly between traced runs of one seed
EXACT_COUNTS = (
    "model_one.eval_batch.cands",
    "model_two.eval_batch.cands",
    "search.cells",
    "geometry.eval_cost.calls",
    "nash.evals",
    "nash.rounds",
)


def load_units() -> dict:
    """Unit of every metric, as BENCHMARK.json declares it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def provenance() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.exists():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref.removeprefix("ref: ")
        commit = ref_file.read_text().strip() if ref.startswith("ref: ") and ref_file.exists() else ref
    digest = hashlib.sha256()
    for path in sorted(LIBRARY.rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "library_sha256": digest.hexdigest(),
    }


def spawn(args, out: Path, seconds: float, *, setup_only=False, trace=False) -> dict:
    """Run one worker to completion and return its JSON document."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--workdir", str(out.with_suffix("")), "--out", str(out),
           "--trace", "1" if trace else "0"]
    if setup_only:
        cmd.append("--setup-only")
    spawned_at = time.monotonic()
    proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(out.read_text(encoding="utf-8"))


def check_run(doc: dict, specs: list[dict], references: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over every pass of one measuring child."""
    import checks

    bad = {}
    for spec in specs:
        iid = spec["id"]
        if iid in doc["results"]:
            try:
                problems = checks.check(spec, doc["results"][iid], references.get(iid))
            except Exception as e:  # a result the checks cannot read is a failed one
                problems = [f"unreadable result: {type(e).__name__}: {e}"]
            if problems:
                bad[iid] = "; ".join(problems)
    attempted = failed = 0
    messages = []
    for k, p in enumerate(doc["passes"]):
        for spec in specs:
            iid = spec["id"]
            attempted += 1
            reason = p["failed"].get(iid) or bad.get(iid)
            if reason:
                failed += 1
                messages.append(f"pass {k} instance {iid}: {reason}")
    return attempted, failed, messages


def main(argv=None) -> int:
    sys.path.insert(0, str(BENCH_DIR))
    import instances

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=instances.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (LIBRARY / "__init__.py").is_file():
        print(f"error: no library at {LIBRARY}; run from the root of a spatial-pricing checkout", file=sys.stderr)
        return 2
    import checks

    units = load_units()
    specs = instances.build(args.workload, args.seed)
    references = checks.load_references().get(args.workload, {}).get(str(args.seed), {})
    out = BENCH_DIR / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    info = provenance()
    deterministic = True
    messages = []
    attempted = failed = 0
    metrics: dict = {}
    if not args.trace:
        setups = [spawn(args, out / f"setup{i}.json", 0, setup_only=True)["setup_s"] for i in range(SETUP_REPEATS - 1)]
        doc = spawn(args, out / "measure.json", args.seconds)
        setups.append(doc["setup_s"])
        attempted, failed, messages = check_run(doc, specs, references)
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.fmean(p["wall_s"] for p in doc["passes"]),
            "peak_rss_mb": doc["peak_rss_mb"],
        }
        summary = {"setup_s_all": setups, "pass_wall_s": [p["wall_s"] for p in doc["passes"]]}
    else:
        share = args.seconds / 3.0
        plain = spawn(args, out / "untraced.json", share)
        traced = [spawn(args, out / f"traced{i}.json", share, trace=True) for i in range(2)]
        for doc in [plain] + traced:
            a, f, m = check_run(doc, specs, references)
            attempted, failed, messages = attempted + a, failed + f, messages + m
        passes = [p for doc in traced for p in doc["passes"]]
        counts = [{k: p["counters"][k] for k in EXACT_COUNTS} for p in passes]
        for k, other in enumerate(counts[1:], 1):
            if other != counts[0]:
                diff = {key: (counts[0][key], other[key]) for key in EXACT_COUNTS if counts[0][key] != other[key]}
                messages.append(f"DETERMINISM CHECK FAILED: exact counts of traced pass {k} differ: {diff}")
                deterministic = False
        for name in passes[0]["counters"]:
            values = [p["counters"][name] for p in passes]
            metrics[name] = statistics.median_low(values) if units[name] == "count" else statistics.median(values)
        plain_wall = statistics.fmean(p["wall_s"] for p in plain["passes"])
        traced_wall = statistics.fmean(p["wall_s"] for p in passes)
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead_s"] = traced_wall - plain_wall
        metrics["cli.out_mb"] = sum(r.get("out_bytes", 0) for r in traced[0]["results"].values()) / 2**20
        setup = traced[0]["setup_counters"]
        metrics["setup.geometry.eval_cost.calls"] = setup["geometry.eval_cost.calls"]
        metrics["setup.geometry.eval_cost.s"] = setup["geometry.eval_cost.s"]
        summary = {
            "untraced_pass_wall_s": [p["wall_s"] for p in plain["passes"]],
            "traced_pass_wall_s": [p["wall_s"] for p in passes],
            "instance_s": {"untraced": [p["instance_s"] for p in plain["passes"]],
                           "traced": [p["instance_s"] for p in passes]},
            "spans": [str((out / f"traced{i}.json").with_suffix(".spans.jsonl").relative_to(ROOT)) for i in range(2)],
        }

    correct = failed == 0 and deterministic
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    summary.update({"args": vars(args), "provenance": info, "result": result, "messages": messages,
                    "references": "recorded" if references else "none for this seed"})
    (out / "summary.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")

    for line in messages:
        print(line, file=sys.stderr)
    print("provenance: " + json.dumps(info))
    if not references:
        print(f"references: none recorded for seed {args.seed}; answers checked by re-scoring only")
    print(f"failed_frac: {failed / attempted if attempted else 1.0!r} ({failed} of {attempted} instance solves)")
    for name, value in metrics.items():
        print(f"{name}: {value!r} {units[name]}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
