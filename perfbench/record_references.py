"""Record the per-instance reference results that checks.py compares against.

    python3 perfbench/record_references.py

Solves one pass of every instance for each workload and each of SEEDS,
requires the answers to pass the re-scoring checks, and merges profits
(Nash: rounds used and final payoffs; CLI: also the sha256 of result.json
and series.csv) into references.json.  Record them at the commit whose answers
later changes must reproduce.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import checks
import instances
import run

SEEDS = range(30)


def main() -> int:
    refs = checks.load_references()
    out = Path(run.BENCH_DIR) / "out" / "references"
    out.mkdir(parents=True, exist_ok=True)
    for workload in instances.WORKLOADS:
        for seed in SEEDS:
            specs = instances.build(workload, seed)
            doc = run.spawn(argparse.Namespace(workload=workload, seed=seed), out / "child.json", 0)
            record = {}
            for spec in specs:
                iid = spec["id"]
                failure = doc["passes"][0]["failed"].get(iid)
                problems = [failure] if failure else checks.check(spec, doc["results"][iid], None)
                if problems:
                    print(f"{workload} seed {seed} {iid}: {'; '.join(problems)}", file=sys.stderr)
                    return 1
                record[iid] = checks.reference_record(spec, doc["results"][iid])
            refs.setdefault(workload, {})[str(seed)] = record
            print(f"{workload} seed {seed}: recorded {len(record)} instances", flush=True)
    checks.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
