"""Steadiness check: many seeds per workload, one or two sets.

    python3 e2ebench/steady.py --runs 10 --sets 2 --seconds 20 \\
        --workloads serve-ingest serve-fanin shard-fleet

Runs ``run.py`` once per (set, workload, seed), interleaving the sets
run by run so host drift falls on both alike.  For every end-to-end
metric it prints each set's median and its interquartile spread as a
share of the median (``statistics.quantiles(values, n=4)``), the
metric's bound from ``BENCHMARK.json``, and how far the second set's
median moved from the first's.  All results are written to
``.bench_out/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _one(workload: str, seed: int, seconds: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
    )
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{out.stderr}")
    return json.loads(out.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", default=None)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results: dict[str, list[list[dict]]] = {
        w: [[] for _ in range(args.sets)] for w in workloads
    }
    for i in range(args.runs):
        seed = args.first_seed + i
        for workload in workloads:
            for k in range(args.sets):
                res = _one(workload, seed + 1000 * k, seconds)
                if not res["correct"]:
                    raise SystemExit(f"{workload} seed {seed}: incorrect")
                results[workload][k].append(res)
                print(f"run {i + 1}/{args.runs} {workload} set {k + 1} ok",
                      file=sys.stderr, flush=True)

    report = {}
    for workload in workloads:
        print(f"\n{workload}")
        print(f"  {'metric':24s} {'median':>12s} {'spread':>7s}"
              f" {'bound':>6s} {'set2 moved':>10s}")
        for name, bound in bounds.items():
            sets = [
                [r["metrics"][name]["value"] for r in runs]
                for runs in results[workload]
            ]
            meds = [statistics.median(v) for v in sets]
            spreads = []
            for values in sets:
                q1, q2, q3 = statistics.quantiles(values, n=4)
                spreads.append((q3 - q1) / q2 if q2 else 0.0)
            moved = (meds[1] - meds[0]) / meds[0] if args.sets == 2 else 0.0
            report.setdefault(workload, {})[name] = {
                "values": sets, "medians": meds, "spreads": spreads,
                "bound": bound, "moved": moved,
            }
            print(f"  {name:24s} {meds[0]:12.5g} "
                  f"{max(spreads):7.3f} {bound:6.2f} {moved:+10.3f}")
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
