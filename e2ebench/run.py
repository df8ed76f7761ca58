"""Run one benchmark workload for one seed; print its metrics.

    python3 e2ebench/run.py --workload serve-ingest --seed 1 \\
        --seconds 20 --trace 0

Workloads: ``serve-ingest``, ``serve-fanin``, ``shard-fleet`` (see
``e2ebench/README.md``).  With ``--trace 0`` the result carries every
end-to-end metric, measured with nothing patched but the pool-worker
peak-RSS probe; with ``--trace 1`` it carries every per-layer metric
from alternating plain and traced rounds.  Detail lines (tails with
their sample counts, per-round values, host facts, failure reasons)
come first; the last line of standard output is the result JSON.  A
run whose correctness check fails prints ``"correct": false``, no
metrics, and exits 1.

The program is imported from ``src/`` next to this directory; without
it the run exits 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

#: Where each run leaves its detail file and, traced, its spans.
OUT_DIR = ROOT / ".bench_out"

#: End-to-end metrics and their units, reported by every workload.
END_TO_END = {
    "setup_s": "s",
    "ingest_samples_per_s": "1/s",
    "batch_samples_per_s": "1/s",
    "ingest_p50_ms": "ms",
    "verdict_p50_ms": "ms",
    "requests_per_s": "1/s",
    "succeeded_frac": "frac",
    "peak_rss_mb": "MB",
}

#: Cold starts per run; their median is ``setup_s``.
SETUP_LAUNCHES = 3

WORKLOADS = ("serve-ingest", "serve-fanin", "shard-fleet")


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run(args: argparse.Namespace):
    from e2ebench.inputs import serve_fanin_script, serve_ingest_script
    from e2ebench.layers import install_wire_writer, layer_metrics
    from e2ebench.rounds import RoundLoop, SetupProbe, import_times
    from e2ebench.tracer import Tracer

    trace = bool(args.trace)
    kind = "shard" if args.workload == "shard-fleet" else "serve"
    probe = None if trace else SetupProbe(kind, SETUP_LAUNCHES)
    loop = RoundLoop(probe)
    extra: dict[str, float] = {}
    if args.workload == "shard-fleet":
        from e2ebench.fleet import run_fleet

        outcome = run_fleet(args.seed, args.seconds, trace, loop)
    else:
        from e2ebench.serving import run_serve

        make_script = (
            serve_ingest_script if args.workload == "serve-ingest"
            else serve_fanin_script
        )
        writer_tracer = Tracer()
        with writer_tracer.installed(install_wire_writer):
            script = make_script(args.seed)
        writes = writer_tracer.take()
        write_s = sum(s.t1 - s.t0 for s in writes) / 1e9
        if write_s:
            extra["wire.write.mb_per_s"] = (
                sum(s.n for s in writes) / 1e6 / write_s
            )
        outcome = run_serve(script, args.seconds, trace, loop)

    metrics: dict[str, float] = {}
    if trace:
        extra.update(outcome.layer_extra)
        extra.update(import_times(
            "repro.shard" if kind == "shard" else "repro.serve"
        ))
        metrics = layer_metrics(
            outcome.traced, plain_wall_s=outcome.plain_wall_s, extra=extra,
        )
    else:
        metrics = dict(outcome.metrics)
        metrics["setup_s"] = probe.median_s
        metrics["succeeded_frac"] = (
            (outcome.attempted - outcome.failed) / outcome.attempted
        )
        outcome.detail["setup_launch_s"] = probe.seconds
    return outcome, metrics


def _write_spans(path: Path, traced) -> None:
    """All spans of every traced round, one line each, written once."""
    with path.open("w", encoding="utf-8") as fh:
        fh.write("round,sid,parent,lane,name,t0_ns,t1_ns,n\n")
        for i, rnd in enumerate(traced):
            for s in rnd.spans:
                fh.write(
                    f"{i},{s.sid},{s.parent or ''},{s.lane},{s.name},"
                    f"{s.t0},{s.t1},{s.n}\n"
                )


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Import the program from this checkout, and this directory as a
    # package rather than as loose top-level modules.
    sys.path[:1] = [str(ROOT / "src"), str(ROOT)]
    from e2ebench.layers import PER_LAYER
    from e2ebench.stats import HostSampler

    host = HostSampler()
    outcome, metrics = _run(args)
    correct = outcome.failed == 0
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host.info(),
        "attempted": outcome.attempted,
        "failures": dict(outcome.failures),
        **outcome.detail,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(
        json.dumps({"detail": detail, "metrics": metrics}, indent=1)
    )
    if outcome.traced:
        _write_spans(OUT_DIR / f"{stem}-spans.csv", outcome.traced)
    print("detail " + json.dumps(detail))
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        } if correct else {},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
