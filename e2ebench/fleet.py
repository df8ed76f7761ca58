"""The ``shard-fleet`` workload: the batch path, no HTTP and no wire.

One round is one two-shard ``sharded_session`` over a seeded 1024-node
run on a two-process fork pool — no more processes than the host has
cores.  Every timed result must equal, field for field and quantiles
included, an untimed inline (``processes=0``) session over the same
two-shard plan: the shard split is the same, so the two agree bit for
bit whatever estimator the engine uses.

The batch path answers one request — a session — with one verdict, so
on this workload the ingest and verdict latencies are both the
session's wall time, and both sample rates are its samples over that
time.
"""

from __future__ import annotations

import json
import resource
import time
from collections import Counter
from contextlib import nullcontext

from repro.shard import engine, sharded_session

from e2ebench.inputs import make_fleet_run
from e2ebench.layers import RoundTrace, install_shard
from e2ebench.rounds import Outcome, RoundLoop
from e2ebench.stats import median, tail
from e2ebench.tracer import Tracer

__all__ = ["run_fleet"]

N_SHARDS = 2
PROCESSES = 2

#: Attribute a worker's shard state carries its peak RSS home in.
_MAXRSS = "_e2ebench_maxrss_kb"


def _canonical(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True, default=float)


def _install_worker_peaks(tracer: Tracer, round_kb: list[int]) -> None:
    """Bring each pool worker's peak RSS home on its shard state.

    One ``getrusage`` per shard, so plain rounds carry it too and
    ``peak_rss_mb`` covers the workers without tracing.  Installed
    before the span wrappers, which then wrap these.
    """
    run_shard = vars(engine)["run_shard"]
    reduce_states = vars(engine)["reduce_states"]

    def shard_with_peak(*args, **kwargs):
        state = run_shard(*args, **kwargs)
        vars(state)[_MAXRSS] = resource.getrusage(
            resource.RUSAGE_SELF
        ).ru_maxrss
        return state

    def reduce_with_peaks(states, *args, **kwargs):
        round_kb.append(sum(vars(s).pop(_MAXRSS, 0) for s in states))
        return reduce_states(states, *args, **kwargs)

    tracer.patch(engine, "run_shard", shard_with_peak)
    tracer.patch(engine, "reduce_states", reduce_with_peaks)


def run_fleet(seed: int, seconds: float, trace: bool, loop: RoundLoop
              ) -> Outcome:
    """Run ``shard-fleet`` rounds for ``seconds``."""
    fleet = make_fleet_run(seed)
    reference = _canonical(
        sharded_session(fleet, n_shards=N_SHARDS, processes=0)
    )
    tracer = Tracer()
    failures: Counter = Counter()
    worker_kb: list[int] = []
    plain_s: list[float] = []
    traced: list[RoundTrace] = []
    attempted = 0
    samples = 0

    def install(traced_round: bool):
        def apply(t: Tracer) -> None:
            _install_worker_peaks(t, worker_kb)
            if traced_round:
                install_shard(t)
        return apply

    def one_round(traced_round: bool) -> None:
        nonlocal attempted, samples
        attempted += 1
        span = tracer.span("shard.session") if traced_round else nullcontext()
        with tracer.installed(install(traced_round)):
            t0 = time.perf_counter_ns()
            with span:
                result = sharded_session(
                    fleet, n_shards=N_SHARDS, processes=PROCESSES
                )
            t1 = time.perf_counter_ns()
        spans = tracer.take()
        samples = result.samples_ingested
        if _canonical(result) != reference:
            failures["mismatch-inline-session"] += 1
        if traced_round:
            traced.append(RoundTrace(spans, (t0, t1), tracer.main_lane))
        else:
            plain_s.append((t1 - t0) / 1e9)

    loop.run(seconds, one_round, trace)

    wall_s = median(plain_s)
    parent_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rate = samples / wall_s
    metrics = {
        "ingest_samples_per_s": rate,
        "batch_samples_per_s": rate,
        "ingest_p50_ms": wall_s * 1e3,
        "verdict_p50_ms": wall_s * 1e3,
        "requests_per_s": 1.0 / wall_s,
        "peak_rss_mb": (parent_kb + max(worker_kb)) / 1024,
    }
    detail = {
        "rounds_plain": len(plain_s),
        "rounds_traced": len(traced),
        "samples_per_session": samples,
        "session_wall_s": plain_s,
        "session_wall_tail_s": tail(plain_s),
        "worker_peak_rss_mb_sum": max(worker_kb) / 1024,
    }
    return Outcome(
        attempted=attempted, failures=failures, metrics=metrics,
        detail=detail, traced=traced, plain_wall_s=plain_s,
    )
