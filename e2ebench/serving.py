"""The ``serve-ingest`` and ``serve-fanin`` workloads.

One round runs the workload's fixed script on a fresh service, its
closed-loop connections on one event loop, until every session is
closed and its queue drained.  The round's wall time is the phase
time the rates are divided by, and each rate is the median over
rounds.  A serve-ingest round holds only four verdicts, so each
latency metric is the median of all its samples over the run's
rounds.  Tails go to the detail output.
"""

from __future__ import annotations

import asyncio
import gc
import json
import resource
from collections import Counter

from e2ebench.inputs import ServeScript
from e2ebench.layers import RoundTrace, install_serve
from e2ebench.rounds import Outcome, RoundLoop
from e2ebench.service import check_round, reference_summary, run_round
from e2ebench.stats import median, tail
from e2ebench.tracer import Tracer

__all__ = ["run_serve"]

#: Error codes counted as refusals, by per-layer metric.
REJECTIONS = {
    "serve.rejected.backpressure": ("backpressure",),
    "serve.rejected.rate_limited": ("rate-limited",),
    "serve.rejected.quota": (
        "byte-quota-exhausted", "sample-quota-exhausted",
    ),
}


def _latencies_ms(result, kind: str) -> list[float]:
    return [
        op.latency_ns / 1e6
        for op in result.ops
        if op.kind == kind and op.status
    ]


def _error_code(op) -> str:
    try:
        return json.loads(op.body)["error"]["code"]
    except (ValueError, KeyError, TypeError):
        return ""


def run_serve(script: ServeScript, seconds: float, trace: bool,
              loop: RoundLoop) -> Outcome:
    """Run closed-loop rounds of ``script`` for ``seconds``."""
    references = [reference_summary(plan) for plan in script.sessions]
    tracer = Tracer()
    queue_waits: list[int] = []
    failures: Counter = Counter()
    attempted = 0
    per_round: dict[str, list[float]] = {
        "ingest_samples_per_s": [], "requests_per_s": [],
    }
    ingest_ms: list[float] = []
    verdict_ms: list[float] = []
    plain_s: list[float] = []
    traced: list[RoundTrace] = []
    watermarks: list[int] = []
    refused: Counter = Counter()
    crc_failures = 0
    event_loop = asyncio.new_event_loop()

    def one_round(traced_round: bool) -> None:
        nonlocal attempted, crc_failures
        gc.collect()
        if traced_round:
            with tracer.installed(lambda t: install_serve(t, queue_waits)):
                result = event_loop.run_until_complete(
                    run_round(script, tracer)
                )
        else:
            result = event_loop.run_until_complete(run_round(script))
        spans = tracer.take()
        reasons, marks = check_round(result, references)
        attempted += len(result.ops)
        failures.update(r for r in reasons if r)
        if traced_round:
            traced.append(RoundTrace(
                spans, (result.t0_ns, result.t1_ns), tracer.main_lane
            ))
            watermarks.extend(marks)
            for op in result.ops:
                code = _error_code(op) if op.status >= 400 else ""
                for metric, codes in REJECTIONS.items():
                    refused[metric] += code in codes
                if op.kind == "ingest" and op.status == 202:
                    ingest = json.loads(op.body).get("ingest")
                    crc_failures += ingest["frames_corrupt"] if ingest else 0
            return
        wall_s = result.wall_ns / 1e9
        acked = sum(
            op.expect_samples
            for op, reason in zip(result.ops, reasons)
            if op.kind == "ingest" and not reason
        )
        answered = sum(1 for op in result.ops if op.status)
        ingests = _latencies_ms(result, "ingest")
        verdicts = _latencies_ms(result, "verdict")
        plain_s.append(wall_s)
        per_round["ingest_samples_per_s"].append(acked / wall_s)
        per_round["requests_per_s"].append(answered / wall_s)
        ingest_ms.extend(ingests)
        verdict_ms.extend(verdicts)

    try:
        loop.run(seconds, one_round, trace)
    finally:
        event_loop.close()

    metrics = {name: median(values) for name, values in per_round.items()}
    metrics["ingest_p50_ms"] = median(ingest_ms)
    metrics["verdict_p50_ms"] = median(verdict_ms)
    metrics["batch_samples_per_s"] = metrics["ingest_samples_per_s"]
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    )
    n_traced = max(1, len(traced))
    layer_extra = {
        metric: count / n_traced for metric, count in refused.items()
    }
    layer_extra["wire.crc_failures"] = crc_failures / n_traced
    if queue_waits:
        layer_extra["serve.queue_wait_p50_ms"] = median(queue_waits) / 1e6
    if watermarks:
        layer_extra["serve.queue_high_watermark"] = max(watermarks)
    detail = {
        "rounds_plain": len(plain_s),
        "rounds_traced": len(traced),
        "round_wall_s": plain_s,
        "per_round": per_round,
        "ingest_latency_tail_ms": tail(ingest_ms),
        "verdict_latency_tail_ms": tail(verdict_ms),
        "requests_per_round": attempted // (len(plain_s) + len(traced)),
        "load": (
            f"closed loop, {len(script.connections)} connections, "
            "no fixed send rate"
        ),
    }
    return Outcome(
        attempted=attempted, failures=failures, metrics=metrics,
        detail=detail, traced=traced, plain_wall_s=plain_s,
        layer_extra=layer_extra,
    )
