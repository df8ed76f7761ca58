"""Which entry points are traced, and the per-layer metrics they give.

Every patch names the object the *caller* looks up: ``t_quantile`` is
imported by name into :mod:`repro.stream.stopping` and
:mod:`repro.core.sampling`, so it is patched in both; methods are
patched on their class.  The span names are the layer names the
per-layer metrics are keyed by.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from e2ebench.stats import median
from e2ebench.tracer import Span, Tracer, attribute

__all__ = [
    "PER_LAYER",
    "install_stream",
    "install_serve",
    "install_shard",
    "install_wire_writer",
    "RoundTrace",
    "layer_metrics",
]

#: Every per-layer metric with its unit, in report order.  A layer the
#: workload never calls reports 0.
PER_LAYER = {
    "wire.feed.self_s": "s",
    "wire.feed.mb_per_s": "MB/s",
    "wire.crc_failures": "count",
    "wire.write.mb_per_s": "MB/s",
    "serve.http.read.self_s": "s",
    "serve.http.render.self_s": "s",
    "serve.dispatch.calls": "count",
    "serve.dispatch.self_s": "s",
    "serve.json_batch.self_s": "s",
    "serve.rejected.backpressure": "count",
    "serve.rejected.rate_limited": "count",
    "serve.rejected.quota": "count",
    "serve.queue_wait_p50_ms": "ms",
    "serve.queue_high_watermark": "count",
    "serve.quality_report.self_s": "s",
    "stream.push.calls": "count",
    "stream.push.self_s": "s",
    "stream.monitor.self_s": "s",
    "stream.moments.self_s": "s",
    "stream.quantile.self_s": "s",
    "stream.quantile.pushes": "count",
    "stream.covariance.self_s": "s",
    "stream.stopper.calls": "count",
    "stream.stopper.self_s": "s",
    "stream.snapshot.self_s": "s",
    "stream.report.self_s": "s",
    "core.t_quantile.calls": "count",
    "core.t_quantile.self_s": "s",
    "core.sample_size.calls": "count",
    "core.sample_size.self_s": "s",
    "shard.session.self_s": "s",
    "shard.reference.self_s": "s",
    "shard.kernel.self_s": "s",
    "shard.kernel.max_s": "s",
    "shard.kernel.skew": "ratio",
    "shard.pool.self_s": "s",
    "shard.pool.overhead_s": "s",
    "shard.reduce.self_s": "s",
    "traces.synth.self_s": "s",
    "faults.recovery.self_s": "s",
    "faults.quality.self_s": "s",
    "bench.client.self_s": "s",
    "setup.import_s": "s",
    "setup.import_scipy_s": "s",
    "trace.wall_s": "s",
    "trace.unattributed_frac": "frac",
    "trace.overhead_frac": "frac",
}

#: Span names whose self time is reported (``<name>.self_s``); with the
#: unattributed share they add up to ``trace.wall_s``.
SPAN_LAYERS = tuple(
    name[: -len(".self_s")] for name in PER_LAYER if name.endswith(".self_s")
)


def _size(args, kwargs, result) -> int:
    return int(np.size(args[1]))


def install_stream(tracer: Tracer) -> None:
    """The estimator, monitor, stopper and sampling-plan layers."""
    from repro.core import sampling
    from repro.stream import estimators, monitor, session, stopping

    tracer.patch_span(monitor.ComplianceMonitor, "observe", "stream.monitor")
    tracer.patch_span(monitor.ComplianceMonitor, "report", "stream.report")
    tracer.patch_span(
        estimators.RunningMoments, "push_batch", "stream.moments"
    )
    tracer.patch_span(
        estimators.P2Quantile, "push_batch", "stream.quantile", count=_size
    )
    tracer.patch_span(
        estimators.RunningCovariance, "push_batch", "stream.covariance"
    )
    tracer.patch_span(stopping.SequentialStopper, "update", "stream.stopper")
    tracer.patch_span(
        session.LiveStreamState, "live_snapshot", "stream.snapshot"
    )
    tracer.patch_span(stopping, "t_quantile", "core.t_quantile")
    tracer.patch_span(sampling, "t_quantile", "core.t_quantile")
    tracer.patch_span(stopping, "recommend_sample_size", "core.sample_size")


def install_serve(tracer: Tracer, queue_waits: list[int]) -> None:
    """Service, wire-reader and stream layers of the serve workloads.

    ``queue_waits`` receives, per folded batch, the ns from a granted
    ``try_submit`` to the start of ``LiveStreamState.push``.
    """
    from repro.serve import app, sessions
    from repro.stream import session
    from repro.wire import session as wire_session

    install_stream(tracer)
    tracer.patch_span(
        wire_session.WireReader, "feed", "wire.feed",
        count=lambda args, kwargs, result: len(args[1]),
    )
    tracer.patch_span(app, "read_request", "serve.http.read")
    tracer.patch_span(app, "render_response", "serve.http.render")
    tracer.patch_span(app.TelemetryApp, "dispatch", "serve.dispatch")
    tracer.patch_span(app, "batch_from_json", "serve.json_batch")
    tracer.patch_span(app, "recommend_sample_size", "core.sample_size")
    tracer.patch_span(
        sessions.TelemetrySession, "quality_report", "serve.quality_report"
    )
    # The drain worker task copies the context of whichever request
    # created the session; start it with no current span instead.
    tracer.patch(
        sessions.TelemetrySession, "start",
        tracer.detached(vars(sessions.TelemetrySession)["start"]),
    )

    submitted: dict[int, int] = {}
    try_submit = vars(sessions.TelemetrySession)["try_submit"]
    traced_push = tracer.wrap(
        vars(session.LiveStreamState)["push"], "stream.push"
    )

    def probe_submit(self, batch, **kwargs):
        granted = try_submit(self, batch, **kwargs)
        if granted:
            submitted[id(batch)] = tracer.clock()
        return granted

    def probe_push(self, batch):
        t_submit = submitted.pop(id(batch), None)
        if t_submit is not None:
            queue_waits.append(tracer.clock() - t_submit)
        return traced_push(self, batch)

    tracer.patch(sessions.TelemetrySession, "try_submit", probe_submit)
    tracer.patch(session.LiveStreamState, "push", probe_push)


def install_shard(tracer: Tracer) -> None:
    """Shard engine, synthesis and fault layers of ``shard-fleet``."""
    from repro.faults import recovery
    from repro.shard import engine
    from repro.traces import synth

    install_stream(tracer)
    tracer.patch_span(engine, "fleet_reference", "shard.reference")
    tracer.patch(
        engine, "run_shard",
        tracer.ship(tracer.wrap(vars(engine)["run_shard"], "shard.kernel")),
    )
    tracer.patch_span(engine, "run_sharded", "shard.pool")
    tracer.patch(
        engine, "reduce_states",
        tracer.collect(
            tracer.wrap(vars(engine)["reduce_states"], "shard.reduce")
        ),
    )
    tracer.patch_span(synth.SimulatedRun, "stream_run", "traces.synth")
    tracer.patch_span(
        recovery.RecoveryPipeline, "observe", "faults.recovery"
    )
    tracer.patch_span(engine, "build_quality_report", "faults.quality")


def install_wire_writer(tracer: Tracer) -> None:
    """The collector's encoder, traced while inputs are generated."""
    from repro.wire import session as wire_session

    tracer.patch_span(
        wire_session.WireWriter, "write", "wire.write",
        count=lambda args, kwargs, result: result.n_bytes,
    )


class RoundTrace:
    """The attributed spans of one traced round."""

    def __init__(self, spans: list[Span], window: tuple[int, int],
                 main_lane: int) -> None:
        self.spans = spans
        self.wall_ns = window[1] - window[0]
        self.self_ns, self.unattributed_ns = attribute(
            spans, window, main_lane
        )
        self.calls: dict[str, int] = defaultdict(int)
        self.work: dict[str, int] = defaultdict(int)
        for s in spans:
            self.calls[s.name] += 1
            self.work[s.name] += s.n

    def inclusive_s(self, name: str) -> list[float]:
        """Inclusive durations of every span called ``name``."""
        return [
            (s.t1 - s.t0) / 1e9 for s in self.spans if s.name == name
        ]


def layer_metrics(
    rounds: list[RoundTrace], *, plain_wall_s: list[float],
    extra: dict[str, float],
) -> dict[str, float]:
    """Per-layer metrics over traced rounds.

    Self times, the traced wall time and the unattributed share are
    means per round, so that the self times plus the unattributed time
    add up to ``trace.wall_s`` exactly; counts are per round (every
    round runs the same script, so they repeat exactly).  ``extra``
    supplies the metrics measured outside the rounds.
    """
    n = len(rounds)
    out = {name: 0.0 for name in PER_LAYER}
    wall_s = sum(r.wall_ns for r in rounds) / 1e9 / n
    for name in SPAN_LAYERS:
        out[f"{name}.self_s"] = (
            sum(r.self_ns.get(name, 0.0) for r in rounds) / 1e9 / n
        )
    unattributed_s = sum(r.unattributed_ns for r in rounds) / 1e9 / n
    out["trace.wall_s"] = wall_s
    out["trace.unattributed_frac"] = unattributed_s / wall_s
    out["trace.overhead_frac"] = (
        wall_s - median(plain_wall_s)
    ) / median(plain_wall_s)

    def per_round(table: str, name: str) -> float:
        return sum(getattr(r, table).get(name, 0) for r in rounds) / n

    out["serve.dispatch.calls"] = per_round("calls", "serve.dispatch")
    out["stream.push.calls"] = per_round("calls", "stream.push")
    out["stream.stopper.calls"] = per_round("calls", "stream.stopper")
    out["core.t_quantile.calls"] = per_round("calls", "core.t_quantile")
    out["core.sample_size.calls"] = per_round("calls", "core.sample_size")
    out["stream.quantile.pushes"] = per_round("work", "stream.quantile")
    feed_bytes = per_round("work", "wire.feed")
    if feed_bytes:
        out["wire.feed.mb_per_s"] = (
            feed_bytes / 1e6 / out["wire.feed.self_s"]
        )
    kernels = [r.inclusive_s("shard.kernel") for r in rounds]
    if all(kernels):
        out["shard.kernel.max_s"] = median(max(k) for k in kernels)
        out["shard.kernel.skew"] = median(max(k) / min(k) for k in kernels)
        out["shard.pool.overhead_s"] = median(
            sum(r.inclusive_s("shard.pool")) - max(k)
            for r, k in zip(rounds, kernels)
        )
    out.update(extra)
    return out
