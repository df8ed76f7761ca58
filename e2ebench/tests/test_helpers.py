"""Tests for the benchmark's own helpers.

Run with ``python3 -m pytest e2ebench/tests -q`` from the repository
root.
"""

from __future__ import annotations

import asyncio
import os

import pytest

from e2ebench.layers import (
    PER_LAYER,
    RoundTrace,
    install_serve,
    install_shard,
    layer_metrics,
)
from e2ebench.stats import median, tail
from e2ebench.tracer import Span, Tracer, attribute, self_time, union_ns

MAIN = 1


def span(sid, name, t0, t1, parent=None, lane=MAIN, n=0):
    return Span(sid, parent, lane, name, t0, t1, n)


# -- tail rule -------------------------------------------------------------

def test_tail_caps_at_p99_with_ten_beyond():
    values = list(range(1, 1001))
    assert tail(values) == {"p": 99, "value": 990.0, "n": 1000}


def test_tail_falls_back_until_ten_samples_lie_beyond():
    # p90 of 1..100 leaves 91..100 beyond it; p91 would leave nine.
    assert tail(range(1, 101)) == {"p": 90, "value": 90.0, "n": 100}
    assert tail(range(20))["p"] == 50


def test_tail_claims_nothing_from_too_few_samples():
    assert tail(range(19)) == {"p": None, "value": None, "n": 19}


# -- median over rounds ------------------------------------------------------

def test_median_over_rounds():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
    with pytest.raises(ValueError):
        median([])


# -- self time and attribution ---------------------------------------------

def test_union_counts_overlap_once():
    assert union_ns([(10, 50), (30, 70), (80, 90)]) == 70
    assert union_ns([]) == 0


def test_self_time_with_overlapping_parallel_children():
    parent = span(1, "shard.pool", 0, 100)
    kids = [
        span(2, "shard.kernel", 10, 50, parent=1, lane=2),
        span(3, "shard.kernel", 30, 70, parent=1, lane=3),
    ]
    assert self_time(parent, kids) == 40


def test_attribution_splits_parallel_workers_and_sums_to_wall():
    spans = [
        span(1, "shard.pool", 0, 100),
        span(2, "shard.kernel", 10, 50, parent=1, lane=2),
        span(3, "shard.kernel", 30, 70, parent=1, lane=3),
        span(4, "stream.quantile", 35, 45, parent=3, lane=3),
    ]
    self_ns, unattributed = attribute(spans, (0, 100), MAIN)
    assert self_ns["shard.pool"] == 40  # duration minus the union
    # 30..50 is shared by both workers; worker 3 spends 35..45 in a
    # nested call, so half of those 10 ns go to that layer.
    assert self_ns["stream.quantile"] == 5
    assert self_ns["shard.kernel"] == 55
    assert unattributed == 0
    assert sum(self_ns.values()) + unattributed == 100


def test_unattributed_share_is_time_outside_every_span():
    spans = [
        span(1, "serve.dispatch", 0, 100),
        span(2, "stream.push", 20, 40, parent=1),
    ]
    self_ns, unattributed = attribute(spans, (0, 200), MAIN)
    assert self_ns == {"serve.dispatch": 80, "stream.push": 20}
    assert unattributed == 100
    rnd = RoundTrace(spans, (0, 200), MAIN)
    metrics = layer_metrics([rnd], plain_wall_s=[200e-9], extra={})
    assert metrics["trace.unattributed_frac"] == pytest.approx(0.5)
    assert metrics["trace.overhead_frac"] == pytest.approx(0.0)


def test_interleaved_tasks_give_time_to_the_newest_open_span():
    # Task B's request starts while task A's is suspended.
    spans = [
        span(1, "serve.dispatch", 0, 100),
        span(2, "serve.http.read", 10, 30),
    ]
    self_ns, unattributed = attribute(spans, (0, 100), MAIN)
    assert self_ns == {"serve.dispatch": 80, "serve.http.read": 20}
    assert unattributed == 0


def test_every_per_layer_metric_is_reported():
    rnd = RoundTrace([span(1, "bench.client", 0, 10)], (0, 10), MAIN)
    metrics = layer_metrics([rnd], plain_wall_s=[10e-9], extra={})
    assert set(metrics) == set(PER_LAYER)


# -- wrappers ----------------------------------------------------------------

def _targets():
    from repro.core import sampling
    from repro.faults import recovery
    from repro.serve import app, sessions
    from repro.shard import engine
    from repro.stream import estimators, monitor, session, stopping
    from repro.traces import synth
    from repro.wire import session as wire_session

    owners = [
        app, app.TelemetryApp, sessions.TelemetrySession, engine,
        sampling, stopping, stopping.SequentialStopper, session,
        session.LiveStreamState, monitor.ComplianceMonitor,
        estimators.RunningMoments, estimators.P2Quantile,
        estimators.RunningCovariance, synth.SimulatedRun,
        recovery.RecoveryPipeline, wire_session.WireReader,
    ]
    # Dunder entries are left out: pickling a class for the pool caches
    # ``__slotnames__`` on it, which is no wrapper of ours.
    return {
        (id(o), k): v
        for o in owners for k, v in vars(o).items()
        if not k.startswith("__")
    }


def test_wrappers_are_restored_after_a_traced_run():
    from e2ebench.inputs import tiny_fleet_run
    from repro.shard import sharded_session

    before = _targets()
    tracer = Tracer()
    with tracer.installed(install_shard):
        patched = tracer.patched
        assert patched
        with tracer.span("shard.session"):
            result = sharded_session(
                tiny_fleet_run(), n_shards=2, processes=2
            )
    assert result.samples_ingested > 0
    assert tracer.patched == []
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original
    assert _targets() == before

    # Spans recorded in the pool workers came home.
    spans = tracer.take()
    kernels = [s for s in spans if s.name == "shard.kernel"]
    assert len(kernels) == 2
    assert all(s.lane != os.getpid() for s in kernels)
    pool = next(s for s in spans if s.name == "shard.pool")
    assert all(s.parent == pool.sid for s in kernels)


def test_wrappers_are_restored_when_the_run_raises():
    before = _targets()
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(lambda t: install_serve(t, [])):
            raise RuntimeError("round failed")
    assert _targets() == before


def test_async_and_generator_wrappers_record_spans():
    tracer = Tracer()

    async def work():
        await asyncio.sleep(0)
        return 7

    def gen():
        yield 1
        yield 2

    assert asyncio.run(tracer.wrap(work, "a")()) == 7
    assert list(tracer.wrap(gen, "g")()) == [1, 2]
    names = [s.name for s in tracer.take()]
    assert names == ["a", "g", "g", "g"]


# -- correctness gate ------------------------------------------------------------

def test_serve_gate_passes_a_clean_round_and_catches_a_wrong_summary():
    import numpy as np

    from e2ebench.inputs import ServeScript, _session
    from e2ebench.service import check_round, reference_summary, run_round

    rng = np.random.default_rng(0)
    plans = [
        _session(rng, "t0", "delta-varint", 8, 10, 2),
        _session(rng, "t1", "json", 8, 10, 2),
    ]
    script = ServeScript([plans[:1], plans[1:]], window=1,
                         verdict_every=1, side_reads=False)
    references = [reference_summary(p) for p in plans]
    result = asyncio.run(run_round(script))
    reasons, marks = check_round(result, references)
    kinds = [op.kind for op in result.ops]
    assert kinds.count("ingest") == 4 and kinds.count("close") == 2
    assert reasons == [""] * len(result.ops)
    assert len(marks) == 2

    reasons, _ = check_round(result, [references[1], references[0]])
    assert reasons.count("mismatch-close-summary") == 2


# -- the benchmark's contract file ---------------------------------------------

def test_benchmark_json_names_every_metric_the_runs_print():
    import json
    from pathlib import Path

    from e2ebench.run import END_TO_END, WORKLOADS

    spec = json.loads(
        (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
    )
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
