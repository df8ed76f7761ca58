"""Seeded inputs for every workload, generated before any timing.

The program only ever receives what is built here: HTTP request
bodies (JSON or RPWR frames) for the serve workloads and a
:class:`~repro.traces.synth.SimulatedRun` for ``shard-fleet``.  The
same seed gives byte-identical inputs.

Each serve session also carries the batches it *delivers* — what the
service's decoder will hand to the estimators — so the correctness
gate can replay them directly through ``LiveStreamState``.  For JSON
and raw64 bodies those are the generated batches; delta-varint
quantises to milliwatts, so its delivered batches come from decoding
the bodies once, untimed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from repro.stream.ingest import SampleBatch
from repro.wire.session import WireReader, WireWriter

__all__ = [
    "Payload",
    "SessionPlan",
    "ServeScript",
    "serve_ingest_script",
    "serve_fanin_script",
    "make_fleet_run",
    "tiny_fleet_run",
]

RPWR = "application/x-rpwr"
JSON = "application/json"

#: Sample spacing of every generated stream.
INTERVAL_S = 1.0


@dataclass(frozen=True)
class Payload:
    """One ingest request body and the samples it carries."""

    body: bytes
    content_type: str
    n_samples: int


@dataclass
class SessionPlan:
    """One session's life: open with ``config``, ingest, close."""

    tenant: str
    config: dict
    payloads: list[Payload]
    delivered: list[SampleBatch]
    #: Plan queries issued after ingests (fan-in only).
    plan_queries: list[dict] = field(default_factory=list)


@dataclass
class ServeScript:
    """Per-connection session lists plus the read mix.

    ``window`` sessions are open at once on each connection and
    advance one ingest at a time in turn.  After every ingest a
    connection reads the verdict if ``verdict_every`` divides its
    ingest count, then the quality report or a plan if ``side_reads``.
    """

    connections: list[list[SessionPlan]]
    window: int
    verdict_every: int
    side_reads: bool

    @property
    def sessions(self) -> list[SessionPlan]:
        return [s for conn in self.connections for s in conn]


def _power_batches(
    rng: np.random.Generator, n_nodes: int, n_ticks: int, n_batches: int
) -> list[SampleBatch]:
    """Node power with 2% node-to-node spread and common-mode drift."""
    node_w = 350.0 * (1.0 + 0.02 * rng.standard_normal(n_nodes))
    total = n_ticks * n_batches
    drift = np.cumsum(0.002 * rng.standard_normal(total))
    common = 1.0 + 0.01 * np.sin(np.arange(total) / 40.0) + drift * 0.1
    watts = (
        node_w[None, :] * common[:, None]
        * (1.0 + 0.004 * rng.standard_normal((total, n_nodes)))
    )
    times = np.arange(total, dtype=np.float64) * INTERVAL_S
    ids = np.arange(n_nodes, dtype=np.int64)
    return [
        SampleBatch(
            times=times[i * n_ticks:(i + 1) * n_ticks].copy(),
            watts=watts[i * n_ticks:(i + 1) * n_ticks].copy(),
            node_ids=ids,
        )
        for i in range(n_batches)
    ]


def _session(
    rng: np.random.Generator, tenant: str, codec: str,
    n_nodes: int, n_ticks: int, n_batches: int,
) -> SessionPlan:
    batches = _power_batches(rng, n_nodes, n_ticks, n_batches)
    config = {
        "population": n_nodes,
        "core_t0_s": 0.0,
        "core_t1_s": n_ticks * n_batches * INTERVAL_S,
        "interval_s": INTERVAL_S,
        "quantiles": [0.5, 0.95],
        "accuracy": 0.01,
        "confidence": 0.95,
        "report_every_s": 600.0,
        # Deep enough that a closed-loop client never meets backpressure.
        "queue_capacity": 64,
    }
    if codec == "json":
        payloads = [
            Payload(
                json.dumps({
                    "times": b.times.tolist(),
                    "watts": b.watts.tolist(),
                    "node_ids": b.node_ids.tolist(),
                }).encode(),
                JSON, b.n_samples,
            )
            for b in batches
        ]
        delivered = batches
    else:
        writer = WireWriter(codec=codec)
        payloads = [
            Payload(writer.write(b).data, RPWR, b.n_samples)
            for b in batches
        ]
        reader = WireReader(dt_s=INTERVAL_S)
        delivered = [
            batch for p in payloads for batch in reader.feed(p.body)
        ]
    return SessionPlan(tenant, config, payloads, delivered)


def serve_ingest_script(seed: int) -> ServeScript:
    """Write-heavy: four long sessions of 512 nodes x 60 ticks a batch.

    Connection 0 carries a raw64, a JSON and a delta-varint session in
    turn; connection 1 carries one delta-varint session alongside the
    first.  One verdict read per five ingests on each connection.

    The load is unequal on purpose.  Both connections share one event
    loop, so while both are busy one of them always waits behind the
    other's fold and its ingests take twice as long.  With equal loads
    half the ingests would sit in each of those two modes and the
    median would fall between them; with three quarters in the
    uncontended mode it falls inside it.
    """
    rng = np.random.default_rng([seed, 1])
    spec = [
        [("raw64", 6), ("json", 4), ("delta-varint", 5)],
        [("delta-varint", 5)],
    ]
    connections = [
        [
            _session(rng, f"t{c}", codec, 512, 60, n_batches)
            for codec, n_batches in conn
        ]
        for c, conn in enumerate(spec)
    ]
    return ServeScript(connections, window=1, verdict_every=5,
                       side_reads=False)


def serve_fanin_script(seed: int) -> ServeScript:
    """Reads beside small writes: 64 short sessions over 8 tenants.

    16 nodes x 10 ticks a batch, six batches a session, delta-varint
    and JSON bodies alternating.  Every ingest is followed by a verdict
    read and, in turn, a quality read or a ``/v1/plan`` read.  Eight
    sessions are open at a time, so sessions open and close all
    through a round.

    A verdict costs about 70% more once a session holds three batches;
    with six batches two thirds of the verdicts are of that kind, so
    their median sits inside one mode.

    One connection: a second one on the same single-threaded loop
    adds no throughput, and it makes each latency its own service time
    plus, or not, the other connection's request, a mix whose median
    falls between modes.
    """
    rng = np.random.default_rng([seed, 2])
    sessions = []
    for i in range(64):
        codec = "delta-varint" if i % 2 == 0 else "json"
        plan = _session(rng, f"tenant-{i % 8}", codec, 16, 10, 6)
        plan.plan_queries = [
            {
                "population": str(int(rng.integers(64, 100_000))),
                "cv": f"{rng.uniform(0.01, 0.08):.4f}",
                "accuracy": f"{rng.choice([0.005, 0.01, 0.02]):g}",
                "confidence": "0.95",
            }
            for _ in plan.payloads
        ]
        sessions.append(plan)
    return ServeScript(
        [sessions], window=8, verdict_every=1, side_reads=True,
    )


def make_fleet_run(seed: int, n_nodes: int = 1024, core_s: float = 600.0):
    """A seeded fleet running HPL with a ``core_s`` core phase."""
    from repro.cluster.components import CpuModel, DramModel, FanModel
    from repro.cluster.node import NodeConfig
    from repro.cluster.system import SystemModel
    from repro.cluster.thermal import FanController
    from repro.cluster.variability import ManufacturingVariation
    from repro.traces.synth import simulate_run
    from repro.workloads.hpl import HplWorkload

    system_seed, run_seed = np.random.default_rng([seed, 3]).integers(
        0, 2**31, size=2
    )
    config = NodeConfig(
        cpu=CpuModel(idle_watts=20.0, peak_watts=120.0),
        n_cpus=2,
        dram=DramModel.for_capacity(64.0),
        fan=FanModel(max_watts=60.0),
        other_watts=25.0,
    )
    system = SystemModel(
        "e2ebench-fleet",
        n_nodes,
        config,
        variation=ManufacturingVariation(sigma=0.02),
        fan_controller=FanController(
            fan_model=config.fan, reference_watts=400.0
        ),
        seed=int(system_seed),
    )
    workload = HplWorkload.cpu_out_of_core(
        core_s, setup_s=30.0, teardown_s=15.0
    )
    return simulate_run(system, workload, dt=INTERVAL_S, seed=int(run_seed))


def tiny_fleet_run():
    """The smallest fleet a first session can run on (set-up probe)."""
    return make_fleet_run(0, n_nodes=8, core_s=60.0)
