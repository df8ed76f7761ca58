"""In-process closed-loop clients for ``TelemetryApp.handle_connection``.

Each connection is a real HTTP/1.1 byte stream: request bytes go into
an :class:`asyncio.StreamReader`, the app parses them with its own
reader, and the responses land in a writer the benchmark owns.  There
is no socket, no server process and no send schedule: a client sends
its next request when the previous response is complete (a closed
loop), so the load adapts to the service's speed.  Both connections
share one event loop, as they would in the real server.

Checks run after each round, outside the timed phase: every ingest
must be acknowledged with exactly its body's samples, and every close
summary must equal, as canonical JSON, a direct ``LiveStreamState``
replay of the session's delivered batches.
"""

from __future__ import annotations

import asyncio
import json
import time
from contextlib import nullcontext
from dataclasses import dataclass
from urllib.parse import urlencode

from repro.core.sampling import recommend_sample_size
from repro.serve import ServiceConfig, TelemetryApp
from repro.stream.session import LiveStreamState

from e2ebench.inputs import ServeScript, SessionPlan

__all__ = [
    "MonotonicClock",
    "Op",
    "RoundResult",
    "check_round",
    "reference_summary",
    "run_round",
]

#: The service under test refuses nothing for rate or quota: the
#: workloads measure the data path, and any refusal is a failure.
OPEN_LIMITS = ServiceConfig(rate_capacity=1e9, rate_refill_per_request_s=1e9)

#: Status each operation kind must be answered with.
EXPECTED_STATUS = {
    "create": 201, "ingest": 202, "verdict": 200,
    "quality": 200, "plan": 200, "close": 200,
}

#: Close-summary fields a direct replay cannot produce: the session's
#: id, its quality provenance and its queue's high-water mark.
_SESSION_ONLY = ("session_id", "quality", "queue_high_watermark")


class MonotonicClock:
    """The service clock: host monotonic seconds."""

    @property
    def now_s(self) -> float:
        return time.monotonic()


@dataclass
class Op:
    """One request and what came back."""

    kind: str
    session: int  # index into the script's session list
    expect_samples: int
    latency_ns: int = 0
    status: int = 0
    body: bytes = b""


class _CapturingWriter:
    """Stands in for ``asyncio.StreamWriter``; hands responses back."""

    def __init__(self) -> None:
        self.waiting: asyncio.Future | None = None

    def write(self, data: bytes) -> None:
        t1 = time.perf_counter_ns()
        if self.waiting is not None and not self.waiting.done():
            self.waiting.set_result((data, t1))

    async def drain(self) -> None:
        return None

    def close(self) -> None:
        return None

    async def wait_closed(self) -> None:
        return None

    def hangup(self, _task) -> None:
        """The server side ended; an unanswered request gets ``None``."""
        if self.waiting is not None and not self.waiting.done():
            self.waiting.set_result(None)


def _split_response(data: bytes) -> tuple[int, bytes]:
    head, _, body = data.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), body


class _Connection:
    """One keep-alive connection driven by a closed-loop client."""

    def __init__(self, app: TelemetryApp, client_span) -> None:
        self.client_span = client_span
        self.ops: list[Op] = []
        self.ingests = 0
        self.reader = asyncio.StreamReader()
        self.writer = _CapturingWriter()
        self.server = asyncio.ensure_future(
            app.handle_connection(self.reader, self.writer)
        )
        self.server.add_done_callback(self.writer.hangup)

    async def send(self, op: Op, method: str, path: str, tenant: str,
                   body: bytes = b"", content_type: str = "") -> bytes:
        head = [f"{method} {path} HTTP/1.1", "Host: e2ebench"]
        if tenant:
            head.append(f"X-Tenant: {tenant}")
        if body:
            head.append(f"Content-Type: {content_type}")
            head.append(f"Content-Length: {len(body)}")
        self.ops.append(op)
        if self.server.done():
            return b""  # the server hung up: op.status stays 0
        with self.client_span():
            self.writer.waiting = asyncio.get_running_loop().create_future()
            t0 = time.perf_counter_ns()
            self.reader.feed_data(
                ("\r\n".join(head) + "\r\n\r\n").encode()
            )
            if body:
                self.reader.feed_data(body)
        answer = await self.writer.waiting
        if answer is None:
            return b""
        with self.client_span():
            data, t1 = answer
            op.latency_ns = t1 - t0
            op.status, op.body = _split_response(data)
        return op.body

    async def finish(self) -> None:
        self.reader.feed_eof()
        await self.server


class _SessionClient:
    """Cursor through one session's create/ingest/read/close steps."""

    def __init__(self, index: int, plan: SessionPlan) -> None:
        self.index = index
        self.plan = plan
        self.sid = ""
        self.next_payload = 0

    @property
    def path(self) -> str:
        return f"/v1/sessions/{self.sid}"

    async def create(self, conn: _Connection) -> None:
        body = await conn.send(
            Op("create", self.index, 0), "POST", "/v1/sessions",
            self.plan.tenant, json.dumps(self.plan.config).encode(),
            "application/json",
        )
        if body:
            self.sid = json.loads(body).get("session", {}).get(
                "session_id", ""
            )

    async def step(self, conn: _Connection, script: ServeScript) -> bool:
        """One ingest plus its reads, or the close; True when closed."""
        plan = self.plan
        tenant = plan.tenant
        if self.next_payload == len(plan.payloads):
            await conn.send(Op("close", self.index, 0), "DELETE",
                            self.path, tenant)
            return True
        k = self.next_payload
        payload = plan.payloads[k]
        self.next_payload += 1
        await conn.send(
            Op("ingest", self.index, payload.n_samples), "POST",
            self.path + "/batches", tenant, payload.body,
            payload.content_type,
        )
        conn.ingests += 1
        if conn.ingests % script.verdict_every == 0:
            await conn.send(Op("verdict", self.index, 0), "GET",
                            self.path + "/verdict", tenant)
        if script.side_reads:
            if k % 2 == 0:
                await conn.send(Op("quality", self.index, 0), "GET",
                                self.path + "/quality", tenant)
            else:
                query = urlencode(plan.plan_queries[k])
                await conn.send(Op("plan", self.index, 0), "GET",
                                f"/v1/plan?{query}", "")
        return False


async def _drive(conn: _Connection, clients: list[_SessionClient],
                 script: ServeScript) -> None:
    waiting = list(clients)
    active: list[_SessionClient] = []
    try:
        while waiting or active:
            while waiting and len(active) < script.window:
                client = waiting.pop(0)
                await client.create(conn)
                if client.sid:  # a failed create is counted, not retried
                    active.append(client)
            for client in list(active):
                if await client.step(conn, script):
                    active.remove(client)
    finally:
        await conn.finish()


@dataclass
class RoundResult:
    """Everything one closed-loop round produced."""

    t0_ns: int
    t1_ns: int
    ops: list[Op]

    @property
    def wall_ns(self) -> int:
        return self.t1_ns - self.t0_ns


async def run_round(script: ServeScript, tracer=None) -> RoundResult:
    """Open a fresh service, run every connection to completion.

    With a ``tracer``, the clients' own work is recorded as
    ``bench.client`` spans.
    """
    def client_span():
        return tracer.span("bench.client") if tracer else nullcontext()

    app = TelemetryApp(MonotonicClock(), OPEN_LIMITS)
    index = 0
    tasks = []
    connections = []
    t0 = time.perf_counter_ns()
    for sessions in script.connections:
        conn = _Connection(app, client_span)
        clients = []
        for plan in sessions:
            clients.append(_SessionClient(index, plan))
            index += 1
        connections.append(conn)
        tasks.append(asyncio.ensure_future(_drive(conn, clients, script)))
    await asyncio.gather(*tasks)
    t1 = time.perf_counter_ns()
    await app.shutdown()
    ops = [op for conn in connections for op in conn.ops]
    return RoundResult(t0, t1, ops)


def _canonical(obj) -> str:
    return json.dumps(
        json.loads(json.dumps(obj, default=float)), sort_keys=True
    )


def reference_summary(plan: SessionPlan) -> str:
    """Canonical JSON of a direct replay of the delivered batches."""
    cfg = plan.config
    state = LiveStreamState(
        population=cfg["population"],
        core_window=(cfg["core_t0_s"], cfg["core_t1_s"]),
        required_interval_s=cfg["interval_s"],
        quantiles=tuple(cfg["quantiles"]),
        accuracy=cfg["accuracy"],
        confidence=cfg["confidence"],
        report_every_s=cfg["report_every_s"],
    )
    for batch in plan.delivered:
        state.push(batch)
    state.finalize()
    summary = state.result().to_dict()
    return _canonical(
        {k: v for k, v in summary.items() if k not in _SESSION_ONLY}
    )


def check_round(result: RoundResult, references: list[str]
                ) -> tuple[list[str], list[int]]:
    """Classify every op; returns one reason per op and the watermarks.

    An op fails for exactly one reason: no answer, an unexpected HTTP
    status (with the service's error code), or a check mismatch; an
    empty reason means it succeeded.  The close summaries' queue
    high-water marks come back alongside.
    """
    watermarks: list[int] = []
    reasons = [_check_op(op, references, watermarks) for op in result.ops]
    return reasons, watermarks


def _check_op(op: Op, references: list[str], watermarks: list[int]) -> str:
    if op.status == 0:
        return "no-answer"
    if op.status != EXPECTED_STATUS[op.kind]:
        try:
            code = json.loads(op.body)["error"]["code"]
        except (ValueError, KeyError, TypeError):
            code = "?"
        return f"http-{op.status}-{code}"
    doc = json.loads(op.body)
    if op.kind == "ingest":
        ingest = doc.get("ingest")
        if ingest is not None:  # RPWR bodies report what they carried
            if (ingest["samples_accepted"], ingest["batches_accepted"],
                    ingest["frames_corrupt"]) != (op.expect_samples, 1, 0):
                return "mismatch-ingest-samples"
        elif doc.get("accepted") is not True:
            return "mismatch-ingest-ack"
    elif op.kind == "close":
        summary = doc["summary"]
        watermarks.append(summary["queue_high_watermark"])
        got = _canonical(
            {k: v for k, v in summary.items() if k not in _SESSION_ONLY}
        )
        if got != references[op.session]:
            return "mismatch-close-summary"
    elif op.kind == "verdict" and doc.get("stopping") is None:
        return "mismatch-verdict"
    elif op.kind == "quality" and "quality" not in doc:
        return "mismatch-quality"
    elif op.kind == "plan":
        want = recommend_sample_size(
            doc["population"], doc["cv"], doc["accuracy"],
            doc["confidence"],
        ).n
        if doc["required_n"] != want:
            return "mismatch-plan"
    return ""
