"""One cold start: a fresh interpreter until the first tiny answer.

Run as ``python3 e2ebench/setup_probe.py serve|shard``.  It imports the
program, builds the service (or the shard engine's first session),
answers one tiny request, prints ``ready`` and exits.  The parent times
launch to ``ready``; that time is ``setup_s``.
"""

from __future__ import annotations

import asyncio
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:1] = [str(ROOT / "src"), str(ROOT)]


def first_request() -> None:
    """Open a session and ingest one tiny JSON batch over HTTP bytes."""
    from repro.serve import TelemetryApp

    class Clock:
        @property
        def now_s(self) -> float:
            return time.monotonic()

    class Writer:
        def __init__(self) -> None:
            self.statuses: list[int] = []

        def write(self, data: bytes) -> None:
            self.statuses.append(int(data.split(b" ", 2)[1]))

        async def drain(self) -> None:
            return None

        def close(self) -> None:
            return None

        async def wait_closed(self) -> None:
            return None

    def request(method: str, path: str, body: bytes) -> bytes:
        return (
            f"{method} {path} HTTP/1.1\r\nX-Tenant: probe\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode() + body

    async def main() -> list[int]:
        app = TelemetryApp(Clock())
        reader = asyncio.StreamReader()
        writer = Writer()
        reader.feed_data(request(
            "POST", "/v1/sessions",
            b'{"population": 2, "core_t0_s": 0, "core_t1_s": 2,'
            b' "interval_s": 1}',
        ))
        reader.feed_data(request(
            "POST", "/v1/sessions/s-00000000/batches",
            b'{"times": [0, 1], "watts": [[300, 310], [301, 309]],'
            b' "node_ids": [0, 1]}',
        ))
        reader.feed_eof()
        await app.handle_connection(reader, writer)
        await app.shutdown()
        return writer.statuses

    statuses = asyncio.run(main())
    if statuses != [201, 202]:
        raise SystemExit(f"unexpected answers {statuses}")


def first_session() -> None:
    """One two-shard session on a tiny fleet through the fork pool."""
    from repro.shard import sharded_session

    from e2ebench.inputs import tiny_fleet_run

    result = sharded_session(tiny_fleet_run(), n_shards=2, processes=2)
    if result.samples_ingested <= 0:
        raise SystemExit("empty session")


if __name__ == "__main__":
    {"serve": first_request, "shard": first_session}[sys.argv[1]]()
    print("ready", flush=True)
