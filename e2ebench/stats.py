"""Order statistics and host facts shared by every workload.

Each run reports medians over short rounds (host drift moves whole
rounds, so a median over many of them is steadier than one long
timing) and states its tails by the rule below, always with the
sample count the tail rests on.
"""

from __future__ import annotations

import math
import os
import statistics

__all__ = ["median", "tail", "HostSampler"]

#: A tail percentile must leave at least this many samples beyond it.
TAIL_MIN_BEYOND = 10

#: The highest percentile ever reported as a tail.
TAIL_CAP = 99


def median(values) -> float:
    """Median of a non-empty sequence (the per-run statistic)."""
    values = list(values)
    if not values:
        raise ValueError("median of an empty sequence")
    return float(statistics.median(values))


def _nearest_rank(ordered: list[float], p: int) -> int:
    """Index of the nearest-rank ``p``-th percentile of sorted data."""
    return max(0, math.ceil(p * len(ordered) / 100) - 1)


def tail(values) -> dict:
    """The highest percentile with at least ten samples beyond it.

    Tries integer percentiles from p99 down to p50 and keeps the first
    whose nearest-rank value has ``TAIL_MIN_BEYOND`` or more samples
    ranked above it.  Returns ``{"p": None, ...}`` when even the median
    has too few samples beyond it, so no tail is claimed from too
    little data.
    """
    ordered = sorted(float(v) for v in values)
    n = len(ordered)
    for p in range(TAIL_CAP, 49, -1):
        k = _nearest_rank(ordered, p)
        if n - 1 - k >= TAIL_MIN_BEYOND:
            return {"p": p, "value": ordered[k], "n": n}
    return {"p": None, "value": None, "n": n}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _steal_ticks() -> int | None:
    """Host-wide steal time in clock ticks, from ``/proc/stat``."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    if fields[0] != "cpu" or len(fields) < 9:
        return None
    return int(fields[8])


class HostSampler:
    """CPU model, core count and steal seconds over one run."""

    def __init__(self) -> None:
        self._steal0 = _steal_ticks()

    def info(self) -> dict:
        steal1 = _steal_ticks()
        steal_s = None
        if self._steal0 is not None and steal1 is not None:
            steal_s = (steal1 - self._steal0) / os.sysconf("SC_CLK_TCK")
        return {
            "cpu_model": _cpu_model(),
            "nproc": os.cpu_count(),
            "steal_s": steal_s,
        }
