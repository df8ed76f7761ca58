"""Round scheduling and the cold-start probe shared by all workloads.

A run is many short rounds of the same fixed work, so host drift
moves single rounds and the median over rounds stays put.  The cold
starts that give ``setup_s`` are spread between the rounds across the
whole run for the same reason.  In a traced run, plain and traced
rounds alternate, so the tracing overhead is measured under the same
drift as the trace itself.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from e2ebench.stats import median

__all__ = ["Outcome", "RoundLoop", "SetupProbe", "import_times"]

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

#: Fewest rounds of each kind a run reports a median over.
MIN_ROUNDS = 3


@dataclass
class Outcome:
    """What a workload measured and checked."""

    attempted: int
    failures: Counter
    metrics: dict[str, float]
    detail: dict
    traced: list = field(default_factory=list)
    plain_wall_s: list[float] = field(default_factory=list)
    layer_extra: dict[str, float] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


class SetupProbe:
    """Cold starts of the program in fresh interpreters.

    Each launch runs ``setup_probe.py``; its time is from launch until
    the child reports its first answer.
    """

    def __init__(self, kind: str, launches: int) -> None:
        self.kind = kind
        self.launches = launches
        self.seconds: list[float] = []

    def launch(self) -> None:
        t0 = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), self.kind],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        try:
            line = child.stdout.readline()
            t1 = time.perf_counter()
            child.stdout.read()
        finally:
            child.stdout.close()
            code = child.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        self.seconds.append(t1 - t0)

    @property
    def median_s(self) -> float:
        return median(self.seconds)


class RoundLoop:
    """Runs rounds for a fixed time, with set-up launches in between."""

    def __init__(self, probe: SetupProbe | None) -> None:
        self.probe = probe

    def run(self, seconds: float, one_round, trace: bool) -> int:
        """Call ``one_round(traced)`` until ``seconds`` of rounds ran.

        Returns the number of rounds.  Time spent in set-up launches
        does not count toward ``seconds``.
        """
        spent = 0.0
        plain = traced = 0
        while spent < seconds or min(
            plain, traced if trace else MIN_ROUNDS
        ) < MIN_ROUNDS:
            as_traced = trace and traced < plain
            t0 = time.perf_counter()
            one_round(as_traced)
            spent += time.perf_counter() - t0
            traced += as_traced
            plain += not as_traced
            probe = self.probe
            if probe is not None:
                due = probe.launches * min(1.0, spent / seconds)
                while len(probe.seconds) < int(due):
                    probe.launch()
        if self.probe is not None:
            while len(self.probe.seconds) < self.probe.launches:
                self.probe.launch()
        return plain + traced


def import_times(module: str) -> dict[str, float]:
    """``setup.import_s`` and ``setup.import_scipy_s`` from one launch.

    Runs ``python -X importtime -c "import <module>"``.  The import
    time is the cumulative time of the top-level ``repro`` entries; the
    scipy share sums the cumulative time of every outermost ``scipy``
    entry (one whose importer is not itself part of scipy).
    """
    child = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", f"import {module}"],
        cwd=ROOT, capture_output=True, text=True, check=True,
        env=_child_env(),
    )
    entries = []  # (depth, name, cumulative us), in completion order
    for line in child.stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2][1:]
        depth = (len(name) - len(name.lstrip(" "))) // 2
        entries.append((depth, name.strip(), int(parts[1])))

    def is_repro(name: str) -> bool:
        return name == "repro" or name.startswith("repro.")

    def is_scipy(name: str) -> bool:
        return name == "scipy" or name.startswith("scipy.")

    top_us = sum(us for depth, name, us in entries
                 if depth == 0 and is_repro(name))
    scipy_us = 0
    for i, (depth, name, us) in enumerate(entries):
        if not is_scipy(name):
            continue
        # An import is listed after its children, so its importer is
        # the next entry at a shallower depth.
        importer = next(
            (n for d, n, _ in entries[i + 1:] if d < depth), ""
        )
        if not is_scipy(importer):
            scipy_us += us
    return {
        "setup.import_s": top_us / 1e6,
        "setup.import_scipy_s": scipy_us / 1e6,
    }


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH")
        else src
    )
    return env
