"""Shared pieces of the benchmark: checkout layout, the run outcome, machine info.

The benchmark always runs the package from the checkout it lives in
(`<checkout>/src`), never an installed copy, so that a result describes the
source tree being measured.
"""

from __future__ import annotations

import os
import platform
import resource
import signal
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Everything the benchmark writes (sweep outputs, trace files) goes here.
WORK = ROOT / ".perfbench"


class MissingSourceError(RuntimeError):
    """The checkout does not contain the package sources."""


def use_checkout_sources() -> None:
    """Put `<checkout>/src` first on sys.path and check pccplace comes from it."""
    if not (SRC / "pccplace" / "__init__.py").is_file():
        raise MissingSourceError(f"no package sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import pccplace

    origin = Path(pccplace.__file__).resolve()
    if SRC not in origin.parents:
        raise MissingSourceError(f"pccplace imported from {origin}, not {SRC}")


# Machine-speed calibration. On a shared box the vCPUs run at a varying share
# of full speed: 30-second medians of a fixed loop differ by 30 % and more.
# While a run measures, a timer interrupts it every PROBE_INTERVAL_S and
# times a fixed dict-update loop, a mix like the package's own code; timings
# are scaled by PROBE_NOMINAL_S over the mean probe time, which cancels most
# of that drift. PROBE_NOMINAL_S is the loop's time at full speed on the
# reference box (2 vCPUs, Python 3.11), so scaled rates read as rates at
# that speed.
PROBE_INTERVAL_S = 0.1
PROBE_ITERATIONS = 4000
PROBE_NOMINAL_S = 750e-6


def probe_slice() -> float:
    """Run the probe loop once; return its wall time."""
    t0 = time.perf_counter()
    acc: dict[int, float] = {}
    for i in range(PROBE_ITERATIONS):
        acc[i % 997] = acc.get(i % 997, 0.0) + i * 0.5
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples machine speed from a SIGALRM timer while the block runs.

    `total_s` is the time spent in probe loops so far; a timed region
    subtracts the part of it that fell inside the region.
    """

    def __init__(self):
        self.total_s = 0.0
        self.samples = 0
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        self.total_s += probe_slice()
        self.samples += 1

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            self._sample()

    @property
    def slowdown(self) -> float:
        """Mean probe time over its nominal time (> 1 on a busy machine)."""
        return self.total_s / self.samples / PROBE_NOMINAL_S


def timed(probe: SpeedProbe | None, fn, *args, **kwargs):
    """(seconds, result) of fn(*args, **kwargs), without the probe time spent inside."""
    probe_s = probe.total_s if probe else 0.0
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    seconds = time.perf_counter() - t0
    return seconds - ((probe.total_s - probe_s) if probe else 0.0), result


@dataclass
class Outcome:
    """What one timed phase did.

    `attempted` and `failed` count operations (sweep trials or exact
    solves); an operation fails when its output is missing or incorrect.
    `budget_stops` counts exact solves that stopped at their budget with a
    valid answer, which is not a failure. `units` holds (operations, timed
    seconds) per measured unit (a `bench` call or a desk corpus).
    """

    attempted: int = 0
    failed: int = 0
    budget_stops: int = 0
    units: list[tuple[int, float]] = field(default_factory=list)
    probe: SpeedProbe = field(default_factory=SpeedProbe)
    wall_s: float = 0.0

    @property
    def raw_ops_per_s(self) -> float:
        return sum(n for n, _ in self.units) / sum(t for _, t in self.units)

    @property
    def ops_per_s(self) -> float:
        """Operations per second at the nominal machine speed."""
        return self.raw_ops_per_s * self.probe.slowdown


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine_info() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }
