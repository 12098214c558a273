"""Host-speed calibration for a shared, noisy machine.

On a host shared with other tenants, the same pure-Python work can take
twice as long from one second to the next. The worker therefore times a
fixed probe interleaved with the operations it times, and scales each
operation's time by the probe's local speed: ``reference-host seconds =
measured seconds * reference probe seconds / probe seconds``, with the
probe timed just before and just after the operation. The host's speed
changes within a fraction of a second, so only the samples next to an
operation tell the speed it ran at. In-process workloads probe with a
kernel of pure-Python work in the style of the program's own (small dicts,
string formatting, a regex scan); the CLI workload probes with a bare
interpreter start. Neither probe runs the program, so a change to the
program moves the scaled times exactly as it moves the measured ones.
"""

from __future__ import annotations

import bisect
import re
import statistics
import subprocess
import sys
import time

# Median times of the two probes on the machine the benchmark was written
# on, which keeps scaled times close to measured ones there. Only ratios of
# scaled times are ever compared, so their values are a choice of unit.
KERNEL_REF_S = 0.0003
INTERPRETER_REF_S = 0.07
_TOKEN = re.compile(r"[A-Z]+-\d+")


def kernel() -> int:
    table = {}
    for i in range(300):
        key = f"period-{i % 17}-{i}"
        table[key] = [i, key.upper(), str(i * 7)]
    text = " ".join(v[1] for v in table.values())
    return len(_TOKEN.findall(text)) + len(sorted(table))


def kernel_seconds() -> float:
    """The fastest of three kernel runs in a row, so that the sample
    measures the host, not what the caches held before it."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return min(times)


def interpreter_seconds() -> float:
    """Wall time of a bare ``python -c pass``: process start-up is what a
    CLI invocation shares with it, and a kernel in the parent process does
    not follow the speed its children run at."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], capture_output=True, check=True)
    return time.perf_counter() - start


class HostSpeed:
    """``(time, slowdown)`` samples: a probe's time over its reference time,
    at most one every ``every`` seconds of wall time."""

    def __init__(self, probe=kernel_seconds, reference: float = KERNEL_REF_S,
                 every: float = 0.01):
        self.probe = probe
        self.reference = reference
        self.every = every
        self.samples: list[tuple[float, float]] = []
        self._last = float("-inf")

    def sample(self) -> None:
        if time.perf_counter() - self._last < self.every:
            return
        seconds = self.probe()
        self._last = time.perf_counter()
        self.samples.append((self._last, seconds / self.reference))


def scale(timeline, samples) -> list[float]:
    """Each ``(end time, seconds)`` operation in reference-host seconds:
    divided by the median slowdown of the samples on either side of its
    end, the last one taken before it and the first one after it."""
    at = [t for t, _ in samples]
    slowdowns = [s for _, s in samples]
    out = []
    for end, seconds in timeline:
        j = bisect.bisect_left(at, end)
        out.append(seconds / statistics.median(slowdowns[max(0, j - 1):j + 1]))
    return out
