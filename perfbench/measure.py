"""Timing statistics, process handling and memory sampling."""

from __future__ import annotations

import math
import os
import signal
import statistics
import subprocess
import sys
import threading

#: Percentiles a tail is reported at, highest first.
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Milliseconds the reference pass takes on an uncontended core of the
#: baseline machine (see BASELINE.md).  CPU-bound timings are scaled to
#: it: a timing measured while the reference ran in ``ms`` counts as
#: ``wall * REF_MS / ms``.
REF_MS = 6.0

#: The reference pass, run pinned to one CPU: a fixed pure-Python loop
#: that shares no code with the program, timed 21 times (the first is a
#: warm-up); prints the mean of the middle half of the other 20 in
#: milliseconds.
_REFERENCE = """
import os, sys, time
os.sched_setaffinity(0, {int(sys.argv[1])})
times = []
for _ in range(21):
    started = time.perf_counter()
    sum(i * i for i in range(100_000))
    times.append(time.perf_counter() - started)
middle = sorted(times[1:])[5:15]
print(sum(middle) / len(middle) * 1000.0)
"""


def reference_ms() -> float:
    """How fast this machine's cores run now: the reference pass's time
    on each CPU the benchmark may use, run at once, averaged.  On a
    shared host a vCPU slows by up to 1.6x for seconds to minutes when
    a neighbour loads its core; every CLI run here uses all CPUs, so
    its wall time follows this average."""
    passes = [
        subprocess.Popen([sys.executable, "-c", _REFERENCE, str(cpu)],
                         stdout=subprocess.PIPE, text=True)
        for cpu in sorted(os.sched_getaffinity(0))
    ]
    return statistics.mean(float(p.communicate()[0]) for p in passes)


class HostSpeed:
    """Scales CPU-bound timings to :data:`REF_MS`.  Reference passes
    bracket each timed call (the pass after one call is the pass before
    the next); :meth:`scale`, called right after the timed call, runs
    the pass after it and scales its wall time by the two passes'
    mean."""

    def __init__(self):
        self.references = [reference_ms()]

    def scale(self, wall: float) -> float:
        self.references.append(reference_ms())
        return wall * REF_MS / statistics.mean(self.references[-2:])


def percentile(values, level: float) -> float:
    """Nearest-rank percentile (``level`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(level / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values) -> tuple[str, float]:
    """The highest percentile with at least ten samples beyond it, as
    ``("p99", value)``; ``("max", value)`` when fewer than 20 samples."""
    n = len(values)
    for level in TAIL_LEVELS:
        if n * (1.0 - level / 100.0) >= 10:
            return f"p{level:g}", percentile(values, level)
    return "max", max(values) if values else 0.0


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def vm_hwm_kb(pid: int) -> int:
    """Peak resident set size of a live process (0 once it is gone)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


def children(pid: int) -> list[int]:
    found = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/children",
                      encoding="ascii") as handle:
                found.extend(int(child) for child in handle.read().split())
        except OSError:
            continue
    return found


class RssWatcher:
    """Samples the peak RSS of a process and its descendants every
    ``interval`` seconds until :meth:`stop`; :attr:`peak_kb` is the sum
    over processes of each one's last-seen peak."""

    def __init__(self, pid: int, interval: float = 0.1):
        self._pid = pid
        self._interval = interval
        self._peaks: dict[int, int] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _sample(self) -> None:
        pending = [self._pid]
        while pending:
            pid = pending.pop()
            peak = vm_hwm_kb(pid)
            if peak:
                self._peaks[pid] = max(self._peaks.get(pid, 0), peak)
            pending.extend(children(pid))

    def _run(self) -> None:
        while not self._stop.is_set():
            self._sample()
            self._stop.wait(self._interval)

    def stop(self) -> int:
        self._stop.set()
        self._thread.join()
        return self.peak_kb

    @property
    def peak_kb(self) -> int:
        return sum(self._peaks.values())


def stop_process(process: subprocess.Popen, timeout: float = 30.0) -> None:
    """SIGTERM, then SIGKILL if it has not exited within ``timeout``;
    always reaps the process."""
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
