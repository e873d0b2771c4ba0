"""Host-speed reference, measured in a helper process of its own.

The shared host's speed drifts by 15-25% over minutes and moves every time
metric of a run together (see ``spec.json``). :class:`HostReference` runs a
fixed kernel that does the kinds of work the program does (large vectorised
passes, many small-array calls, memory copies and gathers, interpreter
loops) in a separate process, so no program state (heap, GIL, threads) can
reach it, on the CPU the benchmark's process last ran on. The run's host
factor is the median kernel time over the run divided by
:data:`NOMINAL_S`, the kernel's median time on the reference host. Gated
time metrics are the measured times divided by that factor; the raw times
are printed beside them.

Run as a script, this file is the helper: it answers every line on stdin
with the seconds one kernel pass took.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

#: Median kernel pass on the reference host (2-vCPU shared VM).
NOMINAL_S = 0.13
#: A reading this many times the run's first fails the steadiness check:
#: something other than the host's drift slowed the kernel.
MAX_DRIFT = 2.0


def _kernel():
    import numpy as np

    rng = np.random.default_rng(0)
    values = rng.normal(size=400_000)
    small = [rng.random((64, 24)) for _ in range(40)]
    big = rng.random(4_000_000)
    gather = rng.integers(0, big.size, 1_000_000)
    table = {i: str(i) for i in range(50_000)}

    def once() -> None:
        for m in np.linspace(-2, 2, 20):  # large vectorised passes (EM sweeps)
            np.exp(-0.5 * (values - m) ** 2).sum()
        for a in small * 12:  # many small-array calls (served requests)
            b = a @ a.T
            np.argpartition(b, 5, axis=1)
            (a - a.mean(0)).std(0)
        for _ in range(2):  # memory traffic (snapshot copies)
            big.copy()
            big[gather].sum()
        total = 0  # interpreter work
        for i in range(250_000):
            total += len(table[i % 50_000])

    return once


def _current_cpu() -> int | None:
    try:
        with open("/proc/self/stat") as f:
            return int(f.read().rsplit(")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None


class HostReference:
    def __init__(self) -> None:
        self.readings: list[float] = []
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def measure(self) -> None:
        """Time one kernel pass on the CPU this process last ran on."""
        cpu = _current_cpu()
        if cpu is not None and hasattr(os, "sched_setaffinity"):
            try:
                os.sched_setaffinity(self._proc.pid, {cpu})
            except OSError:
                pass
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        self.readings.append(float(self._proc.stdout.readline()))

    def factor(self) -> float:
        return statistics.median(self.readings) / NOMINAL_S

    def steady(self) -> bool:
        return max(self.readings) <= MAX_DRIFT * self.readings[0]

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()


if __name__ == "__main__":
    once = _kernel()
    once()  # warm-up
    for _ in sys.stdin:
        t0 = time.perf_counter()
        once()
        print(time.perf_counter() - t0, flush=True)
