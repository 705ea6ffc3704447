"""How fast the host runs, sampled while the end-to-end run measures.

Other tenants of a shared host slow it by 1.3x to 2x, in stretches of 0.5
to 3 s and sometimes for minutes, and each vCPU slows down on its own.
HostSampler pins the benchmark to one CPU and starts this file as a second
process pinned to the same CPU. Every PERIOD_S it times reference_loop and
appends the start and duration to a file. A measured interval is then
divided by the host's slowdown over that interval: the mean loop time
around it, over REFERENCE_S.

The sampler costs the benchmark about 1% of its CPU, the same on every run.
"""
from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

PERIOD_S = 0.1
#: the unit of scaled times: about the fastest reference_loop seen on the
#: shared 2-core Xeon VM (Python 3.11, numpy 2.4) the baseline was taken on
REFERENCE_S = 0.00080
#: samples this far outside an interval still count for it, so that a
#: 0.1 s op gets several
PAD_S = 0.25


def reference_loop() -> float:
    """Python float arithmetic and 4-element numpy arrays, the mix of
    chenhopf's hot paths; a pure-Python loop tracked their slowdown worse."""
    acc = 0.0
    v = np.ones(4)
    for i in range(400):
        acc += (i * 0.5) % 7.0
        v = np.array([acc, v[0], v[1], 1.0]) * 0.5 + v
    return acc


def sample_until_orphaned(path: str, cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})
    parent = os.getppid()
    with open(path, "w", encoding="utf-8") as out:
        while os.getppid() == parent:
            time.sleep(PERIOD_S)
            start = time.perf_counter()
            reference_loop()
            out.write(f"{start!r} {time.perf_counter() - start!r}\n")
            out.flush()


class HostSampler:
    """Context manager running the sampler process for the enclosed block."""

    def __init__(self, path: Path):
        self.path = path
        self.samples: list[tuple[float, float]] = []
        self._proc = None

    def __enter__(self) -> "HostSampler":
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        self.path.unlink(missing_ok=True)
        self._proc = subprocess.Popen([sys.executable, __file__, str(self.path), str(cpu)])
        deadline = time.perf_counter() + 10.0
        while not (self.path.exists() and self.path.stat().st_size):
            if self._proc.poll() is not None or time.perf_counter() > deadline:
                self._stop()
                raise RuntimeError("host sampler did not start")
            time.sleep(0.01)
        return self

    def __exit__(self, *exc) -> None:
        self._stop()
        with open(self.path, encoding="utf-8") as fh:
            lines = [line.split() for line in fh]
        self.path.unlink()
        # the last line can be cut short by the termination
        self.samples = [(float(a), float(b)) for a, b in lines[:-1]]

    def _stop(self) -> None:
        self._proc.terminate()
        self._proc.wait()

    def slowdown(self, start: float, end: float) -> float:
        """Mean slowdown of the host over [start, end], against REFERENCE_S."""
        inside = [d for t, d in self.samples if start - PAD_S <= t <= end + PAD_S]
        if not inside:
            raise RuntimeError(f"no host samples between {start} and {end}")
        return statistics.fmean(inside) / REFERENCE_S


if __name__ == "__main__":
    sample_until_orphaned(sys.argv[1], int(sys.argv[2]))
