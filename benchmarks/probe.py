"""Reference probe: a fixed piece of work, independent of hiercert, that the
benchmark times around every interval it measures.

A shared host runs the same code up to about 1.6 times slower for minutes at
a time, while other tenants load it; on a 2-vCPU sandbox this moved the
median of whole 20-second runs by that much. The probe slows down with the
machine, so the benchmark reports each measured interval `t` scaled to a
quiet machine:

    scaled(t) = t * NOMINAL_S / p

where `p` is the probe time measured around the interval (run.py says which
probes), and NOMINAL_S is the probe's time on a quiet 2-vCPU Intel Xeon
sandbox. The probe's code and inputs are fixed, so a change to hiercert moves
the scaled time by the same factor as the raw time.

The work mixes what hiercert spends its time on: numpy elementwise math and
sorting, small matrix products, a pure-Python loop, and parsing floats from
text.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.030
WARMUP_CALLS = 5


class Probe:
    """Callable that runs the reference work once and returns its seconds."""

    def __init__(self) -> None:
        rs = np.random.default_rng(12345)
        self.u = rs.random(200_000)
        self.a = rs.normal(size=(400, 64))
        self.b = rs.normal(size=(64, 64))
        self.text = "\n".join(",".join(f"{v:.17g}" for v in row)
                              for row in rs.normal(size=(300, 20)))
        for _ in range(WARMUP_CALLS):  # first calls pay page faults and allocator growth
            self()

    def __call__(self) -> float:
        t0 = time.perf_counter()
        for _ in range(4):
            y = np.sqrt(-2.0 * np.log(self.u)) * np.cos(2.0 * np.pi * self.u)
            y.sort()
        for _ in range(20):
            self.a @ self.b
        acc = 0
        for i in range(60_000):
            acc += i * i
        [[float(v) for v in line.split(",")] for line in self.text.split("\n")]
        return time.perf_counter() - t0


def scaled(seconds: float, probe_s: float) -> float:
    """`seconds` measured while the probe took `probe_s`, scaled to a machine
    on which the probe takes NOMINAL_S."""
    return seconds * NOMINAL_S / probe_s
