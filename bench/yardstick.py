"""A fixed CPU yardstick, for reporting times at one reference speed.

On a shared host the CPU's speed drifts by up to 2x over tens of seconds,
which moves every timing with it.  The benchmark runs this fixed piece of
interpreter work and small numpy calls, which nothing in catafind affects,
between its timed calls (about one reading per quarter second of calls), and
reports each time scaled to the speed at which the yardstick takes
REFERENCE_S:

    reported = measured * REFERENCE_S / median of the readings just before
                                         and just after the call

Measured on a 2-vCPU host, this cut the run-to-run spread of find-rd's
median call time from 30% to 6%.  It tracks single-threaded work only; the
benchmark runs the CLI with one worker thread (run.py).  The raw timings
are kept in each run's metadata.
"""

import gc
import statistics
import time

import numpy as np

REFERENCE_S = 0.012
_A = np.array([[4.0 if i == j else 1.0 / (1 + i + j) for j in range(6)]
               for i in range(6)])


def measure(rounds: int = 6000) -> float:
    # a collection of the program's live objects would land on the yardstick
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = 0.0
        table = {}
        for i in range(rounds):
            x = [float(i % 7), 1.5, -0.25, 2.0, 0.5, 1.0]
            for j in range(6):
                acc += x[j] * x[(j + 1) % 6]
            table[i & 255] = acc
            if i % 16 == 0:
                np.linalg.solve(_A, np.array(x))
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def readings_after(seconds: float) -> list:
    """About one reading per quarter second of timed work, from 1 to 8."""
    return [measure() for _ in range(min(8, max(1, round(seconds / 0.25))))]


def scales(first, after) -> list:
    """Per-call factors from measured to reference seconds, given the
    readings taken before the first call and after each call."""
    before = [first] + list(after[:-1])
    return [REFERENCE_S / statistics.median(list(b) + list(a))
            for b, a in zip(before, after)]
