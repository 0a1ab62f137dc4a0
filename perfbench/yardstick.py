"""Fixed reference computations that track the machine's current speed.

The benchmark runs on a few virtual CPUs of a shared host, whose speed
drifts with the host's load: the same operation on the same input runs
up to 1.7 times slower in one minute than in another, within one process
and on one thread.  Process CPU time drifts with it, so the slowdown is
real and not time spent descheduled.  A run's median operation time then
measures the host as much as the program.

A reference block is a fixed piece of work in the style of a workload,
independent of phidiv's code.  There are two kinds:

- "small": a Newton-type ascent on a 100 x 3 problem, many small numpy
  calls driven from Python, like the fits of figure1 and theta_scan;
- "large": elementwise kernels and an n x 3 product over 100 000 points,
  and parsing of decimal numbers, like the fits and CSV reading of
  large_n.

The benchmark runs blocks of its workload's kind right after each
operation, for about SHARE of the operation time, and reports operation
times in reference milliseconds: the operation's time divided by the
median time of the blocks after it, times BLOCK_REF_MS, about a block's
time on the machine the benchmark was written on. A change to phidiv
cannot change a block, so it moves the reference milliseconds exactly as
it moves the operation time.
"""

import functools
import gc
import statistics
import time

import numpy as np

BLOCK_REF_MS = 4.0
SHARE = 0.04

_G = np.linspace(-1.0, 1.3, 300).reshape(100, 3)


def _small():
    lam, acc = np.zeros(3), 0.0
    for i in range(150):
        w = np.exp(-(_G @ lam))
        grad, hess = w @ _G, (_G * w[:, None]).T @ _G
        lam = lam - 0.01 * np.linalg.solve(hess + np.eye(3), grad)
        acc += float(lam[0]) * i
    return acc


@functools.cache
def _large_inputs():
    x = np.linspace(0.05, 2.0, 100_000)
    a = np.stack([x, x * x - 1.0, x - 0.5], axis=1)
    numbers = [format(v, ".17g") for v in np.linspace(-1.0, 1.01, 2000)]
    return x, a, numbers, np.empty_like(x), np.empty_like(x), np.empty_like(a)


def _large():
    x, a, numbers, y, w, b = _large_inputs()
    # into preallocated buffers: large allocations would time the allocator,
    # whose state the program's own allocations change
    np.log1p(x, out=y)
    np.multiply(y, x, out=y)
    np.expm1(np.negative(x, out=w), out=w)
    acc = float(np.dot(y, y) - np.sum(w))
    np.exp(np.negative(x, out=w), out=w)
    np.multiply(a, w[:, None], out=b)
    acc += float((a.T @ b)[0, 0])
    return acc + sum(float(s) for s in numbers)


KINDS = {"small": _small, "large": _large}


def block(kind):
    """Run one reference block of the given kind; return its wall seconds."""
    enabled = gc.isenabled()
    gc.disable()  # a block makes no cycles; keep the program's heap out of it
    try:
        t0 = time.perf_counter()
        acc = KINDS[kind]()
        seconds = time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    if acc != acc:
        raise ArithmeticError(f"reference block {kind!r} produced NaN")
    return seconds


class Pacer:
    """Runs reference blocks after each operation and keeps their times."""

    def __init__(self, kind):
        self.kind = kind
        self.seconds = []

    def after_op(self, op_seconds):
        """Run at least one block, and blocks for SHARE of op_seconds;
        return their median seconds."""
        start, spent = len(self.seconds), 0.0
        while spent == 0.0 or spent < SHARE * op_seconds:
            self.seconds.append(block(self.kind))
            spent += self.seconds[-1]
        return statistics.median(self.seconds[start:])
