"""A fixed task that measures how fast this machine runs right now.

On a VM whose cores are shared with other tenants, the same code runs
15-30% slower or faster from one minute to the next (steal time stays
near zero: the slowdown is in execution speed, and CPU time shows it as
much as wall time). The benchmark therefore times this task in the same
process, between rounds of calls, and scales every time metric by
NOMINAL_S / (measured seconds per rep): times are reported at the speed
at which one rep takes NOMINAL_S. The task uses no acmcheck code, so a
change to the program moves the scaled times as much as the raw ones.

The task mixes what acmcheck spends its time on: small-object Python
arithmetic on second-order jets, tiny numpy arrays and einsum calls, and
dict traffic. The collector is off while it runs, so the heap the program
leaves behind cannot change its time.
"""

from __future__ import annotations

import gc
import math
import time

import numpy as np

# seconds per rep on the VM the benchmark was tuned on (see NOTES.md)
NOMINAL_S = 0.005

_N = 5
_EYE = np.eye(_N)
_ZERO = np.zeros((_N, _N))
_ONES = np.ones((_N, _N))


class _Jet:
    __slots__ = ("v", "g", "h")

    def __init__(self, v, g, h):
        self.v, self.g, self.h = v, g, h

    def __add__(self, o):
        return _Jet(self.v + o.v, self.g + o.g, self.h + o.h)

    def __mul__(self, o):
        cross = np.outer(self.g, o.g)
        return _Jet(self.v * o.v, self.v * o.g + o.v * self.g,
                    self.v * o.h + o.v * self.h + cross + cross.T)

    def sin(self):
        s, c = math.sin(self.v), math.cos(self.v)
        return _Jet(s, c * self.g, c * self.h - s * np.outer(self.g, self.g))


def _rep() -> float:
    acc = 0.0
    for r in range(40):
        xs = [_Jet(0.1 * i + 0.01 * r, _EYE[i], _ZERO) for i in range(_N)]
        e = ((xs[0] * xs[1]).sin() + xs[2] * xs[3]).sin() * xs[4]
        acc += float(np.einsum("i,j,kl->ijkl", e.g, e.g, e.h).sum()) + e.v
    a = np.arange(float(_N))
    table = {}
    for i in range(300):
        t = np.einsum("i,ij->j", a, _ONES) + 0.5 * a
        acc += float(t[2]) + float(a @ t)
        for k in range(20):
            table[(i, k)] = acc * k
            acc = acc * 0.999 + k
    return acc


def seconds_per_rep(reps: int) -> float:
    """Wall seconds per rep of the task, over `reps` reps.

    One untimed rep runs first: after a stretch of program calls the task
    starts on cold caches, and how cold depends on the program, which the
    calibration must not.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        _rep()
        start = time.perf_counter()
        for _ in range(reps):
            _rep()
        return (time.perf_counter() - start) / reps
    finally:
        if enabled:
            gc.enable()
