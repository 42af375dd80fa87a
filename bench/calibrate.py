"""A fixed pure-Python loop that measures how fast the machine runs now.

On a shared host the speed of a core drifts by a fifth or more over
minutes, and the process's CPU time drifts with its wall time, so a
program's raw latencies measure the neighbours as much as the program.
``batch.py`` times this loop right before every config it issues.  The
loop uses only the standard library and does the kinds of work trailkit
does (integer arithmetic in the interpreter, fresh allocations), so it slows
down with the machine but never changes with the program.

A process keeps its samples in slots: slot i holds those taken right
before its job i, and the last slot those taken after its last job.
``run.py`` divides each job's latency by the median of the samples
nearest the job in time and multiplies it by ``NOMINAL_S``: the result is
the latency at the speed at which the loop takes ``NOMINAL_S``.
"""

from __future__ import annotations

import gc
import statistics
import time

# About the median time of one ``sample()`` on a 2-vCPU x86-64 VM under
# CPython 3.11.
NOMINAL_S = 0.006
SHARE = 0.05            # calibration time per second of jobs, at least
WINDOW = 9              # samples that a job's speed factor is taken from


def _loop() -> int:
    """Integer arithmetic in the interpreter, then a list of fresh int
    objects: the two kinds of slowdown that trailkit's runs showed, the
    first for the small verify configs, the second for the module builds,
    which allocate hundreds of megabytes.  The list is kept small, as it
    adds to the process's peak RSS."""
    acc = 0
    for i in range(30000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    fresh = [i * 3 for i in range(20000)]
    return acc + len(fresh)


def sample() -> float:
    """Seconds that one run of the loop takes, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _loop()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def samples(n: int) -> list[float]:
    return [sample() for _ in range(n)]


def top_up(slots: list[list[float]], job_s: float) -> None:
    """Add a slot to ``slots``, the samples of one process so far: one
    sample, and then as many as keep all samples at ``SHARE`` of
    ``job_s``, the time that the process's jobs took so far.  So the
    samples follow the time that jobs take."""
    taken = sum(map(sum, slots))
    slot = [sample()]
    while taken + sum(slot) < SHARE * job_s:
        slot.append(sample())
    slots.append(slot)


def factor(slots: list[list[float]]) -> float:
    """How much faster than nominal the process ran, over all its
    samples: above 1 when the machine was fast."""
    return NOMINAL_S / statistics.median(t for slot in slots for t in slot)


def job_factors(slots: list[list[float]]) -> list[float]:
    """The speed factor of each job: from the samples taken right before
    and right after it, widened by a slot on each side until ``WINDOW``
    samples or every slot is in."""
    out = []
    for i in range(len(slots) - 1):
        lo, hi = i, i + 2
        while (sum(map(len, slots[lo:hi])) < WINDOW
               and (lo > 0 or hi < len(slots))):
            lo, hi = max(lo - 1, 0), hi + 1
        out.append(factor(slots[lo:hi]))
    return out
