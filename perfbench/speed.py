"""Host speed: a fixed reference timed between items.

The benchmark host is a few vCPUs of a shared machine.  Its speed swings
by up to a factor of two for seconds to minutes at a time, and CPU time
swings with wall time, so neither repeating an item nor timing CPU time
takes the swing out.  The benchmark therefore times a fixed reference
between items and brings each item's time to a quiet host's speed:

    time at reference speed = measured time * (quiet_s / r) ** SENSITIVITY

where r is the median of the WINDOW reference times before this item and
the WINDOW + 1 from it on, a few seconds of the host's speed around it,
and quiet_s is the reference's time in the host's quiet phases.

The reference computation multiplies two sparse polynomials stored as
dicts from exponent tuples to Fractions, the representation nccalc uses,
but runs none of nccalc's code, so a change to nccalc leaves it alone.
Items that run in the benchmark's process are referred to the
computation itself (IN_PROCESS).  A fresh `nccalc` process spends most of
its time starting and importing, which the computation does not track,
so those are referred to a fresh interpreter that imports this module and
runs the computation (FRESH_PROCESS).

SENSITIVITY is measured, not chosen.  On this host (2 vCPUs, Python
3.11), over swings of up to 1.9x in its speed, windowed median item times
moved as the 0.75-0.81 power of IN_PROCESS for the battery, symbolic and
geometry items, and as the 0.77-0.87 power of FRESH_PROCESS for fresh
`nccalc` calls.  The power 1 overshoots and leaves up to twice the
residual spread.  Raw times are kept in the record.
"""

from __future__ import annotations

import bisect
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

SENSITIVITY = 0.8
WINDOW = 2

_A = {(i % 5, i // 5, i % 3): Fraction(i * 7 % 11 + 1, i % 4 + 2) for i in range(24)}
_B = {(i // 6, i % 6, i % 2): Fraction(i * 5 % 13 - 6, i % 3 + 1) for i in range(24)}


def reference_computation():
    out = {}
    for ea, ca in _A.items():
        for eb, cb in _B.items():
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            out[e] = out.get(e, 0) + ca * cb
    return sorted(out.items())


def time_computation():
    t0 = time.perf_counter()
    reference_computation()
    return time.perf_counter() - t0


def time_fresh_process():
    t0 = time.perf_counter()
    subprocess.run([sys.executable, str(Path(__file__).resolve())], check=True, timeout=60)
    return time.perf_counter() - t0


class Reference(NamedTuple):
    name: str
    # About the median time on this host in its faster phases.  It sets the
    # unit of the scaled times; comparisons do not depend on it.
    quiet_s: float
    time: Callable[[], float]
    every: int  # timed before every `every`-th item


IN_PROCESS = Reference("in_process", 0.002, time_computation, 1)
# A fresh interpreter costs about a third of an nccalc call, so it is
# timed before every third call.
FRESH_PROCESS = Reference("fresh_process", 0.08, time_fresh_process, 3)


def scale(reference, samples):
    """Factor that brings times measured alongside `samples` to reference speed."""
    return (reference.quiet_s / statistics.median(samples)) ** SENSITIVITY


def item_scales(reference, samples):
    """One factor per item, from the reference times taken around it in run order.

    `samples` has one entry per item, None where the reference was not
    timed; each item takes the WINDOW samples before it and the WINDOW + 1
    from it on.
    """
    taken = [i for i, t in enumerate(samples) if t is not None]
    scales = []
    for i in range(len(samples)):
        k = bisect.bisect_left(taken, i)
        near = taken[max(0, k - WINDOW):k + WINDOW + 1]
        scales.append(scale(reference, [samples[j] for j in near]))
    return scales


if __name__ == "__main__":
    for _ in range(5):
        reference_computation()
