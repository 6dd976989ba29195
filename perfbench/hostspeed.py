"""Host-speed correction for the end-to-end timings.

The benchmark runs on a few vCPUs of a shared host.  Other tenants change
the speed of a vCPU by up to 2x within a fraction of a second, and drift it
over minutes; CPU time moves with wall time, so neither clock is steady on
its own.  Every timed interval is therefore bracketed by a fixed pure-Python
loop, run in the same process on the same CPU just before and just after it,
and reported rescaled to the loop's nominal speed:

    corrected = wall * REF_S / mean(loop time before, loop time after)

A change to the program moves the corrected time by the same factor as the
wall time; host load that slows the loop and the program alike cancels.
``REF_S`` is about the loop's fastest time on an idle vCPU of the host the
benchmark was defined on (Intel Xeon, 2.1 GHz), so corrected times read as
seconds on that host when nothing else competes for it.
"""

from __future__ import annotations

import os
import time

REF_LOOPS = 250_000
REF_S = 0.015


def loop_s() -> float:
    """Time one run of the reference loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_LOOPS):
        acc += i * i
    return time.perf_counter() - t0


def corrected(wall_s: float, before_s: float, after_s: float) -> float:
    """``wall_s`` rescaled to the reference speed, from the loops around it."""
    return wall_s * REF_S * 2.0 / (before_s + after_s)


def pin_to_one_cpu() -> None:
    """Keep this process, and every process it starts, on one CPU, so that the
    reference loop and the timed work share it."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
