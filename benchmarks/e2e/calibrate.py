"""A fixed host-speed probe that every timed trial is divided by.

On a small shared machine, the serve time of identical code moves by a
fifth or more within minutes as neighbouring load comes and goes.
:func:`calibrate` runs a fixed miniature of the simulator's hot loop -- an
event heap, a dict of running tasks and a small numpy capacity column
scanned for a fit -- and each trial runs it just before and just after
its timed calls.  A trial's calibrated time is its raw time scaled by
``CAL_REF_S`` / the mean of the two probe times: the time the trial would
have taken on a host that runs the probe in exactly ``CAL_REF_S``
seconds.  The probe is the benchmark's own code, so no change to the
program moves it.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

#: probe events; sized so one probe takes about 42 ms on the reference host.
CAL_EVENTS = 9_600
#: the probe's median time on the reference host (2-core x86-64 VM,
#: Python 3.11, numpy 2.4); calibrated times read as times on that host.
CAL_REF_S = 0.042


def _probe(events: int) -> int:
    free = np.full(128, 8.0)
    finishing = []
    running = {}
    now = 0.0
    for task in range(events):
        cores = 1.0 + task % 4
        fits = free >= cores
        if fits.any():
            node = int(np.argmax(fits))
            free[node] -= cores
            finish = now + 1.0 + (task * 7919 % 1009) / 1009.0
            heapq.heappush(finishing, (finish, task, node, cores))
            running[task] = (node, cores, f"task-{task}")
        now += 0.01
        while finishing and finishing[0][0] <= now:
            _, done, node, cores = heapq.heappop(finishing)
            free[node] += cores
            del running[done]
    return len(running)


def calibrate() -> float:
    """Run the probe once.

    Returns:
        Its wall time in seconds.
    """
    start = time.perf_counter()
    _probe(CAL_EVENTS)
    return time.perf_counter() - start
