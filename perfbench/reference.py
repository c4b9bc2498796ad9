"""A fixed reference loop that gauges the host's current speed.

The host this benchmark is tuned on gives it two cores of a shared
machine, and how fast those cores run Python drifts by up to ±30 % over
minutes as neighbours come and go.  The drift hits the simulator's own
time and this loop alike, so the harness times the loop between passes
and reports host time as a multiple of it (unit ``ref``): the drift
cancels, a change to the simulator does not.

The loop resembles the simulator's hot path without importing any of
it: a dependent chase through an 8 MiB single-cycle permutation (cache
misses, as in a large agenda and endpoint graph), a dict count per step
and a bounded heap of tuples (allocation and ``heapq`` traffic, as in
the event agenda).  Its state is a flat ``array`` and untracked dicts,
so it adds nothing to the garbage collections the simulator's jobs
pay for.  It is deliberately frozen: editing it rescales every ``ref``
metric, so the parent and a change must run the same loop.
"""

from __future__ import annotations

import heapq
import random
import time
from array import array

#: permutation length: 8 MiB of 8-byte slots, past the caches a core owns
SLOTS = 1 << 20
#: steps of one timed walk (~0.2 s on the tuning host)
STEPS = 300_000


class ReferenceLoop:
    """Build the permutation once (untimed); :meth:`seconds` times one walk."""

    def __init__(self):
        nxt = array("q", range(SLOTS))
        rand = random.Random(0).random
        for i in range(SLOTS - 1, 0, -1):  # Sattolo: one cycle through all
            j = int(rand() * i)
            nxt[i], nxt[j] = nxt[j], nxt[i]
        self._nxt = nxt
        self.checksum = self._walk()  # warm-up; every walk must match it

    def _walk(self) -> int:
        nxt = self._nxt
        slot = 0
        counts = {}
        heap = []
        acc = 0
        for i in range(STEPS):
            key = slot & 4095
            counts[key] = counts.get(key, 0) + 1
            if not i & 3:
                heapq.heappush(heap, (slot ^ i, i, slot))
                if len(heap) > 64:
                    acc += heapq.heappop(heap)[2]
            slot = nxt[slot]
        return acc + len(counts)

    def seconds(self) -> float:
        """Host seconds of one walk."""
        t0 = time.perf_counter()
        got = self._walk()
        t1 = time.perf_counter()
        if got != self.checksum:
            raise RuntimeError("reference loop result changed between walks")
        return t1 - t0
