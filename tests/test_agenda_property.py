"""Property tests for the calendar-queue agenda (repro.sim.engine).

The kernel v3 calendar queue must be observationally identical to a plain
binary-heap agenda: events fire in exact ``(time, seq)`` order, the
same-instant FIFO merges by seq, cancellation suppresses callbacks,
``run(until=)`` parks the clock without losing future events, and
``horizon()`` never reports a time later than the next live entry.  These
tests drive the real :class:`Simulator` and a deliberately simple
heap-based reference implementation with the same seeded-random scripts — including
delays that straddle bucket boundaries, land in the far-future overflow
tier, and collide on the same nanosecond — and assert identical callback
order.  This is the safety net the calendar queue lands behind.
"""

import random
from heapq import heappop, heappush

import pytest

from repro.sim import Simulator
from repro.sim.engine import SimulationError, _COMPACT_MIN, _NBUCKETS, _SHIFT

#: one bucket width and the full ring horizon, in ns — delays are drawn
#: around these boundaries on purpose
_BUCKET = 1 << _SHIFT
_HORIZON = _NBUCKETS << _SHIFT


class _RefHandle:
    __slots__ = ("cancelled",)

    def __init__(self):
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class RefSim:
    """Binary-heap reference agenda with the kernel's documented semantics.

    Everything — including ``call_soon`` — is one heap ordered by
    ``(time, seq)``; the real kernel's now-FIFO/agenda arbitration is by
    construction equivalent to that single total order.
    """

    def __init__(self):
        self.now = 0
        self.events_executed = 0
        self._seq = 0
        self._q = []
        self._stop = None

    def schedule(self, delay, callback, *args):
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} ns in the past")
        h = _RefHandle()
        self._seq += 1
        heappush(self._q, (self.now + delay, self._seq, h, callback, args))
        return h

    def schedule_at(self, time, callback, *args):
        return self.schedule(time - self.now, callback, *args)

    def call_soon(self, callback, *args):
        self.schedule(0, callback, *args)

    def call_later(self, delay, callback, *args):
        self.schedule(delay, callback, *args)

    def call_at(self, time, callback, *args):
        self.schedule(time - self.now, callback, *args)

    def every(self, interval, callback):
        def tick():
            if callback():
                self.call_later(interval, tick)

        self.call_later(interval, tick)

    def run(self, until=None):
        self._stop = until
        self._run(until)
        self._stop = None

    def _run(self, until):
        q = self._q
        while q:
            t, _seq, h, cb, args = q[0]
            if h.cancelled:
                heappop(q)
                continue
            if until is not None and t > until:
                self.now = until
                return
            heappop(q)
            self.now = t
            self.events_executed += 1
            cb(*args)
        if until is not None and until > self.now:
            self.now = until

    def horizon(self):
        """``(next live time capped by the running stop, whether any
        cancelled entry is still queued)``."""
        live = [t for t, _seq, h, _cb, _args in self._q if not h.cancelled]
        t = min(live) if live else None
        if self._stop is not None and (t is None or self._stop < t):
            t = self._stop
        return t, len(live) != len(self._q)


def _delay(rng):
    """A delay from the distributions the fabric actually produces, plus
    adversarial boundary cases: zero, same-instant ties, exact bucket
    edges, cross-ring jumps, and far-future overflow-tier timers."""
    r = rng.random()
    if r < 0.15:
        return 0
    if r < 0.35:
        return rng.choice((40, 40, 100, 250))  # ties on purpose
    if r < 0.60:
        return rng.randrange(1, 3 * _BUCKET)
    if r < 0.75:
        return rng.choice((_BUCKET - 1, _BUCKET, _BUCKET + 1))
    if r < 0.92:
        return rng.randrange(3 * _BUCKET, _HORIZON)
    return rng.randrange(_HORIZON, 5 * _HORIZON)  # overflow tier


def _drive(sim, seed, probe=None):
    """Apply an identical seeded script of schedule/cancel/call_soon/
    every/run(until=) operations to ``sim``; returns the callback log.

    All rng draws happen in callback/op order, which is identical between
    implementations until a divergence — at which point the logs differ
    and the assertion reports it.  ``probe()``, if given, runs inside
    every callback and before every op; it must draw nothing from the
    script's rng.
    """
    rng = random.Random(seed)
    log = []
    handles = []
    label_counter = [0]

    def make_cb(label, depth):
        def cb():
            log.append((label, sim.now))
            if probe is not None:
                probe()
            # Nested scheduling from inside a callback, bounded depth.
            if depth < 2 and rng.random() < 0.35:
                for _ in range(rng.randrange(1, 3)):
                    label_counter[0] += 1
                    child = (label, label_counter[0])
                    if rng.random() < 0.5:
                        sim.call_later(_delay(rng), make_cb(child, depth + 1))
                    else:
                        h = sim.schedule(_delay(rng), make_cb(child, depth + 1))
                        handles.append(h)
                        if rng.random() < 0.3:
                            rng.choice(handles).cancel()

        return cb

    def make_periodic(label, fires):
        remaining = [fires]

        def tick():
            log.append((label, sim.now))
            if probe is not None:
                probe()
            remaining[0] -= 1
            return remaining[0] > 0

        return tick

    for op in range(120):
        if probe is not None:
            probe()
        r = rng.random()
        if r < 0.40:
            sim.schedule(_delay(rng), make_cb(("s", op), 0))
        elif r < 0.55:
            h = sim.schedule(_delay(rng), make_cb(("h", op), 0))
            handles.append(h)
        elif r < 0.65:
            sim.call_soon(make_cb(("soon", op), 0))
        elif r < 0.75:
            sim.call_later(_delay(rng), make_cb(("later", op), 0))
        elif r < 0.82 and handles:
            rng.choice(handles).cancel()
        elif r < 0.88:
            sim.every(rng.randrange(1, 2 * _BUCKET), make_periodic(("ev", op), rng.randrange(1, 5)))
        else:
            sim.run(until=sim.now + _delay(rng))
    sim.run()
    return log


@pytest.mark.parametrize("seed", range(25))
def test_agenda_matches_reference_heap(seed):
    real_log = _drive(Simulator(), seed)
    ref_log = _drive(RefSim(), seed)
    assert real_log, f"seed {seed} produced an empty script"
    assert real_log == ref_log


@pytest.mark.parametrize("seed", range(25))
def test_agenda_counts_match_reference(seed):
    real, ref = Simulator(), RefSim()
    _drive(real, seed)
    _drive(ref, seed)
    assert real.events_executed == ref.events_executed
    assert real.now == ref.now


@pytest.mark.parametrize("seed", range(25))
def test_horizon_is_a_safe_lookahead(seed):
    """``horizon()`` — read from inside callbacks, under ``run(until=)``
    stops, and between runs — is never later than the reference heap's
    next live entry (capped by the running stop), equals it whenever no
    cancelled entry is queued, and leaves the execution order untouched."""
    real, ref = Simulator(), RefSim()
    got, want = [], []
    real_log = _drive(real, seed, probe=lambda: got.append(real.horizon()))
    ref_log = _drive(ref, seed, probe=lambda: want.append(ref.horizon()))
    assert real_log == ref_log == _drive(Simulator(), seed)
    assert real.events_executed == ref.events_executed
    assert len(got) == len(want) > 0
    exact = 0
    for h, (live, cancelled_queued) in zip(got, want):
        if cancelled_queued:
            assert live is None or (h is not None and h <= live)
        else:
            assert h == live
            exact += 1
    assert exact


# ----------------------------------------------------------------------
# satellite: cancellation accounting under cancel/peek/schedule churn
# ----------------------------------------------------------------------
def test_cancel_peek_schedule_churn_accounting():
    """Interleave cancel/peek/schedule so lazy discards (run loop and
    ``peek``) race the compaction threshold; the cancelled-entry counter
    must stay exact and non-negative throughout."""
    rng = random.Random(1234)
    sim = Simulator()
    fired = []
    live = []
    for round_ in range(40):
        for i in range(3 * _COMPACT_MIN):
            h = sim.schedule(rng.randrange(0, 4 * _BUCKET), fired.append, (round_, i))
            live.append(h)
        rng.shuffle(live)
        # cancel enough to cross the compaction threshold repeatedly
        for _ in range(len(live) * 2 // 3):
            live.pop().cancel()
            assert sim._cancelled_pending >= 0
        sim.peek()  # discards cancelled heads, shares the same accounting
        assert sim._cancelled_pending >= 0
        sim.run(until=sim.now + rng.randrange(0, 2 * _BUCKET))
        assert sim._cancelled_pending >= 0
    sim.run()
    assert sim._cancelled_pending == 0
    assert sim._pending == 0
    # every non-cancelled schedule fired exactly once
    assert len(fired) == sim.events_executed


def test_compaction_is_idempotent():
    sim = Simulator()
    keep = []
    for i in range(200):
        h = sim.schedule(1 + i * 37, keep.append, i)
        if i % 3:
            h.cancel()
    sim._compact()
    state1 = (sim._cancelled_pending, sim._pending)
    sim._compact()  # second pass must be a no-op
    assert (sim._cancelled_pending, sim._pending) == state1
    assert sim._cancelled_pending == 0
    sim.run()
    assert sorted(keep) == [i for i in range(200) if not i % 3]


# ----------------------------------------------------------------------
# satellite: max_events counts exactly what ran, in both loop branches
# ----------------------------------------------------------------------
def test_max_events_agenda_branch_counts_then_raises():
    sim = Simulator()
    ran = []
    for i in range(10):
        sim.schedule(10 * (i + 1), ran.append, i)
    with pytest.raises(SimulationError, match="max_events"):
        sim.run(max_events=4)
    # exactly the counted callbacks ran, and nothing was silently dropped
    assert ran == [0, 1, 2, 3]
    assert sim.events_executed == 4
    assert sim._pending == 6
    sim.run()  # the survivors still fire
    assert ran == list(range(10))
    assert sim.events_executed == 10


def test_max_events_now_q_branch_counts_then_raises():
    """Regression for the same-instant FIFO branch: the limit check used
    to pop and count the FIFO entry but never run its callback, so the
    post-mortem state lied about what executed."""
    sim = Simulator()
    ran = []

    def chain(i):
        ran.append(i)
        sim.call_soon(chain, i + 1)

    sim.call_soon(chain, 0)
    with pytest.raises(SimulationError, match="max_events"):
        sim.run(max_events=7)
    assert ran == list(range(7))  # counted == ran, nothing discarded
    assert sim.events_executed == 7
    assert sim._pending == 1  # the would-be-next entry is still queued


def test_max_events_exact_budget_completes():
    sim = Simulator()
    for i in range(5):
        sim.schedule(i + 1, lambda: None)
    sim.run(max_events=5)  # exactly at the limit: no livelock, no raise
    assert sim.events_executed == 5
