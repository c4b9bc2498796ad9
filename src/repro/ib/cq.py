"""Completion queues.

A CQ collects :class:`~repro.ib.wr.WC` entries from any number of QPs
(the paper's MPI associates *all* of a process's send and receive queues
with a single CQ, and so does ``repro.mpi``).  Consumers poll; a blocked
consumer parks on the CQ — the simulation analogue of the verbs
completion-channel / ``ibv_req_notify_cq`` pattern — through its *waker*:
any object with a ``wake()`` method, stored in :attr:`CompletionQueue.waker`
and called on every :meth:`wake`.  The waker decides itself whether anyone
is parked.  The MPI progress engine installs one so a wake-up can be
charged together with its poll (one agenda entry per ``req_notify`` →
``poll_cq`` round trip instead of two); :meth:`wait_nonempty` installs a
one-shot waker that fires a :class:`~repro.sim.waitables.Signal`.

Every wake-up goes through :meth:`wake` — a push, an RDMA-ring deposit,
or an out-of-band nudge such as the failure detector completing a
request with an error.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.ib.wr import WC
from repro.sim import Signal, Simulator


class CQOverflow(RuntimeError):
    """The CQ filled up — a fatal programming error in the consumer."""


class _NonEmpty:
    """The one-shot waker behind :meth:`CompletionQueue.wait_nonempty`."""

    __slots__ = ("cq", "signal")

    def __init__(self, cq: "CompletionQueue", signal: Signal):
        self.cq = cq
        self.signal = signal

    def wake(self) -> None:
        self.cq.waker = None
        self.signal.fire(self.cq.sim, None)


class CompletionQueue:
    """A FIFO of work completions with blocking-wait support."""

    def __init__(self, sim: Simulator, depth: int = 65536, name: str = "cq"):
        self.sim = sim
        self.depth = depth
        self.name = name
        self._entries: Deque[WC] = deque()
        #: the consumer's waker: ``waker.wake()`` runs on every :meth:`wake`
        self.waker = None
        #: total completions ever pushed (observability)
        self.total_completions = 0

    # ------------------------------------------------------------------
    # producer side (QPs)
    # ------------------------------------------------------------------
    def push(self, wc: WC) -> None:
        if len(self._entries) >= self.depth:
            raise CQOverflow(f"{self.name}: more than {self.depth} outstanding CQEs")
        self._entries.append(wc)
        self.total_completions += 1
        self.wake()

    def wake(self) -> None:
        """Wake whoever is parked on this CQ (its :attr:`waker`)."""
        if self.waker is not None:
            self.waker.wake()

    # ------------------------------------------------------------------
    # consumer side
    # ------------------------------------------------------------------
    def poll(self, max_entries: int = 0) -> List[WC]:
        """Drain up to ``max_entries`` completions (0 = all)."""
        if max_entries <= 0 or max_entries >= len(self._entries):
            out = list(self._entries)
            self._entries.clear()
            return out
        return [self._entries.popleft() for _ in range(max_entries)]

    def poll_one(self) -> Optional[WC]:
        return self._entries.popleft() if self._entries else None

    def wait_nonempty(self) -> Signal:
        """Return a signal that fires when the CQ has (or already has) an
        entry.  Each call arms a fresh signal, so the usual loop is::

            while not done:
                for wc in cq.poll():
                    handle(wc)
                if not done:
                    yield cq.wait_nonempty()

        It takes the :attr:`waker` slot until the signal fires, so use it
        only on a CQ with no standing waker (an MPI endpoint's CQ has one).
        """
        if isinstance(self.waker, _NonEmpty):
            return self.waker.signal  # coalesce onto the armed signal
        sig = Signal(f"{self.name}.notify")
        if self._entries:
            sig.fire(self.sim, None)
        else:
            self.waker = _NonEmpty(self, sig)
        return sig

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<CQ {self.name} pending={len(self._entries)}>"
