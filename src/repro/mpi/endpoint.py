"""The MPI endpoint: one per rank, the ADI2-style device of this MPI.

An :class:`Endpoint` owns the rank's verbs resources (one CQ for every
connection, exactly like the paper's design), the pre-pinned vbuf pool, the
matching engine, the pin-down cache, the rendezvous bookkeeping and — via
:class:`~repro.mpi.connection.Connection` — all flow-control state.

All public operations are *generators* driven by the simulation kernel;
application programs call them with ``yield from``::

    def program(mpi):
        req = yield from mpi.irecv(source=1, capacity=1 << 20)
        yield from mpi.send(1, size=4)
        status = yield from mpi.wait(req)

Progress happens only inside MPI calls (the paper's user-level schemes
explicitly depend on this; the hardware scheme's "application bypass"
advantage shows up as the HCA needing no software help to *deliver*, though
buffer re-posting is always software).
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Generator, List, Optional, Set

from repro.core.base import FlowControlScheme
from repro.ib.hca import HCA
from repro.ib.types import Opcode, QPState
from repro.ib.wr import RecvWR, SendWR, WC
from repro.mpi.buffer_pool import SendBufferPool
from repro.mpi.config import MPIConfig
from repro.mpi.connection import Connection, PendingSend
from repro.mpi.constants import ANY_SOURCE, ANY_TAG, WORLD_CONTEXT
from repro.mpi.matching import MatchingEngine, PostedRecv
from repro.mpi.pindown_cache import PinDownCache
from repro.mpi.protocol import Header, MsgKind
from repro.mpi.rendezvous import BounceRegion, RndvRecvOp, RndvSendOp, next_op_id
from repro.mpi.request import Request, Status
from repro.ft.failures import RankFailedError
from repro.sim import Simulator, Timeout, Waitable
from repro.sim.trace import Tracer


class MPIError(RuntimeError):
    pass


class TruncationError(MPIError):
    """A message arrived larger than the posted receive buffer."""


#: vbufs held back for control traffic (CTS/FIN/ECM) so progress-side
#: emissions can never block on the pool (which would deadlock progress).
CONTROL_RESERVE = 32

#: resume value of a progress park that woke without charging a poll
_RECHECK = "recheck"


class _ProgressPark(Waitable):
    """Where the progress engine sleeps when it has nothing to poll.

    One per endpoint, reused by every wait (allocation-free, like
    ``Endpoint._t_poll``; an endpoint runs one program process).  It is
    the CQ's waker, so :meth:`wake` runs on every completion push, RDMA-
    ring deposit and out-of-band nudge through ``CompletionQueue.wake``.
    The first wake of a parked process decides how it resumes:

    * if the waiting condition already holds, or the rank has died, the
      process resumes at once with ``_RECHECK`` and re-checks, exactly as
      a plain signal wake-up would;
    * otherwise the only thing the process would do next is charge a CQ
      poll, so the wake-up *is* that poll: the resume goes through
      ``Endpoint._t_poll`` (``poll_overhead_ns`` later, resuming with
      ``None``) and lands straight after it — the verbs ``req_notify_cq``
      → ``poll_cq`` round trip as one agenda entry instead of two.

    The unfolded process would have read the waiting condition later in
    the wake-up instant, not at the push.  So a further wake in that same
    instant (the failure detector flushes a dead peer's QP, which pushes,
    and only then fails the requests toward it) re-checks, and if the
    condition now holds it resumes the process at once after all; the
    folded resume already on the agenda is then skipped when it fires.
    """

    __slots__ = ("ep", "process", "request", "pred", "pending",
                 "folded_at", "stale", "_resume")

    def __init__(self, ep: "Endpoint"):
        self.ep = ep
        #: the parked process while armed
        self.process = None
        #: the waiting condition: ``request.done`` if a request is set,
        #: else ``pred()``
        self.request: Optional[Request] = None
        self.pred: Optional[Callable[[], bool]] = None
        #: the process whose folded resume is on the agenda
        self.pending = None
        self.folded_at = -1
        #: folded resumes on the agenda whose process already resumed
        self.stale = 0
        # scheduled once per folded wake-up; prebound like Process._resume
        self._resume = self._polled

    def _block(self, sim: Simulator, process) -> None:
        self.process = process

    def _satisfied(self) -> bool:
        req = self.request
        return self.ep._halted or (req.done if req is not None else self.pred())

    def wake(self) -> None:
        process = self.process
        ep = self.ep
        if process is None:
            # Not parked.  Only a same-instant re-wake of a folded resume
            # can matter (see the class docstring).
            process = self.pending
            if (process is not None and self.folded_at == ep.sim.now
                    and self._satisfied()):
                self.pending = None
                self.stale += 1
                ep.sim.call_soon(process._resume, _RECHECK, None)
            return
        self.process = None
        if self._satisfied():
            ep.sim.call_soon(process._resume, _RECHECK, None)
        else:
            self.pending = process
            self.folded_at = ep.sim.now
            ep._t_poll._block(ep.sim, self)

    def _polled(self, value, exc) -> None:
        """The folded resume's agenda entry (``Timeout._block`` calls back
        ``_resume(None, None)``)."""
        if self.stale:
            self.stale -= 1
            return
        process, self.pending = self.pending, None
        process._resume(value, exc)


class Endpoint:
    """One MPI process endpoint."""

    def __init__(
        self,
        sim: Simulator,
        hca: HCA,
        rank: int,
        world_size: int,
        config: MPIConfig,
        scheme: FlowControlScheme,
        requested_prepost: int,
        tracer: Optional[Tracer] = None,
        connector: Optional[Callable] = None,
    ):
        if requested_prepost < 1:
            raise MPIError("requested_prepost must be >= 1")
        self.sim = sim
        self.hca = hca
        self.rank = rank
        self.world_size = world_size
        self.config = config
        self.scheme = scheme
        self.requested_prepost = requested_prepost
        self.tracer = tracer or Tracer(enabled=False)
        #: eager traffic travels by RDMA-write ring — either the legacy
        #: config switch or a scheme that owns a ring (rdma-eager).  The
        #: flag gates ring allocation at connect time and the ring-dirty
        #: arm of the progress waits.
        self._ring_mode = config.use_rdma_channel or scheme.uses_ring

        self.cq = hca.create_cq(f"mpi.cq.{rank}")
        self.pool = SendBufferPool(sim, config.send_pool_buffers, config.vbuf_bytes)
        self.matching = MatchingEngine()
        self.pindown = PinDownCache(hca)
        bounce_mr = hca.reg_mr(config.vbuf_bytes * 64)
        self.bounce = BounceRegion(bounce_mr, config.vbuf_bytes, 64)

        self.connections: Dict[int, Connection] = {}
        self._backlogged: Set[int] = set()  # peers with non-empty backlog
        #: peers whose RDMA ring holds arrived-but-unprocessed messages
        #: (dirty-flag wakeups: the progress engine only looks at these
        #: instead of scanning every connection per poll)
        self._ring_dirty: Set[int] = set()
        self._send_ctx: Dict[int, tuple] = {}
        self._ctx_ids = itertools.count(1)
        self._rndv_send: Dict[int, RndvSendOp] = {}
        self._rndv_recv: Dict[int, RndvRecvOp] = {}
        self._coll_seq: Dict[int, int] = {}  # context -> collective sequence
        #: on-demand connection setup hook (None = static full mesh)
        self._connector = connector
        self.finalized = False
        # --- fault injection (repro.faults): slow-consumer throttling ---
        #: while ``sim.now < _stall_until`` this rank neither re-posts vbufs
        #: nor returns paid credits — the starved-receiver model.
        self._stall_until = 0
        #: peer -> paid credits withheld during the stall window
        self._stall_held: Dict[int, int] = {}
        # shared immutable waitables for the fixed per-call costs (the
        # progress hot path yields these thousands of times per run)
        self._t_call = Timeout(config.call_overhead_ns)
        self._t_poll = Timeout(config.poll_overhead_ns)
        self._park = _ProgressPark(self)
        self.cq.waker = self._park
        #: runtime invariant auditor (repro.check); None = disabled, and
        #: every hook site below is guarded so the disabled cost is one
        #: attribute load + None test.
        self._audit = None
        #: connection recovery manager (repro.recovery); None = disabled,
        #: same zero-cost hook pattern as the auditor.
        self._recovery = None
        #: rank-failure tolerance manager (repro.ft); None = disabled,
        #: same zero-cost hook pattern as the auditor.
        self._ft = None
        #: rank-death fault: once halted, every MPI entry point and the
        #: progress engine park forever (the process is dead; its state
        #: must stop mutating even as flushed completions hit the CQ).
        self._halted = False
        self._halt_signal = None

        # observability
        self.bytes_sent = 0
        self.bytes_received = 0
        self.wait_ns = 0

    # ------------------------------------------------------------------
    # wiring (done by the cluster builder before programs start)
    # ------------------------------------------------------------------
    def add_connection(self, peer: int, conn: Connection) -> None:
        self.connections[peer] = conn
        if self._ring_mode:
            from repro.mpi.rdma_channel import RDMAChannel

            conn.rdma_eager = True
            channel = RDMAChannel(
                self, peer, slots=self.requested_prepost,
                slot_bytes=self.config.vbuf_bytes,
            )
            channel.ring.mr.on_write = lambda addr, payload, ch=channel: ch.deposit(payload)
            conn.rx_channel = channel
        self.scheme.setup_connection(conn, self.requested_prepost)

    @staticmethod
    def wire_rdma_rings(conn_ab: Connection, conn_ba: Connection) -> None:
        """Exchange ring coordinates between the two halves of a freshly
        established connection (part of connection setup in RDMA mode)."""
        for tx, rx in ((conn_ab, conn_ba), (conn_ba, conn_ab)):
            ring = rx.rx_channel.ring
            tx.tx_ring_addr = ring.mr.addr
            tx.tx_ring_rkey = ring.mr.rkey
            tx.tx_ring_slots = ring.slots
            tx.tx_ring_next = 0

    def _post_recv_vbuf(self, conn: Connection) -> None:
        if conn.qp.state is not QPState.READY:
            # Recovery window: the QP cannot accept WQEs (post_recv raises
            # in ERROR state).  The credit for a paid message processed in
            # this window is still granted by the caller; the physical
            # buffer population is restored by the resync refill.
            return
        conn.qp.post_recv(RecvWR(wr_id=conn.peer, capacity=self.config.vbuf_bytes))
        conn.recv_posted += 1
        if self._audit is not None:
            self._audit.on_post_recv(conn)

    @property
    def now(self) -> int:
        return self.sim.now

    # ------------------------------------------------------------------
    # public API: point-to-point
    # ------------------------------------------------------------------
    def isend(
        self,
        dest: int,
        size: int,
        tag: int = 0,
        payload: Any = None,
        buffer_id: Optional[object] = None,
        context: int = WORLD_CONTEXT,
        mode: str = "standard",
    ) -> Generator:
        """Non-blocking send; returns a :class:`Request`.

        ``mode`` selects the MPI communication mode (paper §3.1: "MPI
        defines four different communication modes: Standard, Synchronous,
        Buffered, and Ready"):

        * ``"standard"`` / ``"buffered"`` — eager below the rendezvous
          threshold (this device buffers through the vbuf pool, so the two
          behave identically), rendezvous above;
        * ``"sync"`` — always rendezvous: the request cannot complete until
          the handshake proves a matching receive exists (MPI_Ssend);
        * ``"ready"`` — like standard, but the receiver *errors* if the
          message arrives unexpected (MPI_Rsend's contract).
        """
        if mode not in ("standard", "buffered", "sync", "ready"):
            raise MPIError(f"unknown send mode {mode!r}")
        self._check_peer(dest)
        if size < 0:
            raise MPIError(f"negative message size {size}")
        req = Request(self.sim, "send")
        if self._ft is not None:
            if self._ft.fail_if_dead(self, req, dest):
                return req
            self._ft.watch(self, req, dest)
        # Fast path: the connection almost always exists already; skip the
        # sub-generator (and its per-call frame) entirely when it does.
        conn = self.connections.get(dest)
        if conn is None:
            try:
                conn = yield from self._ensure_connected(dest)
            except RankFailedError:
                # dest died while the on-demand setup exchange was parked;
                # the request completes with PROC_FAILED, never hangs
                self._ft.fail_request(self, req, dest)
                return req
        self.bytes_sent += size
        if self._audit is not None:
            self._audit.on_app_send(self.rank, dest, tag, context, size)
        yield self._t_call
        if req.done:  # dest declared dead while this call was parked
            return req

        cfg = self.config
        if mode != "sync" and size <= (cfg.rndv_min_bytes or cfg.vbuf_bytes - cfg.header_bytes):
            header = Header(
                kind=MsgKind.EAGER,
                src=self.rank,
                dst=dest,
                tag=tag,
                context=context,
                size=size,
                payload=payload,
                paid=True,
                ready=(mode == "ready"),
            )
            # A non-empty backlog forces FIFO (MPI non-overtaking): new
            # sends may not jump the queue even if a credit is available.
            # A recovering connection parks everything in the backlog too —
            # its credit state is stale until the resync.
            if (
                not conn.backlog
                and not conn.recovering
                and self.scheme.try_consume_credit(conn)
            ):
                if self._audit is not None:
                    self._audit.on_consume(conn)
                if conn.rdma_eager:
                    cost = self._emit_ring(conn, header, req)
                else:
                    yield from self._await_pool(control=False)
                    if req.done:  # dest declared dead during the pool wait
                        return req
                    cost = self._emit(conn, header, "eager", req, control=False)
            else:
                self._enqueue_backlog(conn, PendingSend(header, req, self.sim.now))
                cost = self._drain(conn)
        else:
            # Rendezvous path (large messages, and every "sync" send —
            # the CTS proves the receive is matched).  Small synchronous
            # payloads ride the pre-registered bounce region instead of
            # paying a pin.
            bounce = size <= self.config.eager_max()
            if bounce:
                mr, pin_cost = None, 0
            else:
                mr, pin_cost = self.pindown.acquire(buffer_id, size)
            yield Timeout(pin_cost)
            if req.done:  # dest declared dead while pinning
                if mr is not None:
                    self.pindown.release(buffer_id, mr)
                return req
            op = RndvSendOp(
                sreq_id=next_op_id(),
                request=req,
                dst=dest,
                tag=tag,
                context=context,
                size=size,
                payload=payload,
                buffer_id=buffer_id,
                mr=mr,
                bounce=bounce,
            )
            self._rndv_send[op.sreq_id] = op
            header = Header(
                kind=MsgKind.RNDV_RTS,
                src=self.rank,
                dst=dest,
                tag=tag,
                context=context,
                size=size,
                sreq_id=op.sreq_id,
                paid=True,
            )
            if (
                not conn.backlog
                and not conn.recovering
                and self.scheme.try_consume_credit(conn)
            ):
                if self._audit is not None:
                    self._audit.on_consume(conn)
                yield from self._await_pool(control=False)
                if req.done:  # dest declared dead during the pool wait
                    return req
                cost = self._emit(conn, header, "ctl", None, control=False)
                op.rts_sent = True
            else:
                self._enqueue_backlog(conn, PendingSend(header, op, self.sim.now))
                cost = self._drain(conn)
        # Opportunistic progress poke: every MPI call advances the engine
        # (as MPICH's ADI does) — without it, a rank that only isends would
        # never see CTSs or credit updates (user-level flow control "relies
        # on communication progress", paper §4.2).  The idle case of
        # ``_poll_once`` is open-coded to skip a sub-generator per send,
        # and the send's CPU cost and the poke's poll run back to back with
        # no state read between them, so one Timeout charges both (the
        # fold rule, DESIGN §5.1).
        yield Timeout(cost + self._t_poll.delay)
        if self.cq._entries or self._ring_dirty:
            yield from self._poll_busy()
        elif self._backlogged:
            cost = self._drain_backlogged()
            if cost:
                yield Timeout(cost)
        return req

    def irecv(
        self,
        source: int = ANY_SOURCE,
        capacity: int = 0,
        tag: int = ANY_TAG,
        buffer_id: Optional[object] = None,
        context: int = WORLD_CONTEXT,
    ) -> Generator:
        """Non-blocking receive; returns a :class:`Request`."""
        if source != ANY_SOURCE:
            self._check_peer(source)
        req = Request(self.sim, "recv")
        if (
            self._ft is not None
            and source != ANY_SOURCE
            and self._ft.fail_if_dead(self, req, source)
        ):
            yield self._t_call
            return req
        yield self._t_call
        posted = PostedRecv(source, tag, context, capacity, req, buffer_id)
        unexpected = self.matching.post_recv(posted)
        # What charges the progress poke's poll below: the poll alone, or
        # — when the call ends in a CPU cost with no state read before the
        # poll — that cost and the poll as one Timeout (as in isend).
        poll = self._t_poll
        if unexpected is not None:
            h = unexpected.header
            if self._audit is not None:
                self._audit.on_match(h)
            if h.kind is MsgKind.EAGER:
                self._check_capacity(h, capacity)
                yield Timeout(self.config.copy_ns(h.size))
                self._complete_recv(req, h.src, h.tag, h.size, h.payload)
                if not h.via_ring:
                    # Ring messages were copied out of their slot, and
                    # counted, at arrival.
                    self.bytes_received += h.size
                    # The message's vbuf was pinned while it sat unexpected;
                    # copy-out releases it now (ring slots were already
                    # freed at arrival).
                    cost = self._repost_after(self.connections[h.src], h.paid)
                    poll = Timeout(cost + poll.delay)
            else:  # RNDV_RTS
                self._check_capacity(h, capacity)
                poll = Timeout(self._rndv_recv_start(h, posted) + poll.delay)
        elif self._ft is not None and source != ANY_SOURCE:
            # nothing arrived yet: the peer's liveness now gates this
            # request, so the failure detector watches it
            self._ft.watch(self, req, source)
        # Open-coded idle _poll_once, as in isend.
        yield poll
        if self.cq._entries or self._ring_dirty:
            yield from self._poll_busy()
        elif self._backlogged:
            cost = self._drain_backlogged()
            if cost:
                yield Timeout(cost)
        return req

    def send(self, dest: int, size: int, **kwargs) -> Generator:
        """Blocking send (MPI_Send): returns once the operation finished
        locally — for eager sends that is the moment the payload is staged
        (buffered semantics); for rendezvous, the end of the handshake."""
        req = yield from self.isend(dest, size, **kwargs)
        yield from self.wait(req)

    def ssend(self, dest: int, size: int, **kwargs) -> Generator:
        """Blocking synchronous send (MPI_Ssend): completes only after the
        receiver has matched the message (forced rendezvous)."""
        req = yield from self.isend(dest, size, mode="sync", **kwargs)
        yield from self.wait(req)

    def issend(self, dest: int, size: int, **kwargs) -> Generator:
        req = yield from self.isend(dest, size, mode="sync", **kwargs)
        return req

    def rsend(self, dest: int, size: int, **kwargs) -> Generator:
        """Blocking ready send (MPI_Rsend): erroneous unless the matching
        receive is already posted at the destination."""
        req = yield from self.isend(dest, size, mode="ready", **kwargs)
        yield from self.wait(req)

    def recv(
        self,
        source: int = ANY_SOURCE,
        capacity: int = 0,
        tag: int = ANY_TAG,
        **kwargs,
    ) -> Generator:
        """Blocking receive; returns the :class:`Status`."""
        req = yield from self.irecv(source, capacity, tag, **kwargs)
        status = yield from self.wait(req)
        return status

    def wait(self, request: Request) -> Generator:
        """Block until ``request`` completes; returns its status."""
        sim = self.sim
        t0 = sim.now
        # Open-coded _progress_until(lambda: request.done): this is the
        # single hottest progress loop and the closure + predicate calls
        # are measurable.  Keep the yield sequence identical to the
        # generic loop — determinism depends on it.
        cq = self.cq
        park = self._park
        park.request = request
        polled = False  # woken by the park with the poll already charged
        while polled or not request.done:
            if not polled:
                if self._halted:
                    yield self._halt_signal  # never fires: this rank is dead
                # Inline idle _poll_once (same yield sequence).
                yield self._t_poll
            if cq._entries or self._ring_dirty:
                yield from self._poll_busy()
            elif self._backlogged:
                cost = self._drain_backlogged()
                if cost:
                    yield Timeout(cost)
            if request.done:
                break
            polled = False
            if not cq._entries and not self._ring_ready():
                polled = (yield park) is None
        self.wait_ns += sim.now - t0
        return request.status

    def waitall(self, requests: List[Request]) -> Generator:
        """Block until every request completes; returns their statuses."""
        t0 = self.now
        # The completion predicate runs after every progress step; a plain
        # ``all(r.done ...)`` rescans the whole window each time, which is
        # O(n²) over a window of n requests (the dominant cost of the
        # non-blocking bandwidth benchmark).  Requests only ever go from
        # pending to done, so tracking the done-prefix makes the total
        # predicate work O(n) without changing its value at any instant.
        n = len(requests)
        prefix = 0

        def all_done() -> bool:
            nonlocal prefix
            i = prefix
            while i < n and requests[i].done:
                i += 1
            prefix = i
            return i == n

        yield from self._progress_until(all_done)
        self.wait_ns += self.now - t0
        return [r.status for r in requests]

    def test(self, request: Request) -> Generator:
        """One progress poke; returns (done, status_or_None)."""
        yield from self._poll_once()
        return (request.done, request.status)

    def iprobe(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG, context: int = WORLD_CONTEXT
    ) -> Generator:
        """Non-blocking probe of the unexpected queue (after one poke)."""
        yield from self._poll_once()
        h = self.matching.iprobe(source, tag, context)
        return None if h is None else Status(h.src, h.tag, h.size)

    def compute(self, ns: int) -> Generator:
        """Model local computation: burn simulated CPU time without
        progressing MPI (this is exactly the application-bypass window)."""
        if ns > 0:
            yield Timeout(int(ns))

    # ------------------------------------------------------------------
    # public API: collectives (thin delegation; see repro.mpi.collectives)
    # ------------------------------------------------------------------
    def barrier(self) -> Generator:
        from repro.mpi import collectives

        yield from collectives.barrier(self)

    def bcast(self, root: int, size: int, payload: Any = None) -> Generator:
        from repro.mpi import collectives

        result = yield from collectives.bcast(self, root, size, payload)
        return result

    def reduce(self, root: int, size: int, value: Any = None, op: Callable = None) -> Generator:
        from repro.mpi import collectives

        result = yield from collectives.reduce(self, root, size, value, op)
        return result

    def allreduce(self, size: int, value: Any = None, op: Callable = None) -> Generator:
        from repro.mpi import collectives

        result = yield from collectives.allreduce(self, size, value, op)
        return result

    def alltoall(self, size_per_peer: int, payloads: Optional[list] = None) -> Generator:
        from repro.mpi import collectives

        result = yield from collectives.alltoall(self, size_per_peer, payloads)
        return result

    def alltoallv(self, sizes: List[int], payloads: Optional[list] = None,
                  recv_sizes: Optional[List[int]] = None) -> Generator:
        from repro.mpi import collectives

        result = yield from collectives.alltoallv(self, sizes, payloads, recv_sizes)
        return result

    def allgather(self, size: int, value: Any = None) -> Generator:
        from repro.mpi import collectives

        result = yield from collectives.allgather(self, size, value)
        return result

    def gather(self, root: int, size: int, value: Any = None) -> Generator:
        from repro.mpi import collectives

        result = yield from collectives.gather(self, root, size, value)
        return result

    def scatter(self, root: int, size: int, values: Optional[list] = None) -> Generator:
        from repro.mpi import collectives

        result = yield from collectives.scatter(self, root, size, values)
        return result

    # ------------------------------------------------------------------
    # finalize
    # ------------------------------------------------------------------
    def finalize(self) -> Generator:
        """Quiesce: wait for all local sends to complete and backlogs to
        drain, then synchronise with every rank.  After finalize, stray
        inbound control traffic parks in posted vbufs without needing this
        rank's attention (no RNR livelock)."""
        yield from self._progress_until(self._locally_quiescent)
        if self._ft is not None:
            # With the failure detector armed, finalize must not world-
            # synchronize: a rank can enter the barrier before a death is
            # declared while another skips it after — an asymmetric hang.
            # ULFM semantics: quiesce locally, never wait on membership.
            self.finalized = True
            return
        yield from self.barrier()
        yield from self._progress_until(self._locally_quiescent)
        self.finalized = True

    def _locally_quiescent(self) -> bool:
        dead = self._ft.dead if self._ft is not None else ()
        return (
            all(
                not c.backlog
                and not c.recovering
                and not c.deferred
                and c.qp.outstanding_sends == 0
                for p, c in self.connections.items()
                if p not in dead  # severed state toward dead peers is frozen
            )
            and not self._rndv_send
            and not self._send_ctx  # every completion polled (pool released)
            and len(self.cq) == 0
        )

    # ------------------------------------------------------------------
    # progress engine
    # ------------------------------------------------------------------
    def _ring_ready(self) -> bool:
        """Any RDMA-ring arrival that is next in its connection's sequence?"""
        if not self._ring_dirty:
            return False
        for peer in self._ring_dirty:
            conn = self.connections[peer]
            ch = conn.rx_channel
            if ch is not None and ch.poll_peek(conn.seq_in_expected):
                return True
        return False

    def _progress_until(self, pred: Callable[[], bool]) -> Generator:
        park = self._park
        park.request, park.pred = None, pred
        polled = False  # woken by the park with the poll already charged
        while polled or not pred():
            if not polled:
                if self._halted:
                    yield self._halt_signal  # never fires: this rank is dead
                yield self._t_poll
            yield from self._after_poll()
            if pred():
                return
            polled = False
            if not self.cq._entries and not self._ring_ready():
                polled = (yield park) is None

    def _poll_once(self) -> Generator:
        """Drain the CQ and the RDMA rings, handling each completion (and
        charging its CPU cost); drains backlogs afterwards.  Idle
        connections cost nothing: only rings flagged dirty by an RDMA
        deposit are examined."""
        if self._halted:
            return  # dead rank: resumed mid-loop by a stale wakeup
        yield self._t_poll
        yield from self._after_poll()

    def _after_poll(self) -> Generator:
        """:meth:`_poll_once` past its poll overhead."""
        # Idle fast path: nothing completed, no ring flagged dirty — the
        # common case for the opportunistic poke every MPI call performs.
        if not self.cq._entries and not self._ring_dirty:
            if self._backlogged:
                cost = self._drain_backlogged()
                if cost:
                    yield Timeout(cost)
            return
        yield from self._poll_busy()

    def _poll_busy(self) -> Generator:
        """The non-idle tail of :meth:`_poll_once` (poll overhead already
        charged by the caller)."""
        if self._halted:
            # A dead rank processes nothing: flushed completions from its
            # errored QPs must not mutate its (frozen) protocol state.
            return
        if self._stall_until > self.sim.now:
            # Fault model: a stalled (descheduled) consumer handles no
            # completions at all — arrivals pile up in the CQ, posted
            # vbufs are consumed and never replenished, and no credits
            # or rendezvous replies leave this rank until the window
            # closes.  This is the paper's slow-receiver stressor: the
            # hardware scheme's sender keeps pushing into the shrinking
            # receive queue and degenerates into RNR timeout storms,
            # while user-level senders park the overflow in the backlog.
            return
        cq = self.cq
        while True:
            progressed = False
            wcs = cq.poll(32) if cq._entries else ()
            for wc in wcs:
                progressed = True
                cost = self._handle_wc(wc)
                if cost:
                    yield Timeout(cost)
            dirty = self._ring_dirty
            if dirty:
                if len(dirty) == 1:
                    peers = tuple(dirty)
                else:
                    # connection-table order keeps multi-peer drains
                    # deterministic (matches the pre-dirty-flag full scan)
                    peers = [p for p in self.connections if p in dirty]
                for peer in peers:
                    conn = self.connections[peer]
                    ch = conn.rx_channel
                    while ch is not None:
                        h = ch.poll(conn.seq_in_expected)
                        if h is None:
                            if not ch.has_arrivals:
                                # fully drained; a blocked head (waiting on
                                # a control message in the CQ path to
                                # advance seq_in_expected) stays dirty
                                dirty.discard(peer)
                            break
                        progressed = True
                        cost = self._handle_ring_eager(conn, h)
                        if conn.cq_stash:
                            # ring progress may unpark overtaking CQ headers
                            cost += self._drain_cq_stash(conn)
                        if cost:
                            yield Timeout(cost)
            if not progressed:
                break
        if self._backlogged:
            cost = self._drain_backlogged()
            if cost:
                yield Timeout(cost)

    def _handle_wc(self, wc: WC) -> int:
        if self._halted:
            # A Timeout scheduled before this rank died can resume its
            # generator mid-CQ-drain, past _poll_busy's entry guard; the
            # remaining completions (now flushes) must not be processed.
            return 0
        if not wc.ok:
            return self._handle_error_wc(wc)
        if wc.is_recv:
            return self._handle_recv(wc)
        return self._handle_send_done(wc)

    # --- errored completions ---------------------------------------------
    def _conn_for_qp(self, qp_num: int) -> Optional[Connection]:
        for conn in self.connections.values():
            if conn.qp.qp_num == qp_num:
                return conn
        return None

    def _reclaim_error_wc(self, wc: WC) -> Optional[tuple]:
        """Undo the local bookkeeping an errored/flushed completion
        invalidates: release the send-pool vbuf for eager/control sends
        and drop the posted-recv count for flushed receives.  Returns the
        popped send context (or None), so the recovery manager can decide
        what to replay."""
        if wc.is_recv:
            conn = self._conn_for_qp(wc.qp_num)
            if conn is not None:
                conn.recv_posted -= 1
            return None
        ctx = self._send_ctx.pop(wc.wr_id, None)
        if ctx is None:
            return None
        if ctx[0] in ("eager", "ctl"):
            self.pool.release()
            if self._audit is not None:
                self._audit.on_send_done(self)
        return ctx

    def _handle_error_wc(self, wc: WC) -> int:
        """A completion with non-success status.  With a recovery manager
        installed this begins (or feeds) a QP-pair re-establishment;
        without one, the job fails promptly with a structured record —
        the pre-recovery behaviour was to leak the vbuf and hang until
        the progress watchdog tripped."""
        if self._ft is not None:
            # Rank death first: an error completion explained by a dead
            # peer is absorbed (and may *be* the detection — transport
            # retry exhaustion against a dead HCA confirms the failure).
            cost = self._ft.on_error_wc(self, wc)
            if cost is not None:
                return cost
        if self._recovery is not None:
            return self._recovery.on_error_wc(self, wc)
        self._reclaim_error_wc(wc)
        from repro.recovery.failures import ConnectionFailedError, ConnectionFailure

        conn = self._conn_for_qp(wc.qp_num)
        peer = conn.peer if conn is not None else wc.peer
        raise ConnectionFailedError(
            ConnectionFailure(
                rank=self.rank,
                peer=peer,
                scheme=self.scheme.name.value,
                epoch=conn.qp.epoch if conn is not None else 0,
                cause=wc.status.value,
                elapsed_ns=self.sim.now,
                attempts=0,
            )
        )

    # --- inbound ---------------------------------------------------------
    def _handle_recv(self, wc: WC) -> int:
        h: Header = wc.data
        conn = self.connections[h.src]
        conn.recv_posted -= 1

        if h.seq != conn.seq_in_expected:
            if conn.rx_channel is not None and h.seq > conn.seq_in_expected:
                # Cross-channel skew: the CQ (send/recv) channel and the
                # RDMA ring share one per-connection sequence space but
                # not one wire, so a control message can overtake an
                # eager write still in flight toward the ring.  Park the
                # header; the ring drain re-dispatches it the moment the
                # gap closes.  The QP itself is FIFO, so appends keep the
                # stash in sequence order.
                conn.cq_stash.append(h)
                return self.config.header_proc_ns
            raise MPIError(
                f"rank {self.rank}: out-of-order delivery from {h.src}: "
                f"seq {h.seq} != expected {conn.seq_in_expected}"
            )
        cost = self._deliver_cq(conn, h)
        if conn.cq_stash:
            cost += self._drain_cq_stash(conn)
        return cost

    def _drain_cq_stash(self, conn: Connection) -> int:
        """Deliver parked CQ headers made in-sequence by ring progress."""
        cost = 0
        while conn.cq_stash and conn.cq_stash[0].seq == conn.seq_in_expected:
            cost += self._deliver_cq(conn, conn.cq_stash.pop(0))
        return cost

    def _deliver_cq(self, conn: Connection, h: Header) -> int:
        """The in-sequence body of :meth:`_handle_recv` (the vbuf's
        ``recv_posted`` decrement already happened at poll time)."""
        cost = self.config.header_proc_ns
        conn.seq_in_expected += 1

        if self._ft is not None:
            # liveness piggyback: any delivery proves the peer is alive
            self._ft.on_heard(self.rank, conn.peer)
        if h.credits:
            self.scheme.on_credits_received(conn, h.credits)
        if self._audit is not None:
            self._audit.on_deliver(conn, h)

        # Dispatch.  ``absorbed`` is False only for unexpected eager data:
        # its payload stays parked in the vbuf until the application posts
        # the matching receive (the vbuf IS the storage — MVICH design),
        # so that buffer cannot be re-posted yet.  This is precisely how a
        # fast sender exhausts a slow receiver (paper §3.2).
        absorbed = True
        if h.kind is MsgKind.EAGER:
            posted = self.matching.arrived(h, self.sim.now)
            if posted is not None:
                if self._audit is not None:
                    self._audit.on_match(h)
                self._check_capacity(h, posted.capacity)
                cost += self.config.copy_ns(h.size)  # vbuf -> user buffer
                self.bytes_received += h.size
                self._complete_recv(posted.request, h.src, h.tag, h.size, h.payload)
            else:
                if h.ready:
                    raise MPIError(
                        f"rank {self.rank}: ready-mode message from {h.src} "
                        f"(tag {h.tag}) arrived with no matching receive "
                        "posted — MPI_Rsend contract violated"
                    )
                absorbed = False  # vbuf pinned until matched
        elif h.kind is MsgKind.RNDV_RTS:
            posted = self.matching.arrived(h, self.sim.now)
            if posted is not None:
                if self._audit is not None:
                    self._audit.on_match(h)
                self._check_capacity(h, posted.capacity)
                cost += self._rndv_recv_start(h, posted)
            # an unexpected RTS is fully parsed here; its vbuf is reusable
        elif h.kind is MsgKind.RNDV_CTS:
            cost += self._handle_cts(conn, h)
        elif h.kind is MsgKind.RNDV_FIN:
            cost += self._handle_fin(h)
        elif h.kind is MsgKind.CREDIT:
            pass  # credits already folded in above
        elif h.kind is MsgKind.RING_RESIZE:
            # switch the sender half to the peer's next-generation ring
            conn.tx_ring_addr = h.remote_addr
            conn.tx_ring_rkey = h.rkey
            conn.tx_ring_slots = h.size
            conn.tx_ring_next = 0
        else:  # pragma: no cover - exhaustive
            raise MPIError(f"unknown message kind {h.kind}")

        if absorbed:
            cost += self._repost_after(conn, h.paid)

        # Feedback hook (dynamic growth); charges posting of new buffers.
        if self._audit is not None:
            grown = self._audit.observe_recv_header(self.scheme, conn, h)
        else:
            grown = self.scheme.on_recv_header(conn, h)
        if grown:
            cost += grown * self.config.post_overhead_ns
            if self.scheme.should_send_ecm(conn):
                cost += self._emit_ecm(conn)

        if conn.backlog:
            cost += self._drain(conn)
        return cost

    def _repost_after(self, conn: Connection, paid: bool) -> int:
        """Re-post a vbuf whose message has been fully processed, granting
        the credit back for paid messages (unpaid traffic occupies the
        non-credited headroom — see protocol.Header.paid).

        The grant is decoupled from the physical repost: if dynamic growth
        already refilled the population while this message's vbuf was
        pinned in the unexpected queue, the buffer was replaced but the
        paid credit must still return.  Only an *over*-full population
        (decay contraction) swallows the credit.

        During a fault-injected receiver stall the vbuf stays consumed and
        the paid credit is withheld; :meth:`fault_release_stall` settles
        both once the window closes.
        """
        if self._stall_until > self.sim.now:
            if paid:
                self._stall_held[conn.peer] = self._stall_held.get(conn.peer, 0) + 1
            self.tracer.count("faults.stall_deferred", conn.peer)
            return self._drain(conn) if conn.backlog else 0
        cost = 0
        if conn.rdma_eager:
            # Ring mode: the WQE population is the fixed control reserve,
            # disjoint from the credit population (ring slots).  A paid
            # credit here rode a control-channel message (a rendezvous
            # RTS borrowing a slot token) and always returns — the ring
            # never decay-contracts, so there is no swallow case, and the
            # slot-count cap must not be compared against WQE counts.
            if conn.recv_posted < self.config.rdma_control_bufs:
                self._post_recv_vbuf(conn)
                cost += self.config.post_overhead_ns
            if paid:
                conn.pending_credit_return += 1
                if self._audit is not None:
                    self._audit.on_grant(conn, 1)
                if self.scheme.should_send_ecm(conn):
                    cost += self._emit_ecm(conn)
            if conn.backlog:
                cost += self._drain(conn)
            return cost
        cap = conn.prepost_target + conn.headroom
        reposted = False
        if conn.recv_posted < cap:
            self._post_recv_vbuf(conn)
            cost += self.config.post_overhead_ns
            reposted = True
        if paid:
            if reposted or conn.recv_posted == cap:
                conn.pending_credit_return += 1
                if self._audit is not None:
                    self._audit.on_grant(conn, 1)
                if self.scheme.should_send_ecm(conn):
                    cost += self._emit_ecm(conn)
            elif self._audit is not None:
                # over-full population after a decay contraction: the
                # credit is swallowed (see the docstring above)
                self._audit.on_swallow(conn)
        if conn.backlog:
            cost += self._drain(conn)
        return cost

    def _handle_cts(self, conn: Connection, h: Header) -> int:
        op = self._rndv_send.get(h.sreq_id)
        if op is None:
            raise MPIError(f"rank {self.rank}: CTS for unknown sreq {h.sreq_id}")
        op.cts_seen = True
        op.fin_rreq_id = h.rreq_id
        op.cts_remote_addr = h.remote_addr
        op.cts_rkey = h.rkey
        if op.fallback:
            conn.fallback_inflight -= 1
        ctx_id = next(self._ctx_ids)
        self._send_ctx[ctx_id] = ("rdma", conn, op, None)
        conn.qp.post_send(
            SendWR(
                wr_id=ctx_id,
                opcode=Opcode.RDMA_WRITE,
                length=op.size,
                payload=op.payload,
                remote_addr=h.remote_addr,
                rkey=h.rkey,
            )
        )
        conn.stats.msgs_sent += 1
        conn.stats.data_msgs_sent += 1
        cost = self.config.post_overhead_ns
        if op.bounce:
            cost += self.config.copy_ns(op.size)  # stage into pinned scratch
        return cost

    def _handle_fin(self, h: Header) -> int:
        op = self._rndv_recv.pop(h.rreq_id, None)
        if op is None:
            raise MPIError(f"rank {self.rank}: FIN for unknown rreq {h.rreq_id}")
        payload = op.mr.load(op.landing_addr)
        cost = 0
        if op.bounce:
            cost += self.config.copy_ns(op.size)  # bounce slot -> user buffer
        else:
            cost += self.pindown.release(op.buffer_id, op.mr)
        self.bytes_received += op.size
        self._complete_recv(op.request, op.src, op.tag, op.size, payload)
        return cost

    # --- outbound completions --------------------------------------------
    def _handle_send_done(self, wc: WC) -> int:
        ctx = self._send_ctx.pop(wc.wr_id, None)
        if ctx is None:
            raise MPIError(f"rank {self.rank}: completion for unknown ctx {wc.wr_id}")
        kind, conn, ref = ctx[0], ctx[1], ctx[2]
        cost = 0
        if kind == "ring":
            pass  # no vbuf was consumed; the request completed at emission
        elif kind in ("eager", "ctl"):
            self.pool.release()
            if self._audit is not None:
                self._audit.on_send_done(self)
        elif kind == "rdma":
            op: RndvSendOp = ref
            op.data_done = True
            cost += self._emit_fin(conn, op)
            if op.mr is not None:
                cost += self.pindown.release(op.buffer_id, op.mr)
            del self._rndv_send[op.sreq_id]
            op.request.complete(Status())
        else:  # pragma: no cover
            raise MPIError(f"unknown send ctx kind {kind}")
        return cost

    # ------------------------------------------------------------------
    # emission paths
    # ------------------------------------------------------------------
    def _pool_ok(self, control: bool) -> bool:
        floor = 0 if control else CONTROL_RESERVE
        return self.pool.free > floor

    def _await_pool(self, control: bool) -> Generator:
        while not self._pool_ok(control):
            yield from self._progress_until(lambda: self._pool_ok(control))

    def _emit(
        self,
        conn: Connection,
        header: Header,
        ctx_kind: str,
        ref: Any,
        control: bool,
    ) -> int:
        """Stage a protocol message into a vbuf and post it.  The caller
        must have verified pool availability (``_pool_ok``).  Returns CPU
        cost."""
        if self._halted or (self._ft is not None and conn.peer in self._ft.dead):
            # A dead rank emits nothing; toward a dead peer there is no
            # one to emit to (the QP is in ERROR — post_send would raise).
            # Any request this message carried was already completed with
            # PROC_FAILED by the failure manager.
            return 0
        if conn.recovering:
            # QP pair mid-re-establishment: park the emission (no vbuf, no
            # sequence number) — the manager re-emits deferred messages
            # FIFO after the un-acked replays once the QP re-arms.
            conn.deferred.append((header, ctx_kind, ref, control))
            return 0
        if not self.pool.try_acquire():
            raise MPIError(f"rank {self.rank}: vbuf pool exhausted (control reserve breached)")
        piggy = conn.take_piggyback_credits()
        header.credits += piggy
        header.seq = conn.next_seq()
        ctx_id = next(self._ctx_ids)
        self._send_ctx[ctx_id] = (ctx_kind, conn, ref, header)
        cfg = self.config
        eager = header.kind is MsgKind.EAGER
        wire = cfg.header_bytes + header.size if eager else cfg.header_bytes
        conn.qp.post_send(
            SendWR(wr_id=ctx_id, opcode=Opcode.SEND, length=wire, payload=header)
        )
        conn.stats.msgs_sent += 1
        cost = cfg.post_overhead_ns
        if eager:
            conn.stats.data_msgs_sent += 1
            cost += cfg.copy_ns(header.size)  # user -> vbuf copy
            if ref is not None:
                # Buffered-send semantics: the user buffer is reusable the
                # moment the payload is staged into the vbuf, so the send
                # request completes at emission (not at the ACK).  A send
                # that had to wait in the backlog therefore blocks its
                # MPI_Send until credits/handshake let it out — which is
                # exactly how blocking tests "get more credits through the
                # handshaking procedure" (paper §6.2.2).
                ref.complete(Status())
        if header.kind is MsgKind.CREDIT:
            conn.stats.ecm_sent += 1
            conn.stats.ecm_credits += header.credits
        else:
            conn.stats.piggybacked_credits += piggy
            if not eager:
                # Control-plane send (RTS/CTS/FIN/RING_RESIZE): counted
                # apart from data so the Figure-8 control-overhead split
                # doesn't attribute handshake traffic to data messages.
                conn.stats.ctl_msgs_sent += 1
        if self._audit is not None:
            self._audit.on_emit(conn, header, ctx_kind)
        return cost

    def _replay_emit(self, conn: Connection, header: Header, ctx_kind: str, ref: Any) -> int:
        """Re-post one un-acked protocol message after QP re-establishment
        (recovery manager only).  Unlike :meth:`_emit` the header keeps its
        original sequence number (the receiver never consumed it), carries
        no credits (pre-fault piggybacked grants are re-minted by the
        resync), and never re-completes the request — eager requests
        completed at first emission."""
        if not self.pool.try_acquire():
            raise MPIError(
                f"rank {self.rank}: vbuf pool exhausted during recovery replay"
            )
        header.credits = 0
        ctx_id = next(self._ctx_ids)
        self._send_ctx[ctx_id] = (ctx_kind, conn, ref, header)
        cfg = self.config
        eager = header.kind is MsgKind.EAGER
        wire = cfg.header_bytes + header.size if eager else cfg.header_bytes
        conn.qp.post_send(
            SendWR(wr_id=ctx_id, opcode=Opcode.SEND, length=wire, payload=header)
        )
        cost = cfg.post_overhead_ns
        if eager:
            cost += cfg.copy_ns(header.size)  # user -> vbuf staging again
        if self._audit is not None:
            self._audit.on_emit(conn, header, ctx_kind, replay=True)
        return cost

    def _replay_rdma(self, conn: Connection, op: RndvSendOp) -> int:
        """Re-post a flushed rendezvous RDMA write (recovery manager only).
        Idempotent at the receiver: the landing coordinates from the CTS
        are stable and ``mr.store`` overwrites in place."""
        ctx_id = next(self._ctx_ids)
        self._send_ctx[ctx_id] = ("rdma", conn, op, None)
        conn.qp.post_send(
            SendWR(
                wr_id=ctx_id,
                opcode=Opcode.RDMA_WRITE,
                length=op.size,
                payload=op.payload,
                remote_addr=op.cts_remote_addr,
                rkey=op.cts_rkey,
            )
        )
        return self.config.post_overhead_ns

    def _replay_ring(self, conn: Connection, header: Header) -> int:
        """Re-write a flushed ring eager message after QP re-establishment
        (recovery manager only).  The receiver's ring was re-established
        empty at slot 0, so replays land in the fresh ring in their
        original order; like :meth:`_replay_emit` the header keeps its
        original sequence number, carries no credits, and never
        re-completes the request."""
        header.credits = 0
        ctx_id = next(self._ctx_ids)
        self._send_ctx[ctx_id] = ("ring", conn, None, header)
        conn.qp.post_send(
            SendWR(
                wr_id=ctx_id,
                opcode=Opcode.RDMA_WRITE,
                length=self.config.header_bytes + header.size,
                payload=header,
                remote_addr=conn.next_ring_addr(),
                rkey=conn.tx_ring_rkey,
            )
        )
        if self._audit is not None:
            self._audit.on_emit(conn, header, "ring", replay=True)
        return self.config.post_overhead_ns + self.config.copy_ns(header.size)

    def _emit_ring(self, conn: Connection, header: Header, req) -> int:
        """Write an eager message into the peer's RDMA ring (no vbuf, no
        remote WQE).  Buffered-send semantics: the request completes at
        emission."""
        if self._halted or (self._ft is not None and conn.peer in self._ft.dead):
            return 0  # see _emit: dead rank / dead peer, nothing to post
        if conn.recovering:
            # Same parking rule as _emit: no slot, no sequence number; the
            # recovery manager re-emits deferred ring writes FIFO after
            # the un-acked replays once the fresh ring is wired.
            conn.deferred.append((header, "ring", req, False))
            return 0
        piggy = conn.take_piggyback_credits()
        header.credits += piggy
        header.seq = conn.next_seq()
        header.via_ring = True
        ctx_id = next(self._ctx_ids)
        self._send_ctx[ctx_id] = ("ring", conn, None, header)
        conn.qp.post_send(
            SendWR(
                wr_id=ctx_id,
                opcode=Opcode.RDMA_WRITE,
                length=self.config.header_bytes + header.size,
                payload=header,
                remote_addr=conn.next_ring_addr(),
                rkey=conn.tx_ring_rkey,
            )
        )
        conn.stats.msgs_sent += 1
        conn.stats.data_msgs_sent += 1
        conn.stats.piggybacked_credits += piggy
        if req is not None:
            req.complete(Status())
        if self._audit is not None:
            self._audit.on_emit(conn, header, "ring")
        return self.config.post_overhead_ns + self.config.copy_ns(header.size)

    def _handle_ring_eager(self, conn: Connection, h: Header) -> int:
        """Process one in-sequence arrival from the RDMA eager ring.

        Unlike the send/recv channel, unexpected ring messages are copied
        out of the slot immediately (the [13] design — rings must free in
        order), so the slot credit returns at processing time either way.
        """
        cost = self.config.rdma_poll_ns + self.config.header_proc_ns
        conn.seq_in_expected += 1
        if self._ft is not None:
            # liveness piggyback: any ring arrival proves the peer alive
            self._ft.on_heard(self.rank, conn.peer)
        if h.credits:
            self.scheme.on_credits_received(conn, h.credits)
        if self._audit is not None:
            self._audit.on_deliver(conn, h)

        cost += self.config.copy_ns(h.size)  # slot -> user/temp copy
        self.bytes_received += h.size
        posted = self.matching.arrived(h, self.sim.now)
        if posted is not None:
            if self._audit is not None:
                self._audit.on_match(h)
            self._check_capacity(h, posted.capacity)
            self._complete_recv(posted.request, h.src, h.tag, h.size, h.payload)
        elif h.ready:
            raise MPIError(
                f"rank {self.rank}: ready-mode message from {h.src} arrived "
                "with no matching receive posted"
            )

        # The slot itself is free the moment the copy-out lands (even when
        # a fault stall withholds the *credit* below).
        self._free_ring_slot(conn, h)

        # slot freed -> credit grant (withheld while a fault stall is on)
        if self._stall_until > self.sim.now:
            self._stall_held[conn.peer] = self._stall_held.get(conn.peer, 0) + 1
            self.tracer.count("faults.stall_deferred", conn.peer)
        else:
            conn.pending_credit_return += 1
            if self._audit is not None:
                self._audit.on_grant(conn, 1)
            if self.scheme.should_send_ecm(conn):
                cost += self._emit_ecm(conn)

        # dynamic growth: the two-sided resize (paper §7)
        if self._audit is not None:
            self._audit.observe_recv_header(self.scheme, conn, h)
        else:
            self.scheme.on_recv_header(conn, h)
        ch = conn.rx_channel
        if conn.prepost_target > ch.ring.slots:
            ring = ch.grow(conn.prepost_target)
            ring.mr.on_write = lambda addr, payload, c=ch: c.deposit(payload)
            resize = Header(
                kind=MsgKind.RING_RESIZE,
                src=self.rank,
                dst=conn.peer,
                size=ring.slots,
                remote_addr=ring.mr.addr,
                rkey=ring.mr.rkey,
                paid=False,
            )
            cost += self._emit(conn, resize, "ctl", None, control=True)

        if conn.backlog:
            cost += self._drain(conn)
        return cost

    def _free_ring_slot(self, conn: Connection, h: Header) -> None:
        """Reclaim ``h``'s ring slot after its copy-out.  Distinct from
        the credit *grant*: a fault stall withholds the grant but never
        the slot (the bytes have left the ring either way)."""
        if self._audit is not None:
            self._audit.on_ring_free(conn.rx_channel, h)

    def _emit_ecm(self, conn: Connection) -> int:
        """Explicit credit message — optimistic, never flow-controlled
        (the paper's deadlock-avoidance scheme)."""
        ecm = Header(
            kind=MsgKind.CREDIT, src=self.rank, dst=conn.peer, paid=False
        )
        return self._emit(conn, ecm, "ctl", None, control=True)

    def _emit_fin(self, conn: Connection, op: RndvSendOp) -> int:
        fin = Header(
            kind=MsgKind.RNDV_FIN,
            src=self.rank,
            dst=conn.peer,
            rreq_id=op.fin_rreq_id,
            paid=False,
        )
        return self._emit(conn, fin, "ctl", None, control=True)

    # ------------------------------------------------------------------
    # backlog / flow-control plumbing
    # ------------------------------------------------------------------
    def _enqueue_backlog(self, conn: Connection, pending: PendingSend) -> None:
        conn.backlog.append(pending)
        if self._audit is not None:
            self._audit.on_backlog_enqueue(conn, pending.header)
        conn.stats.backlogged += 1
        if pending.header.kind is not MsgKind.EAGER:
            conn.stats.ctl_backlogged += 1
        depth = len(conn.backlog)
        if depth > conn.stats.backlog_max:
            conn.stats.backlog_max = depth
        self._backlogged.add(conn.peer)

    def _drain_backlogged(self) -> int:
        cost = 0
        for peer in list(self._backlogged):
            cost += self._drain(self.connections[peer])
        return cost

    def _drain(self, conn: Connection) -> int:
        """Process the backlog FIFO: send while credits allow; with zero
        credits, push the head through the rendezvous fallback (one
        handshake at a time per connection)."""
        if conn.recovering:
            return 0  # stale credit state; the resync re-drains
        if self._halted or (self._ft is not None and conn.peer in self._ft.dead):
            return 0  # dead rank / dead peer: nothing drains (see _emit)
        cost = 0
        # Credit-less schemes only ever backlog while a connection is
        # recovering; their drain gate is the vbuf pool alone (there are
        # no credits to wait for, and no fallback to convert to).
        while (
            conn.backlog
            and (conn.credits > 0 or not self.scheme.uses_credits)
            and self._pool_ok(control=False)
        ):
            if not self.scheme.try_consume_credit(conn):  # pragma: no cover
                break
            p = conn.backlog.popleft()
            if self._audit is not None:
                self._audit.on_consume(conn)
                self._audit.on_backlog_dequeue(conn, p.header)
            p.header.went_backlog = True
            conn.stats.credit_stalled_ns += self.sim.now - p.enqueue_ns
            if p.header.kind is MsgKind.EAGER:
                if conn.rdma_eager:
                    cost += self._emit_ring(conn, p.header, p.request)
                else:
                    cost += self._emit(conn, p.header, "eager", p.request, control=False)
            else:  # RNDV_RTS
                cost += self._emit(conn, p.header, "ctl", None, control=False)
                p.request.rts_sent = True  # p.request is the RndvSendOp
        while (
            conn.backlog
            and conn.credits == 0
            and self.scheme.allows_rndv_fallback
            and conn.fallback_inflight < self.scheme.fallback_window
            and self._pool_ok(control=True)
        ):
            p = conn.backlog.popleft()
            if self._audit is not None:
                # the fallback mints a fresh unpaid RTS; the dequeued
                # header itself is never emitted
                self._audit.on_backlog_dequeue(conn, p.header, reemitted=False)
            cost += self._start_fallback(conn, p)
        if not conn.backlog:
            self._backlogged.discard(conn.peer)
        return cost

    def _start_fallback(self, conn: Connection, p: PendingSend) -> int:
        """Convert the head of the backlog to an optimistic rendezvous
        (paper §4.2: with no credits, only Rendezvous is used — its
        handshake refreshes credit state via piggybacking)."""
        conn.fallback_inflight += 1
        conn.stats.rndv_fallbacks += 1
        conn.stats.credit_stalled_ns += self.sim.now - p.enqueue_ns
        h = p.header
        if h.kind is MsgKind.EAGER:
            op = RndvSendOp(
                sreq_id=next_op_id(),
                request=p.request,
                dst=h.dst,
                tag=h.tag,
                context=h.context,
                size=h.size,
                payload=h.payload,
                buffer_id=None,
                mr=None,
                bounce=True,
                fallback=True,
            )
            self._rndv_send[op.sreq_id] = op
        else:  # an RTS that was itself backlogged: send it unpaid
            op = p.request
            op.fallback = True
        rts = Header(
            kind=MsgKind.RNDV_RTS,
            src=self.rank,
            dst=conn.peer,
            tag=h.tag,
            context=h.context,
            size=h.size,
            sreq_id=op.sreq_id,
            paid=False,
            went_backlog=True,
        )
        op.rts_sent = True
        return self._emit(conn, rts, "ctl", None, control=True)

    # ------------------------------------------------------------------
    # rendezvous receiver side
    # ------------------------------------------------------------------
    def _rndv_recv_start(self, h: Header, posted: PostedRecv) -> int:
        conn = self.connections[h.src]
        bounce = h.size <= self.config.eager_max()
        cost = 0
        if bounce:
            mr = self.bounce.mr
            addr = self.bounce.next_slot()
        else:
            mr, pin_cost = self.pindown.acquire(posted.buffer_id, h.size)
            addr = mr.addr
            cost += pin_cost
        op = RndvRecvOp(
            rreq_id=next_op_id(),
            request=posted.request,
            src=h.src,
            tag=h.tag,
            context=h.context,
            size=h.size,
            buffer_id=posted.buffer_id,
            mr=mr,
            landing_addr=addr,
            bounce=bounce,
        )
        self._rndv_recv[op.rreq_id] = op
        cts = Header(
            kind=MsgKind.RNDV_CTS,
            src=self.rank,
            dst=h.src,
            size=h.size,
            sreq_id=h.sreq_id,
            rreq_id=op.rreq_id,
            remote_addr=addr,
            rkey=mr.rkey,
            paid=False,
        )
        op.cts_sent = True
        cost += self._emit(conn, cts, "ctl", None, control=True)
        return cost

    # ------------------------------------------------------------------
    # fault-injection hooks (driven by repro.faults.FaultInjector)
    # ------------------------------------------------------------------
    def halt(self) -> None:
        """Fault hook (rank death): freeze this rank's program for good.
        The progress loops park on a signal that never fires, stray
        timer-driven resumptions fall through emission guards, and no
        state mutates after this point — the rank is simply gone."""
        from repro.sim import Signal

        self._halted = True
        if self._halt_signal is None:
            self._halt_signal = Signal(f"halted.{self.rank}")

    def fault_stall(self, duration_ns: int) -> None:
        """Start (or extend) a receiver-stall window: the rank stops
        re-posting vbufs and withholds paid credit returns, modelling a
        slow consumer that starves the sender (paper §3.2 / Figure 10)."""
        until = self.sim.now + int(duration_ns)
        if until > self._stall_until:
            self._stall_until = until

    def fault_release_stall(self) -> int:
        """End of a stall window: refill every connection's buffer
        population and return the withheld credits, announcing them with an
        ECM so credit-blocked senders wake promptly.  Returns the number of
        credits released (0 if a longer overlapping stall is still open)."""
        if self._stall_until > self.sim.now:
            return 0
        held, self._stall_held = self._stall_held, {}
        released = 0
        for peer in sorted(self.connections):
            conn = self.connections[peer]
            conn.refill_recv_buffers()
            paid = held.get(peer, 0)
            if paid:
                conn.pending_credit_return += paid
                if self._audit is not None:
                    self._audit.on_grant(conn, paid)
                released += paid
                self.tracer.count("faults.stall_released", peer, paid)
            if (
                conn.pending_credit_return
                and self.scheme.uses_credits
                and self._pool_ok(control=True)
            ):
                self._emit_ecm(conn)
        return released

    # ------------------------------------------------------------------
    # misc helpers
    # ------------------------------------------------------------------
    def _complete_recv(self, req: Request, src: int, tag: int, size: int, payload: Any) -> None:
        req.complete(Status(source=src, tag=tag, size=size, payload=payload))

    def _check_peer(self, peer: int) -> None:
        if peer == self.rank:
            raise MPIError("self-sends are not supported by this device")
        if not 0 <= peer < self.world_size:
            raise MPIError(f"rank {peer} outside the world of {self.world_size}")
        if peer not in self.connections and self._connector is None:
            raise MPIError(f"rank {self.rank} has no connection to {peer}")

    def _ensure_connected(self, dest: int) -> Generator:
        """Return the connection to ``dest``, establishing it on demand
        when the cluster runs with lazy connection management (the send
        blocks for the CM exchange, as in MVAPICH's on-demand mode)."""
        conn = self.connections.get(dest)
        if conn is None:
            sig = self._connector(self, dest)
            if not sig.fired:
                yield sig
            conn = self.connections[dest]
        return conn

    @staticmethod
    def _check_capacity(h: Header, capacity: int) -> None:
        if capacity and h.size > capacity:
            raise TruncationError(
                f"message of {h.size} bytes into a {capacity}-byte receive"
            )

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Endpoint rank={self.rank}/{self.world_size}>"
