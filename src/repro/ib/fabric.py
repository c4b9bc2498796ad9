"""The wire: host links, switches, and contention.

Topology matches the paper's testbed by default: every node's HCA connects
by one 4X link to a single InfiniScale-style crossbar (8 ports there; any
port count here).  :class:`~repro.ib.fattree.FatTreeFabric` scales past one
switch by naming the *interior* links a route crosses (:meth:`path_links`);
the crossbar is the tree with none.  Both run the one :meth:`Fabric.transmit`.
The model is *virtual cut-through* at message granularity:

* each unidirectional link keeps a ``busy_until`` time; a message reserves
  the link FIFO-fashion for its serialisation time ``wire_bytes / rate``;
* every switch adds a fixed pipeline delay per traversal;
* the message's last byte reaches the destination HCA at
  ``max(output-port free, head arrival) + serialisation``.

Acknowledgements and NAKs travel the same fixed-latency path but, being a
few dozen bytes, are not charged link occupancy (they ride header gaps),
which keeps the event count per message low.

Same-node traffic (two ranks per node in the 16-process runs) takes an HCA
loopback path: no switch hop, bandwidth limited by the host bus.
"""

from __future__ import annotations

from bisect import insort
from collections import defaultdict, deque
from heapq import heappush
from typing import Any, Callable, Deque, Dict, Optional, Tuple

from repro.ib.types import IBConfig
from repro.sim import Simulator
from repro.sim.engine import _MASK, _SHIFT
from repro.sim.trace import Tracer
from repro.sim.units import transfer_ns


class FabricError(RuntimeError):
    pass


class _DeliveryTrain:
    """Burst-batched data deliveries to one destination LID.

    The fabric still assigns every in-flight message its exact
    ``(arrival, seq)`` key at transmit time, but only the *head* of this
    FIFO occupies an agenda entry; when it fires, the next message re-arms
    the agenda under its own original key.  Execution is therefore
    bit-identical to scheduling each message individually — same events,
    same count, same ``(time, seq)`` order — while agenda occupancy per
    destination drops from one entry per in-flight message to one per
    train.  Messages whose arrival would break the FIFO's monotonicity
    (a fault window adding latency, loopback traffic interleaved with
    switched traffic) split the burst and take a direct agenda entry
    instead (see :meth:`Fabric._enqueue_data`).
    """

    __slots__ = ("sim", "deliver", "q", "fire")

    def __init__(self, sim: Simulator, deliver: Callable):
        self.sim = sim
        self.deliver = deliver
        self.q: Deque[tuple] = deque()  # (arrival, seq, message), armed iff non-empty
        self.fire = self._fire  # prebound: re-armed once per delivery

    def _fire(self) -> None:
        q = self.q
        message = q.popleft()[2]
        # Re-arm before delivering: the delivery callback can transmit new
        # messages, and the armed-iff-non-empty invariant must hold then.
        if q:
            head = q[0]
            t = head[0]
            sim = self.sim
            entry = (t, head[1], self.fire, ())
            idx = t >> _SHIFT
            if idx <= sim._cur:
                insort(sim._active, entry, sim._head)
                sim._count += 1
            elif idx < sim._limit:
                sim._buckets[idx & _MASK].append(entry)
                sim._count += 1
            else:
                heappush(sim._over, entry)
        self.deliver(message)


class _ControlTrain:
    """Burst-batched control deliveries (ACK/NAK/credit) to one LID —
    same original-key re-arming scheme as :class:`_DeliveryTrain`, but
    each queued packet carries its own callback."""

    __slots__ = ("sim", "q", "fire")

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.q: Deque[tuple] = deque()  # (arrival, seq, callback, args)
        self.fire = self._fire

    def _fire(self) -> None:
        q = self.q
        _, _, callback, args = q.popleft()
        if q:
            head = q[0]
            t = head[0]
            sim = self.sim
            entry = (t, head[1], self.fire, ())
            idx = t >> _SHIFT
            if idx <= sim._cur:
                insort(sim._active, entry, sim._head)
                sim._count += 1
            elif idx < sim._limit:
                sim._buckets[idx & _MASK].append(entry)
                sim._count += 1
            else:
                heappush(sim._over, entry)
        callback(*args)


class Fabric:
    """Single-switch IBA subnet with per-link FIFO contention — and, through
    :meth:`path_links`, the shared transmit of every topology."""

    def __init__(self, sim: Simulator, config: IBConfig, tracer: Optional[Tracer] = None):
        self.sim = sim
        self.config = config
        self.tracer = tracer or Tracer(enabled=False)
        # busy_until per unidirectional host link, keyed by LID
        self._up_busy: Dict[int, int] = {}
        self._down_busy: Dict[int, int] = {}
        #: busy_until per interior link (empty on the crossbar)
        self._link_busy: Dict[tuple, int] = defaultdict(int)
        # data messages per link: host links per LID, interior per key
        self._hup_msgs: Dict[int, int] = {}
        self._down_msgs: Dict[int, int] = {}
        self._link_msgs: Dict[tuple, int] = defaultdict(int)
        self._lids: Dict[int, Any] = {}  # lid -> HCA (deliver target)
        # Per-destination burst trains: one armed agenda entry per train
        # instead of one per in-flight message (see _DeliveryTrain).
        self._trains: Dict[int, _DeliveryTrain] = {}
        self._ctrains: Dict[int, _ControlTrain] = {}
        # Timing caches.  A fabric is built per job from a frozen view of
        # the config (nothing mutates IBConfig once traffic flows), routes
        # are static, and real workloads reuse a handful of message sizes
        # thousands of times, so each lookup below is one dict hit.
        self._ser_cache: Dict[int, tuple] = {}  # payload -> (wire, ser)
        self._lo_cache: Dict[int, int] = {}  # payload -> loopback ser
        self._paths: Dict[Tuple[int, int], tuple] = {}  # (src, dst) -> links
        self._ctrl_ns: Dict[Tuple[int, int], int] = {}  # (src, dst) -> ns
        #: Optional :class:`repro.faults.injector.FabricFaultState`.  Left
        #: ``None`` on healthy runs so the hot path pays one identity check.
        self.fault = None
        #: Optional :class:`repro.congestion.CongestionState`.  When armed,
        #: transmits route through per-egress-port queues (PFC/ECN) instead
        #: of the busy-until path math below; ``None`` (the default) keeps
        #: the baseline model bit-identical at the cost of one check.
        self.congestion = None
        # observability
        self.messages_sent = 0
        self.payload_bytes = 0
        self.wire_bytes = 0
        self.control_msgs = 0

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    def attach(self, lid: int, hca: Any) -> None:
        """Connect an HCA at ``lid``.  The HCA must expose
        ``_deliver(message)`` for inbound traffic."""
        if lid in self._lids:
            raise FabricError(f"LID {lid} already attached")
        self._lids[lid] = hca
        self._trains[lid] = _DeliveryTrain(self.sim, hca._deliver)
        self._ctrains[lid] = _ControlTrain(self.sim)
        self._up_busy[lid] = 0
        self._down_busy[lid] = 0
        self._hup_msgs[lid] = 0
        self._down_msgs[lid] = 0

    def hca_at(self, lid: int) -> Any:
        try:
            return self._lids[lid]
        except KeyError:
            raise FabricError(f"no HCA at LID {lid}") from None

    def path_links(self, src_lid: int, dst_lid: int) -> tuple:
        """The interior links a ``src→dst`` data message traverses, as
        stable keys in traversal order (memoized: routes are static).
        Host links are not included; they are per-endpoint, keyed by LID
        alone.  Empty for loopback traffic — and always on the crossbar,
        where both host links meet at the one switch."""
        key = (src_lid, dst_lid)
        path = self._paths.get(key)
        if path is None:
            path = self._paths[key] = self._build_links(src_lid, dst_lid)
        return path

    def _build_links(self, src_lid: int, dst_lid: int) -> tuple:
        return ()

    @property
    def link_msgs(self) -> Dict[tuple, int]:
        """Data messages per traversed link: ``("hup", lid)`` host→switch,
        ``("down", lid)`` switch→host, and the interior keys of
        :meth:`path_links`.  Loopback traffic crosses no link; congested
        traffic is counted by :mod:`repro.congestion`'s port queues."""
        msgs = {("hup", lid): n for lid, n in self._hup_msgs.items() if n}
        msgs.update((("down", lid), n) for lid, n in self._down_msgs.items() if n)
        msgs.update(self._link_msgs)
        return msgs

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------
    def _enqueue_data(self, dst_lid: int, arrival: int, message: Any) -> None:
        """Hand a data message to ``dst_lid``'s delivery train (or split
        the burst with a direct agenda entry when ``arrival`` breaks the
        train's FIFO monotonicity).  The message's ``(arrival, seq)`` key
        is fixed here, when the transmit is resolved, whichever path it
        takes."""
        sim = self.sim
        seq = sim._seq = sim._seq + 1
        train = self._trains[dst_lid]
        q = train.q
        if q and arrival >= q[-1][0]:
            q.append((arrival, seq, message))
            return
        if q:
            # burst split: out-of-order arrival goes straight to the agenda
            entry = (arrival, seq, train.deliver, (message,))
        else:
            q.append((arrival, seq, message))
            entry = (arrival, seq, train.fire, ())
        idx = arrival >> _SHIFT
        if idx <= sim._cur:
            insort(sim._active, entry, sim._head)
            sim._count += 1
        elif idx < sim._limit:
            sim._buckets[idx & _MASK].append(entry)
            sim._count += 1
        else:
            heappush(sim._over, entry)

    def transmit(
        self, src_lid: int, dst_lid: int, payload_bytes: int, message: Any, at: int
    ) -> int:
        """Inject a message onto the wire at time ``at`` (``>= now``);
        returns (and schedules delivery at) the arrival time of its last
        byte at the destination HCA.

        The source HCA calls this when it takes the WQE, ``at`` being the
        instant its doorbell, WQE fetch and DMA start-up end.  Only
        transmits read or write the link horizons, and every adapter
        resolves its injections the same fixed time early, so they resolve
        in the order they inject (DESIGN §5.1).  Fault windows and
        congestion queues change over time, so while either is armed the
        HCA defers the call to ``at`` itself.
        """
        cfg = self.config
        if dst_lid not in self._lids:
            raise FabricError(f"no HCA at LID {dst_lid}")
        self.messages_sent += 1
        if payload_bytes > 0:
            self.payload_bytes += payload_bytes

        if src_lid == dst_lid:
            # HCA-internal loopback: no switch, host-bus limited.
            try:
                ser = self._lo_cache[payload_bytes]
            except KeyError:
                ser = self._lo_cache[payload_bytes] = transfer_ns(
                    cfg.wire_bytes(payload_bytes), cfg.pci_bytes_per_ns)
            arrival = at + cfg.loopback_ns + ser
            self._enqueue_data(dst_lid, arrival, message)
            return arrival

        extra = 0
        fault = self.fault
        if fault is not None:
            verdict = fault.on_data(src_lid, dst_lid, payload_bytes)
            if verdict is None:
                return at  # lost on the wire: never reaches the far HCA
            extra, scale = verdict
        else:
            scale = 0

        try:
            wire, ser = self._ser_cache[payload_bytes]
        except KeyError:
            wire = cfg.wire_bytes(payload_bytes)
            ser = transfer_ns(wire, cfg.effective_bytes_per_ns())
            self._ser_cache[payload_bytes] = (wire, ser)
        self.wire_bytes += wire
        if scale:
            ser = max(1, int(ser * scale))  # degraded-link serialisation

        cong = self.congestion
        if cong is not None:
            # Congested path: per-egress-port queues own the timing from
            # here (store-and-forward, pause frames, ECN).  Delivery comes
            # back through _enqueue_data when the last port drains.
            cong.inject(src_lid, dst_lid, wire, ser, message, extra)
            self.tracer.record(at, "fabric.tx", src_lid, dst_lid,
                               payload_bytes, -1)
            return at

        try:
            links = self._paths[src_lid, dst_lid]
        except KeyError:
            links = self.path_links(src_lid, dst_lid)
        hop_ns = cfg.link_prop_ns + cfg.switch_delay_ns

        # host -> switch link (FIFO)
        self._hup_msgs[src_lid] += 1
        head = self._up_busy[src_lid]
        if head < at:
            head = at
        self._up_busy[src_lid] = head + ser
        head += hop_ns

        # interior links, switch to switch (FIFO, cut-through)
        busy = self._link_busy
        link_msgs = self._link_msgs
        for link in links:
            t = busy[link]
            if t < head:
                t = head
            busy[link] = t + ser
            link_msgs[link] += 1
            head = t + hop_ns

        # switch -> host link (FIFO, cut-through from head arrival)
        self._down_msgs[dst_lid] += 1
        start_down = self._down_busy[dst_lid]
        if start_down < head:
            start_down = head
        self._down_busy[dst_lid] = start_down + ser

        arrival = start_down + ser + cfg.link_prop_ns + extra
        self._enqueue_data(dst_lid, arrival, message)
        if self.tracer.enabled:
            self.tracer.record(at, "fabric.tx", src_lid, dst_lid, payload_bytes, arrival)
        return arrival

    # ------------------------------------------------------------------
    # control path (ACK / NAK / credit updates)
    # ------------------------------------------------------------------
    def control_path_ns(self, src_lid: int, dst_lid: int) -> int:
        """Fixed latency of a small control packet from src to dst: one
        switch per interior link plus one, one more link than switches."""
        cfg = self.config
        if src_lid == dst_lid:
            return cfg.loopback_ns
        switches = 1 + len(self.path_links(src_lid, dst_lid))
        return ((switches + 1) * cfg.link_prop_ns + switches * cfg.switch_delay_ns
                + transfer_ns(cfg.ack_bytes, cfg.link_rate.bytes_per_ns))

    def send_control(
        self, src_lid: int, dst_lid: int, callback: Callable, *args: Any
    ) -> int:
        """Deliver a control packet (uncontended fixed-latency path)."""
        self.control_msgs += 1
        sim = self.sim
        extra = 0
        fault = self.fault
        if fault is not None:
            extra = fault.on_control(src_lid, dst_lid)
            if extra is None:
                return sim.now  # link down: ACK/NAK/credit update lost
        try:
            path_ns = self._ctrl_ns[src_lid, dst_lid]
        except KeyError:
            path_ns = self._ctrl_ns[src_lid, dst_lid] = self.control_path_ns(
                src_lid, dst_lid)
        arrival = sim.now + path_ns + extra
        # Per-ACK/credit-update hot path: burst-batched per destination.
        # On a single crossbar every remote pair shares one control
        # latency, so arrivals per LID are monotone and the train almost
        # never splits (loopback/remote mixes and fat-tree hop-count
        # differences fall back to a direct agenda entry).
        seq = sim._seq = sim._seq + 1
        if arrival == sim.now:
            sim._now_q.append((seq, callback, args))
            return arrival
        train = self._ctrains[dst_lid]
        q = train.q
        if q and arrival >= q[-1][0]:
            q.append((arrival, seq, callback, args))
            return arrival
        if q:
            entry = (arrival, seq, callback, args)
        else:
            q.append((arrival, seq, callback, args))
            entry = (arrival, seq, train.fire, ())
        idx = arrival >> _SHIFT
        if idx <= sim._cur:
            insort(sim._active, entry, sim._head)
            sim._count += 1
        elif idx < sim._limit:
            sim._buckets[idx & _MASK].append(entry)
            sim._count += 1
        else:
            heappush(sim._over, entry)
        return arrival

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Fabric lids={sorted(self._lids)} msgs={self.messages_sent}>"
