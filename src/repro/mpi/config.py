"""MPI-layer (software) configuration.

Splits cleanly from :class:`repro.ib.types.IBConfig`: everything here is a
property of the MPI implementation (MVAPICH-style ADI2 device), not of the
hardware.  The two are composed by
:class:`repro.cluster.config.TestbedConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass

#: (memcpy_bytes_per_ns, nbytes) → ns.  Workloads reuse a handful of
#: message sizes; the cap guards adversarial size sweeps.
_COPY_NS_CACHE: dict = {}
_COPY_NS_CACHE_MAX = 1 << 16


@dataclass
class MPIConfig:
    """Software timing and protocol-shape knobs.

    Attributes
    ----------
    vbuf_bytes:
        Size of each pre-pinned communication buffer ("vbuf" in MVAPICH
        parlance).  The paper: *"In all implementations, the size of each
        pre-posted buffer is 2 KBytes."*
    header_bytes:
        Protocol header carried in every vbuf; the eager payload limit is
        ``vbuf_bytes - header_bytes``.
    send_pool_buffers:
        Shared send-side pool of pre-pinned vbufs (eager copies and control
        messages).  Senders block in progress when it runs dry.
    call_overhead_ns:
        Fixed software cost of entering an MPI point-to-point call
        (argument checking, request setup, tag-match attempt).
    post_overhead_ns:
        Cost of building a descriptor and ringing the doorbell.
    poll_overhead_ns:
        Cost of one CQ poll + completion dispatch in the progress engine.
    header_proc_ns:
        Cost of parsing a protocol header / updating credit state.
    memcpy_bytes_per_ns:
        Host memcpy bandwidth for the two eager copies (user buffer ↔
        vbuf); ~2 GB/s for the testbed's Xeons.
    rndv_min_bytes:
        Messages at or above this go through rendezvous even when credits
        are plentiful (equals the eager payload limit by default).
    """

    vbuf_bytes: int = 2048
    header_bytes: int = 64
    send_pool_buffers: int = 1024
    call_overhead_ns: int = 550
    post_overhead_ns: int = 400
    poll_overhead_ns: int = 250
    header_proc_ns: int = 150
    memcpy_bytes_per_ns: float = 2.0
    rndv_min_bytes: int = 0  # 0 → use eager_max()

    # --- RDMA-based eager channel (the companion design, [13]) ----------
    #: route eager data through per-connection RDMA rings instead of
    #: send/recv into pre-posted WQEs (default off: the paper's study is
    #: of the send/recv-based implementation)
    use_rdma_channel: bool = False
    #: receiver-side cost of discovering + dispatching one ring arrival
    #: (memory-poll flag check; cheaper than CQE processing, which is
    #: where the 6.8 us vs 7.5 us latency gap comes from)
    rdma_poll_ns: int = 700
    #: control-message vbufs posted per connection in RDMA mode (RTS/CTS/
    #: FIN/ECM/RESIZE still use send/recv; they are optimistic traffic)
    rdma_control_bufs: int = 8

    #: the per-operation CPU costs, charged straight into the agenda
    OVERHEAD_FIELDS = (
        "call_overhead_ns",
        "post_overhead_ns",
        "poll_overhead_ns",
        "header_proc_ns",
        "rdma_poll_ns",
    )

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Fail fast on timing/size fields the model cannot run with.

        Called at construction and again when a cluster is built (fields
        are plain attributes, so a config can be edited in between).
        Raises :class:`ValueError` naming the offending field."""
        for name in self.OVERHEAD_FIELDS:
            value = getattr(self, name)
            if type(value) is not int or value < 0:
                raise ValueError(
                    f"MPIConfig.{name} must be a non-negative int (ns), "
                    f"got {value!r}"
                )
        rate = self.memcpy_bytes_per_ns
        if isinstance(rate, bool) or not isinstance(rate, (int, float)) or not rate > 0:
            raise ValueError(
                f"MPIConfig.memcpy_bytes_per_ns must be > 0, got {rate!r}"
            )
        if self.vbuf_bytes <= self.header_bytes:
            raise ValueError(
                f"MPIConfig.vbuf_bytes ({self.vbuf_bytes}) must exceed "
                f"header_bytes ({self.header_bytes}): a vbuf must hold a "
                "header plus payload"
            )

    def eager_max(self) -> int:
        """Largest payload that fits an eager vbuf."""
        return self.vbuf_bytes - self.header_bytes

    def rndv_threshold(self) -> int:
        """Payload size at which the rendezvous protocol takes over."""
        return self.rndv_min_bytes or self.eager_max()

    def copy_ns(self, nbytes: int) -> int:
        """Duration of one host memcpy of ``nbytes`` (memoized — this sits
        on the per-message eager copy path)."""
        if nbytes <= 0:
            return 0
        key = (self.memcpy_bytes_per_ns, nbytes)
        ns = _COPY_NS_CACHE.get(key)
        if ns is None:
            if len(_COPY_NS_CACHE) >= _COPY_NS_CACHE_MAX:
                _COPY_NS_CACHE.clear()
            ns = _COPY_NS_CACHE[key] = max(1, int(round(nbytes / self.memcpy_bytes_per_ns)))
        return ns
