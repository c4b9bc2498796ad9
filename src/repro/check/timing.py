"""Per-message timing digest: what a run *means*, message by message.

The aggregate determinism fields (final clock, fc statistics, event count)
cannot see a message that arrives 1 ns later when the slack around it
absorbs the shift.  :class:`TimingDigest` records, while installed:

* every completed MPI request as ``(rank, kind, peer, tag, size,
  completion_ns)``, in completion order — sends are described by their
  ``isend`` arguments, receives by the status they completed with;
* every wire message handed to the fabric as ``(src, dst, bytes,
  inject_ns, arrival_ns)`` in injection order, ``arrival_ns`` being the
  instant the destination HCA saw its last byte (``-1`` if it never
  arrived: dropped, or to a dead adapter's absorbed silence);

and hashes both streams together with the job's fc statistics and final
clock into one SHA-256 hex string.

Both streams are hashed in the order they were recorded, so the order
of same-instant completions and injections — across ranks too — is part
of the digest.  How many agenda events the run took is not: that is a
cost, tracked separately (``events_executed``).

Recording works by wrapping a handful of class methods for the duration
of a ``with`` block, so a run without it pays nothing.  Install it before
the cluster is built — the fabric binds each HCA's delivery callback at
attach time::

    with TimingDigest() as td:
        result = run_job(...)
    td.hexdigest(result)
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections import deque
from typing import Any, Dict, List, Tuple

from repro.ib.fabric import Fabric
from repro.ib.fattree import FatTreeFabric
from repro.ib.hca import HCA
from repro.mpi.endpoint import Endpoint
from repro.mpi.request import Request


class TimingDigest:
    """Records per-message timing while installed (see module docs)."""

    def __init__(self) -> None:
        #: (request, completion_ns) in completion order
        self._completed: List[Tuple[Request, int]] = []
        #: id(request) -> (request, rank, kind, peer, tag, size)
        self._meta: Dict[int, tuple] = {}
        #: [src, dst, bytes, inject_ns, arrival_ns] in injection order
        self.wire: List[list] = []
        #: id(message) -> (message, FIFO of its un-arrived wire rows)
        self._in_flight: Dict[int, tuple] = {}
        self._patched: List[Tuple[type, str, Any]] = []

    # ------------------------------------------------------------------
    def __enter__(self) -> "TimingDigest":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, cls: type, name: str, make) -> None:
        orig = cls.__dict__[name]
        self._patched.append((cls, name, orig))
        setattr(cls, name, make(orig))

    def install(self) -> None:
        meta, completed = self._meta, self._completed
        wire, in_flight = self.wire, self._in_flight

        def isend(orig):
            def isend(ep, dest, size, tag=0, *args, **kwargs):
                req = yield from orig(ep, dest, size, tag, *args, **kwargs)
                meta[id(req)] = (req, ep.rank, "send", dest, tag, size)
                return req
            return isend

        def irecv(orig):
            def irecv(ep, *args, **kwargs):
                req = yield from orig(ep, *args, **kwargs)
                meta[id(req)] = (req, ep.rank, "recv", None, None, None)
                return req
            return irecv

        def complete(orig):
            def complete(req, status=None):
                orig(req, status)
                completed.append((req, req.sim.now))
            return complete

        def transmit(orig):
            def transmit(fabric, src_lid, dst_lid, payload_bytes, message):
                row = [src_lid, dst_lid, payload_bytes, fabric.sim.now, -1]
                wire.append(row)
                slot = in_flight.get(id(message))
                if slot is None:
                    # the message object is held so its id stays unique
                    # while any of its injections is still in flight
                    slot = in_flight[id(message)] = (message, deque())
                slot[1].append(row)
                return orig(fabric, src_lid, dst_lid, payload_bytes, message)
            return transmit

        def deliver(orig):
            def _deliver(hca, msg):
                slot = in_flight.get(id(msg))
                if slot is not None and slot[1]:
                    slot[1].popleft()[4] = hca.sim.now
                return orig(hca, msg)
            return _deliver

        self._patch(Endpoint, "isend", isend)
        self._patch(Endpoint, "irecv", irecv)
        self._patch(Request, "complete", complete)
        for cls in (Fabric, FatTreeFabric):  # each has its own transmit
            self._patch(cls, "transmit", transmit)
        self._patch(HCA, "_deliver", deliver)

    def uninstall(self) -> None:
        for cls, name, orig in reversed(self._patched):
            setattr(cls, name, orig)
        self._patched.clear()

    # ------------------------------------------------------------------
    def requests(self) -> List[list]:
        """``[rank, kind, peer, tag, size, completion_ns]`` per completed
        request, in completion order."""
        out = []
        for req, ns in self._completed:
            m = self._meta.get(id(req))
            st = req.status
            if m is None:  # not created through isend/irecv
                out.append([-1, req.kind, st.source, st.tag, st.size, ns])
            elif m[2] == "send":
                out.append([m[1], "send", m[3], m[4], m[5], ns])
            else:
                out.append([m[1], "recv", st.source, st.tag, st.size, ns])
        return out

    def record(self, result) -> Dict[str, Any]:
        """Everything the digest covers, as plain JSON-able data."""
        return {
            "requests": self.requests(),
            "wire": self.wire,
            "fc": dataclasses.asdict(result.fc),
            "now": result.endpoints[0].sim.now,
        }

    def hexdigest(self, result) -> str:
        """SHA-256 over :meth:`record` of the finished job ``result``."""
        blob = json.dumps(self.record(result), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()
