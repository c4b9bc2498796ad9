"""The traced run: where a workload's host time goes, layer by layer.

A layer is a package of ``repro`` (``sim``, ``ib``, ``mpi``, ``core``,
``cluster``, the opt-in subsystems, and ``workloads``, which also takes
the ring program ``jobs.py`` defines); ``py`` is the interpreter
(builtins, the standard library and generated code such as dataclass
``__init__``s); ``other`` is everything else, chiefly this harness.

The ledger makes two passes over the workload's jobs, both driven from
this file and neither editing anything under ``src/``:

* **profile pass** — :mod:`cProfile` is switched on around each job's
  timed phases.  Each function's self time and call count is charged to
  the layer whose file defines it, so the layers' self times plus the
  ``py`` residual account for the profiled wall time.  Agenda events are
  tallied by callback kind as the calls the event loop
  (``Simulator.run``) makes to each callback.
* **count pass** — with no profiler, wrappers installed at run time
  around ``FlowControlScheme.try_consume_credit`` and the MPI progress
  engine's CQ poll count credit attempts and polls; the cyclic collector
  runs only where the harness calls it, so its yield is exact.  The
  wrappers keep the model's event sequence; ``run.py`` checks that every
  job of both passes reproduces its untraced outcome.

Counts are per MPI data message (``fc.data_msgs``) unless their name says
otherwise.
"""

from __future__ import annotations

import cProfile
import gc
import os
import pstats
import sys
from collections import defaultdict
from typing import Any, Dict, List, Tuple

import repro
from repro.check.auditor import Auditor
from repro.cluster.on_demand import ConnectionManager
from repro.congestion.switch import PortQueue
from repro.core import FlowControlScheme
from repro.faults.injector import FaultInjector
from repro.ib.fabric import Fabric, _ControlTrain, _DeliveryTrain
from repro.ib.fattree import FatTreeFabric
from repro.ib.hca import HCA
from repro.mpi.endpoint import Endpoint
from repro.sim.engine import Simulator
from repro.sim.process import Process
from repro.sim.waitables import Timeout

from perfbench.jobs import Job
from perfbench.measure import PassResult, run_pass

#: layers whose self time the ledger reports (the ``repro`` packages a
#: workload runs); any other ``repro`` file counts as ``other``
LAYERS = ("sim", "ib", "mpi", "core", "cluster", "congestion", "faults",
          "recovery", "ft", "check", "workloads")

#: agenda callback kinds reported one by one (the rest is ``other``), with
#: the functions each kind covers
EVENT_KINDS = {
    "HCA._pump": (HCA._pump,),
    "Fabric.transmit": (Fabric.transmit, FatTreeFabric.transmit),
    "_DeliveryTrain._fire": (_DeliveryTrain._fire,),
    "HCA._rx_service": (HCA._rx_service,),
    "_ControlTrain._fire": (_ControlTrain._fire,),
    "Process._resume": (Process._resume,),
}

#: traced self times plus the residual must cover the traced wall time to
#: within this share; a larger gap means time the ledger cannot attribute
CONSISTENCY_BOUND = 0.10

_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_HERE = os.path.dirname(os.path.abspath(__file__)) + os.sep
#: the benchmark's own MPI programs (the fleet1k ring) are workload code
_PROGRAMS = os.path.join(_HERE, "jobs.py")


def _key(fn) -> Tuple[str, int, str]:
    """The :mod:`pstats` key of a Python function."""
    code = fn.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def layer_of(filename: str) -> str:
    path = os.path.abspath(filename) if not filename.startswith(("~", "<")) else ""
    if path.startswith(_REPRO_DIR):
        head = path[len(_REPRO_DIR):].split(os.sep, 1)[0]
        return head if head in LAYERS else "other"
    if path == _PROGRAMS:
        return "workloads"
    if path.startswith(_HERE):
        return "other"
    return "py"


# ----------------------------------------------------------------------
# profile pass
# ----------------------------------------------------------------------
class _Profiles:
    """Two profilers, one per timed phase, switched by the pass hook."""

    def __init__(self) -> None:
        self.setup = cProfile.Profile()
        self.run = cProfile.Profile()
        self._on = None

    def __call__(self, phase) -> None:
        if self._on is not None:
            self._on.disable()
        self._on = getattr(self, phase) if phase else None
        if self._on is not None:
            self._on.enable()


def _self_by_layer(stats: Dict) -> Tuple[Dict[str, float], Dict[str, int]]:
    secs: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for (filename, _line, _name), (_cc, nc, tt, _ct, _callers) in stats.items():
        layer = layer_of(filename)
        secs[layer] += tt
        calls[layer] += nc
    return secs, calls


def _ncalls(stats: Dict, *fns) -> int:
    return sum(stats[k][1] for k in map(_key, fns) if k in stats)


def profile_pass(jobs: List[Job]) -> Dict[str, Any]:
    profiles = _Profiles()
    res = run_pass(jobs, hook=profiles)
    run_stats = pstats.Stats(profiles.run).stats
    setup_stats = pstats.Stats(profiles.setup).stats
    secs, calls = _self_by_layer(run_stats)
    setup_secs, _ = _self_by_layer(setup_stats)

    loop = _key(Simulator.run)
    events: Dict[str, int] = {}
    for kind, fns in EVENT_KINDS.items():
        events[kind] = sum(
            run_stats[k][4].get(loop, (0, 0))[1]
            for k in map(_key, fns) if k in run_stats
        )
    hooks = [getattr(Auditor, n) for n in dir(Auditor) if n.startswith("on_")]
    return {
        "pass": res,
        "self_s": dict(secs),
        "calls": dict(calls),
        "setup_self_s": dict(setup_secs),
        "events": events,
        "transmits": _ncalls(run_stats, *EVENT_KINDS["Fabric.transmit"]),
        "rndv": _ncalls(run_stats, Endpoint._rndv_recv_start),
        "admits": _ncalls(run_stats, PortQueue.admit),
        "fault_transitions": _ncalls(run_stats, FaultInjector._begin,
                                     FaultInjector._end),
        "check_hooks": _ncalls(run_stats, *hooks),
        "cm_requests": _ncalls(run_stats, ConnectionManager.request),
    }


# ----------------------------------------------------------------------
# count pass
# ----------------------------------------------------------------------
class _PollTimeout(Timeout):
    """The progress engine's poll-overhead Timeout, counting each poll.
    Blocking through :meth:`Timeout._block` schedules the resume exactly
    as the open-coded fast path in ``Process._resume`` does."""

    __slots__ = ("tally",)

    def __init__(self, delay: int, tally: Dict[str, int]):
        super().__init__(delay)
        self.tally = tally

    def _block(self, sim, process) -> None:
        self.tally["polls"] += 1
        super()._block(sim, process)


class _Counters:
    """Run-time wrappers and per-job readings of the count pass."""

    def __init__(self) -> None:
        self.n: Dict[str, float] = defaultdict(int)
        self._patched: List[Tuple[type, str, Any]] = []
        self._blocks = 0

    def _patch(self, cls: type, name: str, make) -> None:
        orig = cls.__dict__[name]
        self._patched.append((cls, name, orig))
        setattr(cls, name, make(orig))

    def install(self) -> None:
        n = self.n

        def credit(orig):
            def try_consume_credit(scheme, conn):
                ok = orig(scheme, conn)
                n["credit_calls"] += 1
                n["credit_hits"] += ok
                return ok
            return try_consume_credit

        for cls in (FlowControlScheme, *_subclasses(FlowControlScheme)):
            if "try_consume_credit" in cls.__dict__:
                self._patch(cls, "try_consume_credit", credit)

        def busy(orig):
            def _poll_busy(ep):
                n["poll_hits"] += 1
                return (yield from orig(ep))
            return _poll_busy

        self._patch(Endpoint, "_poll_busy", busy)

        def init(orig):
            def __init__(ep, *args, **kwargs):
                orig(ep, *args, **kwargs)
                ep._t_poll = _PollTimeout(ep._t_poll.delay, n)
            return __init__

        self._patch(Endpoint, "__init__", init)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for cls, name, orig in reversed(self._patched):
            setattr(cls, name, orig)
        self._patched.clear()
        gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "stop":
            self.n["cyclic_garbage"] += info["collected"]

    def hook(self, phase) -> None:
        if phase == "setup":
            self._blocks = None
        elif phase == "run" and self._blocks is None:
            self._blocks = sys.getallocatedblocks()

    def after_run(self, result, cluster) -> None:
        n = self.n
        n["alloc_blocks"] += sys.getallocatedblocks() - self._blocks
        fc = result.fc
        n["rnr_naks"] += fc.rnr_naks
        n["retransmissions"] += fc.retransmissions
        n["backlogged"] += fc.backlogged_msgs
        n["ecm"] += fc.ecm_msgs
        n["control"] += fc.control_msgs
        n["max_posted"] = max(n["max_posted"], fc.max_posted_buffers)
        n["link_hops"] += sum(getattr(cluster.fabric, "link_msgs", {}).values())
        nranks = len(result.endpoints)
        established = result.connections_established
        n["connections"] += (established if established is not None
                             else nranks * (nranks - 1) // 2)
        if result.congestion is not None:
            n["pauses"] += result.congestion.pause_frames
            n["ecn_marks"] += result.congestion.ecn_marks
            n["drops"] += result.congestion.drops
        if result.recovery is not None:
            summary = result.recovery.summary()
            n["reconnects"] += summary["completed"]
            n["replayed"] += summary["messages_replayed"]
        if result.ft is not None:
            n["pings"] += result.ft.stats()["pings_sent"]
            for f in result.ft.failures:
                n["detect_ns"] += f.detection_latency_ns
                n["detections"] += 1


def _subclasses(cls: type) -> List[type]:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def count_pass(jobs: List[Job]) -> Tuple[PassResult, Dict[str, float]]:
    counters = _Counters()
    was_enabled = gc.isenabled()
    gc.disable()
    gc.collect()
    counters.install()
    try:
        res = run_pass(jobs, hook=counters.hook, after_run=counters.after_run)
    finally:
        counters.uninstall()
        if was_enabled:
            gc.enable()
    return res, counters.n


# ----------------------------------------------------------------------
# the per-layer metrics
# ----------------------------------------------------------------------
def traced(jobs: List[Job], untraced_run_s: float) -> Dict[str, Any]:
    """Run the profile and count passes; returns the per-layer metrics
    (``name -> (value, unit)``), both passes' results and the gap between
    attributed self time and traced wall time."""
    prof = profile_pass(jobs)
    count_res, c = count_pass(jobs)
    res: PassResult = prof["pass"]
    wall = res.run_s
    msgs = res.data_msgs
    self_s = prof["self_s"]
    calls = prof["calls"]

    def per_msg(x: float) -> float:
        return x / msgs

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m: Dict[str, Tuple[float, str]] = {}
    for layer in LAYERS:
        m[f"{layer}.self_frac"] = (self_s.get(layer, 0.0) / wall, "ratio")
    m["other.self_frac"] = (self_s.get("other", 0.0) / wall, "ratio")
    m["py.residual_frac"] = (self_s.get("py", 0.0) / wall, "ratio")
    for layer in ("sim", "ib", "mpi", "core"):
        m[f"{layer}.calls_per_msg"] = (per_msg(calls.get(layer, 0)), "1/msg")

    events = prof["events"]
    total_events = sum(j.events for j in res.jobs)
    for kind, n in events.items():
        m[f"sim.ev.{kind}_per_msg"] = (per_msg(n), "1/msg")
    m["sim.ev.other_per_msg"] = (per_msg(total_events - sum(events.values())),
                                 "1/msg")

    m["ib.transmits_per_msg"] = (per_msg(prof["transmits"]), "1/msg")
    m["ib.rnr_naks"] = (c["rnr_naks"], "count")
    m["ib.retransmissions"] = (c["retransmissions"], "count")
    m["ib.link_hops_per_msg"] = (per_msg(c["link_hops"]), "1/msg")

    m["mpi.cq_polls_per_msg"] = (per_msg(c["polls"]), "1/msg")
    m["mpi.poll_hit_ratio"] = (ratio(c["poll_hits"], c["polls"]), "ratio")
    m["mpi.rndv_frac"] = (per_msg(prof["rndv"]), "ratio")

    m["core.backlogged_frac"] = (per_msg(c["backlogged"]), "ratio")
    m["core.ecm_frac"] = (per_msg(c["ecm"]), "ratio")
    m["core.control_frac"] = (per_msg(c["control"]), "ratio")
    m["core.credit_hit_ratio"] = (ratio(c["credit_hits"], c["credit_calls"]),
                                  "ratio")
    m["core.max_posted_buffers"] = (c["max_posted"], "count")

    m["cluster.setup_self_s"] = (prof["setup_self_s"].get("cluster", 0.0), "s")
    m["cluster.connections"] = (c["connections"], "count")
    m["cluster.cm_requests_per_conn"] = (
        ratio(prof["cm_requests"], c["connections"]), "ratio")

    m["congestion.admits_per_msg"] = (per_msg(prof["admits"]), "1/msg")
    m["congestion.pauses"] = (c["pauses"], "count")
    m["congestion.ecn_marks"] = (c["ecn_marks"], "count")
    m["congestion.drops"] = (c["drops"], "count")
    m["faults.transitions"] = (prof["fault_transitions"], "count")
    m["recovery.reconnects"] = (c["reconnects"], "count")
    m["recovery.replayed"] = (c["replayed"], "count")
    m["ft.pings"] = (c["pings"], "count")
    m["ft.detect_us"] = (ratio(c["detect_ns"], c["detections"]) / 1000.0, "sim_us")
    m["check.hook_calls_per_msg"] = (per_msg(prof["check_hooks"]), "1/msg")

    m["py.cyclic_garbage_per_msg"] = (per_msg(c["cyclic_garbage"]), "1/msg")
    m["py.alloc_blocks_per_msg"] = (per_msg(c["alloc_blocks"]), "1/msg")
    m["trace.overhead_frac"] = (wall / untraced_run_s - 1.0, "ratio")

    attributed = sum(self_s.values())
    return {
        "metrics": m,
        "passes": (res, count_res),
        "coverage": attributed / wall,
    }
