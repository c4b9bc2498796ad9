"""Run one pass of a workload's jobs and reduce it to metrics.

Each job is timed in two phases on the host clock:

* **set-up** — ``Cluster(config)`` plus ``launch`` (fabric, HCAs,
  endpoints and, off on-demand, the full QP mesh);
* **run** — ``run_job`` on the launched cluster, plus the cyclic garbage
  collection of the finished job once the harness has dropped it, so a
  change that leaves less cyclic garbage shows in ``run_s``.

Building the config, program and fault plan and checking the result are
not timed.  Everything else a job yields is simulated and deterministic,
and lands in :class:`PassResult`.
"""

from __future__ import annotations

import gc
import hashlib
import json
import time
from dataclasses import asdict, dataclass, field, is_dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.cluster import Cluster, run_job
from repro.core import make_scheme
from repro.sim.units import mb_per_s

from perfbench.jobs import Job

MiB = 1024.0 * 1024.0


def _canon(value: Any) -> Any:
    """A JSON-able form of a rank result or report (dataclasses as dicts,
    tuples as lists, dict keys as strings)."""
    if is_dataclass(value) and not isinstance(value, type):
        return _canon(asdict(value))
    if isinstance(value, dict):
        return {str(k): _canon(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def outcome(result) -> Dict[str, Any]:
    """The simulated outcome of one job: what the model *means*, without
    ``events_executed`` or any host time."""
    return {
        "elapsed_ns": result.elapsed_ns,
        "rank_finish_ns": list(result.rank_finish_ns),
        "rank_results": _canon(result.rank_results),
        "fc": _canon(result.fc),
        "memory": _canon(result.memory),
        "congestion": _canon(result.congestion),
        "failures": [_canon(f.to_dict()) for f in result.failures],
    }


def digest(outcomes: List[Dict[str, Any]]) -> str:
    """SHA-256 over the jobs' outcomes, in pass order."""
    h = hashlib.sha256()
    for o in outcomes:
        h.update(json.dumps(o, sort_keys=True).encode())
    return h.hexdigest()


@dataclass
class JobStats:
    """Deterministic figures of one finished job."""

    name: str
    outcome: Dict[str, Any]
    problems: List[str]
    events: int = 0
    data_msgs: int = 0
    payload_bytes: int = 0
    pinned_bytes: int = 0
    latency_ns: Optional[float] = None


@dataclass
class PassResult:
    """One pass over a workload's jobs."""

    setup_s: float = 0.0
    run_s: float = 0.0
    jobs: List[JobStats] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(1 for j in self.jobs if j.problems)

    @property
    def data_msgs(self) -> int:
        return sum(j.data_msgs for j in self.jobs)

    @property
    def digest(self) -> str:
        return digest([j.outcome for j in self.jobs])

    def sim_metrics(self) -> Dict[str, float]:
        """The pass's deterministic end-to-end figures."""
        elapsed = sum(j.outcome["elapsed_ns"] for j in self.jobs)
        lat = [j.latency_ns for j in self.jobs if j.latency_ns is not None]
        return {
            "events_per_msg": sum(j.events for j in self.jobs) / self.data_msgs,
            "sim_lat_us": sum(lat) / len(lat) / 1000.0,
            "sim_bw_MBps": mb_per_s(elapsed, sum(j.payload_bytes for j in self.jobs)),
            "sim_makespan_ms": elapsed / 1e6,
            "pinned_mb": sum(j.pinned_bytes for j in self.jobs) / MiB,
        }


#: hook points a traced pass uses: called with the phase name ("setup" or
#: "run") on entry and with ``None`` on exit, around each timed phase
PhaseHook = Callable[[Optional[str]], None]


def run_one(job: Job, hook: Optional[PhaseHook] = None,
            after_run: Optional[Callable[[Any, Any], None]] = None):
    """Set up and run ``job``; returns ``(JobStats, setup_s, run_s)``.

    ``hook`` brackets the timed phases (the traced pass switches its
    profiler with it); ``after_run(job_result, cluster)`` sees the live
    result before it is dropped (the traced pass reads counters there).
    """
    config = job.config()
    scheme = make_scheme(job.scheme)
    program = job.program()
    kwargs = job.run_kwargs()

    if hook:
        hook("setup")
    t0 = time.perf_counter()
    cluster = Cluster(config)
    cluster.launch(job.nranks, scheme, job.prepost, on_demand=job.on_demand)
    t1 = time.perf_counter()
    if hook:
        hook("run")
    problems: List[str] = []
    result = None
    t2 = time.perf_counter()
    try:
        result = run_job(program, job.nranks, scheme, job.prepost,
                         finalize=job.finalize, cluster=cluster, **kwargs)
    except Exception as exc:  # a failed job is counted, not fatal
        problems.append(f"{type(exc).__name__}: {exc}")
    t3 = time.perf_counter()
    if hook:
        hook(None)

    if result is None:
        stats = JobStats(job.name, {"error": problems[0]}, problems)
    else:
        problems.extend(job.check(result))
        stats = JobStats(
            name=job.name,
            outcome=outcome(result),
            problems=problems,
            events=cluster.sim.events_executed,
            data_msgs=result.fc.data_msgs,
            payload_bytes=sum(ep.bytes_sent for ep in result.endpoints),
            pinned_bytes=result.memory.vbuf_pinned_bytes,
            latency_ns=(result.rank_results[job.latency_rank]
                        if job.latency_rank is not None else None),
        )
        if after_run:
            after_run(result, cluster)
    del result, cluster, program, kwargs

    if hook:
        hook("run")
    t4 = time.perf_counter()
    gc.collect()
    t5 = time.perf_counter()
    if hook:
        hook(None)
    return stats, t1 - t0, (t3 - t2) + (t5 - t4)


def run_pass(jobs: List[Job], hook: Optional[PhaseHook] = None,
             after_run: Optional[Callable[[Any, Any], None]] = None) -> PassResult:
    """Run every job of a pass in order, one after another (hooks as for
    :func:`run_one`)."""
    res = PassResult()
    for job in jobs:
        stats, setup_s, run_s = run_one(job, hook, after_run)
        res.jobs.append(stats)
        res.setup_s += setup_s
        res.run_s += run_s
    return res
