"""Performance-regression harness for the simulation kernel.

Measures *simulator throughput* (events/second of wall time), not simulated
network performance — the paper-facing numbers live in ``benchmarks/``.
Four canonical workloads exercise the kernel's distinct hot paths:

* ``lu_proxy``  — the NAS LU proxy on 8 ranks: generator-heavy, dominated
  by the progress engine and same-instant FIFO;
* ``bw4_flood`` — non-blocking 4-byte bandwidth windows on 2 ranks: the
  credit/backlog machinery and per-message fabric events;
* ``ring64``    — a 64-rank ring exchange: wide agenda, many QPs, connection
  fan-out;
* ``rnr_storm`` — paced eager bursts into a receiver stalled once per burst,
  under the hardware scheme: the fault injector, RNR NAK/retry storms and a
  stalled progress loop (the one opt-in path the perf gate pins).

Every workload is deterministic: ``events_executed`` and the final
simulated clock are bit-identical run to run.  The final clock is part of
what a run means; ``events_executed`` is a pinned *cost* — an
optimisation may lower it while every timing digest stays put (see
``tests/test_determinism_replay.py``), and then regenerates the baseline.
``compare()`` treats drift in either as a hard failure, so every change to
them is deliberate, and a wall-clock regression beyond the tolerance as a
soft one — CI runs both via ``python -m repro perf --check
BENCH_perf.json``.

The report lands in ``BENCH_perf.json``:

.. code-block:: json

    {"schema": 1, "repeats": 3,
     "workloads": {"lu_proxy": {"events_executed": 0, "sim_now_ns": 0,
                                "wall_s": 0.0, "events_per_sec": 0.0}},
     "peak_rss_kb": 0}
"""

from __future__ import annotations

import json
import sys
import time
from typing import Any, Callable, Dict, List, Optional

from repro.cluster import TestbedConfig, run_job
from repro.faults import FaultPlan
from repro.sim.units import us
from repro.workloads import bandwidth_program
from repro.workloads.nas import lu

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX fallback
    resource = None  # type: ignore[assignment]

#: bump when the report layout changes incompatibly
SCHEMA_VERSION = 1

#: soft-failure threshold for ``compare()``: events/sec may not drop more
#: than this fraction below the committed baseline
DEFAULT_TOLERANCE = 0.20


def _ring_program(iterations: int):
    def ring(mpi):
        nxt = (mpi.rank + 1) % mpi.world_size
        prv = (mpi.rank - 1) % mpi.world_size
        for i in range(iterations):
            rreq = yield from mpi.irecv(source=prv, capacity=4096, tag=i)
            yield from mpi.send(nxt, size=1024, tag=i)
            yield from mpi.wait(rreq)

    return ring


def _run_lu_proxy():
    return run_job(lu.build(timesteps=3), 8, "static", prepost=100)


def _run_bw4_flood():
    return run_job(
        bandwidth_program(4, 100, repetitions=20, blocking=False),
        2,
        "static",
        prepost=10,
        config=TestbedConfig(nodes=2),
    )


def _run_ring64():
    # Enough iterations that the wall time dwarfs scheduler noise — a
    # sub-0.1s workload cannot carry a 20% regression gate.
    return run_job(
        _ring_program(iterations=30),
        64,
        "dynamic",
        prepost=4,
        config=TestbedConfig(nodes=64),
        finalize=False,
    )


#: rnr_storm: one burst, and one receiver stall, per period
_STORM_PERIOD_NS = us(4000)
_STORM_ROUNDS = 50


def _storm_program(rounds: int, burst: int, msg_bytes: int):
    def storm(mpi):
        for r in range(rounds):
            if mpi.rank == 0:
                yield from mpi.compute(r * _STORM_PERIOD_NS - mpi.now)
                reqs = []
                for _ in range(burst):
                    req = yield from mpi.isend(1, size=msg_bytes)
                    reqs.append(req)
                yield from mpi.waitall(reqs)
            else:
                for _ in range(burst):
                    yield from mpi.recv(0, capacity=msg_bytes)

    return storm


def _run_rnr_storm():
    # The receiver-stall chaos scenario, repeated: each burst of 7 eager
    # messages overruns the 4 posted buffers while the receiver sits out a
    # 3.2 ms stall, so the hardware scheme's sender storms on the RNR timer.
    plan = FaultPlan(seed=1)
    for r in range(_STORM_ROUNDS):
        plan.receiver_stall(rank=1, at_ns=r * _STORM_PERIOD_NS + us(5),
                            duration_ns=us(3200))
    return run_job(
        _storm_program(_STORM_ROUNDS, burst=7, msg_bytes=1024),
        2,
        "hardware",
        prepost=4,
        config=TestbedConfig(nodes=2),
        faults=plan,
    )


#: name -> zero-argument callable returning a JobResult
WORKLOADS: Dict[str, Callable[[], Any]] = {
    "lu_proxy": _run_lu_proxy,
    "bw4_flood": _run_bw4_flood,
    "ring64": _run_ring64,
    "rnr_storm": _run_rnr_storm,
}


def run_workload(name: str, repeats: int = 3) -> Dict[str, Any]:
    """Run one workload ``repeats`` times; report the best wall time.

    Event counts are asserted identical across the repeats — a cheap
    in-process determinism check that every perf run gets for free.
    """
    fn = WORKLOADS[name]
    best_wall = None
    events = sim_now = None
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0
        sim = result.endpoints[0].sim
        if events is None:
            events, sim_now = sim.events_executed, sim.now
        elif (events, sim_now) != (sim.events_executed, sim.now):
            raise RuntimeError(
                f"{name}: non-deterministic replay "
                f"({events}@{sim_now} vs {sim.events_executed}@{sim.now})"
            )
        if best_wall is None or wall < best_wall:
            best_wall = wall
    return {
        "events_executed": events,
        "sim_now_ns": sim_now,
        "wall_s": round(best_wall, 6),
        "events_per_sec": round(events / best_wall, 1),
    }


def profile_workload(name: str, top: int = 20) -> str:
    """Run one workload under :mod:`cProfile`; return the top-``top``
    functions by cumulative time as a formatted table.

    One un-timed pass — profiling overhead makes the wall numbers
    meaningless, so this never feeds the report or the ``--check`` gate;
    it exists to answer "where did the time go" when the gate trips.
    """
    import cProfile
    import io
    import pstats

    fn = WORKLOADS[name]
    profiler = cProfile.Profile()
    profiler.enable()
    fn()
    profiler.disable()
    buf = io.StringIO()
    pstats.Stats(profiler, stream=buf).sort_stats("cumulative").print_stats(top)
    return buf.getvalue()


def peak_rss_kb() -> Optional[int]:
    """Peak resident set size of this process in KiB (None off-POSIX)."""
    if resource is None:  # pragma: no cover
        return None
    ru = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB; macOS reports bytes.
    return ru // 1024 if sys.platform == "darwin" else ru


def run_suite(
    workloads: Optional[List[str]] = None, repeats: int = 3
) -> Dict[str, Any]:
    """Run the selected workloads and assemble the report dict."""
    names = workloads or list(WORKLOADS)
    report: Dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "repeats": repeats,
        "workloads": {},
    }
    for name in names:
        report["workloads"][name] = run_workload(name, repeats=repeats)
    report["peak_rss_kb"] = peak_rss_kb()
    return report


def compare(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    tolerance: float = DEFAULT_TOLERANCE,
) -> List[str]:
    """Return a list of regression messages (empty = pass).

    * pinned figures: ``sim_now_ns`` (the outcome) and
      ``events_executed`` (the cost) must match the baseline exactly for
      every workload present in both reports;
    * throughput: ``events_per_sec`` may not drop more than ``tolerance``
      below the baseline.
    """
    problems = []
    for name, base in baseline.get("workloads", {}).items():
        cur = current.get("workloads", {}).get(name)
        if cur is None:
            problems.append(f"{name}: missing from current run")
            continue
        for key, what in (("events_executed", "event-cost change"),
                          ("sim_now_ns", "simulated-outcome change")):
            if cur[key] != base[key]:
                problems.append(
                    f"{name}: {key} drifted (baseline {base[key]}, "
                    f"got {cur[key]}) — {what}; by determinism the "
                    f"drift is real, so regenerate the baseline only if "
                    f"the change is deliberate"
                )
        floor = base["events_per_sec"] * (1.0 - tolerance)
        if cur["events_per_sec"] < floor:
            problems.append(
                f"{name}: events/sec regressed beyond {tolerance:.0%} "
                f"(baseline {base['events_per_sec']:.0f}, "
                f"got {cur['events_per_sec']:.0f}, floor {floor:.0f})"
            )
    return problems


def write_report(report: Dict[str, Any], path: str) -> None:
    with open(path, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")


def load_report(path: str) -> Dict[str, Any]:
    with open(path) as f:
        return json.load(f)
