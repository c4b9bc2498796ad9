"""The benchmark's workloads: each is a list of simulated MPI jobs.

A workload is generated from ``(name, seed, size)`` and returned as a
list of :class:`Job` specs.  A spec is pure data plus factories, so the
harness can build the cluster itself (timing ``Cluster(...)`` + ``launch``
as set-up) and hand the launched cluster to ``run_job``.  The seed only
chooses inputs the simulator receives: job order, fault-plan and detector
seeds, compute-time scale and message sizes.  It never selects which
model code runs.

``size`` is ``"full"`` for the measured benchmark and ``"tiny"`` for the
self-test, which runs every job kind at a few milliseconds each.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.cluster import TestbedConfig, fat_tree_shape
from repro.congestion import make_congestion_config
from repro.faults.scenarios import RANK_DEATH_VICTIM, SCENARIOS
from repro.ft import FTConfig
from repro.mpi import PROC_FAILED
from repro.workloads import bandwidth_program, latency_program
from repro.workloads.nas import cg, lu, mg

WORKLOADS = ("flood", "nas", "fleet1k", "chaos")
SIZES = ("full", "tiny")

#: every flow-control scheme the simulator implements
SCHEMES = ("hardware", "static", "dynamic", "rdma-eager")

#: the paper testbed's measured 4-byte MPI latency (Fig 2), in µs
PAPER_LATENCY_US = 7.5


@dataclass
class Job:
    """One simulated MPI job of a workload pass."""

    name: str
    nranks: int
    scheme: str
    prepost: int
    #: fresh program generator factory (programs hold no state across jobs)
    program: Callable[[], Callable]
    #: fresh TestbedConfig factory; the self-test wraps it to perturb the model
    config: Callable[[], TestbedConfig]
    #: returns a list of problems with the finished job (empty = correct)
    check: Callable[[Any], List[str]]
    on_demand: Optional[bool] = None
    finalize: bool = True
    #: ``run_job`` keywords the job arms: faults / audit / recovery / ft
    run_kwargs: Callable[[], Dict[str, Any]] = dict
    #: rank whose result is the 4-byte ping-pong one-way latency (ns)
    latency_rank: Optional[int] = None


# ----------------------------------------------------------------------
# correctness checks
# ----------------------------------------------------------------------
def conservation_problems(result) -> List[str]:
    """Every message sent was received exactly once: a lost message hangs
    a rank (``run_job`` raises) or leaves a posted receive, a duplicate
    leaves an unexpected message or inflates the received byte count.

    Audited jobs get the auditor's per-(src, dst, tag) send/match ledger
    instead of the byte balance: ``Endpoint.bytes_received`` counts an
    RDMA-ring message that arrives unexpected twice (at arrival and when
    the receive is posted), so the balance is wrong for ``rdma-eager``
    whenever messages arrive before their receives.
    """
    problems = []
    if result.audit is None:
        sent = sum(ep.bytes_sent for ep in result.endpoints)
        received = sum(ep.bytes_received for ep in result.endpoints)
        if sent != received:
            problems.append(f"bytes sent {sent} != bytes received {received}")
    for ep in result.endpoints:
        m = ep.matching
        if m.unexpected_count or m.posted_count:
            problems.append(
                f"rank {ep.rank}: {m.unexpected_count} unexpected / "
                f"{m.posted_count} posted messages left unmatched"
            )
    if result.failures:
        problems.append(f"unexpected failure records: "
                        f"{[f.to_dict() for f in result.failures]}")
    return problems


def _check_latency(rank: int):
    def check(result) -> List[str]:
        problems = conservation_problems(result)
        lat = result.rank_results[rank]
        if not isinstance(lat, (int, float)) or lat <= 0:
            problems.append(f"latency probe returned {lat!r}")
        return problems

    return check


def _check_bandwidth(nbytes: int):
    def check(result) -> List[str]:
        problems = conservation_problems(result)
        moved = getattr(result.rank_results[0], "bytes_moved", None)
        if moved != nbytes:
            problems.append(f"bandwidth run moved {moved!r} B, expected {nbytes}")
        return problems

    return check


def _check_rank_death(result) -> List[str]:
    """The only failure is the planned death, and every survivor's
    requests toward the victim completed with PROC_FAILED while the
    survivor ring stayed healthy."""
    records = [f.to_dict() for f in result.failures]
    if [(r.get("kind"), r.get("rank")) for r in records] != [
        ("rank-death", RANK_DEATH_VICTIM)
    ]:
        return [f"expected one rank-death record for rank "
                f"{RANK_DEATH_VICTIM}, got {records}"]
    problems = []
    for rank, res in enumerate(result.rank_results):
        if rank == RANK_DEATH_VICTIM:
            continue
        want = {"send_error": PROC_FAILED, "recv_error": PROC_FAILED,
                "ring_error": None}
        if res != want:
            problems.append(f"survivor {rank} returned {res!r}")
    return problems


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
def _crossbar(nodes: int) -> Callable[[], TestbedConfig]:
    return lambda: TestbedConfig(nodes=nodes)


def _latency_job(name: str, config, iterations: int) -> Job:
    return Job(
        name=name, nranks=2, scheme="static", prepost=100,
        program=lambda: latency_program(4, iterations=iterations),
        config=config, latency_rank=0, check=_check_latency(0),
    )


def flood(rng: random.Random, tiny: bool) -> List[Job]:
    """4-byte ping-pong, then 4-byte non-blocking windows of 100 at
    pre-post 10 under every scheme (the Fig 6 worst case)."""
    reps = 2 if tiny else 20
    window = 100
    jobs = [
        Job(
            name=f"bw4-{scheme}", nranks=2, scheme=scheme, prepost=10,
            program=lambda: bandwidth_program(4, window, repetitions=reps,
                                              blocking=False),
            config=_crossbar(2),
            check=_check_bandwidth(4 * window * reps),
        )
        for scheme in SCHEMES
    ]
    rng.shuffle(jobs)
    return [_latency_job("lat4-static", _crossbar(2), 5 if tiny else 100)] + jobs


def nas(rng: random.Random, tiny: bool) -> List[Job]:
    """LU, CG and MG proxies on 8 ranks, static pre-post 100 and dynamic
    from pre-post 1; the seed scales each job's compute time by ±1 %."""
    sizes = {
        "lu": (lu.build, dict(timesteps=1 if tiny else 2)),
        "cg": (cg.build, dict(outer=1, inner=2 if tiny else 25)),
        "mg": (mg.build, dict(iterations=1)),
    }
    jobs = []
    for kernel, (build, kw) in sizes.items():
        for scheme, prepost in (("static", 100), ("dynamic", 1)):
            scale = 1.0 + rng.uniform(-0.01, 0.01)
            jobs.append(Job(
                name=f"{kernel}-{scheme}{prepost}", nranks=8, scheme=scheme,
                prepost=prepost,
                program=lambda b=build, kw=kw, s=scale: b(compute_scale=s, **kw),
                config=_crossbar(8), check=conservation_problems,
            ))
    rng.shuffle(jobs)
    return [_latency_job("lat4-static", _crossbar(8), 5 if tiny else 100)] + jobs


def _ring_with_probe(iterations: int, msg_bytes: int, probe_peer: int,
                     probe_iters: int):
    """Ring exchange, then a 4-byte ping-pong between rank 0 and
    ``probe_peer`` (another pod on the 1,024-rank tree); rank 0 returns
    the probe's one-way latency in ns."""

    def factory():
        def prog(mpi):
            n = mpi.world_size
            nxt, prv = (mpi.rank + 1) % n, (mpi.rank - 1) % n
            for i in range(iterations):
                rreq = yield from mpi.irecv(source=prv, capacity=msg_bytes, tag=i)
                yield from mpi.send(nxt, size=msg_bytes, tag=i)
                yield from mpi.wait(rreq)
            if mpi.rank not in (0, probe_peer):
                return None
            peer = probe_peer if mpi.rank == 0 else 0
            tag = iterations  # apart from every ring tag
            warmup = 5
            t0 = None
            for i in range(warmup + probe_iters):
                if i == warmup:
                    t0 = mpi.now
                if mpi.rank == 0:
                    yield from mpi.send(peer, size=4, tag=tag)
                    yield from mpi.recv(source=peer, capacity=4, tag=tag)
                else:
                    yield from mpi.recv(source=peer, capacity=4, tag=tag)
                    yield from mpi.send(peer, size=4, tag=tag)
            if mpi.rank == 0:
                return (mpi.now - t0) / probe_iters / 2.0
            return None

        return prog

    return factory


def fleet1k(rng: random.Random, tiny: bool) -> List[Job]:
    """A ring on the three-level fat-tree with on-demand connections,
    dynamic scheme at pre-post 4; the seed picks the message size."""
    nodes = 64 if tiny else 1024
    iterations = 2 if tiny else 10
    msg_bytes = 1024 + 8 * rng.randrange(3)
    return [Job(
        name=f"ring{nodes}-dynamic4", nranks=nodes, scheme="dynamic", prepost=4,
        program=_ring_with_probe(iterations, msg_bytes, nodes // 2,
                                 5 if tiny else 20),
        config=lambda: TestbedConfig(nodes=nodes, **fat_tree_shape(nodes)),
        on_demand=True, finalize=False, latency_rank=0,
        check=_check_latency(0),
    )]


#: the fault cells: (scenario, congestion mode, ft armed).  Only
#: link-down-permanent outlives the transport retry budget, so it is the
#: cell where the recovery subsystem reconnects and replays.
CHAOS_CELLS = (
    ("incast-n1", "both", False),
    ("lossy-window", None, False),
    ("receiver-stall", None, False),
    ("link-down-permanent", None, False),
    ("rank-death", None, True),
)


def _scenario_config(sc, congestion: Optional[str]) -> Callable[[], TestbedConfig]:
    def make() -> TestbedConfig:
        cfg = sc.make_config() if sc.make_config is not None else TestbedConfig()
        if congestion is not None:
            cfg.ib.congestion = make_congestion_config(congestion)
        return cfg

    return make


def chaos(rng: random.Random, tiny: bool) -> List[Job]:
    """Fault cells across the four schemes and several fault seeds, each
    with the recovery subsystem and the invariant auditor armed."""
    seeds = [rng.randrange(1 << 16) for _ in range(1 if tiny else 3)]
    jobs = []
    for scenario, congestion, ft in CHAOS_CELLS:
        sc = SCENARIOS[scenario]
        for scheme in SCHEMES:
            for seed in seeds:
                def run_kwargs(sc=sc, seed=seed, ft=ft):
                    kw = dict(faults=sc.make_plan(seed), audit=True, recovery=True)
                    if ft:
                        kw["ft"] = FTConfig(seed=seed)
                    return kw

                jobs.append(Job(
                    name=f"{scenario}-{scheme}-s{seed}", nranks=sc.nranks,
                    scheme=scheme, prepost=sc.prepost, program=sc.make_program,
                    config=_scenario_config(sc, congestion),
                    on_demand=sc.on_demand, run_kwargs=run_kwargs,
                    check=_check_rank_death if ft else conservation_problems,
                ))
    rng.shuffle(jobs)
    probe_cfg = _scenario_config(SCENARIOS["incast-n1"], "both")
    return [_latency_job("lat4-static-incast", probe_cfg, 5 if tiny else 100)] + jobs


_BUILDERS = {"flood": flood, "nas": nas, "fleet1k": fleet1k, "chaos": chaos}


def make_jobs(workload: str, seed: int, size: str = "full") -> List[Job]:
    """The job list of one pass of ``workload``, deterministic in ``seed``."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r} (know {WORKLOADS})")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r} (know {SIZES})")
    rng = random.Random(f"{workload}/{seed}")
    return _BUILDERS[workload](rng, size == "tiny")
