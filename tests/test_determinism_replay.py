"""Golden-replay determinism tests.

The simulator's regression story rests on bit-identical replay of what a
run *means*: every message's timing and the scheme statistics.
``tests/golden/replay_golden.json`` pins, per workload,

* ``timing_digest`` — a SHA-256 over every completed request's (rank,
  kind, peer, tag, size, completion ns) in completion order, every wire
  message's (src, dst, bytes, inject ns, arrival ns), the fc statistics
  and the final clock (:class:`repro.check.timing.TimingDigest`);
* the aggregate view: final clock, elapsed time, fc statistics and
  tracer summary.

These are correctness fields and are compared exactly.  The digest is
strictly stronger than the aggregates: ``test_digest_sees_one_ns_shift``
moves one message by 1 ns and shows the aggregates stay put while the
digest does not.

``events_executed`` is a *cost* metric, not a correctness field: how
many agenda entries the kernel needed to produce the pinned outcome.  It
is still pinned exactly (``test_event_cost_matches_golden``) so that a
change to it is always deliberate, but an optimisation may lower it as
long as every digest stays put.  The rules such an optimisation follows
are in DESIGN §5.1: two back-to-back waits may be merged into one agenda
entry only when no simulated state is read between them (the fold rule),
and a computation may run early only when every instance of it runs the
same fixed time early (the constant-offset rule).
Regenerate ``events_executed`` (and ``BENCH_perf.json``) only together
with a digest that is unchanged; regenerate a digest only for a change
that is *meant* to alter the model, and say so in the commit message.
"""

import dataclasses
import json
import os

import pytest

from repro.check.timing import TimingDigest
from repro.cluster import TestbedConfig, run_job
from repro.ib.fabric import Fabric
from repro.workloads import bandwidth_program
from repro.workloads.nas import lu

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "replay_golden.json")

#: fields compared by test_replay_matches_golden (everything but the cost)
MEANING = ("timing_digest", "sim_now", "elapsed_ns", "fc", "tracer_summary")


def _snapshot(run):
    """Run ``run`` under a timing recorder; the fixture's view of it."""
    with TimingDigest() as td:
        result = run()
    sim = result.endpoints[0].sim
    return {
        "timing_digest": td.hexdigest(result),
        "events_executed": sim.events_executed,
        "sim_now": sim.now,
        "tracer_summary": sim.tracer.summary(),
        "elapsed_ns": result.elapsed_ns,
        "fc": dataclasses.asdict(result.fc),
    }


def _run_rdma_ring():
    cfg = TestbedConfig(nodes=2)
    cfg.mpi.use_rdma_channel = True
    return run_job(
        bandwidth_program(4, 50, repetitions=10, blocking=False),
        2, "dynamic", prepost=8, config=cfg,
    )


#: name -> workload; must mirror the recipes the fixture was built from
WORKLOADS = {
    "lu_static_pp100": lambda: run_job(
        lu.build(timesteps=3), 8, "static", prepost=100),
    "lu_dynamic_pp10": lambda: run_job(
        lu.build(timesteps=2), 8, "dynamic", prepost=10),
    "lu_hardware_pp1": lambda: run_job(
        lu.build(timesteps=1), 8, "hardware", prepost=1),
    "bw4_nonblocking_pp10": lambda: run_job(
        bandwidth_program(4, 100, repetitions=20, blocking=False),
        2, "static", prepost=10),
    "bw4_rdma_ring": _run_rdma_ring,
}


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as f:
        return json.load(f)


@pytest.fixture(scope="module")
def snapshots():
    return {}


def _snap(name, snapshots):
    if name not in snapshots:
        snapshots[name] = _snapshot(WORKLOADS[name])
    return snapshots[name]


def test_fixture_covers_every_workload(golden):
    assert set(golden) == set(WORKLOADS)
    for name, want in golden.items():
        assert set(want) == set(MEANING) | {"events_executed"}, name


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_replay_matches_golden(name, golden, snapshots):
    got = _snap(name, snapshots)
    want = golden[name]
    # Field-by-field so a failure names the drifted quantity.
    for key in MEANING:
        assert got[key] == want[key], f"{name}: {key} drifted"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_event_cost_matches_golden(name, golden, snapshots):
    got = _snap(name, snapshots)["events_executed"]
    assert got == golden[name]["events_executed"], (
        f"{name}: events_executed {golden[name]['events_executed']} -> {got}; "
        "a cost change with every digest unchanged is regenerated on purpose"
    )


class _OneNsLater:
    """A fault stand-in that delays one wire message by exactly 1 ns."""

    @staticmethod
    def on_data(src_lid, dst_lid, nbytes):
        return (1, 0)


def test_digest_sees_one_ns_shift(monkeypatch, golden):
    """Delay a single mid-run message's arrival by 1 ns: the slack around
    it absorbs the shift, so every aggregate field (event count included)
    replays unchanged — only the per-message digest sees it."""
    name, victim = "lu_static_pp100", 1000
    orig = Fabric.transmit
    calls = [0]

    def transmit(fabric, src_lid, dst_lid, nbytes, message, at):
        calls[0] += 1
        if calls[0] != victim:
            return orig(fabric, src_lid, dst_lid, nbytes, message, at)
        fabric.fault = _OneNsLater()
        try:
            return orig(fabric, src_lid, dst_lid, nbytes, message, at)
        finally:
            fabric.fault = None

    monkeypatch.setattr(Fabric, "transmit", transmit)
    got = _snapshot(WORKLOADS[name])
    want = golden[name]
    assert calls[0] > victim
    for key in MEANING:
        if key != "timing_digest":
            assert got[key] == want[key], f"aggregate {key} saw the shift"
    assert got["events_executed"] == want["events_executed"]
    assert got["timing_digest"] != want["timing_digest"]


def test_back_to_back_runs_are_bit_identical():
    """Two in-process runs of the LU proxy agree on every field, digest
    and event count included — catches ordering that leaks through
    module/global state."""
    run = lambda: run_job(lu.build(timesteps=2), 8, "static", prepost=100)
    assert _snapshot(run) == _snapshot(run)
