"""The lookahead rule on a stalled receiver (DESIGN §5.1).

A stalled rank's progress loop sleeps from one outside event to the next
instead of charging one ``poll_overhead_ns`` wait after another.  These
tests pin what that must not change — every message's timing, through
``run(until=)`` stops and through a rank death that the failure detector
declares mid-stall — and what it must: the cost of a receiver-stall job.

The digests were recorded with the unfolded loop (one agenda entry per
poll, about 12,800 per job); the folded loop must reproduce them exactly.
"""

import pytest

from repro.check.timing import TimingDigest
from repro.cluster import TestbedConfig, run_job
from repro.faults import FaultPlan
from repro.faults.scenarios import RANK_DEATH_VICTIM, SCENARIOS
from repro.ft import FTConfig
from repro.mpi.endpoint import Endpoint
from repro.sim import Simulator
from repro.sim.units import us

#: the receiver-stall scenario at fault seed 7, per scheme
STALL_DIGESTS = {
    "hardware": "a29a4db62911a753f3efcae296ce166ef8c7dbfae9f300d159ef282bcecb0712",
    "static": "fbbee1f0a8d2eb4819535e5da488153f0e427d5ed7ce42a9d88e0f57cfabacca",
    "dynamic": "f714062dfcdf4dff8b5d6a2e1c7a49581bda6325d3490a2ab4f1d1d1efb15547",
    "rdma-eager": "83c8d95bb10ffd1f4a8aa46f5726d6e2f0ad7f6ad9781e595e82dbb4494bcf8d",
}

#: the same, with the stall ended from outside the run at a slice stop
#: (1,001 us) instead of by the injector at 3,205 us
EARLY_RELEASE_DIGESTS = {
    "hardware": "759d88f8ece27b11f8b729e31afc1fd9a2514ec51889e80db14ac5b8bf32bdcd",
    "static": "07e58905b255f75dff7f6323f3fe4b009cfbf6dd635527a4106cfcdd2066346f",
    "dynamic": "6458efcbcbb85e6fc900adea2cfc8becf107ecd9254e0d598461a91a7bd6b1dc",
    "rdma-eager": "8d9609a85dc2d0563c20b1d42b3fda6637487dd796e29f0a1fe9dff7fcfecb29",
}

#: rank 1 stalled from 20 us to 1,520 us across rank 2's death at 40 us,
#: which rank 1's failure detector declares at 1,200 us, mid-stall
DEATH_DIGESTS = {
    "hardware": "dd50ff34bd1811db1390f7a475481bc310c982a384ecad11088acb5e322cce88",
    "static": "dd50ff34bd1811db1390f7a475481bc310c982a384ecad11088acb5e322cce88",
    "dynamic": "dd50ff34bd1811db1390f7a475481bc310c982a384ecad11088acb5e322cce88",
    "rdma-eager": "599acb302011e48801234f67ccaf986688a4098f38f8c4959bbbd203ecf42aa2",
}

SCHEMES = tuple(STALL_DIGESTS)

#: the stepped run's slice; the stall window ends at 3,205 us and every
#: scheme's job outlives 3,220 us, so the last slice leaves work queued
#: and the closing plain run() ends the clock where one run would
SLICE_NS = us(7)
STEP_UNTIL_NS = us(3220)
#: a slice stop mid-stall where the outside release happens
RELEASE_AT_NS = 143 * SLICE_NS


def _stall_job(scheme):
    sc = SCENARIOS["receiver-stall"]
    with TimingDigest() as td:
        result = run_job(sc.make_program(), sc.nranks, scheme,
                         prepost=sc.prepost, faults=sc.make_plan(7))
    return td.hexdigest(result), result.endpoints[0].sim.events_executed


@pytest.mark.parametrize("scheme", SCHEMES)
def test_stall_job_digest_and_cost(scheme):
    digest, events = _stall_job(scheme)
    assert digest == STALL_DIGESTS[scheme]
    # the unfolded loop took ~13,000; the stall window itself now costs a
    # handful of entries between outside events
    assert events < 1000


def _run_in_slices(monkeypatch, at_stop):
    """Make each plain ``Simulator.run()`` advance in ``SLICE_NS`` slices of
    ``run(until=)`` up to ``STEP_UNTIL_NS``, calling ``at_stop(sim)`` after
    each, then finish with one plain run."""
    run = Simulator.run

    def stepped(sim, until=None, max_events=None):
        if until is None:
            while sim.now + SLICE_NS <= STEP_UNTIL_NS:
                run(sim, until=sim.now + SLICE_NS, max_events=max_events)
                at_stop(sim)
        run(sim, until, max_events)

    monkeypatch.setattr(Simulator, "run", stepped)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_stall_job_stepped_through_run_until(scheme, monkeypatch):
    """Each ``run(until=)`` stop caps the lookahead: a sleep never
    crosses it, so outside code between slices sees the state it would
    have seen, and the stitched run means exactly what one run does."""
    stops = []
    _run_in_slices(monkeypatch, lambda sim: stops.append(sim.now))
    digest, _ = _stall_job(scheme)
    assert len(stops) == STEP_UNTIL_NS // SLICE_NS
    assert digest == STALL_DIGESTS[scheme]


@pytest.mark.parametrize("scheme", SCHEMES)
def test_stall_ended_between_slices_is_seen_at_the_next_poll(scheme, monkeypatch):
    """A sleep that crossed the stop would miss state changed between
    two ``run(until=)`` calls: here the stall is lifted at a stop, and the
    stalled rank must drain its CQ at its first poll after it."""
    stalled = []
    stall = Endpoint.fault_stall

    def record(ep, duration_ns):
        stalled.append(ep)
        stall(ep, duration_ns)

    def release(sim):
        if sim.now == RELEASE_AT_NS:
            [ep] = stalled
            ep._stall_until = sim.now
            ep.fault_release_stall()

    monkeypatch.setattr(Endpoint, "fault_stall", record)
    _run_in_slices(monkeypatch, release)
    digest, _ = _stall_job(scheme)
    assert stalled and stalled[0]._stall_until == RELEASE_AT_NS
    assert digest == EARLY_RELEASE_DIGESTS[scheme]


#: a stall the program starts on itself, with no release event queued
#: at its end: only the stall bound stops the sleep at the window's end
UNRELEASED_DIGESTS = {
    us(333): "78430fcbdc0e1b1d752f1dcb407adae4fb77508bafcc9e98426c6709850989e7",
    us(1000): "055d128ebd26428b08e170fca54db697efab510c8bfb0900b1e1b4f365246924",
}


@pytest.mark.parametrize("duration_ns", sorted(UNRELEASED_DIGESTS))
def test_stall_without_release_event_ends_on_time(duration_ns):
    """Past ``_stall_until`` the hardware scheme's receiver drains its CQ
    at its next poll, release event or not: a sleep must not cross the
    window's end even when the agenda is quiet past it."""
    sc = SCENARIOS["receiver-stall"]
    flood = sc.make_program()

    def program(mpi):
        if mpi.rank == 1:
            mpi.fault_stall(duration_ns)
        return (yield from flood(mpi))

    with TimingDigest() as td:
        result = run_job(program, 2, "hardware", prepost=sc.prepost,
                         config=TestbedConfig(nodes=2))
    assert td.hexdigest(result) == UNRELEASED_DIGESTS[duration_ns]


@pytest.mark.parametrize("scheme", SCHEMES)
def test_stall_overlapping_rank_death_with_ft(scheme):
    sc = SCENARIOS["rank-death"]
    plan = (
        FaultPlan(seed=3)
        .receiver_stall(rank=1, at_ns=us(20), duration_ns=us(1500))
        .rank_death(rank=RANK_DEATH_VICTIM, at_ns=us(40))
    )
    with TimingDigest() as td:
        result = run_job(sc.make_program(), sc.nranks, scheme,
                         prepost=sc.prepost, faults=plan, ft=FTConfig(seed=3))
    [failure] = result.failures
    assert (failure.rank, failure.detected_by) == (RANK_DEATH_VICTIM, 1)
    assert us(20) < failure.detected_ns < us(1520)
    assert td.hexdigest(result) == DEATH_DIGESTS[scheme]
    assert result.endpoints[0].sim.events_executed < 1000
