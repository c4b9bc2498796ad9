"""When the fabric resolves an injection (DESIGN §5.1, constant offset).

An HCA pays c = ``hca_send_wqe_ns + dma_startup_ns`` on its send engine
before a message reaches the wire.  With no fault or congestion state
armed, :meth:`Fabric.transmit` runs inside the event that takes the WQE,
for inject time ``at = now + c``, and no agenda entry is made for it.
Fault windows and congestion queues change over time, so with either
armed the transmit runs as its own agenda entry at ``at``.
"""

import pytest

from repro.check.timing import TimingDigest
from repro.cluster import TestbedConfig, run_job
from repro.congestion import CongestionState, make_congestion_config
from repro.faults import FaultPlan
from repro.faults.injector import FabricFaultState
from repro.ib import HCA, Fabric, IBConfig, Opcode, RecvWR, SendWR
from repro.sim import Simulator
from repro.sim.units import us
from repro.workloads import bandwidth_program
from tests.ib_helpers import build_pair, connect_mesh

C = IBConfig().hca_send_wqe_ns + IBConfig().dma_startup_ns


@pytest.fixture
def spy(monkeypatch):
    """Logs every transmit as ``(now, at, pump_now)`` — ``pump_now`` is
    the clock of the enclosing ``HCA._pump``, ``None`` outside one — and
    every transmit put on the agenda.  Install before building HCAs (each
    binds its ``_pump`` at construction)."""
    log = {"tx": [], "scheduled": [], "pump": []}
    orig_pump, orig_tx = HCA._pump, Fabric.transmit
    orig_call_at, orig_call_later = Simulator.call_at, Simulator.call_later

    def _pump(hca):
        log["pump"].append(hca.sim.now)
        try:
            return orig_pump(hca)
        finally:
            log["pump"].pop()

    def transmit(fabric, src_lid, dst_lid, nbytes, message, at):
        pump = log["pump"][-1] if log["pump"] else None
        log["tx"].append((fabric.sim.now, at, pump))
        return orig_tx(fabric, src_lid, dst_lid, nbytes, message, at)

    def call_at(sim, time, callback, *args):
        if getattr(callback, "__func__", None) is transmit:
            log["scheduled"].append(time)
        return orig_call_at(sim, time, callback, *args)

    def call_later(sim, delay, callback, *args):
        if getattr(callback, "__func__", None) is transmit:
            log["scheduled"].append(sim.now + delay)
        return orig_call_later(sim, delay, callback, *args)

    monkeypatch.setattr(HCA, "_pump", _pump)
    monkeypatch.setattr(Fabric, "transmit", transmit)
    monkeypatch.setattr(Simulator, "call_at", call_at)
    monkeypatch.setattr(Simulator, "call_later", call_later)
    return log


def _flood(config):
    return run_job(bandwidth_program(4, 16, repetitions=2, blocking=False),
                   2, "static", prepost=4, config=config)


@pytest.mark.parametrize("topology", ["crossbar", "fat-tree"])
def test_fault_free_injection_resolves_in_the_pump(spy, topology):
    # leaf_ports=1 puts the two nodes on different leaves: a 2-link route
    cfg = TestbedConfig(nodes=2, topology=topology, leaf_ports=1)
    with TimingDigest() as td:
        _flood(cfg)
    assert spy["tx"] and not spy["scheduled"]
    for now, at, pump in spy["tx"]:
        assert pump == now and at == now + C
    # the digest's inject time is the pump time + c, row for row
    assert [row[3] for row in td.wire] == [pump + C for _, _, pump in spy["tx"]]


def test_fault_plan_defers_transmit_to_inject_time(spy, monkeypatch):
    seen = []
    orig = FabricFaultState.on_data

    def on_data(state, src_lid, dst_lid, nbytes):
        seen.append(spy["tx"][-1][0] == spy["tx"][-1][1])
        return orig(state, src_lid, dst_lid, nbytes)

    monkeypatch.setattr(FabricFaultState, "on_data", on_data)
    plan = FaultPlan(seed=7).drop_window(at_ns=us(10), duration_ns=us(50),
                                          probability=0.3)
    run_job(bandwidth_program(4, 16, repetitions=2, blocking=False),
            2, "static", prepost=4, faults=plan)
    assert seen and all(seen)  # fault.on_data ran with now == inject time
    assert len(spy["scheduled"]) == len(spy["tx"])
    assert all(now == at for now, at, _ in spy["tx"])


def test_congestion_defers_transmit_to_inject_time(spy, monkeypatch):
    seen = []
    orig = CongestionState.inject

    def inject(state, src, dst, wire, ser, message, extra):
        seen.append(state.sim.now == spy["tx"][-1][1])
        return orig(state, src, dst, wire, ser, message, extra)

    monkeypatch.setattr(CongestionState, "inject", inject)
    cfg = TestbedConfig(nodes=2)
    cfg.ib.congestion = make_congestion_config("both")
    _flood(cfg)
    assert seen and all(seen)  # CongestionState.inject at inject time
    assert len(spy["scheduled"]) == len(spy["tx"])


def test_read_response_resolves_when_the_engine_takes_it(spy):
    """Two RDMA reads reach one responder at the same instant: the first
    response resolves inline, the second from an agenda entry when the
    engine frees — each c before its inject time."""
    sim = Simulator()
    fabric = Fabric(sim, IBConfig())
    hcas = [HCA(sim, fabric, lid) for lid in range(3)]
    cqs, qps = connect_mesh(sim, fabric, hcas)
    mr = hcas[1].reg_mr(4096)
    for src in (0, 2):
        qps[(src, 1)].post_send(SendWR(wr_id=src, opcode=Opcode.RDMA_READ,
                                       length=8, remote_addr=mr.addr,
                                       rkey=mr.rkey))
    sim.run(max_events=100_000)
    assert cqs[0].poll()[0].ok and cqs[2].poll()[0].ok
    (t0, at0, _), (t1, at1, _) = [tx for tx in spy["tx"] if tx[2] is None]
    assert t1 == at0 and spy["scheduled"] == [t1]  # queued behind the first
    assert at0 == t0 + C and at1 == t1 + C


def test_crossbar_counts_both_host_links_per_switched_message():
    sim, fabric, hcas, qp0, qp1, cq0, cq1 = build_pair()
    for i in range(5):
        qp1.post_recv(RecvWR(wr_id=i, capacity=64))
        qp0.post_send(SendWR(wr_id=i, opcode=Opcode.SEND, length=8))
    sim.run(max_events=100_000)
    # ACKs ride the control path, so only the data messages count
    assert fabric.link_msgs == {("hup", 0): 5, ("down", 1): 5}
    assert fabric.path_links(0, 1) == ()
