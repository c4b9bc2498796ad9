"""Cluster construction: fabric, HCAs, endpoints, and the QP mesh.

``MPI_Init`` in the paper's implementation sets up a Reliable Connection
between every two processes and binds all queues to a single CQ per
process; :meth:`Cluster.launch` reproduces that wiring.  Rank placement is
block-cyclic over nodes: with 16 ranks on 8 nodes, ranks *r* and *r + 8*
share a node (the paper runs BT/SP this way), and their traffic takes the
HCA loopback path.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.cluster.config import TestbedConfig
from repro.core.base import FlowControlScheme
from repro.ib.fabric import Fabric
from repro.ib.hca import HCA
from repro.mpi.connection import Connection
from repro.mpi.endpoint import Endpoint
from repro.sim import Simulator
from repro.sim.trace import Tracer


class Cluster:
    """A simulated cluster ready to run MPI jobs."""

    def __init__(self, config: Optional[TestbedConfig] = None, trace: bool = False):
        self.config = config or TestbedConfig()
        # fields may have been edited since construction: re-check them
        self.config.mpi.validate()
        self.sim = Simulator()
        self.tracer = Tracer(enabled=trace)
        if self.config.topology == "fat-tree":
            from repro.ib.fattree import FatTreeFabric

            self.fabric = FatTreeFabric(
                self.sim, self.config.ib, self.tracer,
                leaf_ports=self.config.leaf_ports, spines=self.config.spines,
                levels=self.config.levels,
                pod_leaves=self.config.pod_leaves, cores=self.config.cores,
            )
        else:
            self.fabric = Fabric(self.sim, self.config.ib, self.tracer)
        if self.config.ib.congestion is not None:
            from repro.congestion import CongestionState

            self.fabric.congestion = CongestionState(
                self.sim, self.fabric, self.config.ib.congestion, self.tracer
            )
        self.hcas: List[HCA] = [
            HCA(self.sim, self.fabric, lid, self.config.ib, self.tracer)
            for lid in range(self.config.nodes)
        ]
        self.endpoints: List[Endpoint] = []
        self.cm = None  # set when launched with on_demand=True
        self.auditor = None  # repro.check.Auditor, when attached
        self.recovery = None  # repro.recovery.RecoveryManager, when installed
        self.ft = None  # repro.ft.FTManager, when installed

    # ------------------------------------------------------------------
    def node_of_rank(self, rank: int) -> int:
        """Block-cyclic placement: rank r lives on node r mod nodes."""
        return rank % self.config.nodes

    def launch(
        self,
        nranks: int,
        scheme: FlowControlScheme,
        prepost: int,
        on_demand: Optional[bool] = None,
    ) -> List[Endpoint]:
        """Create ``nranks`` endpoints and wire their connections.

        ``on_demand=False``: the paper's MPI_Init behaviour — a full
        all-to-all RC mesh with pre-posted buffers on every connection.
        With ``on_demand=True``, connections are established lazily by a
        :class:`~repro.cluster.on_demand.ConnectionManager` when two ranks
        first communicate (available afterwards as ``cluster.cm``).  Left
        unspecified (``None``), jobs at or above
        ``TestbedConfig.on_demand_threshold`` ranks go on-demand
        automatically — a 1,024-rank mesh would wire ~1M QP pairs.
        """
        if self.endpoints:
            raise RuntimeError("cluster already launched")
        if nranks < 1:
            raise ValueError("need at least one rank")
        if on_demand is None:
            on_demand = nranks >= self.config.on_demand_threshold

        connector = None
        if on_demand:
            from repro.cluster.on_demand import ConnectionManager

            self.cm = ConnectionManager(self)
            connector = self.cm.request

        for rank in range(nranks):
            hca = self.hcas[self.node_of_rank(rank)]
            ep = Endpoint(
                sim=self.sim,
                hca=hca,
                rank=rank,
                world_size=nranks,
                config=self.config.mpi,
                scheme=scheme,
                requested_prepost=prepost,
                tracer=self.tracer,
                connector=connector,
            )
            self.endpoints.append(ep)

        if on_demand:
            return self.endpoints

        # Full QP mesh: one RC connection per ordered pair, all bound to
        # the per-process CQ (paper §3.1).
        qps: Dict[tuple, object] = {}
        for a in self.endpoints:
            for b in self.endpoints:
                if a.rank != b.rank:
                    qps[(a.rank, b.rank)] = a.hca.create_qp(a.cq)
        for (i, j), qp in qps.items():
            peer_qp = qps[(j, i)]
            qp.connect(self.endpoints[j].hca.lid, peer_qp.qp_num)
        for a in self.endpoints:
            for b in self.endpoints:
                if a.rank != b.rank:
                    conn = Connection(a, b.rank, qps[(a.rank, b.rank)])
                    a.add_connection(b.rank, conn)
        if self.endpoints and self.endpoints[0]._ring_mode:
            for a in self.endpoints:
                for b in self.endpoints:
                    if a.rank < b.rank:
                        Endpoint.wire_rdma_rings(
                            a.connections[b.rank], b.connections[a.rank]
                        )
        return self.endpoints

    def reset_stats(self) -> None:
        """Zero the observability counters between jobs on a reused
        cluster (see :func:`repro.core.stats.reset_counters`)."""
        from repro.core.stats import reset_counters

        reset_counters(self.endpoints, congestion=self.fabric.congestion)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Cluster nodes={self.config.nodes} ranks={len(self.endpoints)}>"
