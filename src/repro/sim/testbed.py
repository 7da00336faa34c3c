"""Rack testbed simulator (§5.1 Experiment setup / Metrics).

Deploys a :class:`~repro.core.placement.Placement` onto the simulated rack
and measures aggregate throughput: per-subgroup capacities are re-sampled
from profile distributions with NUMA-aware socket assignment (so measured
rates usually land slightly *above* the Placer's worst-case predictions,
§5.2), the shared server NIC is water-filled max-min fairly, and t_max is
enforced by rate limiting at chain entry.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.bess.perfsim import ServerPerfModel, SubgroupLoad, waterfill_nic
from repro.core.placement import ChainPlacement, Placement
from repro.exceptions import DataplaneError
from repro.hw.platform import Platform
from repro.hw.spec import topology_for
from repro.hw.topology import Topology
from repro.profiles.defaults import ProfileDatabase, default_profiles
from repro.sim.measurement import ChainMeasurement
from repro.units import DEFAULT_PACKET_BITS


@dataclass
class TestbedReport:
    """Aggregate measurement of one placement execution."""

    measurements: List[ChainMeasurement] = field(default_factory=list)

    @property
    def aggregate_throughput_mbps(self) -> float:
        return sum(m.achieved_mbps for m in self.measurements)

    @property
    def aggregate_marginal_mbps(self) -> float:
        return sum(m.marginal_mbps for m in self.measurements)

    @property
    def all_slos_met(self) -> bool:
        return all(m.slo_met for m in self.measurements)


class TestbedSimulator:
    """Executes placements on the simulated rack."""

    __test__ = False  # not a pytest test class despite the name

    def __init__(
        self,
        topology: Optional[Topology] = None,
        profiles: Optional[ProfileDatabase] = None,
        packet_bits: int = DEFAULT_PACKET_BITS,
        seed: int = 23,
    ):
        self.topology = topology or topology_for("paper-testbed").build()
        self.profiles = profiles or default_profiles()
        self.packet_bits = packet_bits
        self.seed = seed

    def run(self, placement: Placement) -> TestbedReport:
        """Measure a feasible placement (fluid model).

        The traffic generator saturates each chain up to its t_max; chains
        achieve the minimum of their sampled subgroup capacities, SmartNIC
        caps, and their fair share of each server NIC.
        """
        if not placement.feasible:
            raise DataplaneError(
                "refusing to execute an infeasible placement "
                f"({placement.infeasible_reason})"
            )
        rng = random.Random(self.seed)

        # sample per-chain capacity limits
        unconstrained: Dict[str, float] = {}
        per_server_models = {
            server.name: ServerPerfModel(server, self.profiles,
                                         seed=self.seed)
            for server in self.topology.servers
        }
        loads_by_server: Dict[str, List[SubgroupLoad]] = {
            name: [] for name in per_server_models
        }
        load_of: Dict[str, SubgroupLoad] = {}
        for cp in placement.chains:
            for sg in cp.subgroups:
                load = SubgroupLoad(
                    sg_id=sg.sg_id,
                    chain_name=cp.name,
                    cores=sg.cores,
                    nf_costs=self._nf_costs(cp, sg),
                    demux_penalty=not self.topology.metron_steering,
                )
                loads_by_server[sg.server].append(load)
                load_of[sg.sg_id] = load
        for server_name, loads in loads_by_server.items():
            per_server_models[server_name].assign_sockets(loads)

        port_rate = getattr(self.topology.switch, "port_rate_mbps", math.inf)
        for cp in placement.chains:
            caps = [min(cp.chain.slo.t_max, port_rate)]
            for sg in cp.subgroups:
                model = per_server_models[sg.server]
                caps.append(
                    model.subgroup_capacity_mbps(
                        load_of[sg.sg_id], self.packet_bits
                    )
                )
            caps.extend(cp.nic_caps.values())
            unconstrained[cp.name] = min(caps)

        # shared NIC water-filling per server
        achieved = dict(unconstrained)
        for server in self.topology.servers:
            visits = {
                cp.name: cp.server_visits.get(server.name, 0.0)
                for cp in placement.chains
            }
            achieved = waterfill_nic(
                achieved, visits, server.primary_nic().rate_mbps
            )

        report = TestbedReport()
        for cp in placement.chains:
            predicted = placement.rates.get(cp.name, cp.estimated_rate)
            measured = achieved[cp.name] * rng.uniform(0.998, 1.002)
            report.measurements.append(
                ChainMeasurement(
                    chain_name=cp.name,
                    offered_mbps=min(cp.chain.slo.t_max, port_rate),
                    achieved_mbps=measured,
                    predicted_mbps=predicted,
                    t_min_mbps=cp.chain.slo.t_min,
                    latency_us=cp.latency_us,
                )
            )
        return report

    def _nf_costs(self, cp: ChainPlacement, sg) -> List[tuple]:
        fractions = cp.chain.graph.node_fractions()
        out = []
        for nid in sg.node_ids:
            node = cp.chain.graph.nodes[nid]
            out.append((node.nf_class, node.params, fractions[nid]))
        return out

    # -- packet-level execution ------------------------------------------------

    def run_packets(
        self,
        placement: Placement,
        packets_per_chain: int = 32,
    ) -> Dict[str, "object"]:
        """Drive real packets through meta-compiler-generated pipelines.

        Returns per-chain :class:`PacketTraceResult`s; used to validate
        that generated routing visits every NF in order across platforms.
        """
        from repro.metacompiler.compiler import MetaCompiler
        from repro.sim.runtime import DeployedRack

        meta = MetaCompiler(
            topology=self.topology, profiles=self.profiles
        )
        artifacts = meta.compile_placement(placement)
        rack = DeployedRack(
            topology=self.topology,
            artifacts=artifacts,
            profiles=self.profiles,
            seed=self.seed,
        )
        return rack.trace_chains(placement, packets_per_chain)
