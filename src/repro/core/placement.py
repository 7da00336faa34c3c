"""Placement data structures.

A *pattern* maps each NF node to a hardware element; a *placement* adds
run-to-completion subgroups with core allocations and the LP's per-chain
rate assignment (§3.2 "a placement includes a pattern, a core allocation for
each subgroup, and the rates assigned to NF chains").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.chain.graph import NFChain
from repro.hw.platform import Platform


@dataclass(frozen=True)
class NodeAssignment:
    """Where one NF runs: platform + concrete device name."""

    platform: Platform
    device: str

    def __str__(self) -> str:
        return f"{self.platform.value}:{self.device}"


@dataclass
class Subgroup:
    """A run-to-completion group of server NFs sharing cores (§3.2).

    ``cycles`` is the per-ingress-packet cost of one pass through the
    subgroup (member NF costs weighted by the fraction of chain traffic
    reaching them, plus coordination overheads). ``replicable`` is False when
    the subgroup contains a non-replicable NF (NAT, Limiter) or a
    branch/merge node.
    """

    sg_id: str
    chain_name: str
    server: str
    node_ids: Tuple[str, ...]
    cycles: float
    replicable: bool
    cores: int = 1

    def rate_mbps(self, freq_hz: float, packet_bits: int) -> float:
        """Max chain-ingress rate this subgroup supports with its cores."""
        if self.cycles <= 0:
            return float("inf")
        pps = self.cores * freq_hz / self.cycles
        return pps * packet_bits / 1e6


@dataclass
class ChainPlacement:
    """One chain's pattern + subgroups + derived quantities."""

    chain: NFChain
    assignment: Dict[str, NodeAssignment]
    subgroups: List[Subgroup] = field(default_factory=list)
    #: SmartNIC rate caps: device name -> max chain rate (Mbps).
    nic_caps: Dict[str, float] = field(default_factory=dict)
    #: Per-server NIC traversal multiplicity: expected times a unit of chain
    #: traffic enters (== exits) each server (for the link-capacity LP).
    server_visits: Dict[str, float] = field(default_factory=dict)
    #: Number of switch<->server/SmartNIC bounces along the worst-case path.
    bounces: int = 0
    #: Worst-case chain latency (µs) under this placement.
    latency_us: float = 0.0
    #: Estimated chain rate (Mbps) given subgroup core allocations.
    estimated_rate: float = 0.0

    @property
    def name(self) -> str:
        return self.chain.name

    def switch_node_ids(self) -> set:
        return {
            nid for nid, a in self.assignment.items()
            if a.platform is Platform.PISA
        }

    def at_one_core(self, chain: Optional[NFChain] = None) -> "ChainPlacement":
        """A copy, for ``chain`` (default: the same chain), whose
        subgroups are fresh objects at one core each: a core allocation
        may change them without touching this placement. The derived
        quantities are copied as they are; only ``estimated_rate``
        depends on cores, and every allocation re-estimates it."""
        return ChainPlacement(
            chain=self.chain if chain is None else chain,
            assignment=dict(self.assignment),
            subgroups=[
                Subgroup(sg.sg_id, sg.chain_name, sg.server, sg.node_ids,
                         sg.cycles, sg.replicable)
                for sg in self.subgroups
            ],
            nic_caps=dict(self.nic_caps),
            server_visits=dict(self.server_visits),
            bounces=self.bounces,
            latency_us=self.latency_us,
            estimated_rate=self.estimated_rate,
        )

    def cores_used(self) -> Dict[str, int]:
        """Server name -> cores consumed by this chain's subgroups."""
        usage: Dict[str, int] = {}
        for sg in self.subgroups:
            usage[sg.server] = usage.get(sg.server, 0) + sg.cores
        return usage


@dataclass
class Placement:
    """A full multi-chain placement with rates — the Placer's output."""

    chains: List[ChainPlacement]
    rates: Dict[str, float] = field(default_factory=dict)
    feasible: bool = False
    objective_mbps: float = 0.0  # aggregate marginal throughput
    infeasible_reason: Optional[str] = None
    strategy: str = "lemur"
    switch_stages_used: Optional[int] = None

    @property
    def aggregate_rate(self) -> float:
        return sum(self.rates.values())

    @property
    def aggregate_tmin(self) -> float:
        return sum(cp.chain.slo.t_min for cp in self.chains)

    def rate_of(self, chain_name: str) -> float:
        return self.rates.get(chain_name, 0.0)

    def total_cores(self) -> Dict[str, int]:
        usage: Dict[str, int] = {}
        for cp in self.chains:
            for server, cores in cp.cores_used().items():
                usage[server] = usage.get(server, 0) + cores
        return usage

    def describe(self) -> str:
        """Human-readable summary for reports and examples."""
        lines = [f"Placement[{self.strategy}] feasible={self.feasible} "
                 f"marginal={self.objective_mbps:.0f} Mbps"]
        if self.infeasible_reason:
            lines.append(f"  reason: {self.infeasible_reason}")
        for cp in self.chains:
            rate = self.rates.get(cp.name, 0.0)
            lines.append(
                f"  {cp.name}: rate={rate:.0f} Mbps "
                f"(t_min={cp.chain.slo.t_min:.0f}), est={cp.estimated_rate:.0f}, "
                f"bounces={cp.bounces}"
            )
            for nid in cp.chain.graph.topological_order():
                node = cp.chain.graph.nodes[nid]
                sg = next((s for s in cp.subgroups if nid in s.node_ids), None)
                core_info = f" cores={sg.cores}" if sg and nid == sg.node_ids[0] else ""
                lines.append(
                    f"    {node.nf_class:<12} -> {cp.assignment[nid]}{core_info}"
                )
        return "\n".join(lines)
