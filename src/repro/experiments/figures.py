"""Row/series printers matching the paper's tables and figures (§5).

Each function regenerates one artifact's data series and returns both a
structured record and a printable table, so the benchmark harness can
assert on shapes and a human can eyeball the rows against the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.chain.slo import SLO
from repro.experiments.chains import (
    canonical_chain,
    base_rate_mbps,
    chains_with_delta,
    nat_stress_chain,
)
from repro.experiments.runner import (
    DeltaSweepResult,
    SweepSpec,
    run_sweep,
)
from repro.experiments.schemes import ABLATIONS, SCHEMES
from repro.hw.spec import topology_for
from repro.hw.topology import Topology
from repro.profiles.defaults import ProfileDatabase, default_profiles
from repro.profiles.profiler import Profiler
from repro.units import DEFAULT_PACKET_BITS, gbps, mbps_to_gbps


def figure2_panel(
    chain_indices: Sequence[int],
    deltas: Sequence[float] = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0),
    topology_factory: Optional[Callable[[], Topology]] = None,
    measure: bool = True,
    jobs: int = 1,
) -> DeltaSweepResult:
    """One Figure 2(a-e) panel: all six schemes over the δ sweep."""
    return run_sweep(SweepSpec(
        chain_indices=chain_indices,
        deltas=deltas,
        schemes=SCHEMES,
        topology_factory=topology_factory,
        measure=measure,
        jobs=jobs,
    ))


def figure2f_ablations(
    chain_indices: Sequence[int] = (1, 2, 3, 4),
    deltas: Sequence[float] = (0.5, 1.0, 1.5, 2.0),
    measure: bool = True,
    jobs: int = 1,
) -> DeltaSweepResult:
    """Figure 2f: Lemur vs No-Profiling vs No-Core-Allocation."""
    return run_sweep(SweepSpec(
        chain_indices=chain_indices, deltas=deltas, schemes=ABLATIONS,
        measure=measure, jobs=jobs,
    ))


@dataclass
class MultiServerResult:
    """Figure 3a record: one vs two 8-core servers, chains {1,2,3}."""

    rows: List[Tuple[int, float, bool, float]] = field(default_factory=list)
    # (num_servers, delta, feasible, aggregate_mbps)

    def aggregate(self, num_servers: int, delta: float) -> Optional[float]:
        for servers, d, feasible, agg in self.rows:
            if servers == num_servers and d == delta:
                return agg if feasible else None
        return None

    def print_table(self) -> str:
        lines = ["Fig 3a: chains {1,2,3} on 1 vs 2 eight-core servers"]
        for servers, delta, feasible, agg in self.rows:
            value = f"{mbps_to_gbps(agg):6.2f}G" if feasible else "INFEASIBLE"
            lines.append(f"  servers={servers} δ={delta}: {value}")
        return "\n".join(lines)


def figure3a_multiserver(
    deltas: Sequence[float] = (0.5, 1.0, 1.5),
    chain_indices: Sequence[int] = (1, 2, 3),
    profiles: Optional[ProfileDatabase] = None,
) -> MultiServerResult:
    """Figure 3a: Lemur placing chains {1,2,3} on one vs two servers."""
    from repro.core.heuristic import heuristic_place

    profiles = profiles or default_profiles()
    result = MultiServerResult()
    for num_servers in (1, 2):
        for delta in deltas:
            topology = topology_for("multi-server",
                                    servers=num_servers).build()
            chains = chains_with_delta(chain_indices, delta,
                                       profiles=profiles)
            placement = heuristic_place(chains, topology, profiles)
            result.rows.append((
                num_servers, delta, placement.feasible,
                placement.aggregate_rate,
            ))
    return result


@dataclass
class SmartNICResult:
    """Figure 3b record: chain 5 with and without the SmartNIC."""

    rows: List[Tuple[bool, float, bool, float]] = field(default_factory=list)
    # (with_nic, delta, feasible, aggregate_mbps)

    def aggregate(self, with_nic: bool, delta: float) -> Optional[float]:
        for nic, d, feasible, agg in self.rows:
            if nic == with_nic and d == delta:
                return agg if feasible else None
        return None

    def print_table(self) -> str:
        lines = ["Fig 3b: chain 5 (ChaCha) with/without the 40G SmartNIC"]
        for nic, delta, feasible, agg in self.rows:
            label = "smartnic" if nic else "server-only"
            value = f"{mbps_to_gbps(agg):6.2f}G" if feasible else "INFEASIBLE"
            lines.append(f"  {label:<12} δ={delta}: {value}")
        return "\n".join(lines)


def figure3b_smartnic(
    deltas: Sequence[float] = (0.5, 1.0, 1.5),
    profiles: Optional[ProfileDatabase] = None,
) -> SmartNICResult:
    """Figure 3b: Lemur offloading ChaCha to the Netronome NIC."""
    from repro.core.heuristic import heuristic_place

    profiles = profiles or default_profiles()
    result = SmartNICResult()
    for with_nic in (False, True):
        for delta in deltas:
            topology = topology_for(
                "paper-smartnic" if with_nic else "paper-testbed"
            ).build()
            chain = canonical_chain(5)
            base = base_rate_mbps(chain, profiles)
            chains = [chain.with_slo(SLO(t_min=delta * base,
                                         t_max=gbps(100)))]
            placement = heuristic_place(chains, topology, profiles)
            result.rows.append((
                with_nic, delta, placement.feasible,
                placement.aggregate_rate,
            ))
    return result


@dataclass
class OpenFlowResult:
    """Figure 3c record: chain 3's ACL on the OF switch vs on a server."""

    offloaded_mbps: float = 0.0
    server_mbps: float = 0.0

    @property
    def speedup(self) -> float:
        return (self.offloaded_mbps / self.server_mbps
                if self.server_mbps else 0.0)

    def print_table(self) -> str:
        return (
            "Fig 3c: chain 3 ACL offload to the OpenFlow switch\n"
            f"  ACL on OF switch : {self.offloaded_mbps:8.0f} Mbps\n"
            f"  ACL on server    : {self.server_mbps:8.0f} Mbps\n"
            f"  speedup          : {self.speedup:8.1f}x"
        )


def figure3c_openflow(
    profiles: Optional[ProfileDatabase] = None,
) -> OpenFlowResult:
    """Figure 3c: OF-accelerated ACL vs stitching it via the server.

    The paper measures a sub-chain rate of 7710 Mbps with the OF switch
    executing ACL vs 693 Mbps through a single commodity-server core; we
    reproduce the shape with a one-core budget for the sub-chain.
    """
    from repro.chain.graph import chains_from_spec
    from repro.chain.vocabulary import default_vocabulary
    from repro.core.pipeline import build_placement
    from repro.core.patterns import preferred_assignment
    from repro.hw.server import Server, CPUSocket, NIC
    from repro.hw.openflow import OpenFlowSwitchModel

    profiles = profiles or default_profiles()
    result = OpenFlowResult()
    # The OF experiment lifts the artificial IPv4Fwd P4-only restriction
    # (there is no PISA switch in this topology) and, like the paper's
    # 693 Mbps single-core figure, drives small packets.
    vocabulary = default_vocabulary().unrestricted()
    packet_bits = 256 * 8
    # the OF-offloadable sub-chain of chain 3 (fixed table order: acl, l3)
    spec = "chain sub3: ACL -> IPv4Fwd"
    for offload in (True, False):
        server = Server(
            name="server0",
            sockets=[CPUSocket(0, cores=3, freq_hz=1.7e9)],
            nics=[NIC(name="nic0", rate_mbps=gbps(10))],
            reserved_cores=1,
        )
        topology = Topology(
            switch=OpenFlowSwitchModel(name="of0", port_rate_mbps=gbps(10)),
            servers=[server],
        )
        chains = chains_from_spec(spec, slos=[SLO(t_min=0.0)],
                                  vocabulary=vocabulary)
        prefer = "hw" if offload else "sw"
        assignments = [preferred_assignment(chains[0], topology, prefer)]
        placement = build_placement(
            chains, assignments, topology, profiles,
            packet_bits=packet_bits,
            core_policy="none", strategy="of-experiment",
        )
        aggregate = placement.aggregate_rate if placement.feasible else 0.0
        if offload:
            result.offloaded_mbps = aggregate
        else:
            result.server_mbps = aggregate
    return result


def table4_rows(runs: int = 500) -> List[str]:
    """Table 4: profiled NF costs over 500 runs, NUMA same/diff."""
    profiler = Profiler()
    lines = [f"{'NF':<22} {'NUMA':<5} {'Mean':>7} {'Min':>7} {'Max':>7}"]
    for stats in profiler.table4(runs=runs):
        label = stats.nf_class
        if stats.nf_class == "ACL":
            label = "ACL (1024 rules)"
        if stats.nf_class == "NAT":
            label = "NAT (12000 entries)"
        lines.append(
            f"{label:<22} {stats.numa:<5} {stats.mean:7.0f} "
            f"{stats.min:7.0f} {stats.max:7.0f}"
        )
    return lines


@dataclass
class StageExperimentResult:
    """§5.2 extreme-configuration record (the 10-vs-11 NAT narrative)."""

    all_switch_11_fits: bool = False
    lemur_feasible: bool = False
    lemur_nats_on_switch: int = 0
    compiler_stages_10: int = 0
    conservative_stages_10: int = 0
    naive_stages_10: int = 0

    def print_table(self) -> str:
        return (
            "§5.2 stage-constraint experiment (BPF -> 11xNAT -> IPv4Fwd)\n"
            f"  all-11-NATs-on-switch fits    : {self.all_switch_11_fits}\n"
            f"  Lemur feasible                : {self.lemur_feasible} "
            f"({self.lemur_nats_on_switch} NATs on switch)\n"
            f"  10-NAT stages (compiler)      : {self.compiler_stages_10}\n"
            f"  10-NAT stages (conservative)  : {self.conservative_stages_10}\n"
            f"  10-NAT stages (naive codegen) : {self.naive_stages_10}"
        )


def stage_constraint_experiment(
    profiles: Optional[ProfileDatabase] = None,
) -> StageExperimentResult:
    """Reproduce the 10-vs-11 NAT switch-stage pressure experiment."""
    from repro.core.heuristic import heuristic_place
    from repro.core.placement import Placement
    from repro.hw.platform import Platform
    from repro.p4c.compiler import PISACompiler

    profiles = profiles or default_profiles()
    result = StageExperimentResult()
    compiler = PISACompiler()

    chain11 = nat_stress_chain(11)
    all_ids = set(chain11.graph.nodes)
    result.all_switch_11_fits = compiler.compile(
        [(chain11.graph, all_ids)]
    ).fits

    chain10 = nat_stress_chain(10)
    ids10 = set(chain10.graph.nodes)
    result.compiler_stages_10 = compiler.compile(
        [(chain10.graph, ids10)]
    ).stage_count
    result.conservative_stages_10 = compiler.compile(
        [(chain10.graph, ids10)], strategy="conservative"
    ).stage_count
    result.naive_stages_10 = compiler.compile(
        [(chain10.graph, ids10)], strategy="naive"
    ).stage_count

    base = base_rate_mbps(chain11, profiles)
    chains = [chain11.with_slo(SLO(t_min=0.5 * base, t_max=gbps(100)))]
    placement = heuristic_place(
        chains, topology_for("paper-testbed").build(), profiles)
    result.lemur_feasible = placement.feasible
    if placement.feasible:
        cp = placement.chains[0]
        result.lemur_nats_on_switch = sum(
            1 for nid, a in cp.assignment.items()
            if a.platform is Platform.PISA
            and cp.chain.graph.nodes[nid].nf_class == "NAT"
        )
    return result
