"""Chain throughput estimation and link-load analysis (§3.2).

The estimated rate of a chain is the minimum over its server subgroups and
SmartNIC NFs (the PISA/OpenFlow switch processes at line rate). Subgroup
rates scale with allocated cores; replicated subgroups pay the demux
load-balancing overhead (§5.3). Branches are handled by weighting each NF's
cost with the fraction of chain ingress traffic reaching it — equivalent to
the paper's decompose-into-linear-chains-and-merge-estimates procedure under
operator-provided split ratios.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.chain.graph import NFChain
from repro.core.placement import ChainPlacement, NodeAssignment, Subgroup
from repro.hw.platform import Platform
from repro.hw.topology import Topology
from repro.profiles.defaults import (
    DEMUX_LB_CYCLES,
    NSH_ENCAP_DECAP_CYCLES,
    ProfileDatabase,
)
from repro.units import DEFAULT_PACKET_BITS

#: One-way switch transit time (µs): parse + pipeline + serialize.
SWITCH_TRANSIT_US = 1.0


def subgroup_rate_mbps(
    subgroup: Subgroup,
    freq_hz: float,
    packet_bits: int = DEFAULT_PACKET_BITS,
    demux_penalty: bool = True,
) -> float:
    """Max chain-ingress rate a subgroup supports with its core count.

    Replicated subgroups (cores > 1) pay the demultiplexer's per-packet
    load-balancing cycles (§5.3, ~180 cycles) on top of their own cost —
    unless Metron-style ToR steering removes the software demux
    (``demux_penalty=False``).
    """
    cycles = subgroup.cycles
    if subgroup.cores > 1 and demux_penalty:
        cycles += DEMUX_LB_CYCLES
    pps = subgroup.cores * freq_hz / cycles
    return pps * packet_bits / 1e6


def subgroup_rate_on(
    subgroup: Subgroup,
    topology: Topology,
    packet_bits: int = DEFAULT_PACKET_BITS,
) -> float:
    """:func:`subgroup_rate_mbps` on ``topology``: at its server's clock,
    with the demux penalty unless the rack has Metron steering. The one
    rate both the chain estimate and the core allocator rank by."""
    return subgroup_rate_mbps(
        subgroup, topology.server(subgroup.server).freq_hz, packet_bits,
        demux_penalty=not topology.metron_steering,
    )


def estimate_chain_rate(
    placement: ChainPlacement,
    topology: Topology,
    packet_bits: int = DEFAULT_PACKET_BITS,
) -> float:
    """Estimated chain rate = min over subgroup and SmartNIC caps (§3.2)."""
    limits: List[float] = [
        subgroup_rate_on(sg, topology, packet_bits)
        for sg in placement.subgroups
    ]
    limits.extend(placement.nic_caps.values())
    # the chain ingresses through one switch port
    switch_rate = getattr(topology.switch, "port_rate_mbps", None)
    if switch_rate:
        limits.append(switch_rate)
    return min(limits) if limits else float(switch_rate or 0.0)


def server_offered_load(
    placements: Sequence[ChainPlacement],
    rates: Dict[str, float],
    server_name: str,
) -> float:
    """Aggregate rate (Mbps) the chains push through one server's NIC.

    Each chain contributes its assigned rate weighted by its per-server
    NIC traversal multiplicity — the same quantity the rate LP's capacity
    rows use. The SLO guard compares this against degraded link capacity
    to size deterministic shortfall drops.
    """
    return sum(
        cp.server_visits.get(server_name, 0.0) * rates.get(cp.name, 0.0)
        for cp in placements
    )


def device_utilization(
    placements: Sequence[ChainPlacement],
    rates: Dict[str, float],
    topology: Topology,
    packet_bits: int = DEFAULT_PACKET_BITS,
) -> Dict[str, float]:
    """Per-device compute utilization at the assigned rates.

    For a server, utilization is demanded cycles per second (each chain's
    packet rate times its subgroups' per-packet cycles, demux penalty
    included) over the cycles its *allocated* cores supply — a subgroup
    running alone at its estimated max rate lands at exactly 1.0. For a
    SmartNIC it is the sum of assigned rate over the per-chain NIC cap.
    Deterministic: derived purely from the placement and the LP's rates,
    never from wall clock. This is the ``rho`` the queueing-aware delay
    model (:class:`repro.sim.measurement.QueueingModel`) turns into a
    per-device wait factor.
    """
    demand: Dict[str, float] = {}
    supply: Dict[str, float] = {}
    nic_util: Dict[str, float] = {}
    for cp in placements:
        rate = rates.get(cp.name, 0.0)
        if rate < 0:
            rate = 0.0
        pps = rate * 1e6 / packet_bits
        for sg in cp.subgroups:
            server = topology.server(sg.server)
            cycles = sg.cycles
            if sg.cores > 1 and not topology.metron_steering:
                cycles += DEMUX_LB_CYCLES
            demand[sg.server] = demand.get(sg.server, 0.0) + pps * cycles
            supply[sg.server] = (
                supply.get(sg.server, 0.0) + sg.cores * server.freq_hz
            )
        for device, cap in cp.nic_caps.items():
            if cap > 0:
                nic_util[device] = nic_util.get(device, 0.0) + rate / cap
    utilization = {
        server: (demand[server] / supply[server]) if supply[server] else 0.0
        for server in demand
    }
    utilization.update(nic_util)
    return utilization


def chain_tail_latency_us(
    cp: ChainPlacement,
    topology: Topology,
    profiles: ProfileDatabase,
    queue_factors: Dict[str, float],
) -> float:
    """Worst-path latency with per-device queueing wait factored in.

    Scales each device-executed component of the fixed-cost model by
    ``1 + factor`` (factor = rho/(1-rho) under M/M/1), mirroring what the
    deployed rack stamps per packet — the placer's tail-SLO admission
    check compares this against ``d_max``.
    """
    worst = 0.0
    for linear in cp.chain.graph.linearize():
        excursions = _count_excursions(linear.node_ids, cp.assignment)
        latency = _path_latency_us(
            cp.chain, linear.node_ids, cp.assignment, cp.subgroups,
            topology, profiles, excursions, queue_factors=queue_factors,
        )
        worst = max(worst, latency)
    return worst


def server_core_usage(
    placements: Sequence[ChainPlacement],
) -> Dict[str, int]:
    """Server name -> cores consumed by these chains' subgroups.

    The Placer's incremental path reserves this much capacity while the
    delta chains are placed, so pinned chains keep their cores.
    """
    usage: Dict[str, int] = {}
    for cp in placements:
        for server, cores in cp.cores_used().items():
            usage[server] = usage.get(server, 0) + cores
    return usage


def analyze_chain(
    chain: NFChain,
    assignment: Dict[str, NodeAssignment],
    subgroups: Sequence[Subgroup],
    topology: Topology,
    profiles: ProfileDatabase,
    packet_bits: int = DEFAULT_PACKET_BITS,
) -> ChainPlacement:
    """Derive all placement-dependent quantities for one chain.

    Computes SmartNIC rate caps, per-server NIC traversal multiplicities
    (for the link-capacity LP), bounce counts, and worst-path latency; the
    estimated rate is filled in from the current core allocation.
    """
    graph = chain.graph
    fractions = graph.node_fractions()

    cp = ChainPlacement(
        chain=chain,
        assignment=dict(assignment),
        subgroups=list(subgroups),
    )

    # -- SmartNIC caps ------------------------------------------------------
    nic_load: Dict[str, float] = {}
    for nid, assign in assignment.items():
        if assign.platform is not Platform.SMARTNIC:
            continue
        node = graph.nodes[nid]
        nic_cycles = profiles.nic_cycles(node.nf_class)
        if nic_cycles is None:
            continue
        nic_load[assign.device] = nic_load.get(assign.device, 0.0) + (
            fractions[nid] * nic_cycles
        )
    for device, cycles in nic_load.items():
        nic = topology.smartnic(device)
        pps = nic.engines * nic.freq_hz / cycles
        cp.nic_caps[device] = min(pps * packet_bits / 1e6, nic.rate_mbps)

    # -- per-server NIC traversal multiplicity --------------------------------
    visits: Dict[str, float] = {}
    for entry in graph.entry_nodes():
        assign = assignment[entry]
        if assign.platform is Platform.SERVER:
            visits[assign.device] = visits.get(assign.device, 0.0) + 1.0
    for edge in graph.edges:
        dst_assign = assignment[edge.dst]
        if dst_assign.platform is not Platform.SERVER:
            continue
        src_assign = assignment[edge.src]
        if (src_assign.platform is Platform.SERVER
                and src_assign.device == dst_assign.device):
            continue
        weight = fractions[edge.src] * edge.fraction
        visits[dst_assign.device] = visits.get(dst_assign.device, 0.0) + weight
    cp.server_visits = visits

    # -- bounces & latency over linear decomposition --------------------------
    cp.bounces = 0
    worst_latency = 0.0
    for linear in graph.linearize():
        excursions = _count_excursions(linear.node_ids, assignment)
        latency = _path_latency_us(
            chain, linear.node_ids, assignment, subgroups, topology, profiles,
            excursions,
        )
        cp.bounces = max(cp.bounces, excursions)
        worst_latency = max(worst_latency, latency)
    cp.latency_us = worst_latency

    cp.estimated_rate = estimate_chain_rate(cp, topology, packet_bits)
    return cp


def _count_excursions(
    node_ids: Sequence[str],
    assignment: Dict[str, NodeAssignment],
) -> int:
    """Contiguous off-switch segments along a path (each is one bounce).

    Traffic enters and leaves the ISP at the ToR (§4.1), so a path that
    starts or ends off-switch still implies a switch transit on both sides.
    """
    excursions = 0
    on_switch_prev = True
    for nid in node_ids:
        platform = assignment[nid].platform
        off_switch = platform in (Platform.SERVER, Platform.SMARTNIC)
        if off_switch and on_switch_prev:
            excursions += 1
        on_switch_prev = not off_switch
    return excursions


def _path_latency_us(
    chain: NFChain,
    node_ids: Sequence[str],
    assignment: Dict[str, NodeAssignment],
    subgroups: Sequence[Subgroup],
    topology: Topology,
    profiles: ProfileDatabase,
    excursions: int,
    queue_factors: Optional[Dict[str, float]] = None,
) -> float:
    """Worst-case one-packet latency along a path (§5.3 latency model).

    Propagation/transmission/queueing is charged per bounce; NF execution
    is cycles/f for server and SmartNIC NFs; switch NFs ride the pipeline's
    fixed transit. NSH encap/decap cycles are charged once per subgroup
    crossed (§5.3 overheads). ``queue_factors`` (device -> rho/(1-rho))
    additionally scales every device-executed component by ``1 + factor``,
    yielding the queueing-aware estimate.
    """
    factors = queue_factors or {}
    latency = excursions * topology.bounce_rtt_us
    switch_passes = excursions + 1
    latency += switch_passes * SWITCH_TRANSIT_US

    crossed_subgroups = set()
    for nid in node_ids:
        assign = assignment[nid]
        node = chain.graph.nodes[nid]
        if assign.platform is Platform.SERVER:
            server = topology.server(assign.device)
            cycles = profiles.server_cycles(node.nf_class, node.params)
            latency += (cycles / server.freq_hz * 1e6
                        * (1.0 + factors.get(assign.device, 0.0)))
            for sg in subgroups:
                if nid in sg.node_ids:
                    crossed_subgroups.add(sg.sg_id)
        elif assign.platform is Platform.SMARTNIC:
            nic = topology.smartnic(assign.device)
            nic_cycles = profiles.nic_cycles(node.nf_class) or 0.0
            latency += (nic_cycles / nic.freq_hz * 1e6
                        * (1.0 + factors.get(assign.device, 0.0)))
    for sg in subgroups:
        if sg.sg_id in crossed_subgroups:
            server = topology.server(sg.server)
            latency += (NSH_ENCAP_DECAP_CYCLES / server.freq_hz * 1e6
                        * (1.0 + factors.get(sg.server, 0.0)))
    return latency
