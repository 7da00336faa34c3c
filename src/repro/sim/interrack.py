"""Inter-rack hops: how a fabric's links show up on a rack's dataplane.

A chain homed away from the ingress rack gets an inter-rack hop
installed on its home rack's dataplane
(:meth:`DeployedRack.set_interrack_hop`): every delivered packet
carries the route's round trip. Each rack's rate LP already holds the
rates crossing a link within its capacity (the link row,
:func:`~repro.core.partition.uplink_headroom`); the dataplane checks
that independently: should the rates in force ever exceed a link's
capacity, the overload becomes a deterministic drop fraction (link
capacity is a drop source, not a queue; link drops reuse the seq-hash
discipline via a link-salted seed).

Everything else that spans racks lives in
:class:`~repro.sim.admission.AdmissionCore`, the one driver of every
topology: it bootstraps a fabric from
:meth:`MultiRackPlacer.solve <repro.core.hierarchy.MultiRackPlacer.solve>`,
reinstalls these hops after every accepted decision, and restores each
row's end-to-end ``d_max`` (its rack cores hold the RTT-shrunk bound,
and the dataplane stamps the RTT onto every packet, so the latency
column and its bound describe the same quantity).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.core.partition import RackRoute, link_loads
from repro.hw.multirack import MultiRackTopology
from repro.obs import MetricsRegistry, get_registry
from repro.sim.runtime import DeployedRack


def link_drop_fractions(
    fabric: MultiRackTopology,
    remote: Dict[str, RackRoute],
    rates: Dict[str, float],
    registry: Optional[MetricsRegistry] = None,
) -> Dict[str, float]:
    """Per-link overload drop fraction at the given rate assignment.

    A link carrying more assigned rate than its capacity drops the
    excess fraction of every packet crossing it — the dataplane's
    independent check of the rate LP's link row. Loads land on the
    ``interrack.link.load_mbps`` gauge so saturation is observable
    before it becomes packet loss.
    """
    registry = registry if registry is not None else get_registry()
    load = link_loads(remote, rates)
    drops: Dict[str, float] = {}
    for link in fabric.links:
        carried = load.get(link.name, 0.0)
        registry.gauge("interrack.link.load_mbps", link=link.name).set(carried)
        if carried > link.capacity_mbps > 0:
            drops[link.name] = 1.0 - link.capacity_mbps / carried
    return drops


def route_hop(route: RackRoute,
              drops: Dict[str, float]) -> Tuple[str, float]:
    """Collapse a multi-link route into one hop: the compounded drop
    probability, attributed (and hash-salted) to the most-lossy link —
    the binding one — with ties broken by path order."""
    survive = 1.0
    worst_link = route.links[0]
    worst_drop = -1.0
    for name in route.links:
        drop = drops.get(name, 0.0)
        survive *= 1.0 - drop
        if drop > worst_drop:
            worst_drop = drop
            worst_link = name
    return worst_link, 1.0 - survive


def install_fabric_hops(
    rack: DeployedRack,
    chain_names: Sequence[str],
    remote: Dict[str, RackRoute],
    drops: Dict[str, float],
) -> None:
    """(Re)install inter-rack hops for a home rack's remote chains."""
    rack.clear_interrack_hops()
    for chain in sorted(chain_names):
        route = remote.get(chain)
        if route is None or not route.links:
            continue
        link, drop = route_hop(route, drops)
        rack.set_interrack_hop(
            chain, link, route.latency_us, drop_fraction=drop,
        )


__all__ = [
    "install_fabric_hops",
    "link_drop_fractions",
    "route_hop",
]
