"""Geo-distributed fabric: several racks joined by inter-rack links.

The single-rack :class:`~repro.hw.topology.Topology` stays the unit the
per-rack Placer, meta-compiler, and deployed dataplane reason over; a
:class:`MultiRackTopology` is a *fabric* of those racks plus the
:class:`InterRackLink`\\ s between them. Links carry a capacity (Mbps, the
aggregate rate the partitioner may route across) and a one-way latency
(µs) that is charged against a chain's ``d_max`` when the chain is homed
away from its ingress rack.

Traffic enters the fabric at the **ingress rack** (the first declared
rack by default). A chain homed on any other rack is *remote*: its
packets cross the inter-rack link to the home rack and back, so the
round trip (2 × one-way latency) rides on every delivered packet and the
chain's floor rate consumes link capacity in both directions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.exceptions import TopologyError
from repro.hw.topology import Topology


@dataclass
class InterRackLink:
    """A bidirectional rack-to-rack link (capacity Mbps, one-way µs)."""

    name: str
    a: str  # rack name
    b: str  # rack name
    capacity_mbps: float
    latency_us: float

    def __hash__(self) -> int:
        return hash(self.name)

    def other(self, rack: str) -> str:
        if rack == self.a:
            return self.b
        if rack == self.b:
            return self.a
        raise TopologyError(f"link {self.name} does not touch rack {rack!r}")


@dataclass
class MultiRackTopology:
    """The fabric: named racks (insertion-ordered) + inter-rack links.

    The first rack is the fabric's ingress unless ``ingress`` names
    another one. Rack names namespace their devices (rack builders prefix
    device names with ``<rack>.``), so fault timelines and reports can
    address ``r1.server0`` unambiguously.
    """

    racks: Dict[str, Topology] = field(default_factory=dict)
    links: List[InterRackLink] = field(default_factory=list)
    ingress: str = ""

    def __post_init__(self) -> None:
        if not self.racks:
            raise TopologyError("a fabric needs at least one rack")
        if not self.ingress:
            self.ingress = next(iter(self.racks))
        if self.ingress not in self.racks:
            raise TopologyError(
                f"ingress rack {self.ingress!r} is not in the fabric "
                f"({sorted(self.racks)})"
            )
        seen = set()
        for link in self.links:
            for end in (link.a, link.b):
                if end not in self.racks:
                    raise TopologyError(
                        f"link {link.name} references unknown rack {end!r}"
                    )
            if link.a == link.b:
                raise TopologyError(f"link {link.name} is a self-loop")
            if link.capacity_mbps <= 0:
                raise TopologyError(
                    f"link {link.name} needs capacity_mbps > 0"
                )
            if link.latency_us < 0:
                raise TopologyError(
                    f"link {link.name} needs latency_us >= 0"
                )
            key = frozenset((link.a, link.b))
            if key in seen:
                raise TopologyError(
                    f"duplicate link between {link.a} and {link.b}"
                )
            seen.add(key)
        if len(self.racks) > 1:
            self._check_connected()

    def _check_connected(self) -> None:
        reachable = {self.ingress}
        frontier = [self.ingress]
        while frontier:
            rack = frontier.pop()
            for link in self.links:
                if rack in (link.a, link.b):
                    other = link.other(rack)
                    if other not in reachable:
                        reachable.add(other)
                        frontier.append(other)
        stranded = sorted(set(self.racks) - reachable)
        if stranded:
            raise TopologyError(
                f"racks {stranded} are unreachable from the ingress rack "
                f"{self.ingress!r} — add inter-rack links"
            )

    # -- lookups ----------------------------------------------------------

    @property
    def rack_names(self) -> List[str]:
        return list(self.racks)

    def rack(self, name: str) -> Topology:
        try:
            return self.racks[name]
        except KeyError:
            raise TopologyError(
                f"no rack named {name!r} (have {sorted(self.racks)})"
            ) from None

    def link_between(self, a: str, b: str) -> Optional[InterRackLink]:
        for link in self.links:
            if {link.a, link.b} == {a, b}:
                return link
        return None

    def rack_of_device(self, device_name: str) -> str:
        """Which rack hosts a (possibly rack-prefixed) device name."""
        for name, topology in self.racks.items():
            try:
                topology.device(device_name)
                return name
            except TopologyError:
                continue
        raise TopologyError(f"no rack hosts a device named {device_name!r}")

    def total_server_cores(self) -> int:
        return sum(t.total_server_cores() for t in self.racks.values())

    def describe(self) -> str:
        lines = [f"fabric: {len(self.racks)} racks, ingress={self.ingress}"]
        for name, topology in self.racks.items():
            lines.append(
                f"  rack {name}: switch={topology.switch.name} "
                f"servers={len(topology.servers)} "
                f"cores={topology.total_server_cores()}"
            )
        for link in self.links:
            lines.append(
                f"  link {link.name}: {link.a}<->{link.b} "
                f"{link.capacity_mbps:g} Mbps {link.latency_us:g} µs one-way"
            )
        return "\n".join(lines)


__all__ = ["InterRackLink", "MultiRackTopology"]
