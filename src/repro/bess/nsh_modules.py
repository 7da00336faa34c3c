"""Shared pipeline modules the meta-compiler injects (§A.1.2).

Every generated BESS pipeline begins with ``PortInc -> NSHdecap ->
SubgroupDemux`` and ends with ``NSHencap -> PortOut``: packets arrive from
the ToR tagged with NSH, are decapsulated and steered to the right
run-to-completion subgroup (and subgroup *instance* when replicated), and
are re-tagged with the next hop's SPI/SI before returning to the switch.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.bess.module import Module
from repro.exceptions import DataplaneError
from repro.net.packet import Packet
from repro.profiles.defaults import DEMUX_LB_CYCLES, NSH_ENCAP_DECAP_CYCLES


class PortInc(Module):
    """Pulls packets from a NIC port in poll mode (entry point)."""

    vector_safe = True

    def process(self, packet: Packet):
        packet.metadata.ingress_port = int(self.params.get("port", 0))
        return [(0, packet)]


class PortOut(Module):
    """Pushes packets to the NIC (exit point); collects them for the
    testbed simulator."""

    vector_safe = True

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.emitted: List[Packet] = []

    def process(self, packet: Packet):
        self.emitted.append(packet)
        return []  # leaves the pipeline

    def drain(self) -> List[Packet]:
        out, self.emitted = self.emitted, []
        return out


class NSHDecap(Module):
    """Strips NSH and records SPI/SI in metadata (custom module, §A.1.2)."""

    vector_safe = True

    def process(self, packet: Packet):
        packet.pop_nsh()
        packet.metadata.cycles_consumed += NSH_ENCAP_DECAP_CYCLES // 2
        self.cycles_charged += NSH_ENCAP_DECAP_CYCLES // 2
        return [(0, packet)]


class NSHEncap(Module):
    """Re-inserts NSH with the next (SPI, SI) so the downstream platform
    knows which NF comes next (§A.1.2).

    ``spi``/``si`` parameters set fixed values; when absent, the values
    already in packet metadata are used (set by the subgroup's exit code).
    """

    vector_safe = True

    def process(self, packet: Packet):
        spi = self.params.get("spi", packet.metadata.spi)
        si = self.params.get("si", packet.metadata.si)
        if spi is None or si is None:
            raise DataplaneError(
                f"{self.name}: no SPI/SI available for NSH encap"
            )
        packet.push_nsh(int(spi), int(si))
        packet.metadata.cycles_consumed += NSH_ENCAP_DECAP_CYCLES // 2
        self.cycles_charged += NSH_ENCAP_DECAP_CYCLES // 2
        return [(0, packet)]


class SubgroupDemux(Module):
    """Steers packets to run-to-completion subgroups by (SPI, SI), and to a
    specific instance when the subgroup is replicated (§4.2).

    The demux runs on its own core; instance selection is a per-flow hash
    (so stateful members never see a flow split across instances) and costs
    ~:data:`DEMUX_LB_CYCLES` cycles when fanning out (§5.3).

    Output gates are allocated with :meth:`register`, one per (spi, si)
    target, with ``instances`` consecutive gates for replicated subgroups;
    further (spi, si) entries of a subgroup shared by several service
    paths reuse those gates through :meth:`alias`.
    """

    vector_safe = True

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._routes: Dict[Tuple[int, int], Tuple[int, int]] = {}
        self._next_gate = 0

    def register(self, spi: int, si: int, instances: int = 1) -> List[int]:
        """Allocate gates for one subgroup; returns the gate numbers."""
        if instances < 1:
            raise DataplaneError("subgroup needs at least one instance")
        if (spi, si) in self._routes:
            raise DataplaneError(
                f"{self.name}: (spi={spi}, si={si}) already registered"
            )
        gates = list(range(self._next_gate, self._next_gate + instances))
        self._routes[(spi, si)] = (self._next_gate, instances)
        self._next_gate += instances
        return gates

    def alias(self, spi: int, si: int, target: Tuple[int, int]) -> None:
        """Steer (spi, si) out of the gates registered for ``target``.

        One gate per subgroup instance, whichever of its service paths a
        packet is on: a batch mixing those paths then reaches the
        instance head as one list in arrival order, where a gate per
        (spi, si) would hand it one gate-group after another.
        """
        if (spi, si) in self._routes:
            raise DataplaneError(
                f"{self.name}: (spi={spi}, si={si}) already registered"
            )
        self._routes[(spi, si)] = self._routes[target]

    def process(self, packet: Packet):
        spi, si = packet.metadata.spi, packet.metadata.si
        if spi is None or si is None:
            packet.metadata.drop_flag = True
            return []
        route = self._routes.get((spi, si))
        if route is None:
            packet.metadata.drop_flag = True
            return []
        base_gate, instances = route
        if instances == 1:
            return [(base_gate, packet)]
        packet.metadata.cycles_consumed += DEMUX_LB_CYCLES
        self.cycles_charged += DEMUX_LB_CYCLES
        digest = packet.flow_digest()
        return [(base_gate + digest % instances, packet)]


class SIUpdate(Module):
    """Sets the next service path coordinates after a subgroup completes
    (§4.1: "the meta-compiler must insert code to increment the SI value";
    with subgroup concatenation the update happens once per service path).

    ``next_map`` maps the *incoming* (spi, si) — recorded at NSH decap —
    to the outgoing (spi, si), supporting subgroups shared by several
    service paths. Fixed ``next_spi``/``next_si`` params override; with
    neither, SI simply decrements.
    """

    vector_safe = True

    def process(self, packet: Packet):
        next_map = self.params.get("next_map")
        if next_map is not None:
            key = (packet.metadata.spi, packet.metadata.si)
            nxt = next_map.get(key)
            if nxt is None:
                packet.metadata.drop_flag = True
                return []
            packet.metadata.spi, packet.metadata.si = int(nxt[0]), int(nxt[1])
            return [(0, packet)]
        next_spi = self.params.get("next_spi")
        next_si = self.params.get("next_si")
        if next_spi is not None:
            packet.metadata.spi = int(next_spi)
        if next_si is not None:
            packet.metadata.si = int(next_si)
        elif packet.metadata.si is not None:
            packet.metadata.si = max(0, packet.metadata.si - 1)
        return [(0, packet)]
