"""Rack topology: ToR switch + servers + SmartNICs + links.

The placement problem's input includes "a single PISA switch connected to
several servers, each of which may have one or more attached smart NICs"
(§3.1). Links carry capacities the rate-assignment LP must respect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.exceptions import TopologyError
from repro.hw.openflow import OpenFlowSwitchModel
from repro.hw.pisa import PISASwitch
from repro.hw.platform import Device, Platform
from repro.hw.server import Server, paper_nf_server, eight_core_server
from repro.hw.smartnic import SmartNIC
from repro.units import gbps


@dataclass
class Link:
    """A full-duplex link between the ToR and a server NIC."""

    name: str
    a: str  # device name (switch)
    b: str  # device name (server)
    nic_name: str
    capacity_mbps: float

    def __hash__(self) -> int:
        return hash(self.name)


@dataclass
class Topology:
    """The rack: one coordinating switch, servers, optional SmartNICs."""

    switch: Device
    servers: List[Server] = field(default_factory=list)
    smartnics: List[SmartNIC] = field(default_factory=list)
    links: List[Link] = field(default_factory=list)
    #: Latency parameters (§5.3): one switch<->server bounce round trip,
    #: covering propagation, transmission, DPDK and switch queueing.
    bounce_rtt_us: float = 4.0
    #: Metron-style steering (§3.2/§4.2 future work): the ToR tags packets
    #: so the NIC steers them directly to the right core, eliminating the
    #: software demultiplexer (its core and its per-packet LB cycles).
    metron_steering: bool = False
    failed_devices: set = field(default_factory=set)
    #: The rate LP's link row, set by a fabric's owner before each solve
    #: on a rack off the ingress: the tightest inter-rack link on the
    #: route from the ingress and the Mbps it leaves this rack's chains
    #: (:func:`~repro.core.partition.uplink_headroom`). ``inf``: no row.
    uplink: Tuple[str, float] = ("", math.inf)

    def __post_init__(self) -> None:
        names = [self.switch.name] + [s.name for s in self.servers] + [
            n.name for n in self.smartnics
        ]
        if len(set(names)) != len(names):
            raise TopologyError(f"duplicate device names in topology: {names}")
        for nic_dev in self.smartnics:
            if nic_dev.host_server not in {s.name for s in self.servers}:
                raise TopologyError(
                    f"SmartNIC {nic_dev.name} attached to unknown server "
                    f"{nic_dev.host_server!r}"
                )
        if not self.links:
            self.links = self._default_links()

    def _default_links(self) -> List[Link]:
        links = []
        for server in self.servers:
            for nic in server.nics:
                links.append(
                    Link(
                        name=f"{self.switch.name}-{server.name}-{nic.name}",
                        a=self.switch.name,
                        b=server.name,
                        nic_name=nic.name,
                        capacity_mbps=nic.rate_mbps,
                    )
                )
        return links

    # -- lookups ----------------------------------------------------------

    def server(self, name: str) -> Server:
        for server in self.servers:
            if server.name == name:
                return server
        raise TopologyError(f"no server named {name!r}")

    def smartnic(self, name: str) -> SmartNIC:
        for nic_dev in self.smartnics:
            if nic_dev.name == name:
                return nic_dev
        raise TopologyError(f"no SmartNIC named {name!r}")

    def device(self, name: str) -> Device:
        if name == self.switch.name:
            return self.switch
        for server in self.servers:
            if server.name == name:
                return server
        for nic_dev in self.smartnics:
            if nic_dev.name == name:
                return nic_dev
        raise TopologyError(f"no device named {name!r}")

    def devices_for(self, platform: Platform) -> List[Device]:
        """All live devices of a given platform type."""
        out: List[Device] = []
        if self.switch.platform == platform:
            out.append(self.switch)
        if platform == Platform.SERVER:
            out.extend(self.servers)
        if platform == Platform.SMARTNIC:
            out.extend(self.smartnics)
        return [d for d in out if d.name not in self.failed_devices]

    def mark_failed(self, device_name: str) -> None:
        """Take a device out of service (§7 failure handling)."""
        self.device(device_name)  # validates existence
        self.failed_devices.add(device_name)

    def total_server_cores(self) -> int:
        return sum(
            s.allocatable_cores
            for s in self.servers
            if s.name not in self.failed_devices
        )

