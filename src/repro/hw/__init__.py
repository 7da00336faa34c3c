"""Hardware models: the rack-scale topology Lemur places NF chains onto.

One PISA (Tofino-class) ToR switch connects several x86 servers, each with
one or more NICs (possibly eBPF-capable SmartNICs); an OpenFlow switch may
stand in for the PISA switch (§5.3). These are *capacity and constraint*
models — the executable behaviour lives in :mod:`repro.bess`,
:mod:`repro.p4c`, :mod:`repro.ebpf` and :mod:`repro.openflow`.
"""

from repro.hw.platform import Platform, Device
from repro.hw.pisa import PISASwitch, PISAStageResources
from repro.hw.server import Server, NIC, CPUSocket
from repro.hw.smartnic import SmartNIC
from repro.hw.openflow import OpenFlowSwitchModel, OFTableSpec
from repro.hw.topology import Topology, Link
from repro.hw.multirack import InterRackLink, MultiRackTopology
from repro.hw.spec import (
    InterRackLinkSpec,
    RackSpec,
    TopologySpec,
    available_topologies,
    register_topology,
    topology_for,
)

__all__ = [
    "Platform",
    "Device",
    "PISASwitch",
    "PISAStageResources",
    "Server",
    "NIC",
    "CPUSocket",
    "SmartNIC",
    "OpenFlowSwitchModel",
    "OFTableSpec",
    "Topology",
    "Link",
    "InterRackLink",
    "MultiRackTopology",
    "InterRackLinkSpec",
    "RackSpec",
    "TopologySpec",
    "available_topologies",
    "register_topology",
    "topology_for",
]
