"""PISA (Tofino-class) switch resource model.

The paper's switch is an Edgecore 100BF-32X: a 32x100 G Barefoot Tofino. For
placement, what matters is: the switch processes any fitting pipeline at line
rate, and the pipeline must fit the stage budget under per-stage resource
limits (table slots, SRAM, TCAM) — the number of stages being the easiest
constraint to violate (§4.2). Actual stage packing is performed by the
compiler simulator in :mod:`repro.p4c`; this module only carries capacities.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hw.platform import Device, Platform
from repro.units import gbps


@dataclass
class PISAStageResources:
    """Per-stage resource capacities.

    Calibrated (DESIGN.md) so that the paper's stage-pressure narratives hold:
    ~8 logical tables per stage, 1 400 KB SRAM and 64 KB TCAM per stage.
    """

    table_slots: int = 8
    sram_kb: float = 1400.0
    tcam_kb: float = 64.0

    def copy(self) -> "PISAStageResources":
        return PISAStageResources(self.table_slots, self.sram_kb, self.tcam_kb)


@dataclass
class PISASwitch(Device):
    """A PISA switch: N pipeline stages, per-stage resources, line rate."""

    name: str = "tofino0"
    platform: Platform = Platform.PISA
    num_stages: int = 12
    stage_resources: PISAStageResources = field(default_factory=PISAStageResources)
    num_ports: int = 32
    port_rate_mbps: float = field(default_factory=lambda: gbps(100))

    def __hash__(self) -> int:
        return hash((self.name, self.platform))
