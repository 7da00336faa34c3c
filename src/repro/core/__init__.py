"""The Placer (§3): SLO-satisfying NF placement across heterogeneous hardware.

Given NF chains with SLOs and a rack topology, the Placer decides, for every
NF, whether it runs on the PISA switch, a SmartNIC, an OpenFlow switch, or a
server (and with how many cores), such that each chain receives its minimum
rate and aggregate *marginal* throughput is maximized.

Public entry points:

* :class:`repro.core.placer.Placer` — the top-level API (heuristic by
  default, matching the paper);
* :func:`repro.core.bruteforce.brute_force_place` — the Optimal baseline;
* :mod:`repro.core.baselines` — HW Preferred, SW Preferred, Minimum Bounce,
  Greedy;
* :mod:`repro.core.ablations` — No Profiling / No Core Allocation variants;
* :mod:`repro.core.milp` — the MILP formulation (conservative stage model).
"""

from repro.core.placement import (
    ChainPlacement,
    NodeAssignment,
    Placement,
    Subgroup,
)
from repro.core.placer import (
    Placer,
    PlacerConfig,
    PlacementReport,
    PlacementRequest,
)
from repro.core.bruteforce import brute_force_place
from repro.core.heuristic import heuristic_place
from repro.core.baselines import (
    greedy_place,
    hw_preferred_place,
    min_bounce_place,
    sw_preferred_place,
)

__all__ = [
    "NodeAssignment",
    "Subgroup",
    "ChainPlacement",
    "Placement",
    "Placer",
    "PlacerConfig",
    "PlacementRequest",
    "PlacementReport",
    "brute_force_place",
    "heuristic_place",
    "hw_preferred_place",
    "sw_preferred_place",
    "min_bounce_place",
    "greedy_place",
]
