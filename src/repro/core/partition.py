"""Chain-to-rack partitioner: stage one of the hierarchical placer.

Multi-rack placement decomposes into (1) assigning each chain a *home
rack* and (2) running the ordinary single-rack Placer per rack. This
module does step (1): a deterministic greedy first-fit bin-pack over a
capacity proxy, followed by an optional LP refinement pass (scipy
``linprog`` over the fractional relaxation) that re-balances the greedy
assignment when it can lower total inter-rack latency cost without
violating capacity.

The capacity proxy per chain/rack pair:

* **cores** — worst-case software demand if every NF of the chain runs
  on servers: ``ceil(pps(t_min) * Σ cycles(nf) * fraction(nf) / f)``.
* **latency** — a chain homed off the ingress rack pays the inter-rack
  round trip (2 × one-way µs, summed over the link path) out of its
  ``d_max``; racks whose RTT consumes the whole budget are ineligible.
* **link capacity** — the chain's floor rate ``t_min`` must fit on every
  link along the path from the ingress to the home rack.

The proxy deliberately over-estimates core demand (a real placement may
offload onto the switch or a SmartNIC) so that whatever partition it
produces, the per-rack solve is *more* likely to succeed, not less. When
no rack fits a chain, :class:`~repro.exceptions.PartitionError` carries
the binding constraint per candidate rack in its message.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.chain.graph import NFChain
from repro.exceptions import PartitionError
from repro.hw.multirack import MultiRackTopology
from repro.obs import get_registry
from repro.profiles.defaults import ProfileDatabase, default_profiles
from repro.units import DEFAULT_PACKET_BITS


@dataclass(frozen=True)
class RackRoute:
    """How a chain homed on ``rack`` is reached from the ingress."""

    rack: str
    links: Tuple[str, ...]  # link names along ingress -> rack, in order
    latency_us: float  # one-way, summed over the path
    bottleneck_mbps: float  # min capacity along the path

    @property
    def rtt_us(self) -> float:
        return 2.0 * self.latency_us

    def charge_rtt(self, d_max: float) -> float:
        """``d_max`` less this route's round trip: the bound the home
        rack must keep so the end-to-end one holds once the RTT is
        stamped. An unbounded ``d_max`` stays unbounded."""
        return d_max if math.isinf(d_max) else d_max - self.rtt_us


def link_loads(remote: Dict[str, RackRoute],
               amounts: Dict[str, float]) -> Dict[str, float]:
    """Link name -> the sum of ``amounts`` (a rate or a floor per chain)
    over the remote chains whose route crosses that link; a chain with
    no amount adds nothing."""
    load: Dict[str, float] = {}
    for chain, route in remote.items():
        amount = amounts.get(chain, 0.0)
        for link in route.links:
            load[link] = load.get(link, 0.0) + amount
    return load


def uplink_headroom(fabric: MultiRackTopology,
                    routes: Dict[str, RackRoute], rack: str,
                    carried: Dict[str, float]) -> Tuple[str, float]:
    """``rack``'s link row: the link on its route from the ingress with
    the least capacity left once the other racks' ``carried`` Mbps (rack
    -> the rate its chains carry) cross it, and what it leaves.
    ``("", inf)`` for the ingress, whose route crosses no link."""
    used: Dict[str, float] = {}
    for other, mbps in carried.items():
        if other != rack:
            for link in routes[other].links:
                used[link] = used.get(link, 0.0) + mbps
    tightest: Tuple[str, float] = ("", math.inf)
    for link in fabric.links:
        if link.name in routes[rack].links:
            left = link.capacity_mbps - used.get(link.name, 0.0)
            if left < tightest[1]:
                tightest = (link.name, left)
    return tightest


def home_lines(assignment: Dict[str, str],
               remote: Dict[str, RackRoute]) -> List[str]:
    """One ``chain -> rack`` line per chain, sorted by chain; a remote
    chain's adds its round trip and the links it crosses."""
    lines = []
    for chain, rack in sorted(assignment.items()):
        route = remote.get(chain)
        suffix = (f" (+{route.rtt_us:g} µs RTT via "
                  f"{'+'.join(route.links)})" if route else "")
        lines.append(f"  {chain} -> {rack}{suffix}")
    return lines


@dataclass
class PartitionResult:
    """A chain→rack assignment plus how it was obtained."""

    assignment: Dict[str, str] = field(default_factory=dict)  # chain -> rack
    routes: Dict[str, RackRoute] = field(default_factory=dict)  # rack -> route
    core_demand: Dict[str, int] = field(default_factory=dict)  # chain -> cores
    spills: int = 0  # chains homed off the ingress rack
    method: str = "greedy"  # "greedy" or "greedy+lp"
    seconds: float = 0.0

    def chains_for(self, rack: str) -> List[str]:
        return [c for c, r in self.assignment.items() if r == rack]

    def rack_of(self, chain: str) -> str:
        return self.assignment[chain]

    def remote_chains(self, ingress: str) -> Dict[str, RackRoute]:
        """chain -> route, for chains homed away from the ingress."""
        return {
            chain: self.routes[rack]
            for chain, rack in self.assignment.items()
            if rack != ingress
        }

    def describe(self) -> str:
        lines = [f"partition ({self.method}): {len(self.assignment)} chains"]
        racks: Dict[str, List[str]] = {}
        for chain, rack in sorted(self.assignment.items()):
            racks.setdefault(rack, []).append(chain)
        for rack in sorted(racks):
            lines.append(f"  {rack}: {', '.join(racks[rack])}")
        if self.spills:
            lines.append(f"  spills: {self.spills}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# routing: shortest-latency paths from the ingress rack
# ---------------------------------------------------------------------------


def fabric_routes(fabric: MultiRackTopology) -> Dict[str, RackRoute]:
    """Dijkstra by one-way latency from the ingress to every rack.

    Ties break on fewer hops then rack name, so the routing — and
    everything downstream of it — is deterministic.
    """
    ingress = fabric.ingress
    routes: Dict[str, RackRoute] = {
        ingress: RackRoute(ingress, (), 0.0, float("inf"))
    }
    # (latency, hops, rack) frontier; small fabrics, so a simple scan
    done = set()
    while True:
        candidate = None
        for rack, route in routes.items():
            if rack in done:
                continue
            key = (route.latency_us, len(route.links), rack)
            if candidate is None or key < candidate[0]:
                candidate = (key, rack)
        if candidate is None:
            break
        rack = candidate[1]
        done.add(rack)
        route = routes[rack]
        for link in fabric.links:
            if rack not in (link.a, link.b):
                continue
            other = link.other(rack)
            latency = route.latency_us + link.latency_us
            bottleneck = min(route.bottleneck_mbps, link.capacity_mbps)
            existing = routes.get(other)
            key = (latency, len(route.links) + 1)
            if existing is None or key < (existing.latency_us, len(existing.links)):
                routes[other] = RackRoute(
                    other, route.links + (link.name,), latency, bottleneck
                )
    return routes


# ---------------------------------------------------------------------------
# per-chain demand proxy
# ---------------------------------------------------------------------------


def chain_core_demand(
    chain: NFChain,
    freq_hz: float,
    profiles: ProfileDatabase,
    packet_bits: int = DEFAULT_PACKET_BITS,
) -> int:
    """Worst-case (all-software) core demand to sustain ``t_min``."""
    fractions = chain.graph.node_fractions()
    cycles = 0.0
    for name, node in chain.graph.nodes.items():
        per_packet = profiles.server_cycles(node.nf_class, node.params)
        cycles += per_packet * fractions.get(name, 1.0)
    pps = chain.slo.t_min * 1e6 / packet_bits
    if cycles <= 0 or pps <= 0:
        return 1
    return max(1, math.ceil(pps * cycles / freq_hz))


# ---------------------------------------------------------------------------
# the partitioner
# ---------------------------------------------------------------------------


def partition_chains(
    chains: List[NFChain],
    fabric: MultiRackTopology,
    profiles: Optional[ProfileDatabase] = None,
    *,
    rack_pins: Optional[Dict[str, str]] = None,
    packet_bits: int = DEFAULT_PACKET_BITS,
    refine: bool = True,
) -> PartitionResult:
    """Assign every chain a home rack (greedy first-fit + LP refinement).

    Raises :class:`PartitionError` when some chain fits no rack; the
    message names the binding constraint for each candidate.
    """
    profiles = profiles or default_profiles()
    pins = dict(rack_pins or {})
    started = time.perf_counter()
    registry = get_registry()

    for chain_name, rack in pins.items():
        if rack not in fabric.racks:
            raise PartitionError(
                f"chain {chain_name!r} is pinned to unknown rack {rack!r} "
                f"(have {sorted(fabric.racks)})"
            )

    routes = fabric_routes(fabric)
    free_cores = {
        name: topo.total_server_cores() for name, topo in fabric.racks.items()
    }
    link_free = {link.name: link.capacity_mbps for link in fabric.links}
    demand = {
        chain.name: chain_core_demand(
            chain, _rack_freq(fabric, fabric.ingress), profiles, packet_bits
        )
        for chain in chains
    }

    # Candidate order per chain: ingress first, then by (path latency,
    # most free cores at partition start, name).
    def candidate_racks() -> List[str]:
        others = [r for r in fabric.racks if r != fabric.ingress]
        others.sort(key=lambda r: (routes[r].latency_us, -free_cores[r], r))
        return [fabric.ingress] + others

    def eligibility(chain: NFChain, rack: str) -> Optional[str]:
        """None if the chain fits on ``rack`` now, else the binding reason."""
        route = routes.get(rack)
        if route is None:
            return f"rack {rack}: unreachable from ingress {fabric.ingress!r}"
        need = demand[chain.name]
        if need > free_cores[rack]:
            return (
                f"rack {rack}: cores exhausted "
                f"(need {need}, {free_cores[rack]} free)"
            )
        if rack != fabric.ingress:
            if route.rtt_us >= chain.slo.d_max:
                return (
                    f"rack {rack}: latency budget exhausted "
                    f"(d_max {chain.slo.d_max:g} µs <= inter-rack RTT "
                    f"{route.rtt_us:g} µs)"
                )
            for link_name in route.links:
                if chain.slo.t_min > link_free[link_name]:
                    return (
                        f"rack {rack}: link {link_name} capacity exhausted "
                        f"(need {chain.slo.t_min:g} Mbps, "
                        f"{link_free[link_name]:g} Mbps free)"
                    )
        return None

    def commit(chain: NFChain, rack: str) -> None:
        assignment[chain.name] = rack
        free_cores[rack] -= demand[chain.name]
        if rack != fabric.ingress:
            for link_name in routes[rack].links:
                link_free[link_name] -= chain.slo.t_min

    assignment: Dict[str, str] = {}
    # Heaviest chains first (FFD); pinned chains commit before free ones.
    order = sorted(
        chains, key=lambda c: (c.name not in pins, -c.slo.t_min, c.name)
    )
    for chain in order:
        if chain.name in pins:
            rack = pins[chain.name]
            reason = eligibility(chain, rack)
            if reason is not None:
                raise PartitionError(
                    f"pinned chain {chain.name!r} does not fit its rack — "
                    f"{reason}"
                )
            commit(chain, rack)
            continue
        reasons = []
        placed = False
        for rack in candidate_racks():
            reason = eligibility(chain, rack)
            if reason is None:
                commit(chain, rack)
                placed = True
                break
            reasons.append(reason)
        if not placed:
            raise PartitionError(
                f"no rack fits chain {chain.name!r}: " + "; ".join(reasons)
            )

    result = PartitionResult(
        assignment={c.name: assignment[c.name] for c in chains},
        routes=routes,
        core_demand=demand,
        method="greedy",
    )

    if refine and len(fabric.racks) > 1 and len(chains) > 1:
        refined = _lp_refine(chains, fabric, routes, demand, pins, result)
        if refined is not None:
            result = refined

    result.spills = sum(
        1 for rack in result.assignment.values() if rack != fabric.ingress
    )
    result.seconds = time.perf_counter() - started
    if registry is not None:
        for rack in fabric.racks:
            registry.gauge("partition.chains", rack=rack).set(
                len(result.chains_for(rack))
            )
        registry.counter("partition.spills").inc(result.spills)
        registry.histogram("partition.seconds").observe(result.seconds)
    return result


def _rack_freq(fabric: MultiRackTopology, rack: str) -> float:
    topo = fabric.racks[rack]
    if topo.servers:
        return topo.servers[0].freq_hz
    return 1.7e9


def _lp_refine(
    chains: List[NFChain],
    fabric: MultiRackTopology,
    routes: Dict[str, RackRoute],
    demand: Dict[str, int],
    pins: Dict[str, str],
    greedy: PartitionResult,
) -> Optional[PartitionResult]:
    """Fractional relaxation: min Σ cost(c,r)·x_{c,r} s.t. capacity.

    Cost is the chain's RTT penalty on rack r (plus a tiny constant for
    any spill so the LP prefers the ingress when capacity allows).
    Deterministic rounding takes the argmax rack per chain; if the
    rounded assignment violates any capacity, the greedy result stands.
    """
    try:
        from scipy.optimize import linprog
    except Exception:  # pragma: no cover - scipy is baked into the image
        return None

    racks = list(fabric.racks)
    eligible: Dict[Tuple[str, str], int] = {}
    costs: List[float] = []
    index = 0
    for chain in chains:
        for rack in racks:
            if chain.name in pins and pins[chain.name] != rack:
                continue
            route = routes.get(rack)
            if route is None:
                continue
            if rack != fabric.ingress and route.rtt_us >= chain.slo.d_max:
                continue
            eligible[(chain.name, rack)] = index
            spill_penalty = 0.0 if rack == fabric.ingress else 1.0
            costs.append(route.rtt_us + spill_penalty)
            index += 1
    if index == 0:
        return None

    n = index
    a_eq, b_eq = [], []
    for chain in chains:
        row = [0.0] * n
        any_var = False
        for rack in racks:
            j = eligible.get((chain.name, rack))
            if j is not None:
                row[j] = 1.0
                any_var = True
        if not any_var:
            return None
        a_eq.append(row)
        b_eq.append(1.0)

    a_ub, b_ub = [], []
    for rack in racks:
        row = [0.0] * n
        for chain in chains:
            j = eligible.get((chain.name, rack))
            if j is not None:
                row[j] = float(demand[chain.name])
        a_ub.append(row)
        b_ub.append(float(fabric.racks[rack].total_server_cores()))
    for link in fabric.links:
        row = [0.0] * n
        for chain in chains:
            for rack in racks:
                j = eligible.get((chain.name, rack))
                if j is None or rack == fabric.ingress:
                    continue
                if link.name in routes[rack].links:
                    row[j] = chain.slo.t_min
        if any(row):
            a_ub.append(row)
            b_ub.append(link.capacity_mbps)

    res = linprog(
        c=costs,
        A_eq=a_eq,
        b_eq=b_eq,
        A_ub=a_ub,
        b_ub=b_ub,
        bounds=[(0.0, 1.0)] * n,
        method="highs",
    )
    if not res.success:
        return None

    # Deterministic rounding: per chain, the eligible rack with the
    # largest fraction; ties break toward the ingress then rack name.
    assignment: Dict[str, str] = {}
    for chain in chains:
        best = None
        for rack in racks:
            j = eligible.get((chain.name, rack))
            if j is None:
                continue
            frac = res.x[j]
            key = (-round(frac, 9), rack != fabric.ingress, rack)
            if best is None or key < best[0]:
                best = (key, rack)
        assignment[chain.name] = best[1]

    # Validate the rounded assignment against the hard capacities.
    cores_used = {rack: 0 for rack in racks}
    link_used = {link.name: 0.0 for link in fabric.links}
    for chain in chains:
        rack = assignment[chain.name]
        cores_used[rack] += demand[chain.name]
        if rack != fabric.ingress:
            for link_name in routes[rack].links:
                link_used[link_name] += chain.slo.t_min
    for rack in racks:
        if cores_used[rack] > fabric.racks[rack].total_server_cores():
            return None
    for link in fabric.links:
        if link_used[link.name] > link.capacity_mbps:
            return None

    return PartitionResult(
        assignment=assignment,
        routes=routes,
        core_demand=demand,
        method="greedy+lp",
    )


__all__ = [
    "RackRoute",
    "home_lines",
    "link_loads",
    "uplink_headroom",
    "PartitionResult",
    "fabric_routes",
    "chain_core_demand",
    "partition_chains",
]
