"""Core allocation decides exactly as the per-grant re-estimating allocator did.

The allocator used to re-estimate a whole chain after every grant, and
re-estimate every candidate chain before every spend grant. Its
functions are kept here, verbatim, as the oracle:
``_bottleneck_subgroup``, ``meet_tmin``, ``_maximize_marginal`` and
``allocate_cores`` with the helpers they call. The allocator now keeps
every subgroup's rate and each chain's spend offer, and re-evaluates
only the subgroup that was granted a core. For random racks and chain
sets both must give the same core vectors, the same ``estimated_rate``
bits, the same feasibility and the same reason text, under every
policy.

The placer's incremental path used to floor the pinned chains, then let
``allocate_cores`` floor the same objects again before spending. A
request that adds no chain now spends on the set it floored once; the
last tests hold that against the floor-twice path.
"""

import dataclasses
import math
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.chain.graph import chains_from_spec, chains_with_slos
from repro.chain.slo import SLO
from repro.core import corealloc
from repro.core.corealloc import AllocationResult
from repro.core.lp import solve_rates
from repro.core.pipeline import switch_fit
from repro.core.placement import ChainPlacement, Placement, Subgroup
from repro.core.placer import Placer, PlacementRequest
from repro.core.rates import estimate_chain_rate, subgroup_rate_on
from repro.exceptions import PlacementError
from repro.hw.pisa import PISASwitch
from repro.hw.server import NIC, CPUSocket, Server
from repro.hw.spec import topology_for
from repro.hw.topology import Topology
from repro.profiles.defaults import DEMUX_LB_CYCLES
from repro.units import DEFAULT_PACKET_BITS

# -- the oracle: the per-grant re-estimating allocator ------------------------


def _server_budgets(topology: Topology) -> Dict[str, int]:
    return {
        s.name: s.allocatable_cores
        for s in topology.servers
        if s.name not in topology.failed_devices
    }


def _refresh_estimates(placements: List[ChainPlacement], topology: Topology,
                       packet_bits: int) -> None:
    for cp in placements:
        cp.estimated_rate = estimate_chain_rate(cp, topology, packet_bits)


def _rate_cap(cp: ChainPlacement, topology: Topology) -> float:
    port_rate = getattr(topology.switch, "port_rate_mbps", math.inf)
    cap = min(port_rate, cp.chain.slo.t_max)
    for nic_cap in cp.nic_caps.values():
        cap = min(cap, nic_cap)
    return cap


def _bottleneck_subgroup(cp: ChainPlacement, topology: Topology,
                         packet_bits: int,
                         budgets: Dict[str, int]) -> Optional[Subgroup]:
    """The chain's limiting subgroup, if it can usefully take another core."""
    best: Optional[Subgroup] = None
    best_rate = math.inf
    for sg in cp.subgroups:
        rate = subgroup_rate_on(sg, topology, packet_bits)
        if rate < best_rate:
            best_rate = rate
            best = sg
    if best is None:
        return None
    if not best.replicable or budgets.get(best.server, 0) <= 0:
        return None
    # adding a core is useless if something else caps the chain harder
    if best_rate >= _rate_cap(cp, topology):
        return None
    return best


def _grant_core(cp: ChainPlacement, sg: Subgroup,
                budgets: Dict[str, int]) -> None:
    sg.cores += 1
    budgets[sg.server] -= 1


def allocate_minimum(
    placements: List[ChainPlacement],
    topology: Topology,
    packet_bits: int = DEFAULT_PACKET_BITS,
) -> AllocationResult:
    """One core per subgroup — the mandatory floor."""
    budgets = _server_budgets(topology)
    for cp in placements:
        for sg in cp.subgroups:
            sg.cores = 1
            budgets[sg.server] = budgets.get(sg.server, 0) - 1
    over = {s: b for s, b in budgets.items() if b < 0}
    if over:
        return AllocationResult(
            placements=placements, feasible=False,
            reason=f"not enough cores for one per subgroup: deficit {over}",
        )
    _refresh_estimates(placements, topology, packet_bits)
    return AllocationResult(placements=placements, feasible=True)


def meet_tmin(
    placements: List[ChainPlacement],
    topology: Topology,
    packet_bits: int = DEFAULT_PACKET_BITS,
) -> AllocationResult:
    """Water-fill bottleneck subgroups until every chain reaches t_min."""
    budgets = _server_budgets(topology)
    for cp in placements:
        for sg in cp.subgroups:
            budgets[sg.server] -= sg.cores
    _refresh_estimates(placements, topology, packet_bits)

    progress = True
    while progress:
        progress = False
        for cp in placements:
            if cp.estimated_rate + 1e-9 >= cp.chain.slo.t_min:
                continue
            sg = _bottleneck_subgroup(cp, topology, packet_bits, budgets)
            if sg is None:
                continue
            _grant_core(cp, sg, budgets)
            cp.estimated_rate = estimate_chain_rate(cp, topology, packet_bits)
            progress = True

    for cp in placements:
        if cp.estimated_rate + 1e-9 < cp.chain.slo.t_min:
            return AllocationResult(
                placements=placements, feasible=False,
                reason=(
                    f"chain {cp.name} stuck at {cp.estimated_rate:.0f} Mbps "
                    f"< t_min {cp.chain.slo.t_min:.0f} Mbps"
                ),
            )
    return AllocationResult(placements=placements, feasible=True)


def allocate_cores(
    placements: List[ChainPlacement],
    topology: Topology,
    packet_bits: int = DEFAULT_PACKET_BITS,
    policy: str = "lemur",
) -> AllocationResult:
    """Full allocation under the selected policy (see module docstring)."""
    minimum = allocate_minimum(placements, topology, packet_bits)
    if not minimum.feasible:
        return minimum
    if policy == "none":
        return _check_tmin(placements, topology, packet_bits)

    if policy == "even":
        # HW Preferred is *not* SLO-aware: spare cores go round-robin
        # regardless of t_min, so its rate is δ-independent and it fails
        # once a slow chain's even share cannot cover its minimum (§5.2).
        budgets = _server_budgets(topology)
        for cp in placements:
            for sg in cp.subgroups:
                budgets[sg.server] -= sg.cores
        _distribute_evenly(placements, topology, packet_bits, budgets)
        _refresh_estimates(placements, topology, packet_bits)
        return _check_tmin(placements, topology, packet_bits)

    met = meet_tmin(placements, topology, packet_bits)
    if not met.feasible:
        return met

    budgets = _server_budgets(topology)
    for cp in placements:
        for sg in cp.subgroups:
            budgets[sg.server] -= sg.cores

    if policy == "lemur":
        _maximize_marginal(placements, topology, packet_bits, budgets)
    elif policy == "by_index":
        _pump_by_index(placements, topology, packet_bits, budgets)
    else:
        raise PlacementError(f"unknown core allocation policy {policy!r}")

    _refresh_estimates(placements, topology, packet_bits)
    return AllocationResult(placements=placements, feasible=True)


def _check_tmin(placements: List[ChainPlacement], topology: Topology,
                packet_bits: int) -> AllocationResult:
    for cp in placements:
        if cp.estimated_rate + 1e-9 < cp.chain.slo.t_min:
            return AllocationResult(
                placements=placements, feasible=False,
                reason=(
                    f"chain {cp.name}: {cp.estimated_rate:.0f} Mbps < t_min "
                    f"without core scaling"
                ),
            )
    return AllocationResult(placements=placements, feasible=True)


def _maximize_marginal(placements: List[ChainPlacement], topology: Topology,
                       packet_bits: int, budgets: Dict[str, int]) -> None:
    """Spend spare cores on the (chain, subgroup) with the best rate gain.

    The chain rate is concave in its core count (min over subgroups of a
    linear function), so greedy marginal-gain selection is optimal for the
    capped-sum objective before link constraints; the LP then trims rates
    the NICs cannot carry.
    """
    while True:
        best_gain = 0.0
        best: Optional[Tuple[ChainPlacement, Subgroup]] = None
        for cp in placements:
            sg = _bottleneck_subgroup(cp, topology, packet_bits, budgets)
            if sg is None:
                continue
            before = min(cp.estimated_rate, _rate_cap(cp, topology))
            sg.cores += 1
            after = min(
                estimate_chain_rate(cp, topology, packet_bits),
                _rate_cap(cp, topology),
            )
            sg.cores -= 1
            gain = after - before
            if gain > best_gain + 1e-9:
                best_gain = gain
                best = (cp, sg)
        if best is None:
            return
        cp, sg = best
        _grant_core(cp, sg, budgets)
        cp.estimated_rate = estimate_chain_rate(cp, topology, packet_bits)


def _distribute_evenly(placements: List[ChainPlacement], topology: Topology,
                       packet_bits: int, budgets: Dict[str, int]) -> None:
    """Round-robin spare cores across chains (HW Preferred's policy)."""
    while True:
        granted = False
        for cp in placements:
            sg = _bottleneck_subgroup(cp, topology, packet_bits, budgets)
            if sg is None:
                continue
            _grant_core(cp, sg, budgets)
            cp.estimated_rate = estimate_chain_rate(cp, topology, packet_bits)
            granted = True
        if not granted:
            return


def _pump_by_index(placements: List[ChainPlacement], topology: Topology,
                   packet_bits: int, budgets: Dict[str, int]) -> None:
    """Greedy's policy: saturate chains to t_max in index order (§5.1)."""
    for cp in placements:
        while cp.estimated_rate < _rate_cap(cp, topology):
            sg = _bottleneck_subgroup(cp, topology, packet_bits, budgets)
            if sg is None:
                break
            _grant_core(cp, sg, budgets)
            cp.estimated_rate = estimate_chain_rate(cp, topology, packet_bits)


# -- random racks and chain sets -----------------------------------------------

POLICIES = ("lemur", "even", "by_index", "none")
#: one chain object per index, so reason texts name distinct chains
_CHAINS = chains_from_spec("".join(
    f"chain c{index}: ACL -> IPv4Fwd\n" for index in range(8)
))


def _slo(t_min: float, t_max: float) -> SLO:
    """An SLO that may carry t_max < t_min, which ``SLO`` itself refuses:
    a chain the allocator can never lift to its floor."""
    slo = SLO(t_min=t_min)
    object.__setattr__(slo, "t_max", t_max)
    return slo


#: per-packet cycles on both sides of the demux cost: below it, a second
#: core lowers a subgroup's rate (the demux charge outweighs the core);
#: a few shared values give chains subgroups of equal rate, where the
#: first one is the bottleneck
cycles_st = st.one_of(
    st.floats(20.0, float(DEMUX_LB_CYCLES)),
    st.floats(float(DEMUX_LB_CYCLES), 40000.0),
    st.sampled_from((90.0, 455.0, 4020.0, 9123.0)),
)


@st.composite
def instances(draw):
    """A rack and a factory of fresh chain placements for it."""
    servers = [
        Server(
            name=f"server{index}",
            sockets=[CPUSocket(0, cores=draw(st.integers(2, 16)),
                               freq_hz=draw(st.sampled_from((1.7e9, 2.4e9))))],
            nics=[NIC()],
            reserved_cores=draw(st.integers(0, 1)),
        )
        for index in range(draw(st.integers(1, 3)))
    ]
    topology = Topology(switch=PISASwitch(), servers=servers,
                        metron_steering=draw(st.booleans()))
    names = [server.name for server in servers]
    rows = []
    for index in range(draw(st.integers(1, 8))):
        subgroups = [
            (draw(st.sampled_from(names)), draw(cycles_st),
             draw(st.booleans()), draw(st.integers(1, 4)))
            for _ in range(draw(st.integers(1, 3)))
        ]
        t_min = draw(st.floats(0.0, 60000.0))
        t_max = draw(st.one_of(
            st.just(math.inf),
            st.floats(0.0, 120000.0),  # may sit below t_min
        ))
        nic_caps = draw(st.one_of(
            st.just({}),
            st.builds(lambda cap: {"nic0": cap}, st.floats(100.0, 80000.0)),
        ))
        estimate = draw(st.floats(0.0, 1e5))
        rows.append((index, subgroups, t_min, t_max, nic_caps, estimate))

    def make() -> List[ChainPlacement]:
        placements = []
        for index, subgroups, t_min, t_max, nic_caps, estimate in rows:
            chain = _CHAINS[index].with_slo(_slo(t_min, t_max))
            placements.append(ChainPlacement(
                chain=chain, assignment={},
                subgroups=[
                    Subgroup(f"c{index}.sg{j}", chain.name, server, (),
                             cycles, replicable, cores)
                    for j, (server, cycles, replicable, cores)
                    in enumerate(subgroups)
                ],
                nic_caps=dict(nic_caps),
                estimated_rate=estimate,
            ))
        return placements

    return topology, make


def outcome(result: AllocationResult, placements: List[ChainPlacement]):
    assert result.placements is placements
    return (
        result.feasible,
        result.reason,
        [[sg.cores for sg in cp.subgroups] for cp in placements],
        [float(cp.estimated_rate).hex() for cp in placements],
    )


# -- the allocator ≡ the oracle --------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(instances(), st.sampled_from(POLICIES))
def test_allocate_cores_equals_the_re_estimating_allocator(instance, policy):
    topology, make = instance
    expected_cps, actual_cps = make(), make()
    expected = allocate_cores(expected_cps, topology, policy=policy)
    actual = corealloc.allocate_cores(actual_cps, topology, policy=policy)
    event(f"{policy}: feasible={expected.feasible}")
    assert outcome(actual, actual_cps) == outcome(expected, expected_cps)


@settings(max_examples=150, deadline=None)
@given(instances(), st.sampled_from(POLICIES))
def test_the_floor_step_equals_the_oracles_floor(instance, policy):
    """``CoreAllocation.floor`` alone: one core per subgroup, then the
    water-fill to t_min under ``lemur`` and ``by_index``."""
    topology, make = instance
    expected_cps, actual_cps = make(), make()
    expected = allocate_minimum(expected_cps, topology)
    if expected.feasible and policy in ("lemur", "by_index"):
        expected = meet_tmin(expected_cps, topology)
    actual = corealloc.CoreAllocation(actual_cps, topology,
                                      policy=policy).floor()
    assert outcome(actual, actual_cps) == outcome(expected, expected_cps)


def test_a_later_offer_must_win_by_more_than_the_tolerance():
    """One spare core, two chains whose capped gains differ by 5e-10: the
    first chain keeps it, as the re-estimating allocator decided."""
    server = Server(name="server0", sockets=[CPUSocket(0, cores=3)],
                    nics=[NIC()], reserved_cores=0)
    topology = Topology(switch=PISASwitch(), servers=[server])

    def make() -> List[ChainPlacement]:
        return [
            ChainPlacement(
                chain=_CHAINS[index].with_slo(_slo(0.0, t_max)),
                assignment={},
                subgroups=[Subgroup(f"c{index}.sg0", f"c{index}", "server0",
                                    (), 9123.0, True)],
            )
            for index, t_max in enumerate((3000.0, 3000.0 + 5e-10))
        ]

    expected_cps, actual_cps = make(), make()
    expected = allocate_cores(expected_cps, topology)
    actual = corealloc.allocate_cores(actual_cps, topology)
    assert outcome(actual, actual_cps) == outcome(expected, expected_cps)
    assert [cp.subgroups[0].cores for cp in actual_cps] == [2, 1]


# -- the incremental path without a new chain ----------------------------------


def floor_twice(placer: Placer, request: PlacementRequest,
                base: Placement) -> Placement:
    """``Placer._solve_incremental`` as it ran when every chain of the
    request was pinned: floor the pinned copies, then ``allocate_cores``
    floors them again and spends."""
    topology, packet_bits = placer.topology, placer.config.packet_bits
    base_by_name = {cp.name: cp for cp in base.chains}
    pinned_cps = []
    for chain in request.chains:
        prior = base_by_name[chain.name]
        assert chain.graph is prior.chain.graph
        pinned = replace(
            prior, chain=chain,
            assignment=dict(prior.assignment),
            subgroups=[replace(sg, cores=1) for sg in prior.subgroups],
            nic_caps=dict(prior.nic_caps),
            server_visits=dict(prior.server_visits),
        )
        pinned.estimated_rate = estimate_chain_rate(
            pinned, topology, packet_bits
        )
        pinned_cps.append(pinned)
    floor = allocate_minimum(pinned_cps, topology, packet_bits)
    if floor.feasible:
        floor = meet_tmin(pinned_cps, topology, packet_bits)
    if not floor.feasible:
        return Placement(chains=pinned_cps, strategy="lemur",
                         infeasible_reason=floor.reason)
    placement = Placement(chains=pinned_cps, strategy="lemur")
    allocation = allocate_cores(pinned_cps, topology, packet_bits,
                                policy="lemur")
    if not allocation.feasible:
        placement.infeasible_reason = allocation.reason
        return placement
    for cp in pinned_cps:
        if cp.latency_us > cp.chain.slo.d_max:
            placement.infeasible_reason = (
                f"chain {cp.name}: latency {cp.latency_us:.1f} µs "
                f"exceeds d_max {cp.chain.slo.d_max:.1f} µs"
            )
            return placement
    reason, stages_used = switch_fit(pinned_cps, topology)
    if reason is not None:
        placement.infeasible_reason = reason
        return placement
    if stages_used is not None:
        placement.switch_stages_used = stages_used
    solution = solve_rates(pinned_cps, topology)
    if not solution.feasible:
        placement.infeasible_reason = solution.reason
        return placement
    placement.rates = solution.rates
    placement.objective_mbps = solution.objective_mbps
    placement.feasible = True
    return placement


def placement_outcome(placement: Placement):
    return (
        placement.feasible,
        placement.infeasible_reason,
        placement.describe(),
        {name: rate.hex() for name, rate in placement.rates.items()},
        placement.objective_mbps.hex(),
        placement.switch_stages_used,
        [[sg.cores for sg in cp.subgroups] for cp in placement.chains],
        [cp.estimated_rate.hex() for cp in placement.chains],
    )


BODY = "ACL(rules=64) -> Encrypt -> IPv4Fwd"


@pytest.fixture(scope="module")
def admitted():
    """Five chains on ``multi-server``, placed cold."""
    placer = Placer(topology=topology_for("multi-server").build())
    spec = "".join(f"chain c{index}: {BODY}\n" for index in range(5))
    slos = [(2000.0, 9000.0), (4000.0, 9000.0), (1000.0, 4000.0),
            (3000.0, 9000.0), (500.0, 20000.0)]
    base = placer.solve(PlacementRequest(
        chains=chains_with_slos(spec, slos))).placement
    assert base.feasible, base.infeasible_reason
    return placer, base


@pytest.mark.parametrize("scale", [
    ("c1", 6000.0),    # a scale-up the spare cores cover
    ("c4", 100.0),     # a scale-down: more cores to spend
    ("c0", 9000.0),    # t_min at t_max
    ("c2", 60000.0),   # beyond what the chain's cores can carry
    (None, 0.0),       # c3 departs
], ids=["scale-up", "scale-down", "tmin-at-tmax", "stuck", "depart"])
def test_a_request_without_a_new_chain_equals_flooring_twice(admitted, scale):
    placer, base = admitted
    name, t_min = scale
    chains = []
    for cp in base.chains:
        chain = cp.chain
        if name is None and chain.name == "c3":
            continue
        if chain.name == name:
            chain = chain.with_slo(chain.slo.with_tmin(t_min))
        chains.append(chain)
    request = PlacementRequest(chains=chains, base_placement=base)
    expected = floor_twice(placer, request, base)
    report = placer.solve(request)
    assert (report.mode, report.placed_chains) == ("incremental", 0)
    assert placement_outcome(report.placement) == placement_outcome(expected)
    if name == "c2":
        assert "stuck" in report.placement.infeasible_reason


def test_pinned_copies_carry_every_field(admitted):
    """A pinned chain is a plain copy of its base entry: every field but
    the chain, the cores and the estimate is carried, and nothing is
    shared with the base but immutable values."""
    placer, base = admitted
    before = [[sg.cores for sg in cp.subgroups] for cp in base.chains]
    placement = placer.solve(PlacementRequest(
        chains=[cp.chain for cp in base.chains], base_placement=base,
    )).placement
    assert placement.feasible
    assert [[sg.cores for sg in cp.subgroups] for cp in base.chains] == before
    for prior, pinned in zip(base.chains, placement.chains):
        assert pinned is not prior
        for field in dataclasses.fields(ChainPlacement):
            if field.name in ("chain", "subgroups", "estimated_rate"):
                continue
            value = getattr(pinned, field.name)
            assert value == getattr(prior, field.name), field.name
            if isinstance(value, dict):
                assert value is not getattr(prior, field.name), field.name
        for old, new in zip(prior.subgroups, pinned.subgroups):
            assert new is not old
            for field in dataclasses.fields(Subgroup):
                if field.name != "cores":
                    assert getattr(new, field.name) \
                        == getattr(old, field.name), field.name
