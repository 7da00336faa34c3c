"""Property test of the guarded chaos run over random fault timelines.

Seeded ``FaultTimeline.random`` timelines drive a ``ChaosEngine`` with the
guard on, on a one-server rack, a multi-server rack and a two-rack
fabric. Every run keeps three properties:

1. no deployed placement — the bootstrap's, or a replan's — exceeds a
   server's cores or the switch's stages;
2. the chain set never shrinks: every phase reports every chain, and
   the core still holds them all at the end;
3. once the guard has settled — the final phase is not ``exhausted``
   and every chain injected a full guard window in it — every chain
   *delivers* at least ``t_min × (1 − SLO_RTOL)``, not just gets it
   assigned by the LP.
"""

from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.hw.spec import topology_for
from repro.sim.admission import _RackCore
from repro.sim.faults import ChaosEngine, ChaosSpec, FaultTimeline, GuardConfig
from repro.units import SLO_RTOL

_POP = (
    "chain enterprise: ACL -> Encrypt -> IPv4Fwd\n"
    "chain residential: BPF -> NAT -> Monitor -> IPv4Fwd\n"
)

#: preset -> (spec text, per-chain SLOs, packets per chain)
SCENARIOS = {
    "paper-testbed": (_POP, ((1000.0, 20000.0),) * 2, 256),
    "multi-server": (_POP, ((1000.0, 20000.0),) * 2, 256),
    "two-rack": (
        "".join(f"chain c{i}: ACL(rules=64) -> Encrypt -> IPv4Fwd\n"
                for i in range(6)),
        ((4000.0, 9000.0, 400.0),) * 6,
        128,
    ),
}


def _spec(preset: str, seed: int, n_events: int) -> ChaosSpec:
    text, slos, packets = SCENARIOS[preset]
    spec = ChaosSpec(
        spec_text=text, slos=slos, topology=topology_for(preset),
        packets_per_chain=packets, flows_per_chain=8, batch_size=16,
        guard=GuardConfig(window_packets=32), seed=seed,
    )
    horizon = packets * len(slos)
    return replace(spec, timeline=FaultTimeline.random(
        seed, spec.build_topology(), n_events=n_events, horizon=horizon,
    ))


def _assert_within_capacity(core: _RackCore) -> None:
    used = {}
    for cp in core.placement.chains:
        for sg in cp.subgroups:
            used[sg.server] = used.get(sg.server, 0) + sg.cores
    for server in core.topology.servers:
        assert used.get(server.name, 0) <= server.allocatable_cores
    p4 = core.rack.artifacts.p4
    if p4 is not None:
        assert p4.compile_result.stage_count <= core.topology.switch.num_stages


def _run_checking_deploys(spec: ChaosSpec):
    """Run ``spec``, checking capacity after every deploy of a rack."""
    deploy, install = _RackCore.deploy, _RackCore.install

    def checked_deploy(core, solved):
        report = deploy(core, solved)
        _assert_within_capacity(core)
        return report

    def checked_install(core, placement):
        delta = install(core, placement)
        _assert_within_capacity(core)
        return delta

    engine = ChaosEngine(spec)
    with mock.patch.object(_RackCore, "deploy", checked_deploy), \
            mock.patch.object(_RackCore, "install", checked_install):
        return engine, engine.run()


# ≈ 6 s on a 2-vCPU host for the three presets together; a longer
# undirected hunt (derandomize=False, 150 draws a preset) found nothing
@pytest.mark.parametrize("preset", sorted(SCENARIOS))
@settings(max_examples=20, deadline=None, derandomize=True,
          suppress_health_check=list(HealthCheck))
@given(seed=st.integers(0, 10_000), n_events=st.integers(1, 4))
def test_guarded_chaos_keeps_its_invariants(preset, seed, n_events):
    spec = _spec(preset, seed, n_events)
    engine, report = _run_checking_deploys(spec)
    names = {chain.name for chain in spec.build_chains()}

    assert {chain.name for chain in engine.core.active} == names
    for phase in report.phases:
        assert {row.chain_name for row in phase.chains} == names

    final = report.phases[-1]
    settled = final.mode != "exhausted" and all(
        row.injected >= spec.guard.window_packets for row in final.chains
    )
    if settled:
        for row in final.chains:
            t_min = final.t_mins[row.chain_name]
            assert row.delivered_mbps >= t_min * (1.0 - SLO_RTOL), (
                f"{row.chain_name} delivers {row.delivered_mbps:.1f} "
                f"< t_min {t_min:.1f} Mbps after the guard settled"
            )
