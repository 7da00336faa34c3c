"""Chaos reports pinned byte for byte.

The single-rack fixtures under ``golden/`` were written by the chaos
engine that kept its own deploy, shed and replan beside the admission
core. A report must match its fixture through the last phase before
the first ``replanned`` phase, and match it whole where no replan
fires: a replan now redeploys the running rack (the injection sequence
counter and reused device runtimes survive) where the old engine built
a fresh one, so only what follows a replan may move.

``two_rack.json`` pins the one-timeline fabric run for determinism.

To regenerate a fixture after a deliberate change, from ``tests/sim``::

    PYTHONPATH=../../src python -c \\
        "import test_chaos_golden as t; t.write_fixtures(['NAME'])"
"""

import json
from pathlib import Path

import pytest

from repro.hw.spec import TopologySpec, topology_for
from repro.sim.faults import (
    ChaosSpec,
    FaultEvent,
    FaultTimeline,
    GuardConfig,
    run_chaos,
)
from repro.units import gbps

GOLDEN = Path(__file__).parent / "golden"

_POP = (
    "chain enterprise: ACL -> Encrypt -> IPv4Fwd\n"
    "chain residential: BPF -> NAT -> Monitor -> IPv4Fwd\n"
)
_INF = float("inf")


def _timeline(*events, seed=23):
    return FaultTimeline(
        events=tuple(FaultEvent(*event) for event in events), seed=seed,
    )


def chaos_smoke():
    """CI ``chaos-smoke``: fail → shed → replan on two servers."""
    return ChaosSpec(
        spec_text=_POP,
        slos=((gbps(1), gbps(20), _INF),) * 2,
        topology=TopologySpec.from_flags(servers=2),
        timeline=_timeline((128, "fail", "server0")),
        packets_per_chain=384, flows_per_chain=16, batch_size=32,
        guard=GuardConfig(window_packets=64),
    )


def latency_shed():
    """CI latency guard: a pure-latency violation is shed away."""
    return ChaosSpec(
        spec_text="chain a: Encrypt -> IPv4Fwd\n",
        slos=((gbps(0.5), gbps(30), 40.0),),
        timeline=_timeline(),
        packets_per_chain=512, flows_per_chain=32, batch_size=32,
        guard=GuardConfig(window_packets=128),
        queueing="mm1",
    )


def degrade_restore():
    """A server link at a tenth of its capacity, then restored."""
    return ChaosSpec(
        spec_text=_POP,
        slos=((gbps(1), gbps(20), _INF),) * 2,
        topology=TopologySpec.from_flags(servers=2),
        timeline=_timeline(
            (128, "degrade_link", "server0", 0.9),
            (448, "restore_link", "server0"),
        ),
        packets_per_chain=384, flows_per_chain=16, batch_size=32,
        guard=GuardConfig(window_packets=64),
    )


def lose_cores_replan():
    """Six dead cores on the only server: shed, then replan around them."""
    return ChaosSpec(
        spec_text="chain a: BPF -> FastEncrypt -> IPv4Fwd\n",
        slos=((gbps(1), gbps(10), _INF),),
        timeline=_timeline((96, "lose_cores", "server0", 6), seed=11),
        packets_per_chain=512, flows_per_chain=8, batch_size=32,
        guard=GuardConfig(window_packets=64), seed=11,
    )


def two_rack():
    """One fabric timeline: a remote server's link degrades, then a
    fault on the ingress server."""
    return ChaosSpec(
        spec_text="".join(
            f"chain c{i}: ACL(rules=64) -> Encrypt -> IPv4Fwd\n"
            for i in range(6)
        ),
        slos=((4000.0, 9000.0, 400.0),) * 6,
        topology=topology_for("two-rack"),
        timeline=_timeline(
            (96, "degrade_link", "r1.server0", 0.5),
            (288, "lose_cores", "r0.server0", 2),
            seed=7,
        ),
        packets_per_chain=128, flows_per_chain=8, batch_size=16, seed=7,
        guard=GuardConfig(window_packets=32),
    )


SINGLE_RACK = {
    "chaos_smoke": chaos_smoke,
    "latency_shed": latency_shed,
    "degrade_restore": degrade_restore,
    "lose_cores_replan": lose_cores_replan,
}


def _before_replan(payload: dict) -> dict:
    """The report up to its first ``replanned`` phase."""
    labels = [phase["label"] for phase in payload["phases"]]
    cut = labels.index("replanned") if "replanned" in labels else len(labels)
    return {"seed": payload["seed"], "phases": payload["phases"][:cut]}


@pytest.mark.parametrize("name", sorted(SINGLE_RACK))
def test_single_rack_report_matches_its_fixture(name):
    golden = (GOLDEN / f"{name}.json").read_text()
    report = run_chaos(SINGLE_RACK[name]())
    expected = json.loads(golden)
    if not any(ph["label"] == "replanned" for ph in expected["phases"]):
        assert report.to_json() == golden
        return
    got = json.loads(report.to_json())
    assert (json.dumps(_before_replan(got), indent=2)
            == json.dumps(_before_replan(expected), indent=2))
    assert report.phases[-1].label == "replanned"
    assert report.phases[-1].compliant


def test_two_rack_report_matches_its_fixture():
    golden = (GOLDEN / "two_rack.json").read_text()
    assert run_chaos(two_rack()).to_json() == golden


def write_fixtures(names=None):
    """Rewrite the fixtures from the current code."""
    scenarios = dict(SINGLE_RACK, two_rack=two_rack)
    GOLDEN.mkdir(exist_ok=True)
    for name in names or sorted(scenarios):
        (GOLDEN / f"{name}.json").write_text(
            run_chaos(scenarios[name]()).to_json()
        )
