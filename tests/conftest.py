"""Shared fixtures for the Lemur reproduction test suite."""

import pytest

from repro.chain.graph import chains_from_spec
from repro.chain.slo import SLO
from repro.hw.spec import topology_for
from repro.profiles.defaults import default_profiles
from repro.units import gbps


@pytest.fixture()
def profiles():
    return default_profiles()


@pytest.fixture()
def testbed():
    return topology_for("paper-testbed").build()


@pytest.fixture()
def simple_chains():
    """Two small linear chains with modest SLOs."""
    spec = """
    chain alpha: ACL -> Encrypt -> IPv4Fwd
    chain beta: BPF -> NAT -> IPv4Fwd
    """
    return chains_from_spec(
        spec,
        slos=[SLO(t_min=gbps(1), t_max=gbps(50)),
              SLO(t_min=gbps(1), t_max=gbps(50))],
    )


@pytest.fixture()
def branched_chain():
    """A chain with a conditional branch and a merge."""
    spec = (
        "chain branchy: BPF -> "
        "[ACL -> Encrypt @ 0.5, default: Monitor] -> IPv4Fwd"
    )
    return chains_from_spec(spec, slos=[SLO(t_min=gbps(0.5))])[0]


@pytest.fixture()
def pin_loop(monkeypatch):
    """Pin the traffic engine's loop selection for this test: every batch
    ``"scalar"`` or every batch ``"columnar"`` (a chain whose columnar
    batch falls back structurally still moves to the scalar loop)."""
    import repro.sim.traffic as traffic

    def pin(loop: str) -> None:
        monkeypatch.setattr(
            traffic, "COLUMNAR_MIN_BATCH",
            {"scalar": 10**9, "columnar": 1}[loop],
        )
    return pin


@pytest.fixture(scope="session")
def loop_blind():
    """``registry.dump_state()`` minus ``traffic.batches{loop}`` — the one
    registry difference allowed between the two dataplane loops — and
    minus what differs between any two runs of one spec: the control
    plane's wall-clock timers and the process-wide P4 compile memo's
    hit/miss split (an engine's registry receives those too)."""
    def strip(state: dict) -> dict:
        return {
            **state,
            "counters": [
                entry for entry in state["counters"]
                if entry[0] not in ("traffic.batches", "p4c.compile.lookups")
            ],
            "histograms": [entry for entry in state["histograms"]
                           if not entry[0].endswith(".seconds")],
        }
    return strip


@pytest.fixture(scope="session")
def loop_counts():
    """``(scalar, columnar)`` batches a registry saw the engine inject."""
    def counts(registry) -> tuple:
        return (registry.counter_value("traffic.batches", loop="scalar"),
                registry.counter_value("traffic.batches", loop="columnar"))
    return counts
