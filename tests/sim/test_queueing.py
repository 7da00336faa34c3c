"""Queueing-aware delay model: unit curve + rack stamping invariants.

The tentpole contract: ``kind="none"`` (and any zero-utilization
configuration) is byte-identical to the historical fixed-cost latency
model, the M/M/1 factor is monotone in utilization and clamped at
``max_utilization``, and an enabled model raises stamped latencies
strictly and deterministically.
"""

import pytest

from repro.chain.graph import chains_from_spec
from repro.chain.slo import SLO
from repro.core.heuristic import heuristic_place
from repro.hw.spec import topology_for
from repro.metacompiler.compiler import MetaCompiler
from repro.obs import MetricsRegistry
from repro.profiles.defaults import default_profiles
from repro.sim.measurement import QUEUEING_MODELS, QueueingModel
from repro.sim.runtime import DeployedRack, _chain_packet
from repro.units import gbps


# ---------------------------------------------------------------------------
# the delay curve
# ---------------------------------------------------------------------------


def test_none_model_factor_is_zero_everywhere():
    model = QueueingModel()
    assert not model.enabled
    for rho in (0.0, 0.3, 0.95, 2.0):
        assert model.delay_factor(rho) == 0.0


@pytest.mark.parametrize("rho,expected", [
    (0.0, 0.0),
    (0.5, 1.0),          # rho/(1-rho): half load doubles the sojourn
    (0.75, 3.0),
    (0.9, 9.0),
])
def test_mm1_factor_values(rho, expected):
    assert QueueingModel(kind="mm1").delay_factor(rho) == \
        pytest.approx(expected)


def test_mm1_factor_monotone_in_utilization():
    model = QueueingModel(kind="mm1")
    grid = [i / 20 for i in range(20)]
    factors = [model.delay_factor(rho) for rho in grid]
    assert factors == sorted(factors)
    assert factors[0] == 0.0
    assert model.delay_factor(-0.5) == 0.0


def test_mm1_factor_saturation_clamp():
    model = QueueingModel(kind="mm1", max_utilization=0.95)
    ceiling = model.delay_factor(0.95)
    assert ceiling == pytest.approx(0.95 / 0.05)
    # overload stays large-but-finite instead of a 1/(1-rho) singularity
    for rho in (0.99, 1.0, 5.0):
        assert model.delay_factor(rho) == ceiling


def test_model_validation():
    with pytest.raises(ValueError, match="unknown queueing model"):
        QueueingModel(kind="md1")
    with pytest.raises(ValueError, match="max_utilization"):
        QueueingModel(kind="mm1", max_utilization=1.0)
    assert set(QUEUEING_MODELS) == {"none", "mm1"}


# ---------------------------------------------------------------------------
# rack stamping
# ---------------------------------------------------------------------------


def _deploy(spec, slo, seed=23):
    profiles = default_profiles()
    topology = topology_for("paper-testbed").build()
    chains = chains_from_spec(spec, slos=[slo])
    placement = heuristic_place(chains, topology, profiles)
    assert placement.feasible, placement.infeasible_reason
    meta = MetaCompiler(topology=topology, profiles=profiles)
    artifacts = meta.compile_placement(placement)
    registry = MetricsRegistry()
    rack = DeployedRack(topology, artifacts, profiles, seed=seed,
                        registry=registry)
    return rack, placement.chains[0], registry


_SPEC = "chain a: Encrypt -> IPv4Fwd"
_SLO = SLO(t_min=gbps(0.5), t_max=gbps(30))


def _latencies(rack, cp, n=24):
    out = rack.run(
        cp, [_chain_packet(cp.chain, i % 4) for i in range(n)]).outputs
    return [p.metadata.fields["latency_us"] for p in out if p is not None]


@pytest.mark.parametrize("configure", ["untouched", "none", "mm1-zero"])
def test_zero_utilization_matches_fixed_cost_baseline(configure):
    """The fixed-cost baseline is preserved bit-for-bit by the identity
    model AND by an enabled model at zero utilization."""
    base_rack, base_cp, base_reg = _deploy(_SPEC, _SLO)
    rack, cp, reg = _deploy(_SPEC, _SLO)
    if configure == "none":
        rack.configure_queueing(QueueingModel())
    elif configure == "mm1-zero":
        rack.configure_queueing(
            QueueingModel(kind="mm1"),
            {name: 0.0 for name in rack.servers},
        )
    base = _latencies(base_rack, base_cp)
    got = _latencies(rack, cp)
    assert got == base  # bit-identical, not approx
    for packet_latencies in (got,):
        assert all(lat > 0.0 for lat in packet_latencies)
    assert reg.dump_state() == base_reg.dump_state()


def test_enabled_queueing_raises_latency_monotonically():
    stamped = {}
    for rho in (0.0, 0.3, 0.6, 0.9):
        rack, cp, _ = _deploy(_SPEC, _SLO)
        rack.configure_queueing(
            QueueingModel(kind="mm1"),
            {name: rho for name in rack.servers},
        )
        stamped[rho] = sum(_latencies(rack, cp))
    assert stamped[0.0] < stamped[0.3] < stamped[0.6] < stamped[0.9]


def test_queue_component_is_exec_times_factor():
    """Per-packet decomposition: queue_us == exec_us * factor when one
    uniform factor covers every charged device, and the total re-adds."""
    rho = 0.5
    rack, cp, _ = _deploy(_SPEC, _SLO)
    devices = {*rack.servers, *rack.nics, rack.topology.switch.name}
    rack.configure_queueing(
        QueueingModel(kind="mm1"), {name: rho for name in devices})
    factor = QueueingModel(kind="mm1").delay_factor(rho)
    out = rack.run(
        cp, [_chain_packet(cp.chain, i % 4) for i in range(16)]).outputs
    for packet in out:
        if packet is None:
            continue
        fields = packet.metadata.fields
        assert fields["queue_us"] == \
            pytest.approx(fields["exec_us"] * factor)
        assert fields["latency_us"] == pytest.approx(
            fields["exec_us"] + fields["queue_us"]
            + fields["bounce_us"] + fields["switch_us"])
