"""TrafficEngine: high-volume replay through the batched fast path."""

import hashlib
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.chain.graph import chains_from_spec
from repro.chain.slo import SLO
from repro.core.heuristic import heuristic_place
from repro.hw.spec import TopologySpec, topology_for
from repro.metacompiler.compiler import MetaCompiler
from repro.obs import MetricsRegistry, QuantileSketch
from repro.profiles.defaults import default_profiles
from repro.sim.runtime import DeployedRack
from repro.sim.traffic import COLUMNAR_MIN_BATCH, TrafficEngine, TrafficSpec
from repro.units import gbps

#: batch sizes on either side of the engine's loop selection
SCALAR_BATCH = COLUMNAR_MIN_BATCH // 2
COLUMNAR_BATCH = COLUMNAR_MIN_BATCH


def _deploy(spec, slos, **topo_kwargs):
    profiles = default_profiles()
    topology = TopologySpec.from_flags(**topo_kwargs).build()
    chains = chains_from_spec(spec, slos=slos)
    placement = heuristic_place(chains, topology, profiles)
    assert placement.feasible, placement.infeasible_reason
    meta = MetaCompiler(topology=topology, profiles=profiles)
    artifacts = meta.compile_placement(placement)
    registry = MetricsRegistry()
    rack = DeployedRack(topology, artifacts, profiles, registry=registry)
    return rack, placement, registry


def test_traffic_engine_reports_per_chain():
    rack, placement, registry = _deploy(
        "chain a: Encrypt -> IPv4Fwd\nchain b: ACL -> IPv4Fwd",
        [SLO(t_min=gbps(1), t_max=gbps(20)),
         SLO(t_min=gbps(1), t_max=gbps(20))],
    )
    engine = TrafficEngine(rack, placement, flows_per_chain=8, batch_size=32)
    report = engine.run(packets_per_chain=128)

    assert [c.chain_name for c in report.chains] == ["a", "b"]
    for chain_report in report.chains:
        assert chain_report.injected == 128
        assert chain_report.delivered == 128
        assert chain_report.dropped == 0
        assert chain_report.flows == 8
        assert chain_report.achieved_pps > 0
        # LP assigned a rate, and full delivery sustains all of it
        assert chain_report.assigned_mbps > 0
        assert chain_report.delivered_mbps == pytest.approx(
            chain_report.assigned_mbps)
    assert report.injected == 256
    assert report.aggregate_assigned_mbps == pytest.approx(
        placement.aggregate_rate)

    # the registry saw exactly the injected volume
    injected = sum(
        c.value for c in registry.counters()
        if c.name == "rack.packets.injected"
    )
    assert injected == 256


def test_traffic_engine_exercises_flow_cache():
    rack, placement, registry = _deploy(
        "chain a: Encrypt -> IPv4Fwd", [SLO(t_min=gbps(1), t_max=gbps(20))],
    )
    engine = TrafficEngine(rack, placement, flows_per_chain=4, batch_size=16)
    engine.run(packets_per_chain=64)
    misses = registry.counter_value("rack.flow_cache.lookups", result="miss")
    hits = registry.counter_value("rack.flow_cache.lookups", result="hit")
    assert misses == 4
    assert hits == 60


def test_traffic_engine_chain_filter():
    rack, placement, _ = _deploy(
        "chain a: Encrypt -> IPv4Fwd\nchain b: ACL -> IPv4Fwd",
        [SLO(t_min=gbps(1), t_max=gbps(20)),
         SLO(t_min=gbps(1), t_max=gbps(20))],
    )
    engine = TrafficEngine(rack, placement, flows_per_chain=4, batch_size=16)
    report = engine.run(packets_per_chain=32, chain_names=["b"])
    assert [c.chain_name for c in report.chains] == ["b"]


def test_traffic_engine_rejects_bad_config():
    rack, placement, _ = _deploy(
        "chain a: Encrypt -> IPv4Fwd", [SLO(t_min=gbps(1), t_max=gbps(20))],
    )
    with pytest.raises(ValueError):
        TrafficEngine(rack, placement, flows_per_chain=0)
    with pytest.raises(ValueError):
        TrafficEngine(rack, placement, batch_size=0)


def test_describe_renders_totals():
    rack, placement, _ = _deploy(
        "chain a: Encrypt -> IPv4Fwd", [SLO(t_min=gbps(1), t_max=gbps(20))],
    )
    engine = TrafficEngine(rack, placement, flows_per_chain=4, batch_size=16)
    report = engine.run(packets_per_chain=32)
    text = report.describe()
    assert "total" in text
    assert "a" in text.split()


def _delivery_key(report):
    """The loop-invariant part of a report (walls and pps are not)."""
    return [
        (c.chain_name, c.flows, c.injected, c.delivered, c.dropped,
         c.assigned_mbps)
        for c in report.chains
    ]


def test_vectorized_matches_scalar(loop_blind, loop_counts):
    """A batch at or above ``COLUMNAR_MIN_BATCH`` takes the columnar fast
    path; delivery outcomes and the whole metrics registry (the loop
    counter aside) stay bit-identical to the scalar loop's."""
    spec = "chain a: Encrypt -> IPv4Fwd\nchain b: ACL -> IPv4Fwd"
    slos = [SLO(t_min=gbps(1), t_max=gbps(20))] * 2
    rack_s, placement_s, reg_s = _deploy(spec, slos)
    rack_v, placement_v, reg_v = _deploy(spec, slos)
    packets = 4 * COLUMNAR_BATCH
    scalar = TrafficEngine(rack_s, placement_s, flows_per_chain=8,
                           batch_size=SCALAR_BATCH
                           ).run(packets_per_chain=packets)
    vector = TrafficEngine(rack_v, placement_v, flows_per_chain=8,
                           batch_size=COLUMNAR_BATCH
                           ).run(packets_per_chain=packets)
    assert loop_counts(reg_s) == (16, 0)
    assert loop_counts(reg_v) == (0, 8)
    assert _delivery_key(scalar) == _delivery_key(vector)
    assert loop_blind(reg_s.dump_state()) == loop_blind(reg_v.dump_state())


def test_replay_batch_vectorized_matches_scalar(loop_blind, loop_counts):
    rack_s, placement_s, reg_s = _deploy(
        "chain a: Encrypt -> IPv4Fwd", [SLO(t_min=gbps(1), t_max=gbps(20))])
    rack_v, placement_v, reg_v = _deploy(
        "chain a: Encrypt -> IPv4Fwd", [SLO(t_min=gbps(1), t_max=gbps(20))])
    scalar = TrafficEngine(rack_s, placement_s, flows_per_chain=8,
                           batch_size=SCALAR_BATCH)
    vector = TrafficEngine(rack_v, placement_v, flows_per_chain=8,
                           batch_size=COLUMNAR_BATCH)
    cursor_s = cursor_v = 0
    delivered_s = delivered_v = 0
    samples_s = []
    samples_v = []
    # the selection reads the size of each injected batch, so the second
    # and third calls' tails (< COLUMNAR_BATCH) take the scalar loop
    for count in (2 * COLUMNAR_BATCH, COLUMNAR_BATCH + 8, 8):
        d, cursor_s, lat = scalar.replay_batch(placement_s.chains[0],
                                               cursor_s, count)
        delivered_s += d
        samples_s.extend(lat)
        d, cursor_v, lat = vector.replay_batch(placement_v.chains[0],
                                               cursor_v, count)
        delivered_v += d
        samples_v.extend(lat)
    assert loop_counts(reg_v) == (2, 3)
    assert loop_counts(reg_s)[1] == 0
    assert (delivered_s, cursor_s) == (delivered_v, cursor_v)
    assert samples_s == samples_v
    assert len(samples_s) == delivered_s
    assert loop_blind(reg_s.dump_state()) == loop_blind(reg_v.dump_state())


def test_latency_stamps_stay_an_array_until_the_quantile(monkeypatch):
    """An all-columnar chain's stamps reach the report's sketch as one
    float64 array per batch, never a Python float per packet, and no
    per-chain array outlives its batch; ``replay_batch`` keeps its list
    contract for the chaos guard's trailing window."""
    rack, placement, _ = _deploy(
        "chain a: Encrypt -> IPv4Fwd", [SLO(t_min=gbps(1), t_max=gbps(20))])
    engine = TrafficEngine(rack, placement, flows_per_chain=8,
                           batch_size=COLUMNAR_BATCH)
    cp = placement.chains[0]
    engine.synthesize_flows(cp)
    folded = []
    add_many = QuantileSketch.add_many

    def spy(sketch, values):
        folded.append((type(values), len(values)))
        add_many(sketch, values)

    monkeypatch.setattr(QuantileSketch, "add_many", spy)
    delivered, sketch, _wall = engine.replay(cp, 0, 3 * COLUMNAR_BATCH)
    assert folded == [(np.ndarray, COLUMNAR_BATCH)] * 3
    assert sketch.count == delivered == 3 * COLUMNAR_BATCH
    delivered, cursor, samples = engine.replay_batch(
        cp, 3 * COLUMNAR_BATCH, COLUMNAR_BATCH + SCALAR_BATCH)
    assert type(samples) is list and len(samples) == delivered
    assert all(type(sample) is float for sample in samples)
    assert cursor == 4 * COLUMNAR_BATCH + SCALAR_BATCH
    # nothing to replay is an empty sketch, and an empty list
    assert engine.replay(cp, cursor, 0)[1].count == 0
    assert engine.replay_batch(cp, cursor, 0) == (0, cursor, [])


def test_a_warm_fastpath_pass_keeps_no_per_packet_array():
    """One warm 400 000-packet pass over the benchmark's ``nic_fastpath``
    chains (paper-smartnic, 64 flows, batch 4 096) peaks under 4 MB of
    new allocations: stamps fold into a sketch batch by batch (≈ 1.1
    MiB). Joining each chain's stamps and sorting them peaked at 6.1 MiB."""
    spec = TrafficSpec(
        spec_text="chain a: BPF -> FastEncrypt -> IPv4Fwd\n"
                  "chain b: ACL -> Encrypt -> IPv4Fwd\n",
        slos=((1000.0, 39000.0),) * 2,
        topology=topology_for("paper-smartnic"),
        flows_per_chain=64, batch_size=4096,
    )
    engine = TrafficEngine.from_spec(spec, registry=MetricsRegistry())
    engine.run(packets_per_chain=3 * 4096)
    tracemalloc.start()
    try:
        report = engine.run(packets_per_chain=400_000)
        _now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.delivered == 800_000
    assert peak < 4 * 2**20, f"{peak / 2**20:.2f} MiB"


def test_flow_templates_synthesized_once():
    """Satellite fix: flow synthesis happens once per chain; replay cycles
    clones of the memoized templates and never mutates them."""
    rack, placement, _ = _deploy(
        "chain a: Encrypt -> IPv4Fwd", [SLO(t_min=gbps(1), t_max=gbps(20))])
    engine = TrafficEngine(rack, placement, flows_per_chain=4, batch_size=16)
    cp = placement.chains[0]
    first = engine.synthesize_flows(cp)
    assert engine.synthesize_flows(cp) is first
    snapshot = [bytes(flow.data) for flow in first]
    engine.run(packets_per_chain=64)
    assert engine.synthesize_flows(cp) is first
    assert [bytes(flow.data) for flow in first] == snapshot


def test_achieved_pps_uses_run_wall_clock():
    """Satellite fix: the aggregate pps denominator is the whole-run wall,
    not the sum of per-chain walls."""
    from repro.sim.traffic import ChainTrafficReport, TrafficReport

    chains = [
        ChainTrafficReport(chain_name=name, flows=4, injected=1000,
                           delivered=1000, dropped=0, wall_seconds=2.0,
                           assigned_mbps=100.0)
        for name in ("a", "b")
    ]
    report = TrafficReport(chains=chains, run_wall_seconds=2.5)
    # 2000 packets over 2.5s elapsed — NOT over the 4s summed walls
    assert report.achieved_pps == pytest.approx(2000 / 2.5)
    assert report.wall_seconds == pytest.approx(4.0)
    # without a recorded run wall (legacy construction) fall back to the sum
    legacy = TrafficReport(chains=chains)
    assert legacy.achieved_pps == pytest.approx(2000 / 4.0)


def test_chain_wall_excludes_packet_construction():
    """Per-chain walls time rack work only; they never exceed the whole
    run's elapsed time."""
    rack, placement, _ = _deploy(
        "chain a: Encrypt -> IPv4Fwd", [SLO(t_min=gbps(1), t_max=gbps(20))])
    engine = TrafficEngine(rack, placement, flows_per_chain=8, batch_size=32)
    report = engine.run(packets_per_chain=256)
    assert report.run_wall_seconds > 0
    assert report.wall_seconds <= report.run_wall_seconds


def test_traffic_cli_smoke(tmp_path, capsys):
    from repro.cli import main

    spec = tmp_path / "one.lemur"
    spec.write_text("chain a: Encrypt -> IPv4Fwd\n")
    code = main([
        "traffic", str(spec), "--tmin", "1", "--tmax", "20",
        "--packets", "64", "--flows", "8", "--batch", "16",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "total" in out
    assert "64" in out


def test_traffic_cli_columnar(tmp_path, capsys):
    from repro.cli import main

    spec = tmp_path / "two.lemur"
    spec.write_text("chain a: Encrypt -> IPv4Fwd\nchain b: ACL -> IPv4Fwd\n")
    code = main([
        "traffic", str(spec), "--tmin", "1", "--tmax", "20",
        "--packets", "64", "--flows", "8",
        "--batch", str(COLUMNAR_BATCH),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "total" in out


def test_traffic_cli_has_no_shards_option(tmp_path, capsys):
    from repro.cli import main

    spec = tmp_path / "two.lemur"
    spec.write_text("chain a: Encrypt -> IPv4Fwd\nchain b: ACL -> IPv4Fwd\n")
    code = main([
        "traffic", str(spec), "--tmin", "1", "--tmax", "20", "--shards", "2",
    ])
    assert code == 1
    assert "unrecognized arguments: --shards 2" in capsys.readouterr().err


#: md5 of `repro traffic examples/specs/pop.lemur --tmin 1 1 --tmax 20 20
#: --packets 8192 --flows 32 --batch N --json` (CI's throughput-smoke
#: recipe), the same on either loop. Re-pinned once when report quantiles
#: moved to the sketch: only the six ``latency_p50/p95/p99_us`` values
#: changed, each by under ``ALPHA`` (11.499412 → 11.468665 µs the most).
_THROUGHPUT_SMOKE_MD5 = "b926ae5c1e0ba75b21a063ef2e768d6c"
_POP_SPEC = Path(__file__).resolve().parents[2] / "examples/specs/pop.lemur"


@pytest.mark.parametrize("batch", [8, 4096])
def test_throughput_smoke_report_bytes_are_pinned(batch, capsys):
    from repro.cli import main

    code = main([
        "traffic", str(_POP_SPEC), "--tmin", "1", "1",
        "--tmax", "20", "20", "--packets", "8192", "--flows", "32",
        "--batch", str(batch), "--json",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.md5(out.encode()).hexdigest() == _THROUGHPUT_SMOKE_MD5
