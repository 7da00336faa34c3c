"""Batch/serial equivalence: ``inject_batch`` must be indistinguishable
from a per-packet ``inject`` loop.

Two identical racks are deployed from the same placement; one processes a
packet stream serially, the other in batches. Delivered/dropped outcomes,
cycle charges (total and per device), per-hop records, final packet bytes,
and the *entire* metrics registry must match bit for bit — across RNG
seeds and all three platforms (server pipelines, SmartNIC program,
OpenFlow rules).
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.runtime as runtime_module
from repro.bess.module import Module
from repro.chain.graph import chains_from_spec
from repro.chain.slo import SLO
from repro.core.heuristic import heuristic_place
from repro.experiments.chains import (
    _CHAIN_SPECS,
    base_rate_mbps,
    canonical_chain,
    chains_with_delta,
)
from repro.hw.spec import TopologySpec
from repro.metacompiler.compiler import MetaCompiler
from repro.obs import MetricsRegistry
from repro.profiles.defaults import default_profiles
from repro.sim.columns import PacketColumns
from repro.sim.measurement import QueueingModel
from repro.sim.runtime import DeployedRack, _chain_packet
from repro.units import gbps


def _table2(index):
    """Table-2 chain ``index`` alone on the paper testbed, at the paper's
    delta = 0.5 point (t_min half the base rate, t_max 100 Gbps)."""
    t_min = 0.5 * base_rate_mbps(canonical_chain(index))
    return (f"table2-chain{index}", _CHAIN_SPECS[index], {},
            SLO(t_min=t_min, t_max=gbps(100)))


#: (label, spec, topology kwargs, SLO) — one scenario per platform plus a
#: branchy chain whose arms land on distinct service paths.
SCENARIOS = [
    (
        "server-branchy",
        "chain b: BPF -> [NAT -> IPv4Fwd, Encrypt -> IPv4Fwd]",
        {},
        SLO(t_min=gbps(0.5), t_max=gbps(30)),
    ),
    (
        "server-stateful",
        "chain x: Encrypt -> LB -> [NAT, NAT, NAT] -> IPv4Fwd",
        {},
        SLO(t_min=gbps(0.5), t_max=gbps(30)),
    ),
    (
        "smartnic",
        "chain a: BPF -> FastEncrypt -> IPv4Fwd",
        {"with_smartnic": True},
        SLO(t_min=gbps(1), t_max=gbps(39)),
    ),
    (
        "openflow",
        "chain a: Detunnel -> Encrypt -> ACL",
        {"with_openflow": True},
        SLO(t_min=gbps(0.1), t_max=gbps(9)),
    ),
    # several route classes in one batch: the server demux spreads the flows
    # over its Encrypt instances, and the ACL on the ToR drops three source
    # addresses after the server hop
    (
        "server-multiclass",
        "chain m: Encrypt -> ACL(rules=[{'src_ip': '10.1.0.0/30', "
        "'drop': True}]) -> IPv4Fwd",
        {},
        SLO(t_min=gbps(6), t_max=gbps(30)),
    ),
    # ...and on two service paths, one of which never leaves the switch
    (
        "branchy-multiclass",
        "chain m: BPF -> [Encrypt -> ACL(rules=[{'src_ip': '10.1.0.0/30', "
        "'drop': True}]) -> IPv4Fwd, Tunnel -> IPv4Fwd]",
        {},
        SLO(t_min=gbps(3), t_max=gbps(30)),
    ),
    # the paper's branchy chains, where a batch's flows spread over arms:
    # chain1's three arms share a switch prefix and differ in length;
    # chain4's share a replicated server subgroup (Dedup) and a Monitor,
    # then merge into IPv4Fwd
    _table2(1),
    _table2(4),
    # two vector-safe service paths that meet again on a server hop whose
    # Encrypt draws cost samples: both column runs share that draw
    (
        "branchy-vector",
        "chain v: BPF -> [ACL, Tunnel] -> Encrypt -> IPv4Fwd",
        {},
        SLO(t_min=gbps(0.5), t_max=gbps(30)),
    ),
]


def _compile(spec, topo_kwargs, slo):
    """``(topology, artifacts, chain placements)``; every chain of ``spec``
    gets ``slo``."""
    profiles = default_profiles()
    topology = TopologySpec.from_flags(**topo_kwargs).build()
    chains = chains_from_spec(spec, slos=[slo] * spec.count("chain "))
    placement = heuristic_place(chains, topology, profiles)
    assert placement.feasible, placement.infeasible_reason
    meta = MetaCompiler(topology=topology, profiles=profiles)
    return topology, meta.compile_placement(placement), placement.chains


def _deploy(spec, topo_kwargs, slo, seed):
    topology, artifacts, chains = _compile(spec, topo_kwargs, slo)
    registry = MetricsRegistry()
    rack = DeployedRack(topology, artifacts, default_profiles(), seed=seed,
                        registry=registry)
    return rack, chains[0], registry


@pytest.mark.parametrize("seed", [7, 23, 101])
@pytest.mark.parametrize(
    "label,spec,topo_kwargs,slo",
    SCENARIOS,
    ids=[s[0] for s in SCENARIOS],
)
def test_batch_matches_serial(label, spec, topo_kwargs, slo, seed):
    n_packets = 48
    serial_rack, serial_cp, serial_registry = _deploy(
        spec, topo_kwargs, slo, seed)
    serial_out = [
        serial_rack.run(
            serial_cp, [_chain_packet(serial_cp.chain, i)]
        ).outputs[0]
        for i in range(n_packets)
    ]

    batch_rack, batch_cp, batch_registry = _deploy(
        spec, topo_kwargs, slo, seed)
    batch_out = batch_rack.run(
        batch_cp,
        [_chain_packet(batch_cp.chain, i) for i in range(n_packets)],
    ).outputs

    assert len(batch_out) == n_packets
    for index, (a, b) in enumerate(zip(serial_out, batch_out)):
        assert (a is None) == (b is None), f"packet {index} outcome differs"
        if a is None:
            continue
        assert a.metadata.cycles_consumed == b.metadata.cycles_consumed
        assert a.metadata.cycles_by_device == b.metadata.cycles_by_device
        assert a.metadata.fields.get("hops") == b.metadata.fields.get("hops")
        assert a.metadata.processed_by == b.metadata.processed_by
        assert a.data == b.data, f"packet {index} bytes differ"

    # the whole observability surface must agree: injected/delivered/drop
    # counters, per-device cycles, latency histograms, flow-cache stats
    assert serial_registry.dump_state() == batch_registry.dump_state()

    # device bookkeeping outside the registry (module rx/tx, NIC/OF
    # runtime counters) must agree too
    assert serial_rack.device_stats() == batch_rack.device_stats()


def test_batch_in_two_halves_matches_one_batch():
    """Splitting the same stream into multiple inject_batch calls does not
    change outcomes (state carries across calls exactly as serially)."""
    spec = "chain x: Encrypt -> LB -> [NAT, NAT, NAT] -> IPv4Fwd"
    slo = SLO(t_min=gbps(0.5), t_max=gbps(30))
    rack_a, cp_a, reg_a = _deploy(spec, {}, slo, seed=23)
    rack_b, cp_b, reg_b = _deploy(spec, {}, slo, seed=23)

    packets_a = [_chain_packet(cp_a.chain, i) for i in range(32)]
    packets_b = [_chain_packet(cp_b.chain, i) for i in range(32)]
    whole = rack_a.run(cp_a, packets_a).outputs
    halves = (rack_b.run(cp_b, packets_b[:16]).outputs
              + rack_b.run(cp_b, packets_b[16:]).outputs)

    for a, b in zip(whole, halves):
        assert (a is None) == (b is None)
        if a is not None:
            assert a.data == b.data
            assert a.metadata.cycles_consumed == b.metadata.cycles_consumed
    assert reg_a.dump_state() == reg_b.dump_state()


def test_empty_batch_is_noop():
    spec = "chain a: BPF -> FastEncrypt -> IPv4Fwd"
    rack, cp, registry = _deploy(
        spec, {"with_smartnic": True},
        SLO(t_min=gbps(1), t_max=gbps(39)), seed=23)
    before = registry.dump_state()
    assert rack.run(cp, []).outputs == []
    assert registry.dump_state() == before


def _target_device(rack):
    """A device on the chain's path to fault: prefer a NIC, else a server."""
    if rack.nics:
        return next(iter(rack.nics))
    return next(iter(rack.servers))


def _queueing_utilization(rack):
    """A deterministic non-uniform utilization map over every device the
    rack can charge cycles to (servers, NICs, and the ToR)."""
    devices = sorted(rack.servers) + sorted(rack.nics)
    devices.append(rack.topology.switch.name)
    return {name: 0.25 + 0.15 * (i % 4)
            for i, name in enumerate(devices)}


class _NoIter(np.ndarray):
    """A column nothing may walk packet by packet in Python: numpy
    indexing, ``bincount`` and ``tolist`` still work, ``for``/``set``/
    ``list`` over it raise."""

    def __iter__(self):
        raise AssertionError("per-packet Python walk of a signature column")


def _rng_states(rack):
    """Every cost-sampling RNG stream on the rack, by module identity."""
    modules = {}
    for name, server in rack.servers.items():
        for module in server.pipeline.modules.values():
            modules[(name, module.name)] = module
    for name, nic in rack.nics.items():
        for index, module in nic._nf_modules.items():
            modules[(name, index)] = module
    for nid, module in rack._switch_modules.items():
        modules[("switch", nid)] = module
    return {key: module._rng.getstate() for key, module in modules.items()}


def _flow(chain, index, variants=1):
    """Flow ``index``'s packet. With ``variants`` > 1, that many consecutive
    indexes share a 5-tuple and differ only in their payload."""
    packet = _chain_packet(chain, index // variants)
    if index % variants:
        packet.payload = bytes([index % variants]) * len(packet.payload)
    return packet


#: what can happen to a rack between two batches, once its flows are
#: traced: ``(spec, topo_kwargs, slo, rack, cp) -> (rack, cp)``
def _redeploy_same(spec, topo_kwargs, slo, rack, cp):
    # every device reused: module state and RNG streams carry over
    result = rack.redeploy(rack.artifacts)
    assert not result.rebuilt
    return rack, cp


def _redeploy_rescaled(spec, topo_kwargs, slo, rack, cp):
    # a lower t_min changes instance counts, so programs are rebuilt
    relaxed = SLO(t_min=slo.t_min / 2, t_max=slo.t_max)
    _topology, artifacts, chains = _compile(spec, topo_kwargs, relaxed)
    rack.redeploy(artifacts)
    return rack, chains[0]


def _pickled(spec, topo_kwargs, slo, rack, cp):
    restored = pickle.loads(pickle.dumps(rack))
    # traces key on template identity: none may survive the round trip
    assert not (restored._route_traces or restored._route_roots
                or restored._hop_plans)
    return restored, cp


def _in_place(apply):
    """A rack method call as a between-batches change."""
    def change(spec, topo_kwargs, slo, rack, cp):
        apply(rack, cp)
        return rack, cp
    return change


BETWEEN = {
    "redeploy-same": _redeploy_same,
    "redeploy-rescaled": _redeploy_rescaled,
    "pickled": _pickled,
    "fail": _in_place(
        lambda rack, cp: rack.set_device_failed(_target_device(rack))),
    "recover": _in_place(
        lambda rack, cp: rack.set_device_failed(_target_device(rack), False)),
    "loss": _in_place(
        lambda rack, cp: rack.set_drop_fraction(_target_device(rack), 0.35)),
    "interrack": _in_place(
        lambda rack, cp: rack.set_interrack_hop(
            cp.name, "r0~r1", 50.0, drop_fraction=0.25)),
    "queueing": _in_place(
        lambda rack, cp: rack.configure_queueing(
            QueueingModel(kind="mm1"), _queueing_utilization(rack))),
}


def _assert_same_outputs(want, got):
    """Same outcome per packet; a delivered one with the same bytes,
    cycle charges, module trail and stamped fields (hop records too)."""
    for position, (a, b) in enumerate(zip(want, got)):
        assert (a is None) == (b is None), \
            f"packet {position} outcome differs"
        if a is None:
            continue
        assert a.data == b.data, f"packet {position} bytes differ"
        assert a.metadata.cycles_consumed == b.metadata.cycles_consumed
        assert a.metadata.cycles_by_device == b.metadata.cycles_by_device
        assert a.metadata.processed_by == b.metadata.processed_by
        assert dict(a.metadata.fields) == dict(b.metadata.fields)


def _scalar_vs_columnar(spec, topo_kwargs, slo, seed, *, n_flows=6, reps=8,
                        batches=None, fault=None, queueing=False,
                        interrack=False, variants=1, between=(),
                        prepare=None, per_packet=False):
    """Drive identical racks through the scalar batch path and the
    columnar path and assert bit-identity on every observable surface.

    ``batches`` is a sequence of batch sizes injected back to back on the
    same pair of racks (default: one batch of ``n_flows * reps``); packet
    ``i`` of the whole stream belongs to flow ``i % n_flows``, so later
    batches replay traced routes. ``between[j]`` names the :data:`BETWEEN`
    change both racks undergo after batch ``j``; ``prepare`` sees the
    columnar rack before any traffic. ``per_packet`` makes the scalar side
    the oracle itself: one ``run`` call per packet.
    """
    if batches is None:
        batches = [n_flows * reps]
    scalar_rack, scalar_cp, _registry = _deploy(spec, topo_kwargs, slo, seed)
    vector_rack, vector_cp, _registry = _deploy(spec, topo_kwargs, slo, seed)
    if prepare is not None:
        prepare(vector_rack)
    if interrack:
        # the chain is homed off the fabric ingress: every packet crosses
        # an inter-rack link (stamped RTT) and a quarter are shed at the
        # fabric ingress for link-capacity shortfall
        for rack, cp in ((scalar_rack, scalar_cp),
                         (vector_rack, vector_cp)):
            rack.set_interrack_hop(cp.name, "r0~r1", 50.0,
                                   drop_fraction=0.25)
    if queueing:
        model = QueueingModel(kind="mm1")
        scalar_rack.configure_queueing(
            model, _queueing_utilization(scalar_rack))
        vector_rack.configure_queueing(
            model, _queueing_utilization(vector_rack))
    if fault == "loss":
        scalar_rack.set_drop_fraction(_target_device(scalar_rack), 0.35)
        vector_rack.set_drop_fraction(_target_device(vector_rack), 0.35)
    elif fault == "failed":
        scalar_rack.set_device_failed(_target_device(scalar_rack))
        vector_rack.set_device_failed(_target_device(vector_rack))

    # the columnar side keeps its templates for the whole run, as the
    # traffic engine does: a change between batches must not leave a stale
    # trace behind any of them
    flows = [_flow(vector_cp.chain, i, variants) for i in range(n_flows)]
    base = 0
    for index, n_packets in enumerate(batches):
        sig = [i % n_flows for i in range(base, base + n_packets)]
        base += n_packets
        packets = [_flow(scalar_cp.chain, s, variants) for s in sig]
        if per_packet:
            scalar_out = [scalar_rack.run(scalar_cp, [packet]).outputs[0]
                          for packet in packets]
        else:
            scalar_out = scalar_rack.run(scalar_cp, packets).outputs
        columns = PacketColumns.for_flows(flows, sig)
        # the signature columns must never be walked in Python
        columns.resolve()
        columns.sig = columns.sig.view(_NoIter)
        columns.sid = columns.sid.view(_NoIter)
        vector_out = vector_rack.run_columns(vector_cp, columns).materialize()

        assert len(vector_out) == n_packets
        _assert_same_outputs(scalar_out, vector_out)
        if index < len(between):
            change = BETWEEN[between[index]]
            scalar_rack, scalar_cp = change(
                spec, topo_kwargs, slo, scalar_rack, scalar_cp)
            vector_rack, vector_cp = change(
                spec, topo_kwargs, slo, vector_rack, vector_cp)
    assert scalar_rack.obs.dump_state() == vector_rack.obs.dump_state()
    assert scalar_rack.device_stats() == vector_rack.device_stats()
    assert _rng_states(scalar_rack) == _rng_states(vector_rack)
    return scalar_rack, vector_rack


@pytest.mark.parametrize("seed", [7, 23, 101])
@pytest.mark.parametrize(
    "label,spec,topo_kwargs,slo",
    SCENARIOS,
    ids=[s[0] for s in SCENARIOS],
)
def test_columnar_matches_scalar(label, spec, topo_kwargs, slo, seed):
    """Vectorized tier: the columnar fast path is bit-identical to the
    scalar batch path across all three platforms — including the branchy
    chain (divergence re-split) and the stateful chain (scalar fallback)."""
    _scalar_vs_columnar(spec, topo_kwargs, slo, seed)


@pytest.mark.parametrize("fault", ["loss", "failed"])
@pytest.mark.parametrize(
    "label,spec,topo_kwargs,slo",
    SCENARIOS,
    ids=[s[0] for s in SCENARIOS],
)
def test_columnar_matches_scalar_under_faults(label, spec, topo_kwargs, slo,
                                              fault):
    """Active ``set_drop_fraction`` / ``set_device_failed`` faults hit the
    columnar path through the same seeded per-packet hash as the scalar
    path, so drops land on the same sequence numbers."""
    _scalar_vs_columnar(spec, topo_kwargs, slo, seed=23, fault=fault)


@pytest.mark.parametrize("seed", [7, 23, 101])
@pytest.mark.parametrize(
    "label,spec,topo_kwargs,slo",
    SCENARIOS,
    ids=[s[0] for s in SCENARIOS],
)
def test_columnar_matches_scalar_with_queueing(label, spec, topo_kwargs,
                                               slo, seed):
    """Latency tier: with the M/M/1 queueing model active on every
    device, the scalar and columnar paths stamp bit-identical
    ``queue_us``/``latency_us`` fields and histograms — the per-packet
    field comparison and the registry dump inside the driver cover both."""
    _scalar_vs_columnar(spec, topo_kwargs, slo, seed, queueing=True)


@pytest.mark.parametrize("seed", [7, 23])
@pytest.mark.parametrize(
    "label,spec,topo_kwargs,slo",
    SCENARIOS,
    ids=[s[0] for s in SCENARIOS],
)
def test_columnar_matches_scalar_across_interrack_hop(label, spec,
                                                      topo_kwargs, slo,
                                                      seed):
    """Multi-rack tier: with an inter-rack hop installed (stamped link
    RTT + capacity-shortfall drops at the fabric ingress), the columnar
    path sheds the same sequence numbers and stamps the same
    ``interrack_us`` component as the scalar path — packet fields, the
    ``interrack.packets``/``interrack.drops`` counters, and the latency
    histograms are all compared bit for bit."""
    _scalar_vs_columnar(spec, topo_kwargs, slo, seed, interrack=True)


def test_columnar_matches_scalar_interrack_with_queueing():
    """The stamped inter-rack RTT composes with the M/M/1 queueing model
    identically on both paths."""
    _label, spec, topo_kwargs, slo = SCENARIOS[1]
    _scalar_vs_columnar(spec, topo_kwargs, slo, seed=7,
                        interrack=True, queueing=True)


@pytest.mark.parametrize("label", ["openflow", "server-multiclass"])
def test_long_and_short_draw_runs_match_per_packet_run(monkeypatch, label):
    """64 flows × 4096 packets, then 64 × 64, on one rack: a module's run
    of cost draws is long enough for one bulk call in places and short
    enough for the per-draw loop in others (the multiclass server spreads
    its flows unevenly over Encrypt instances, so one 4096-packet batch
    holds runs of 64 and of 512). Against per-packet ``run``: outputs,
    registry dump, device stats and every module's RNG state."""
    _label, spec, topo_kwargs, slo = next(
        s for s in SCENARIOS if s[0] == label)
    drawn = []
    real = runtime_module._unit_draws

    def spy(rng, n):
        drawn.append(real(rng, n))
        return drawn[-1]

    monkeypatch.setattr(runtime_module, "_unit_draws", spy)
    _scalar_vs_columnar(spec, topo_kwargs, slo, seed=23, n_flows=64,
                        batches=[64 * 64, 64], per_packet=True)
    assert {type(rolls) for rolls in drawn} == {list, np.ndarray}


def test_columnar_interleaves_with_scalar():
    """Mixing scalar and columnar injections on one rack keeps sequence
    numbering, flow-cache, and RNG state aligned with an all-scalar twin."""
    _label, spec, topo_kwargs, slo = SCENARIOS[2]
    rack_a, cp_a, reg_a = _deploy(spec, topo_kwargs, slo, seed=23)
    rack_b, cp_b, reg_b = _deploy(spec, topo_kwargs, slo, seed=23)

    flows_a = [_chain_packet(cp_a.chain, i) for i in range(4)]
    flows_b = [_chain_packet(cp_b.chain, i) for i in range(4)]
    sig = [i % 4 for i in range(24)]
    mixed = rack_a.run(cp_a, [flows_a[s].copy() for s in sig]).outputs
    mixed += rack_a.run_columns(
        cp_a, PacketColumns.for_flows(flows_a, sig)).materialize()
    scalar = rack_b.run(cp_b, [flows_b[s].copy() for s in sig * 2]).outputs

    for a, b in zip(mixed, scalar):
        assert (a is None) == (b is None)
        if a is not None:
            assert a.data == b.data
            assert a.metadata.cycles_consumed == b.metadata.cycles_consumed
    assert reg_a.dump_state() == reg_b.dump_state()


def test_flow_cache_hits_on_repeated_flows():
    spec = "chain a: BPF -> FastEncrypt -> IPv4Fwd"
    rack, cp, registry = _deploy(
        spec, {"with_smartnic": True},
        SLO(t_min=gbps(1), t_max=gbps(39)), seed=23)
    # 4 distinct flows replayed 8 times each
    packets = [_chain_packet(cp.chain, i % 4) for i in range(32)]
    rack.run(cp, packets)
    hits = registry.counter_value("rack.flow_cache.lookups", result="hit")
    misses = registry.counter_value("rack.flow_cache.lookups", result="miss")
    assert misses == 4
    assert hits == 28


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    scenario=st.sampled_from(SCENARIOS),
    seed=st.sampled_from([7, 23, 101]),
    n_flows=st.integers(1, 300),
    batches=st.lists(st.integers(1, 300), min_size=1, max_size=4),
    fault=st.sampled_from([None, None, "loss", "failed"]),
    queueing=st.booleans(),
    interrack=st.booleans(),
    variants=st.integers(1, 3),
    between=st.lists(st.sampled_from(sorted(BETWEEN)), max_size=3),
)
def test_columnar_matches_scalar_property(scenario, seed, n_flows, batches,
                                          fault, queueing, interrack,
                                          variants, between):
    """Any flow count and any sequence of batch sizes on one rack —
    batch < flows (one packet per signature), batch >> flows, later batches
    replaying traced routes, several route classes in a batch (demux
    instances, an ACL dropping some flows mid-route, two service paths),
    the branchy and stateful chains' 1-3-packet blocks, divergent next
    coordinates and mid-flight fallback, templates that share a 5-tuple and
    differ in payload, faults and the inter-rack hop, and the rack changing
    under its traces between batches (redeploys that reuse or rebuild
    devices, faults set and cleared, an inter-rack hop, queueing, a pickle
    round trip): outputs, registry, device stats and every module's RNG
    stream equal the scalar rack's."""
    _label, spec, topo_kwargs, slo = scenario
    _scalar_vs_columnar(spec, topo_kwargs, slo, seed, n_flows=n_flows,
                        batches=batches, fault=fault, queueing=queueing,
                        interrack=interrack, variants=variants,
                        between=between)


@pytest.mark.parametrize("change", sorted(BETWEEN))
@pytest.mark.parametrize(
    "label,spec,topo_kwargs,slo",
    SCENARIOS[2:],
    ids=[s[0] for s in SCENARIOS[2:]],
)
def test_traces_follow_the_rack_between_batches(label, spec, topo_kwargs,
                                                slo, change):
    """Every flow is traced by the first batch; then the rack changes, and
    the second and third batches must replay what the scalar loop does on
    the changed rack — fault state and queueing are read at replay time,
    a redeploy or a restore starts the traces over."""
    _scalar_vs_columnar(spec, topo_kwargs, slo, seed=23, n_flows=12,
                        variants=2, batches=[48, 30, 48],
                        between=[change, "recover"])


class _Memo(dict):
    """A rack memo that reports each time it is cleared while holding
    something."""

    def __init__(self, cleared, name):
        super().__init__()
        self._report = lambda: cleared.append(name)

    def clear(self):
        if self:
            self._report()
        super().clear()


#: chain4 enters a stateful Dedup first: it falls back before any probe
_PROBED = [s for s in SCENARIOS[2:] if s[0] != "table2-chain4"]


@pytest.mark.parametrize(
    "label,spec,topo_kwargs,slo",
    _PROBED,
    ids=[s[0] for s in _PROBED],
)
def test_probe_memo_clearing_mid_run_matches_scalar(monkeypatch, label, spec,
                                                    topo_kwargs, slo):
    """With the memos capped at 16, the 21 templates of a batch (7 flows in
    3 payload variants each, so the 7 classified flows stay under the cap)
    need more traces, and several times more probes, than fit: both memos
    clear mid-batch, a later batch finds some of its flows untraced and
    some of their probes gone. Signatures are traced in ascending order, so
    what survives a clear is deterministic, re-probing is side-effect free,
    and a batch holds on to the traces it resolved — the run still equals
    the scalar loop."""
    monkeypatch.setattr(runtime_module, "_FLOW_CACHE_MAX", 16)
    cleared = []

    def cap(rack):
        rack._hop_probes = _Memo(cleared, "probes")
        rack._route_traces = _Memo(cleared, "traces")

    _scalar, vector_rack = _scalar_vs_columnar(
        spec, topo_kwargs, slo, seed=23, n_flows=21, variants=3,
        batches=[40, 9, 40], prepare=cap)
    assert cleared.count("probes") >= 3, "the probe memo never cleared"
    assert cleared.count("traces") >= 2, "the trace memo never cleared"
    assert len(vector_rack._flow_paths) == 7


def test_nearly_full_flow_cache_does_not_turn_batches_scalar(monkeypatch):
    """Regression: the bridge guard added *every* flow of the batch to the
    classification memo's size, already-classified ones included, so a memo
    within one batch of its cap bridged every batch to the scalar loop from
    then on — while the engine went on counting them columnar. Only flows
    the batch would add count: two chains of 128 flows fill 256 of 300
    slots, and every later 64-flow batch still replays in columns."""
    monkeypatch.setattr(runtime_module, "_FLOW_CACHE_MAX", 300)
    topology, artifacts, chains = _compile(
        "chain a: Encrypt -> IPv4Fwd\nchain b: ACL -> Encrypt -> IPv4Fwd\n",
        {}, SLO(t_min=gbps(0.5), t_max=gbps(30)))
    rack = DeployedRack(topology, artifacts, default_profiles(), seed=23,
                        registry=MetricsRegistry())
    flows = {cp.name: [_chain_packet(cp.chain, i) for i in range(128)]
             for cp in chains}
    bridged = []
    for _pass in range(2):
        for cp in chains:
            for base in (0, 64):
                result = rack.run_columns(cp, PacketColumns.for_flows(
                    flows[cp.name], list(range(base, base + 64))))
                bridged.append(len(result.scalar))
    assert len(rack._flow_paths) == 256
    assert bridged == [0] * 8


def test_signature_columns_are_never_walked_in_python():
    """The equivalence driver hands ``run_columns`` signature columns whose
    ``__iter__`` raises; make sure that guard is live (so a set- or
    list-comprehension over ``cols.sig`` cannot come back unnoticed) and
    that batch < flows, batch == flows and batch >> flows all pass it on
    the three columnar platforms."""
    guarded = np.arange(4).view(_NoIter)
    with pytest.raises(AssertionError):
        {int(s) for s in guarded}
    assert guarded.tolist() == [0, 1, 2, 3]
    assert np.bincount(guarded).tolist() == [1, 1, 1, 1]
    for label, spec, topo_kwargs, slo in SCENARIOS:
        if label == "server-stateful":
            continue
        _scalar_vs_columnar(spec, topo_kwargs, slo, seed=7, n_flows=24,
                            batches=[5, 24, 200])


def test_columns_resolve_only_the_signatures_present():
    """A batch is sized by its packets and its distinct signatures, never
    by the flow table: ``for_flows`` keeps the table by reference, and
    resolving reads exactly the templates of the signatures present."""
    reads = []

    class FlowTable(list):
        def __getitem__(self, index):
            reads.append(index)
            return super().__getitem__(index)

    flows = FlowTable(f"flow-{i}" for i in range(4096))
    columns = PacketColumns.for_flows(flows, [9, 5, 9, 4000, 5, 9])
    assert reads == [] and columns.sid is None
    columns.resolve()
    columns.resolve()  # idempotent
    assert reads == [5, 9, 4000]
    assert columns.usig.tolist() == [5, 9, 4000]
    assert columns.sid.tolist() == [1, 0, 1, 2, 0, 1]
    assert columns.templates == ["flow-5", "flow-9", "flow-4000"]
    assert np.bincount(columns.sid, minlength=3).tolist() == [2, 3, 1]

    # a run keeps the batch's id numbering and its own template list
    run = columns.compress(np.array([False, False, True, True, True, False]))
    assert run.sig.tolist() == [9, 4000, 5]
    assert run.sid.tolist() == [1, 2, 0]
    run.templates[1] = "rewritten"
    assert columns.templates[1] == "flow-9"
    # the class column the rack assigns rides along with the ids (here:
    # every signature its own class)
    columns.cid = columns.sid
    kept = columns.compress(columns.sig != 9)
    assert np.bincount(kept.sid, minlength=3).tolist() == [2, 0, 1]
    assert kept.cid.tolist() == kept.sid.tolist()
    # per-class values spread to per-packet columns by class id
    assert kept.spread([0, 2], [7, 11]).tolist() == [7, 11, 7]
    assert kept.spread([0, 2], [True, True], bool).tolist() == [True] * 3


_ARM_NFS = ["NAT", "LB", "Monitor", "Dedup", "ACL", "Encrypt"]


@st.composite
def _branchy_specs(draw):
    """A chain whose 2-3 arms, 1-3 NFs each and not all of one length,
    merge into a shared tail."""
    n_arms = draw(st.integers(2, 3))
    lengths = draw(
        st.lists(st.integers(1, 3), min_size=n_arms, max_size=n_arms)
        .filter(lambda ls: len(set(ls)) > 1)
    )
    nfs = st.sampled_from(_ARM_NFS)
    arms = [" -> ".join(draw(st.lists(nfs, min_size=n, max_size=n)))
            for n in lengths]
    return (f"chain r: {draw(nfs)} -> [{', '.join(arms)}] -> "
            f"{draw(nfs)} -> IPv4Fwd")


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    spec=_branchy_specs(),
    seed=st.sampled_from([7, 23, 101]),
    n_flows=st.integers(1, 64),
    batches=st.lists(st.integers(1, 300), min_size=1, max_size=3),
    loss=st.booleans(),
)
def test_branchy_batch_matches_per_packet_property(spec, seed, n_flows,
                                                   batches, loss):
    """Flows hashed across arms of unequal length that share a tail: the
    scalar schedule hands every node its packets from all arms at once,
    and must still equal one ``run`` per packet — outputs and hop records,
    registry, device stats and every module's RNG stream — with or
    without a server dropping a share of its packets."""
    topology, artifacts, (cp,) = _compile(
        spec, {}, SLO(t_min=gbps(0.5), t_max=gbps(30)))
    serial, batched = (
        DeployedRack(topology, artifacts, default_profiles(), seed=seed,
                     registry=MetricsRegistry())
        for _ in range(2)
    )
    if loss:
        for rack in (serial, batched):
            rack.set_drop_fraction(next(iter(rack.servers)), 0.35)
    base = 0
    for size in batches:
        flows = [(base + k) % n_flows for k in range(size)]
        base += size
        want = [serial.run(cp, [_chain_packet(cp.chain, f)]).outputs[0]
                for f in flows]
        got = batched.run(
            cp, [_chain_packet(cp.chain, f) for f in flows]).outputs
        assert len(got) == size
        _assert_same_outputs(want, got)
    assert serial.obs.dump_state() == batched.obs.dump_state()
    assert serial.device_stats() == batched.device_stats()
    assert _rng_states(serial) == _rng_states(batched)


def test_branchy_batch_is_not_split_into_per_packet_blocks(monkeypatch):
    """A 4096-packet batch of Table-2 chain4 (next to chains 1-3, at
    delta = 0.5) over 64 flows hashes its flows across all three arms, so
    consecutive packets rarely share a service path. The scalar schedule
    still gives each module its packets in a call or two: 39 calls to 24
    modules, where cutting the batch into consecutive same-path runs made
    51 072."""
    profiles = default_profiles()
    topology = TopologySpec.from_flags().build()
    placement = heuristic_place(
        chains_with_delta([1, 2, 3, 4], 0.5), topology, profiles)
    artifacts = MetaCompiler(
        topology=topology, profiles=profiles).compile_placement(placement)
    rack = DeployedRack(topology, artifacts, profiles, seed=23,
                        registry=MetricsRegistry())
    cp = next(c for c in placement.chains if c.name == "chain4")
    calls = []
    real = Module.receive_batch

    def spy(module, packets):
        calls.append(id(module))
        return real(module, packets)

    monkeypatch.setattr(Module, "receive_batch", spy)
    flows = [_chain_packet(cp.chain, i) for i in range(64)]
    outputs = rack.run(cp, [flows[i % 64].copy() for i in range(4096)])
    assert outputs.delivered > 0
    assert len(calls) <= 2 * len(set(calls))


def test_branchy_vector_safe_columns_are_not_split_into_per_packet_blocks(
        monkeypatch):
    """A warm 4096-packet columnar batch over 64 flows of a chain whose two
    arms are vector-safe and meet again on a server: the flows hash across
    both arms, so consecutive packets rarely share a service path. Each
    path is one column run, and runs that wait at one node take its hop
    together: at most one replay per path and hop (2 x 3), where cutting
    the batch into consecutive same-path runs made 4 992."""
    _label, spec, topo_kwargs, slo = SCENARIOS[-1]
    rack, cp, _registry = _deploy(spec, topo_kwargs, slo, seed=23)
    flows = [_chain_packet(cp.chain, i) for i in range(64)]
    sig = [i % 64 for i in range(4096)]
    rack.run_columns(cp, PacketColumns.for_flows(flows, sig))
    calls = []
    real = DeployedRack._replay_effects

    def spy(self, *args, **kwargs):
        calls.append(1)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(DeployedRack, "_replay_effects", spy)
    result = rack.run_columns(cp, PacketColumns.for_flows(flows, sig))
    assert not result.structural_fallback
    assert result.delivered > 0
    assert len({route.path.spi for route in rack._route_roots.values()}) == 2
    assert 0 < len(calls) <= 6
