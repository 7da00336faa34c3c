"""The traffic engine picks the dataplane loop; the pick never shows.

``TrafficEngine._inject`` sends a batch through the columnar loop when it
holds at least ``COLUMNAR_MIN_BATCH`` packets and the chain's last
columnar batch did not fall back structurally, else through the scalar
loop. Both loops are bit-identical, so every report, latency-sample order,
registry instrument (the ``traffic.batches{loop}`` counter aside) and RNG
stream must come out the same with the constant pinned to either extreme
or left alone.
"""

import pickle
from dataclasses import replace
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st
from test_batch_equivalence import _rng_states

import repro.sim.runtime as runtime_module
import repro.sim.traffic as traffic_module
from repro.hw.spec import topology_for
from repro.obs import MetricsRegistry
from repro.sim.admission import ChainEvent
from repro.sim.faults import (
    ChaosSpec,
    FaultEvent,
    FaultTimeline,
    GuardConfig,
    run_chaos,
)
from repro.sim.lifecycle import LifecycleSpec, LifecycleTimeline, run_lifecycle
from repro.sim.traffic import (
    COLUMNAR_MIN_BATCH,
    TrafficEngine,
    TrafficSpec,
    run_traffic,
)

#: chain bodies by what the columnar loop makes of them.
VECTOR_SAFE = ("Encrypt -> IPv4Fwd", "ACL -> IPv4Fwd")
STATEFUL = ("BPF -> NAT -> IPv4Fwd",)
#: one arm stateful, two vector-safe: a columnar batch finishes some
#: packets in blocks and bridges the rest to the scalar loop
BRANCHING = ("BPF -> [NAT -> IPv4Fwd, Encrypt -> IPv4Fwd, Tunnel -> IPv4Fwd]",)
#: several route classes in one columnar batch: the ToR's ACL drops three
#: source addresses after the server hop
MULTICLASS = (
    "Encrypt -> ACL(rules=[{'src_ip': '10.1.0.0/30', 'drop': True}]) "
    "-> IPv4Fwd",
)
MENU = VECTOR_SAFE + STATEFUL + BRANCHING + MULTICLASS

PINS = {"scalar": 10**9, "columnar": 1, "selected": COLUMNAR_MIN_BATCH}


def _spec(bodies, **overrides):
    settings_ = dict(
        spec_text="".join(
            f"chain c{i}: {body}\n" for i, body in enumerate(bodies)
        ),
        slos=((100.0, 10000.0),) * len(bodies),
        flows_per_chain=16, batch_size=COLUMNAR_MIN_BATCH,
    )
    settings_.update(overrides)
    return TrafficSpec(**settings_)


def _engine(bodies, **overrides):
    registry = MetricsRegistry()
    engine = TrafficEngine.from_spec(_spec(bodies, **overrides),
                                     registry=registry)
    return engine, registry


def _spy_on_run_columns(monkeypatch, engine):
    """The ``ColumnarRunResult`` of every columnar batch from here on."""
    results = []
    run_columns = engine.rack.run_columns

    def spy(cp, columns):
        results.append(run_columns(cp, columns))
        return results[-1]

    monkeypatch.setattr(engine.rack, "run_columns", spy)
    return results


# -- the selection itself ---------------------------------------------------


def test_batch_size_selects_the_loop(loop_counts):
    """The benchmark's two sides: 8-packet batches walk the scalar loop,
    64-packet batches the columnar one."""
    small, small_reg = _engine(VECTOR_SAFE, batch_size=8)
    small.run(packets_per_chain=64)
    assert loop_counts(small_reg) == (16, 0)
    large, large_reg = _engine(VECTOR_SAFE, batch_size=64)
    large.run(packets_per_chain=128)
    assert loop_counts(large_reg) == (0, 4)
    # the selection reads the batch about to be injected, not the
    # configured size: a short tail walks the scalar loop
    large.run(packets_per_chain=72)
    assert loop_counts(large_reg) == (2, 6)


def test_structural_fallback_moves_a_chain_to_the_scalar_loop(loop_counts):
    engine, registry = _engine(VECTOR_SAFE[:1] + STATEFUL)
    safe, stateful = engine.placement.chains
    engine.run(packets_per_chain=4 * COLUMNAR_MIN_BATCH)
    # NAT cannot be probe-replayed: one columnar batch finds that out and
    # the chain's other three walk the scalar loop; its neighbour stays
    assert loop_counts(registry) == (3, 5)
    assert {name: fell_back for name, (_chain, _flows, fell_back)
            in engine._flows.items()} == {safe.name: False,
                                          stateful.name: True}

    # what one batch re-learns is not checkpointed
    assert pickle.loads(pickle.dumps(engine))._flows == {}

    # a new chain object under the same name (a rescale) starts over
    rescaled = replace(
        stateful, chain=stateful.chain.with_slo(stateful.chain.slo)
    )
    engine.replay_batch(rescaled, 0, 2 * COLUMNAR_MIN_BATCH)
    assert loop_counts(registry) == (4, 6)


def test_transient_bridge_does_not_pin_a_chain(monkeypatch, loop_counts):
    """A classification cache about to clear sends a whole batch over the
    scalar bridge — a state of the rack, not of the chain: the next batch
    goes columnar again."""
    engine, registry = _engine(VECTOR_SAFE[:1])
    monkeypatch.setattr(runtime_module, "_FLOW_CACHE_MAX", 8)
    results = _spy_on_run_columns(monkeypatch, engine)
    engine.run(packets_per_chain=3 * COLUMNAR_MIN_BATCH)
    assert [len(r.scalar) for r in results] == [COLUMNAR_MIN_BATCH] * 3
    assert loop_counts(registry) == (0, 3)
    assert not any(fell_back for *_memo, fell_back in engine._flows.values())


def test_samples_leave_a_mixed_batch_in_injection_order(pin_loop,
                                                        monkeypatch):
    """Regression: a columnar batch that finishes some packets in blocks
    and bridges others used to return block samples first — the same
    multiset as the scalar loop in another order, which the chaos guard's
    trailing latency window can tell apart."""
    def one_batch(loop):
        pin_loop(loop)
        engine, _ = _engine(BRANCHING, batch_size=64)
        results = _spy_on_run_columns(monkeypatch, engine)
        (cp,) = engine.placement.chains
        return engine.replay_batch(cp, 0, 64), results

    (delivered, cursor, scalar_samples), no_results = one_batch("scalar")
    assert not no_results
    got, (result,) = one_batch("columnar")
    assert result.blocks and result.scalar and result.structural_fallback
    assert got == (delivered, cursor, scalar_samples)
    assert scalar_samples != sorted(scalar_samples)


# -- the selection never changes a result -----------------------------------


def _observe(bodies, pin, *, flows, batch, counts, seed, fault, late,
             loop_blind):
    """Everything a run shows, with the loop selection pinned to ``pin``.
    ``late`` installs the fault after the ``replay_batch`` calls, under
    routes the columnar loop has already traced."""
    with mock.patch.object(traffic_module, "COLUMNAR_MIN_BATCH", pin):
        engine, registry = _engine(bodies, flows_per_chain=flows,
                                   batch_size=batch, seed=seed)
        rack = engine.rack
        server = rack.topology.servers[0].name

        def install_fault():
            if fault == "loss":
                rack.set_drop_fraction(server, 0.35)
            elif fault == "failed":
                rack.set_device_failed(server)
            elif fault == "interrack":
                rack.set_interrack_hop(engine.placement.chains[0].name,
                                       "r0~r1", 50.0, drop_fraction=0.25)

        if not late:
            install_fault()
        # the calls come first: a chain's first columnar batch is the one
        # that can mix finished blocks with bridged packets
        calls = []
        cursors = dict.fromkeys((cp.name for cp in engine.placement.chains), 0)
        for count in counts[1:]:
            for cp in engine.placement.chains:
                delivered, cursors[cp.name], samples = engine.replay_batch(
                    cp, cursors[cp.name], count
                )
                calls.append((cp.name, delivered, samples))
        if late:
            install_fault()
        report = engine.run(packets_per_chain=counts[0]).as_dict()
    return (report, calls, loop_blind(registry.dump_state()),
            rack.device_stats(), _rng_states(rack))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    bodies=st.lists(st.sampled_from(MENU), min_size=1, max_size=3),
    flows=st.integers(1, 128),
    batch=st.sampled_from([
        1, COLUMNAR_MIN_BATCH // 2, COLUMNAR_MIN_BATCH - 1,
        COLUMNAR_MIN_BATCH, COLUMNAR_MIN_BATCH + 1,
        2 * COLUMNAR_MIN_BATCH + 3,
    ]),
    counts=st.lists(st.integers(1, 3 * COLUMNAR_MIN_BATCH),
                    min_size=1, max_size=3),
    seed=st.sampled_from([7, 23, 101]),
    fault=st.sampled_from([None, None, "loss", "failed", "interrack"]),
    late=st.booleans(),
)
def test_selection_never_changes_a_result(loop_blind, bodies, flows, batch,
                                          counts, seed, fault, late):
    """Vector-safe, stateful, branching and multi-class chains side by
    side, 1-128 flows, batches straddling the constant, faults and an
    inter-rack hop from the start or under already-traced routes: the
    report, each ``replay_batch`` call's sample order, every registry
    instrument but the loop counter, device bookkeeping and every RNG
    stream are the same whichever loop each batch took."""
    seen = [
        _observe(bodies, pin, flows=flows, batch=batch, counts=counts,
                 seed=seed, fault=fault, late=late, loop_blind=loop_blind)
        for pin in PINS.values()
    ]
    assert seen[0] == seen[1] == seen[2]


# -- the front-ends that inherit the columnar loop ---------------------------


def _pinned_both_ways(pin_loop, loop_blind, loop_counts, run):
    """``run(registry) -> report JSON`` under each pin; asserts the pin is
    invisible outside the loop counter and returns the counters."""
    seen = {}
    for loop in ("scalar", "columnar"):
        pin_loop(loop)
        registry = MetricsRegistry()
        seen[loop] = (run(registry), loop_blind(registry.dump_state()),
                      loop_counts(registry))
    assert seen["scalar"][:2] == seen["columnar"][:2]
    scalar_loops, columnar_loops = seen["scalar"][2], seen["columnar"][2]
    assert scalar_loops[1] == 0 and columnar_loops[1] > 0
    assert sum(scalar_loops) == sum(columnar_loops)
    return columnar_loops


def test_chaos_run_is_loop_invariant(pin_loop, loop_blind, loop_counts):
    """Latency guard on, its window (100) not a multiple of the batch: the
    trailing window cuts through batches, so sample order decides what
    the guard sees — with a branching chain whose first columnar batch
    mixes finished blocks and bridged packets."""
    spec = ChaosSpec(
        spec_text=f"chain x: {BRANCHING[0]}\nchain y: {VECTOR_SAFE[0]}\n",
        slos=((500.0, 30000.0, 60.0), (500.0, 30000.0, 40.0)),
        timeline=FaultTimeline(events=(
            FaultEvent(at_packet=400, action="degrade_link",
                       target="server0", severity=0.3),
        ), seed=23),
        packets_per_chain=768, flows_per_chain=16,
        batch_size=COLUMNAR_MIN_BATCH,
        guard=GuardConfig(window_packets=100),
        seed=23, queueing="mm1",
    )
    reports = []

    def run(registry):
        reports.append(run_chaos(spec, registry=registry))
        return reports[-1].to_json()

    _pinned_both_ways(pin_loop, loop_blind, loop_counts, run)
    assert reports[0].latency_violations >= 1


def test_lifecycle_run_is_loop_invariant(pin_loop, loop_blind, loop_counts):
    spec = LifecycleSpec(
        spec_text=f"chain a: {VECTOR_SAFE[0]}\nchain b: {STATEFUL[0]}\n",
        slos=((1000.0, 20000.0), (1000.0, 20000.0)),
        timeline=LifecycleTimeline(events=(
            ChainEvent(at=1, action="arrive", chain="g",
                       spec=f"chain g: {VECTOR_SAFE[1]}",
                       t_min_mbps=500.0, t_max_mbps=4000.0),
            ChainEvent(at=2, action="scale", chain="a", t_min_mbps=1500.0),
            ChainEvent(at=3, action="depart", chain="g"),
        )),
        packets_per_phase=2 * COLUMNAR_MIN_BATCH + 5, flows_per_chain=8,
        batch_size=COLUMNAR_MIN_BATCH,
    )
    _pinned_both_ways(
        pin_loop, loop_blind, loop_counts,
        lambda registry: run_lifecycle(spec, registry=registry).to_json(),
    )


def test_three_rack_traffic_is_loop_invariant(pin_loop, loop_blind,
                                              loop_counts):
    """Six chains over three racks: spilled chains cross an inter-rack
    hop (stamped RTT, link-capacity drops) in whichever loop runs."""
    spec = TrafficSpec(
        spec_text="".join(
            f"chain c{i}: ACL(rules=64) -> Encrypt -> IPv4Fwd\n"
            for i in range(6)
        ),
        slos=((4000.0, 9000.0, 400.0),) * 6,
        topology=topology_for("three-rack"),
        packets_per_chain=3 * COLUMNAR_MIN_BATCH, flows_per_chain=8,
        batch_size=COLUMNAR_MIN_BATCH,
    )
    _pinned_both_ways(
        pin_loop, loop_blind, loop_counts,
        lambda registry: run_traffic(spec, registry=registry).to_json(),
    )
