"""Route traces and classes: what the columnar loop resolves once per flow.

The equivalence suites (``test_batch_equivalence``, ``test_loop_selection``)
hold the traced replay to the scalar loop's results; these tests hold it to
its cost model and its lifetime: a warm batch pays per route class, never
per signature; traces are keyed by template identity, interned into
classes hop by hop, and never reach a pickle.
"""

import pickle
import sys

import numpy as np

from repro.hw.spec import topology_for
from repro.obs import MetricsRegistry
from repro.sim.columns import PacketColumns
from repro.sim.traffic import TrafficEngine, TrafficSpec

#: the benchmark's ``nic_fastpath`` rack: chain a crosses the SmartNIC in
#: one route class, chain b's server demux spreads flows over 15 instances
NIC_SPEC = (
    "chain a: BPF -> FastEncrypt -> IPv4Fwd\n"
    "chain b: ACL -> Encrypt -> IPv4Fwd\n"
)

#: Python-level calls (functions and builtins called from bytecode) a warm
#: batch may spend per distinct signature beyond what the same batch of one
#: signature costs. Measured: 0 on chain a, 2.9 on chain b (its 15 classes'
#: RNG draws, not its 64 signatures); the per-signature loop this replaced
#: spent 30 and 36.
CALLS_PER_SIGNATURE = 4


def _nic_engine(flows=64):
    spec = TrafficSpec(
        spec_text=NIC_SPEC, slos=((1000.0, 39000.0),) * 2,
        topology=topology_for("paper-smartnic"),
        flows_per_chain=flows, batch_size=64,
    )
    return TrafficEngine.from_spec(spec, registry=MetricsRegistry())


def _calls(rack, cp, flows, sig):
    """Calls made from Python code during one ``run_columns``."""
    count = 0

    def profile(_frame, event, _arg):
        nonlocal count
        if event in ("call", "c_call"):
            count += 1

    columns = PacketColumns.for_flows(flows, sig)
    sys.setprofile(profile)
    try:
        rack.run_columns(cp, columns)
    finally:
        sys.setprofile(None)
    return count


def test_a_warm_batch_costs_per_class_not_per_signature():
    """64 packets of 64 signatures against 64 packets of one, both warm, on
    the ``nic_fastpath`` rack: no clocks, only counted calls."""
    engine = _nic_engine()
    rack = engine.rack
    for cp in engine.placement.chains:
        flows = engine.synthesize_flows(cp)
        many = np.arange(64)
        one = np.zeros(64, dtype=np.int64)
        for _warm in range(2):
            _calls(rack, cp, flows, many)
            _calls(rack, cp, flows, one)
        extra = _calls(rack, cp, flows, many) - _calls(rack, cp, flows, one)
        assert extra <= CALLS_PER_SIGNATURE * 63, (
            f"chain {cp.name}: {extra / 63:.1f} calls per extra signature"
        )


def test_traces_intern_into_one_class_per_distinct_route():
    engine = _nic_engine(flows=256)
    rack = engine.rack
    engine.run(packets_per_chain=512)
    nic_chain, server_chain = engine.placement.chains
    by_chain = {}
    for (chain, _template_id), trace in rack._route_traces.items():
        by_chain.setdefault(chain, []).append(trace)
    assert {len(traces) for traces in by_chain.values()} == {256}
    # every flow of chain a does the same thing at every hop
    assert len({id(t.route) for t in by_chain[nic_chain.name]}) == 1
    # chain b: one class per demux instance, far fewer than flows
    instances = len({id(t.route) for t in by_chain[server_chain.name]})
    assert 1 < instances <= 15
    for trace in by_chain[server_chain.name]:
        route = trace.route
        assert len(trace.templates) == len(route.steps) + 1
        assert all(step.survived for step in route.steps)
        assert trace.templates[0] is not trace.templates[-1]


def test_traces_key_on_template_identity_not_on_the_flow():
    """Two templates with one 5-tuple and different payloads are two
    traces (Encrypt makes different bytes of them); the same bytes in two
    template objects are two traces as well, sharing a class."""
    engine = _nic_engine(flows=1)
    rack = engine.rack
    cp = engine.placement.chains[1]
    (template,) = engine.synthesize_flows(cp)
    twin = template.copy()
    other = template.copy()
    other.payload = b"\x01" * len(other.payload)
    result = rack.run_columns(
        cp, PacketColumns.for_flows([template, twin, other], [0, 1, 2, 0])
    )
    assert len(rack._route_traces) == 3 and len(rack._flow_paths) == 1
    traces = [rack._route_traces[(cp.name, id(t))]
              for t in (template, twin, other)]
    assert traces[0].route is traces[1].route is traces[2].route
    first, same, different, again = result.materialize()
    assert first.data == same.data == again.data != different.data
    assert first.payload != template.payload  # encrypted


def test_traces_never_reach_a_checkpoint():
    """A pickled rack carries no trace, class or hop plan — they key on
    template identity and stand on bound platform runtimes — so tracing a
    rack's flows does not grow its checkpoint by a byte."""
    def rack_after(packets):
        engine = _nic_engine()
        engine.run(packets_per_chain=packets)
        return engine.rack

    traced = rack_after(128)
    assert traced._route_traces and traced._route_roots and traced._hop_plans
    blob = pickle.dumps(traced)
    restored = pickle.loads(blob)
    assert not (restored._route_traces or restored._route_roots
                or restored._hop_plans)
    # the same rack with the memos emptied first pickles to the same size
    for memo in (traced._route_traces, traced._route_roots,
                 traced._hop_plans):
        memo.clear()
    assert len(pickle.dumps(traced)) == len(blob)
