"""A traffic pass creates no reference cycles, and runs with CPython's
cyclic garbage collector paused.

Refcounting alone frees everything a pass allocates, so a collection
during one only traces the live heap (flow templates, probe memos, route
traces) and frees nothing: ``TrafficEngine.run``, ``replay`` and
``replay_batch`` pause the collector. The first tests hold the premise —
every dataplane regime leaves no cyclic garbage — and the rest hold the
pause and that it restores the collector's state.
"""

import gc
from collections import Counter
from pathlib import Path

import pytest

from repro.experiments.chains import (
    _CHAIN_SPECS,
    base_rate_mbps,
    canonical_chain,
)
from repro.hw.spec import topology_for
from repro.obs import MetricsRegistry
from repro.sim.admission import AdmissionCore
from repro.sim.lifecycle import LifecycleSpec
from repro.sim.traffic import TrafficEngine, TrafficSpec

SPECS = Path(__file__).resolve().parents[2] / "examples" / "specs"

#: the benchmark's ``nic_fastpath`` chains
NIC_SPEC = ("chain a: BPF -> FastEncrypt -> IPv4Fwd\n"
            "chain b: ACL -> Encrypt -> IPv4Fwd\n")
NIC_SLOS = ((1000.0, 39000.0),) * 2

#: the paper's Table-2 chains 1-4 at delta = 0.5 (t_min half the base
#: rate, t_max 100 Gbps)
TABLE2_SPEC = "\n".join(_CHAIN_SPECS[index] for index in (1, 2, 3, 4))
TABLE2_SLOS = tuple(
    (0.5 * base_rate_mbps(canonical_chain(index)), 100000.0)
    for index in (1, 2, 3, 4)
)

FABRIC_SPEC = "\n".join(
    f"chain c{i}: ACL(rules=64) -> Encrypt -> IPv4Fwd" for i in range(6)
)
FABRIC_SLOS = tuple((4000.0, 9000.0, 400.0) for _ in range(6))


def _engine(spec_text, slos, preset, *, flows, batch):
    return TrafficEngine.from_spec(
        TrafficSpec(spec_text=spec_text, slos=slos,
                    topology=topology_for(preset),
                    flows_per_chain=flows, batch_size=batch),
        registry=MetricsRegistry(),
    )


def _core(spec_text, slos, preset):
    core = AdmissionCore(
        LifecycleSpec(spec_text=spec_text, slos=slos,
                      topology=topology_for(preset),
                      flows_per_chain=8, batch_size=16, seed=7),
        registry=MetricsRegistry(),
    )
    core.bootstrap()
    return core


def _cyclic_garbage(traffic_pass) -> Counter:
    """Run ``traffic_pass()`` with the collector off and every
    unreachable object saved: a type census of the cyclic garbage the
    pass left behind (empty when refcounting freed everything)."""
    gc.collect()  # what set-up left behind is not the pass's
    enabled = gc.isenabled()
    flags = gc.get_debug()
    gc.disable()
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        traffic_pass()
        found = gc.collect()
        census = Counter(type(obj).__qualname__ for obj in gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert found == sum(census.values())
    return census


def _assert_cycle_free(traffic_pass) -> None:
    census = _cyclic_garbage(traffic_pass)
    assert not census, census.most_common(20)


class TestAPassCreatesNoCycles:
    def test_nic_chains_at_batch_64_cold_then_warm(self):
        engine = _engine(NIC_SPEC, NIC_SLOS, "paper-smartnic",
                         flows=256, batch=64)
        _assert_cycle_free(lambda: engine.run(packets_per_chain=512))
        _assert_cycle_free(lambda: engine.run(packets_per_chain=512))

    def test_nic_chains_at_batch_4096(self):
        engine = _engine(NIC_SPEC, NIC_SLOS, "paper-smartnic",
                         flows=64, batch=4096)
        _assert_cycle_free(lambda: engine.run(packets_per_chain=8192))

    def test_table2_chains_on_the_paper_testbed(self):
        engine = _engine(TABLE2_SPEC, TABLE2_SLOS, "paper-testbed",
                         flows=64, batch=1024)
        _assert_cycle_free(lambda: engine.run(packets_per_chain=1024))

    def test_vector_safe_branchy_chains(self):
        engine = _engine((SPECS / "branchy_vector.lemur").read_text(),
                         ((1000.0, 20000.0),) * 2, "paper-testbed",
                         flows=64, batch=4096)
        _assert_cycle_free(lambda: engine.run(packets_per_chain=4096))

    def test_an_admission_phase_on_multi_server(self):
        core = _core(NIC_SPEC, NIC_SLOS, "multi-server")
        _assert_cycle_free(lambda: core.run_phase("p0", 256, index=0))

    def test_a_fabric_phase_on_two_racks(self):
        core = _core(FABRIC_SPEC, FABRIC_SLOS, "two-rack")
        assert len(core.cores) == 2  # a chain spilled: the phase crosses
        _assert_cycle_free(lambda: core.run_phase("p0", 96, index=0))

    def test_the_census_sees_a_cycle(self):
        """The check itself: a pass that leaves a cycle is caught, and
        the census names what the cycle is made of."""
        def leaky():
            node = {}
            node["self"] = node

        assert _cyclic_garbage(leaky) == Counter(dict=1)


class TestThePassPausesTheCollector:
    @pytest.fixture()
    def collector_on(self):
        enabled = gc.isenabled()
        gc.enable()
        yield
        if not enabled:
            gc.disable()

    def test_no_collection_starts_inside_a_table2_pass(self, collector_on):
        engine = _engine(TABLE2_SPEC, TABLE2_SLOS, "paper-testbed",
                         flows=64, batch=1024)
        starts = []

        def count(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        gc.callbacks.append(count)
        try:
            engine.run(packets_per_chain=1024)
        finally:
            gc.callbacks.remove(count)
        assert starts == []
        assert gc.isenabled()

    @pytest.mark.parametrize("entry", ["run", "replay", "replay_batch"])
    def test_state_is_restored(self, collector_on, entry):
        engine = _engine(NIC_SPEC, NIC_SLOS, "paper-smartnic",
                         flows=8, batch=64)
        cp = engine.placement.chains[0]
        call = {
            "run": lambda: engine.run(packets_per_chain=128),
            "replay": lambda: engine.replay(cp, 0, 128),
            "replay_batch": lambda: engine.replay_batch(cp, 0, 128),
        }[entry]
        seen = []  # gc.isenabled() at each batch the engine injects
        inject = engine._inject

        def spy(*args, **kwargs):
            seen.append(gc.isenabled())
            return inject(*args, **kwargs)

        engine._inject = spy
        call()
        assert seen and not any(seen)
        assert gc.isenabled()

        gc.disable()
        try:
            call()
            assert not gc.isenabled()
        finally:
            gc.enable()

        def boom(*args, **kwargs):
            raise RuntimeError("rack fault")

        engine._inject = boom
        with pytest.raises(RuntimeError, match="rack fault"):
            call()
        assert gc.isenabled()
