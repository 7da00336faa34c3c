"""Pool equivalence: the persistent runtime must be invisible.

The contract for the worker runtime: a sharded traffic replay produces a
byte-identical :class:`~repro.sim.traffic.TrafficReport` — and the same
rack metrics in the parent's registry — whether it runs (a) serially or
(b) on the persistent pool reused across consecutive phases; (c) changed
artifacts between phases are never answered from an earlier phase's
rack; (d) a rack carrying fault or inter-rack state replays serially
whatever ``shards`` says; and (e) every fan-out caller whose pool
dispatch fails warns and returns the serial result.
"""

import pytest

from repro.core.cache import scoped_cache
from repro.exceptions import WorkerPoolError
from repro.experiments.runner import SweepSpec, run_sweep
from repro.experiments.schemes import SCHEMES
from repro.obs import MetricsRegistry, scoped_registry
from repro.runtime.pool import WorkerPool, get_pool, shutdown_pool
from repro.sim.faults import (
    ChaosSpec,
    FaultEvent,
    FaultTimeline,
    run_chaos_checked,
)
from repro.sim.lifecycle import (
    ChainEvent,
    LifecycleSpec,
    LifecycleTimeline,
    run_lifecycle_checked,
)
from repro.sim.traffic import (
    COLUMNAR_MIN_BATCH,
    TrafficEngine,
    TrafficSpec,
    run_traffic,
)

SPEC_A = "\n".join([
    "chain c1: ACL -> NAT",
    "chain c2: ACL -> Monitor",
    "chain c3: NAT -> IPv4Fwd",
    "chain c4: ACL -> IPv4Fwd",
])
SLOS_A = ((100.0, 200.0),) * 4

#: same chain names and count, different bodies — compiles to different
#: artifacts.
SPEC_B = "\n".join([
    "chain c1: ACL -> Encrypt -> IPv4Fwd",
    "chain c2: NAT -> Monitor",
    "chain c3: BPF -> IPv4Fwd",
    "chain c4: NAT -> IPv4Fwd",
])
SLOS_B = ((100.0, 200.0),) * 4


@pytest.fixture(autouse=True)
def fresh_pool():
    """Each test starts and ends without a lingering shared pool."""
    shutdown_pool()
    yield
    shutdown_pool()


#: batch sizes on either side of the engine's loop selection (workers
#: import their own ``repro``, so only the batch size can pick their loop)
BATCHES = {"columnar": COLUMNAR_MIN_BATCH, "scalar": COLUMNAR_MIN_BATCH // 2}


def _replay(spec_text, slos, *, shards, loop="columnar"):
    registry = MetricsRegistry()
    report = run_traffic(
        TrafficSpec(
            spec_text=spec_text, slos=slos,
            packets_per_chain=192, flows_per_chain=16,
            batch_size=BATCHES[loop], shards=shards,
        ),
        registry=registry,
    )
    return report.to_json(), registry


def _pool_counters(default):
    """(tasks sent to ``_run_shard``, worker restarts) on ``default``,
    the process registry the pool records into."""
    return (default.counter_value("runtime.tasks", kind="_run_shard"),
            default.counter_value("runtime.pool.restarts"))


def test_serial_and_persistent_pool_agree():
    with scoped_registry() as default:
        serial, _ = _replay(SPEC_A, SLOS_A, shards=1)
        # a serial replay never dispatches
        assert _pool_counters(default) == (0, 0)
        persistent, _ = _replay(SPEC_A, SLOS_A, shards=2)
        assert _pool_counters(default) == (2, 0)
    assert serial == persistent


def test_persistent_pool_reused_across_three_phases():
    serial, _ = _replay(SPEC_A, SLOS_A, shards=1)
    with scoped_registry() as default:
        reports = [_replay(SPEC_A, SLOS_A, shards=2)[0] for _ in range(3)]
        # one task per shard per phase, all on the workers phase 1 started
        assert _pool_counters(default) == (6, 0)
    assert all(report == serial for report in reports)


@pytest.mark.parametrize("loop", ["columnar", "scalar"])
def test_pooled_dispatch_merges_worker_metrics_like_serial(loop):
    """Rows aside, a worker ships back only its registry dump: merged
    into the parent registry it must read exactly as the serial run
    recorded it — the loop each batch took included."""
    def rack_counters(registry):
        return [
            entry for entry in registry.dump_state()["counters"]
            if entry[0].startswith(
                ("rack.packets.", "rack.device.", "traffic.batches")
            )
        ]

    _, serial_reg = _replay(SPEC_A, SLOS_A, shards=1, loop=loop)
    _, pooled_reg = _replay(SPEC_A, SLOS_A, shards=2, loop=loop)
    assert rack_counters(serial_reg)
    assert rack_counters(pooled_reg) == rack_counters(serial_reg)
    took_columnar = serial_reg.counter_value("traffic.batches",
                                             loop="columnar")
    assert bool(took_columnar) == (loop == "columnar")


def test_scalar_path_agrees_too():
    serial, _ = _replay(SPEC_A, SLOS_A, shards=1, loop="scalar")
    persistent, _ = _replay(SPEC_A, SLOS_A, shards=2, loop="scalar")
    assert serial == persistent


def test_redeploy_invalidates_warm_rack():
    """Changed artifacts between phases (same chain names, different
    bodies): the workers that replayed spec A must replay spec B from
    B's artifacts, and A again after that."""
    _replay(SPEC_A, SLOS_A, shards=2)
    pooled_b, _ = _replay(SPEC_B, SLOS_B, shards=2)
    serial_b, _ = _replay(SPEC_B, SLOS_B, shards=1)
    assert pooled_b == serial_b
    pooled_a, _ = _replay(SPEC_A, SLOS_A, shards=2)
    serial_a, _ = _replay(SPEC_A, SLOS_A, shards=1)
    assert pooled_a == serial_a


def test_killed_workers_recover():
    """Respawned workers still produce identical reports — every task
    carries its bundle, so a fresh worker is as good as the old one."""
    serial, _ = _replay(SPEC_A, SLOS_A, shards=1)
    first, _ = _replay(SPEC_A, SLOS_A, shards=2)
    pool = get_pool()
    for proc in list(pool._procs):
        proc.terminate()
        proc.join(timeout=5.0)
    second, _ = _replay(SPEC_A, SLOS_A, shards=2)
    assert first == second == serial


# -- rack state the artifacts do not record: replay serially ------------------


@pytest.mark.parametrize("install", [
    lambda rack: rack.set_drop_fraction("server0", 0.5),
    lambda rack: rack.set_device_failed("server0"),
    lambda rack: rack.set_interrack_hop("c1", "r0~r1", 50.0,
                                        drop_fraction=0.25),
], ids=["drop_fraction", "failed_device", "interrack_hop"])
def test_fault_and_interrack_state_is_shard_count_invariant(install):
    """Workers rebuild the rack from artifacts alone, so a live rack's
    fault or inter-rack state must keep the replay in-process."""
    reports = []
    for shards in (1, 2):
        engine = TrafficEngine.from_spec(
            TrafficSpec(spec_text=SPEC_A, slos=SLOS_A, flows_per_chain=16,
                        batch_size=32, shards=shards),
            registry=MetricsRegistry(),
        )
        install(engine.rack)
        reports.append(engine.run(192))
    serial, sharded = reports
    assert serial.delivered < serial.injected
    assert sharded.to_json() == serial.to_json()
    assert sharded.shard_walls == []


# -- failed dispatch: every fan-out caller falls back to serial --------------


def _traffic(parallel):
    return _replay(SPEC_A, SLOS_A, shards=2 if parallel else 1)[0]


def _sweep(parallel):
    spec = SweepSpec(
        chain_indices=(2, 3), deltas=(0.5, 1.0),
        schemes={"Lemur": SCHEMES["Lemur"]}, measure=False,
        jobs=2 if parallel else 1,
    )
    with scoped_cache():  # a cold solve: the fallback must really run
        return run_sweep(spec).results


def _chaos(parallel):
    spec = ChaosSpec(
        spec_text="chain c: ACL -> IPv4Fwd\nchain d: NAT -> IPv4Fwd",
        slos=((100.0, 200.0),) * 2,
        timeline=FaultTimeline((
            FaultEvent(at_packet=32, action="degrade_link",
                       target="server0", severity=0.5),
        )),
        packets_per_chain=64, flows_per_chain=8, batch_size=16,
    )
    return run_chaos_checked(
        spec, jobs=3 if parallel else 1, registry=MetricsRegistry()
    ).to_json()


def _lifecycle(parallel):
    spec = LifecycleSpec(
        spec_text="chain c: ACL -> IPv4Fwd",
        slos=((100.0, 200.0),),
        timeline=LifecycleTimeline((
            ChainEvent(at=1, action="arrive", chain="d",
                       spec="chain d: NAT -> IPv4Fwd",
                       t_min_mbps=100.0, t_max_mbps=200.0),
        )),
        packets_per_phase=32, flows_per_chain=8, batch_size=16,
    )
    return run_lifecycle_checked(
        spec, jobs=3 if parallel else 1, registry=MetricsRegistry()
    ).to_json()


@pytest.mark.parametrize("caller", [_traffic, _sweep, _chaos, _lifecycle])
def test_failed_dispatch_warns_and_returns_the_serial_result(
        caller, monkeypatch):
    serial = caller(parallel=False)

    def broken_dispatch(self, calls, **kwargs):
        raise WorkerPoolError("injected dispatch failure")

    monkeypatch.setattr(WorkerPool, "dispatch", broken_dispatch)
    with pytest.warns(RuntimeWarning, match="injected dispatch failure.*"
                                            "running serially in-process"):
        fallen_back = caller(parallel=True)
    assert fallen_back == serial
