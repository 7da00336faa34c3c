"""Pool-reuse equivalence: the persistent runtime must be invisible.

The contract for the worker runtime: a sharded traffic replay produces a
byte-identical :class:`~repro.sim.traffic.TrafficReport` whether it runs
(a) serially or (b) on the persistent pool reused across consecutive
phases — (c) a redeploy (artifact fingerprint change) must invalidate or
delta-update the warm rack, never reuse it stale — and (d) every fan-out
caller whose pool dispatch fails warns and returns the serial result.
"""

import pytest

from repro.exceptions import WorkerPoolError
from repro.experiments.runner import SweepSpec, run_sweep
from repro.experiments.schemes import SCHEMES
from repro.obs import MetricsRegistry
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
from repro.sim.traffic import TrafficSpec, run_traffic

SPEC_A = "\n".join([
    "chain c1: ACL -> NAT",
    "chain c2: ACL -> Monitor",
    "chain c3: NAT -> IPv4Fwd",
    "chain c4: ACL -> IPv4Fwd",
])
SLOS_A = ((100.0, 200.0),) * 4

#: same chain names and count, different bodies — compiles to different
#: artifacts, so the bundle fingerprint changes.
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


def _replay(spec_text, slos, *, shards, vectorized=True):
    registry = MetricsRegistry()
    report = run_traffic(
        TrafficSpec(
            spec_text=spec_text, slos=slos,
            packets_per_chain=192, flows_per_chain=16, batch_size=32,
            vectorized=vectorized, shards=shards,
        ),
        registry=registry,
    )
    return report.to_json(), registry


def _rack_builds(registry):
    return {
        c["labels"]["mode"]: c["value"]
        for c in registry.snapshot()["counters"]
        if c["name"] == "runtime.rack_builds"
    }


def test_serial_and_persistent_pool_agree():
    serial, serial_reg = _replay(SPEC_A, SLOS_A, shards=1)
    persistent, keep_reg = _replay(SPEC_A, SLOS_A, shards=2)
    assert serial == persistent
    # a serial replay never touches the warm-rack cache
    assert _rack_builds(serial_reg) == {}
    # the persistent pool deployed at least one rack cold
    assert _rack_builds(keep_reg).get("cold", 0) >= 1


def test_persistent_pool_reused_across_three_phases():
    serial, _ = _replay(SPEC_A, SLOS_A, shards=1)
    reports, warm_total = [], 0
    for _phase in range(3):
        report, registry = _replay(SPEC_A, SLOS_A, shards=2)
        reports.append(report)
        warm_total += _rack_builds(registry).get("warm", 0)
    assert all(report == serial for report in reports)
    # later phases must have found warm racks (same artifact fingerprint)
    assert warm_total >= 2


def test_scalar_path_agrees_too():
    serial, _ = _replay(SPEC_A, SLOS_A, shards=1, vectorized=False)
    persistent, _ = _replay(SPEC_A, SLOS_A, shards=2, vectorized=False)
    assert serial == persistent


def test_redeploy_invalidates_warm_rack():
    # warm the pool's racks on spec A ...
    _replay(SPEC_A, SLOS_A, shards=2)
    # ... then replay spec B (different artifacts, same chain names):
    # the cached rack must be delta-redeployed, not reused stale
    pooled_b, registry_b = _replay(SPEC_B, SLOS_B, shards=2)
    serial_b, _ = _replay(SPEC_B, SLOS_B, shards=1)
    assert pooled_b == serial_b
    builds = _rack_builds(registry_b)
    # every worker's cached A-rack had to be rebuilt or delta-updated;
    # warm hits may still appear when a later shard reuses a slot the
    # same replay already brought up to date (e.g. one worker, two
    # shards), but never before a delta/cold build on that worker.
    assert builds.get("delta", 0) + builds.get("cold", 0) >= 1
    # and switching back also refuses the stale rack
    pooled_a, registry_a = _replay(SPEC_A, SLOS_A, shards=2)
    serial_a, _ = _replay(SPEC_A, SLOS_A, shards=1)
    assert pooled_a == serial_a
    builds_a = _rack_builds(registry_a)
    assert builds_a.get("delta", 0) + builds_a.get("cold", 0) >= 1


def test_killed_workers_recover():
    """Respawned workers (lost caches, cleared shipped-set) still produce
    identical reports — the payload simply ships again."""
    serial, _ = _replay(SPEC_A, SLOS_A, shards=1)
    first, _ = _replay(SPEC_A, SLOS_A, shards=2)
    pool = get_pool()
    for proc in list(pool._procs):
        proc.terminate()
        proc.join(timeout=5.0)
    second, _ = _replay(SPEC_A, SLOS_A, shards=2)
    assert first == second == serial


def test_stale_artifact_retry_reships_payload():
    """When the parent wrongly believes a worker caches the bundle (e.g.
    a restart raced the bookkeeping), the worker's typed stale error must
    trigger a single payload re-ship, not a failed run."""
    import pickle

    from repro.runtime.rackcache import bundle_fingerprint
    from repro.sim.traffic import TrafficEngine

    serial, _ = _replay(SPEC_A, SLOS_A, shards=1)
    registry = MetricsRegistry()
    engine = TrafficEngine.from_spec(
        TrafficSpec(
            spec_text=SPEC_A, slos=SLOS_A,
            packets_per_chain=192, flows_per_chain=16, batch_size=32,
            vectorized=True, shards=2,
        ),
        registry=registry,
    )
    rack = engine.rack
    payload = pickle.dumps((rack.topology, rack.artifacts, rack.profiles,
                            engine.placement))
    fingerprint = bundle_fingerprint(payload)
    pool = get_pool(2)
    for worker in range(pool.max_workers):
        pool.needs_payload(worker, fingerprint)  # lie: mark as shipped
    report = engine.run(packets_per_chain=192)
    assert report.to_json() == serial


# -- failed dispatch: every fan-out caller falls back to serial --------------


def _traffic(parallel):
    return _replay(SPEC_A, SLOS_A, shards=2 if parallel else 1)[0]


def _sweep(parallel):
    spec = SweepSpec(
        chain_indices=(2, 3), deltas=(0.5, 1.0),
        schemes={"Lemur": SCHEMES["Lemur"]}, measure=False, cache=False,
        jobs=2 if parallel else 1,
    )
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
