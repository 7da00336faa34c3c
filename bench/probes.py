"""Per-layer probes: small timed calls into one layer's public functions,
run only in the traced run, on the workload's own inputs.

A probe returns a number; one whose target the tree no longer has raises
``adapter.Absent`` and is reported as absent with its reason (value 0 in
the metrics, reason in the result record) instead of failing the run.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Tuple

import numpy as np

import adapter
from common import median

Probe = Callable[[], float]


def run_probes(probes: Dict[str, Probe]) -> Tuple[Dict[str, float],
                                                  Dict[str, str]]:
    values: Dict[str, float] = {}
    absent: Dict[str, str] = {}
    for name, probe in probes.items():
        try:
            values[name] = float(probe())
        except adapter.Absent as exc:
            absent[name] = str(exc)
        except (AttributeError, TypeError) as exc:
            # a renamed method or changed signature is the same finding
            absent[name] = f"{type(exc).__name__}: {exc}"
    return values, absent


def _median_ms(fn: Callable[[], object], repeats: int = 5) -> float:
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    return median(samples) * 1e3


def _per_call_us(fn: Callable[[], object], calls: int) -> float:
    started = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - started) / calls * 1e6


# ---------------------------------------------------------------------------
# one rack: packet, runtime, placer, cache layers
# ---------------------------------------------------------------------------


def rack_probes(dep: adapter.RackDeployment, flows: int,
                batch: int) -> Dict[str, Probe]:
    """Probes on a throwaway deployment (``dep`` is mutated: the redeploy
    and reset probes run last)."""
    engine = adapter.traffic_engine(dep, flows, batch)
    chains = dep.placement.chains
    template = engine.synthesize_flows(chains[0])[0]
    sample = min(flows, 64)

    def synthesize_ms() -> float:
        fresh = adapter.traffic_engine(dep, flows, batch)
        started = time.perf_counter()
        adapter.synthesize(fresh)
        return (time.perf_counter() - started) * 1e3

    def classify_us() -> float:
        cp = chains[0]
        packets = adapter.flow_packets(engine, cp, sample)
        for packet in packets:  # fill the flow cache
            dep.rack.classify(cp, packet)
        started = time.perf_counter()
        rounds = max(1, 2048 // sample)
        for _ in range(rounds):
            for packet in packets:
                dep.rack.classify(cp, packet)
        return (time.perf_counter() - started) / (rounds * sample) * 1e6

    def scalar_pps() -> float:
        wall = 0.0
        injected = 0
        for cp in chains:
            for start in range(0, 512, 64):
                packets = adapter.flow_packets(engine, cp, 64, start)
                started = time.perf_counter()
                dep.rack.run(cp, packets)
                wall += time.perf_counter() - started
                injected += 64
        return injected / wall

    state: dict = {}

    def incremental_ms() -> float:
        placer, request = adapter.incremental_request(dep)
        started = time.perf_counter()
        state["report"] = placer.solve(request)
        return (time.perf_counter() - started) * 1e3

    def redeploy_ms() -> float:
        report = state.get("report")
        placement = report.placement \
            if report is not None and report.placement.feasible \
            else dep.placement  # a full rack redeploys what it has
        artifacts = adapter.compile_placement(dep, placement)
        started = time.perf_counter()
        dep.rack.redeploy(artifacts)
        return (time.perf_counter() - started) * 1e3

    return {
        "sim.traffic.synthesize_ms": synthesize_ms,
        "net.packet.copy_us": lambda: _per_call_us(template.copy, 20000),
        "net.packet.parse_us": lambda: _per_call_us(
            lambda: adapter.fresh_packet(template).ipv4, 5000),
        "sim.runtime.classify_us": classify_us,
        "sim.runtime.scalar_pps": scalar_pps,
        "core.cache.fingerprint_ms": lambda: _median_ms(
            lambda: adapter.fingerprint(dep)),
        "core.placer.incremental_ms": incremental_ms,
        "sim.runtime.redeploy_ms": redeploy_ms,
        "sim.runtime.reset_ms": lambda: _median_ms(
            dep.rack.reset_state, repeats=3),
    }


# ---------------------------------------------------------------------------
# obs: what the live registry costs the dataplane
# ---------------------------------------------------------------------------


def obs_probes(deploy: Callable[..., adapter.Deployment], flows: int,
               batch: int, packets: int) -> Dict[str, Probe]:
    """``deploy(registry)`` builds a fresh deployment of the workload."""
    state: dict = {}

    def overhead_share() -> float:
        state["live"] = adapter.MetricsRegistry()
        engines = {
            "off": adapter.traffic_engine(
                deploy(adapter.disabled_registry()).racks[0], flows, batch),
            "live": adapter.traffic_engine(
                deploy(state["live"]).racks[0], flows, batch),
        }
        walls = {"off": [], "live": []}
        for engine in engines.values():
            engine.run(packets)  # warm caches
        for _ in range(4):  # alternate, so drift hits both sides alike
            for side, engine in engines.items():
                started = time.perf_counter()
                engine.run(packets)
                walls[side].append(time.perf_counter() - started)
        # equal packets per pass: the pps ratio is the inverse wall ratio.
        # Best pass of each side: host slow-downs only ever add time.
        return 1.0 - min(walls["off"]) / min(walls["live"])

    def dump_merge_ms() -> float:
        live = state.get("live")
        if live is None:
            raise adapter.Absent("obs.overhead_share did not run")
        return _median_ms(
            lambda: adapter.MetricsRegistry().merge_state(live.dump_state())
        )

    def sample_share() -> float:
        live = state.get("live")
        if live is None:
            raise adapter.Absent("obs.overhead_share did not run")
        return adapter.latency_sample_share(live)

    return {
        "obs.overhead_share": overhead_share,
        "obs.dump_merge_ms": dump_merge_ms,
        "obs.quantile_sample_share": sample_share,
    }


# ---------------------------------------------------------------------------
# runtime: worker pool, shared memory, sharded replay
# ---------------------------------------------------------------------------


def runtime_probes(dep: adapter.RackDeployment, registry, flows: int,
                   batch: int, packets: int) -> Dict[str, Probe]:
    """Not on any default end-to-end path today (nothing shards by
    default); answers where the pool starts paying. ``registry`` is the
    one ``dep``'s rack records into (worker metrics merge back there)."""
    state: dict = {}

    def spawn_ms() -> float:
        started = time.perf_counter()
        pool = adapter.worker_pool(2)
        pool.call(adapter.pool_noop, 0)
        state["pool"] = pool
        return (time.perf_counter() - started) * 1e3

    def dispatch_ms() -> float:
        pool = state.get("pool") or adapter.worker_pool(2)
        return _per_call_us(
            lambda: pool.call(adapter.pool_noop, 0), 200) / 1e3

    def serial_pps() -> float:
        engine = adapter.traffic_engine(dep, flows, batch)
        engine.run(packets)
        started = time.perf_counter()
        engine.run(packets)
        return packets / (time.perf_counter() - started)

    def shard2_speedup() -> float:
        if not adapter.accepts(adapter.TrafficEngine.__init__, "shards"):
            raise adapter.Absent("TrafficEngine no longer takes shards=")
        sharded = adapter.traffic_engine(dep, flows, batch, shards=2)
        sharded.run(packets)  # workers build their racks
        started = time.perf_counter()
        sharded.run(packets)
        return (packets / (time.perf_counter() - started)) / serial_pps()

    def warm_share() -> float:
        builds = {
            mode: registry.counter_value("runtime.rack_builds", mode=mode)
            for mode in ("cold", "warm", "delta")
        }
        total = sum(builds.values())
        if not total:
            raise adapter.Absent("no pooled rack build was recorded")
        return builds["warm"] / total

    arrays = {"sig": np.arange(1 << 17, dtype=np.int64)}  # 1 MiB

    def pack_ms() -> float:
        shm = adapter.shm_arrays()

        def once():
            shm.pack(arrays).release()
        return _median_ms(once)

    def attach_ms() -> float:
        shm = adapter.shm_arrays()
        packed = shm.pack(arrays)
        try:
            def once():
                _views, handle = packed.attach()
                shm.detach(handle)
            return _median_ms(once)
        finally:
            packed.release()

    return {
        "runtime.pool.spawn_ms": spawn_ms,
        "runtime.pool.dispatch_ms": dispatch_ms,
        "runtime.pool.shard2_speedup": shard2_speedup,
        "runtime.rackcache.warm_share": warm_share,
        "runtime.shm.pack_ms": pack_ms,
        "runtime.shm.attach_ms": attach_ms,
    }
