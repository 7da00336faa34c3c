"""Every module and device counter adds up, on both loops and under faults.

A server hop writes its framework modules' counters (PortInc, NSHdecap,
SubgroupDemux, SIUpdate, NSHencap, PortOut) as per-batch arithmetic, and
the columnar loop replays probed counter deltas; this property is what
holds that arithmetic to the packets. For every module, ``rx == tx +
dropped``. Per device, the module and runtime counters agree with the
rack registry in ``device_stats()``: a server's PortInc receives what the
device took in and its PortOut sends what the device let out, and the
drops its modules count are the device's ``server_pipeline`` drops, and
the cycles they charge are the device's cycles (more, where the hop
dropped packets it had charged); a SmartNIC runtime's rx/tx/drops are the
device's packets in/out and ``nic_program`` drops, and its ``nic_cycles``
the device's cycles; and likewise an OpenFlow switch's with its
``openflow_rule`` drops. Four reference racks (server, SmartNIC, two-server
and OpenFlow), scalar and columnar loops, with and without a failed or
lossy device.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.sim.traffic as traffic
from repro.hw.spec import topology_for
from repro.obs import MetricsRegistry
from repro.sim.traffic import TrafficEngine, TrafficSpec

_DROP = "ACL(rules=[{'src_ip': '10.1.0.0/30', 'drop': True}])"
#: a server-only NF that drops flows 3 and 30-39
_FILTER = "UrlFilter(patterns=['payload-3'])"

#: preset -> (spec, per-chain (t_min, t_max) Mbps): replicated server
#: subgroups, drops on the switch and on servers, stateful NFs that keep
#: the scalar loop, and a branch
RACKS = {
    "paper-smartnic": (
        "chain a: BPF -> FastEncrypt -> IPv4Fwd\n"
        "chain b: ACL -> Encrypt -> Monitor -> IPv4Fwd\n",
        ((1000.0, 39000.0),) * 2,
    ),
    "paper-testbed": (
        f"chain m: Encrypt -> {_DROP} -> IPv4Fwd\n"
        f"chain n: BPF -> [Encrypt -> {_DROP} -> IPv4Fwd, "
        f"Tunnel -> {_FILTER} -> IPv4Fwd]\n",
        ((3000.0, 30000.0),) * 2,
    ),
    "multi-server": (
        "chain base0: ACL -> Encrypt -> IPv4Fwd\n"
        f"chain base1: BPF -> NAT -> {_FILTER} -> IPv4Fwd\n",
        ((1000.0, 20000.0),) * 2,
    ),
    "paper-openflow": (
        f"chain a: Detunnel -> Encrypt -> {_DROP}\n",
        ((100.0, 9000.0),),
    ),
}

_ENGINES = {}


def _engine(preset: str) -> TrafficEngine:
    engine = _ENGINES.get(preset)
    if engine is None:
        spec_text, slos = RACKS[preset]
        engine = _ENGINES[preset] = TrafficEngine.from_spec(
            TrafficSpec(spec_text=spec_text, slos=slos,
                        topology=topology_for(preset),
                        flows_per_chain=40, batch_size=64),
            registry=MetricsRegistry(),
        )
    return engine


def _assert_counters_add_up(rack) -> None:
    for device, stats in rack.device_stats().items():
        drops = stats["drops"]
        if "modules" in stats:
            modules = stats["modules"]
            for name, counts in modules.items():
                assert counts["rx"] == counts["tx"] + counts["dropped"], \
                    (device, name, counts)
            assert modules["port_inc"]["rx"] == stats["packets_in"], device
            assert modules["port_out"]["tx"] == stats["packets_out"], device
            assert sum(counts["dropped"] for counts in modules.values()) \
                == drops.get("server_pipeline", 0), device
            # the device is charged its packets' cycles as they leave the
            # hop, so what its modules spent on packets it dropped is
            # missing from the device's count
            spent = sum(counts["cycles"] for counts in modules.values())
            if drops.get("server_pipeline", 0):
                assert spent > stats["cycles"], device
            else:
                assert spent == stats["cycles"], device
        elif "nic_cycles" in stats:
            assert stats["rx"] == stats["tx"] + stats["program_drops"]
            assert stats["rx"] == stats["packets_in"], device
            assert stats["tx"] == stats["packets_out"], device
            assert stats["program_drops"] == drops.get("nic_program", 0)
            assert stats["nic_cycles"] == stats["cycles"], device
        elif "rule_drops" in stats:
            assert stats["rx"] == stats["tx"] + stats["rule_drops"]
            assert stats["rx"] == stats["packets_in"], device
            assert stats["rule_drops"] == drops.get("openflow_rule", 0)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(preset=st.sampled_from(sorted(RACKS)),
       loop=st.sampled_from(["scalar", "columnar"]),
       fault=st.sampled_from([None, "failed", "lossy"]),
       pick=st.integers(0, 7),
       packets=st.integers(1, 96))
def test_counters_add_up(preset, loop, fault, pick, packets):
    engine = _engine(preset)
    rack = engine.rack
    devices = sorted([*rack.servers, *rack.nics])
    device = devices[pick % len(devices)]
    pinned = traffic.COLUMNAR_MIN_BATCH
    traffic.COLUMNAR_MIN_BATCH = {"scalar": 10**9, "columnar": 1}[loop]
    try:
        if fault == "failed":
            rack.set_device_failed(device)
        elif fault == "lossy":
            rack.set_drop_fraction(device, 0.3)
        engine.run(packets)
    finally:
        traffic.COLUMNAR_MIN_BATCH = pinned
        rack.clear_faults()
    _assert_counters_add_up(rack)
