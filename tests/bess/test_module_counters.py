"""Every BESS module's counters add up: each packet a module receives is
either sent on (tx) or dropped, never neither nor both.

A packet leaves a server pipeline at ``PortOut``, whose ``process``
returns no output; ``Module.receive``, ``receive_batch`` and
``probe_batch`` count that exit as tx, so the columnar loop's copied
probe deltas agree with the scalar loop's.
"""

import pytest

from repro.experiments.chains import (
    _CHAIN_SPECS,
    base_rate_mbps,
    canonical_chain,
)
from repro.hw.spec import topology_for
from repro.obs import MetricsRegistry
from repro.sim.traffic import TrafficEngine, TrafficSpec

#: the paper's Table-2 chains 1-4 at delta = 0.5 on ``paper-testbed``
TABLE2 = (
    "\n".join(_CHAIN_SPECS[index] for index in (1, 2, 3, 4)),
    tuple((0.5 * base_rate_mbps(canonical_chain(index)), 100000.0)
          for index in (1, 2, 3, 4)),
    "paper-testbed",
)
#: the benchmark's ``nic_fastpath`` chains: every hop vector-safe
NIC_FASTPATH = (
    "chain a: BPF -> FastEncrypt -> IPv4Fwd\n"
    "chain b: ACL -> Encrypt -> IPv4Fwd\n",
    ((1000.0, 39000.0),) * 2,
    "paper-smartnic",
)


@pytest.mark.parametrize("loop", ["scalar", "columnar"])
@pytest.mark.parametrize("workload", [TABLE2, NIC_FASTPATH],
                         ids=["table2", "nic_fastpath"])
def test_rx_is_tx_plus_dropped_for_every_module(pin_loop, loop, workload):
    spec_text, slos, preset = workload
    pin_loop(loop)
    engine = TrafficEngine.from_spec(
        TrafficSpec(spec_text=spec_text, slos=slos,
                    topology=topology_for(preset),
                    flows_per_chain=8, batch_size=64),
        registry=MetricsRegistry(),
    )
    engine.run(64)
    servers = [stats for stats in engine.rack.device_stats().values()
               if "modules" in stats]
    assert servers
    for stats in servers:
        modules = stats["modules"]
        port_out = modules["port_out"]
        assert port_out["rx"] > 0
        assert (port_out["tx"], port_out["dropped"]) == (port_out["rx"], 0)
        for name, counts in modules.items():
            assert counts["rx"] == counts["tx"] + counts["dropped"], name
