"""Dataplane throughput: batched fast path vs the per-packet path.

Deploys a Fig-2-style testbed (two BESS servers + SmartNIC behind the
ToR) and pushes the same high-volume flow set through the rack three
ways:

* **seed per-packet** — ``DeployedRack.inject`` as it existed at the
  seed commit, run in a subprocess against a throwaway git worktree
  (skipped silently when the commit is not available, e.g. shallow CI
  clones);
* **per-packet** — ``DeployedRack.run`` from this tree with batches of
  one (which already benefits from the shared flow-classification and
  parse caches);
* **batched** — the :class:`~repro.sim.traffic.TrafficEngine` driving
  ``DeployedRack.run``;
* **vectorized** — the same engine with ``vectorized=True``, driving the
  columnar ``DeployedRack.run_columns`` fast path (structure-of-arrays
  batches, whole-array hop replay).

All paths are behaviourally identical
(``tests/sim/test_batch_equivalence.py`` enforces bit-identical results);
this benchmark records how much cheaper each tier is per packet.
Reproduction targets: batched throughput >= 5x the seed per-packet path;
vectorized throughput >= 10x the batched path on the same machine.

``DATAPLANE_BENCH_PACKETS`` overrides the packet budget (CI smoke runs
use a small one).
"""

import os
import pathlib
import subprocess
import sys
import tempfile
import time

from conftest import record_result, run_once

from repro.chain.graph import chains_from_spec
from repro.chain.slo import SLO
from repro.core.heuristic import heuristic_place
from repro.hw.spec import topology_for
from repro.metacompiler.compiler import MetaCompiler
from repro.profiles.defaults import default_profiles
from repro.sim.runtime import DeployedRack, _chain_packet
from repro.sim.traffic import TrafficEngine
from repro.units import gbps

#: The chain and testbed mirror Fig. 2's SmartNIC panel: an offloadable
#: chain pinned to the NIC by its throughput SLO.
SPEC = "chain a: BPF -> FastEncrypt -> IPv4Fwd"
SLO_BOUNDS = SLO(t_min=gbps(1), t_max=gbps(39))
FLOWS = 64
BATCH = 256
PACKETS = int(os.environ.get("DATAPLANE_BENCH_PACKETS", "4000"))
#: Untimed prelude so small CI budgets measure steady state, not the
#: one-off cache/table warmup every path pays on its first packets.
WARMUP = min(256, max(BATCH, PACKETS // 4))
#: The columnar tier amortises per-hop work over the whole batch, so it
#: runs a 10x packet budget in wide batches to measure steady state.
VEC_PACKETS = 10 * PACKETS
VEC_BATCH = 4096

#: Pre-PR commit of this repository: the per-packet dataplane without the
#: batch fast path or any of its caches. Measured live when the commit is
#: reachable so the speedup is from this machine, not a stale constant.
SEED_COMMIT = "610fc1ca401ad84c781d48cf648ef5597d46fc88"

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

_SEED_RUNNER = """\
import sys, time
sys.path.insert(0, sys.argv[1])
from repro.chain.graph import chains_from_spec
from repro.chain.slo import SLO
from repro.core.heuristic import heuristic_place
from repro.hw.topology import default_testbed
from repro.metacompiler.compiler import MetaCompiler
from repro.profiles.defaults import default_profiles
from repro.sim.runtime import DeployedRack, _chain_packet
from repro.units import gbps

packets, flows, warmup = int(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4])
profiles = default_profiles()
topology = default_testbed(with_smartnic=True)
chains = chains_from_spec({spec!r}, slos=[SLO(t_min=gbps(1), t_max=gbps(39))])
placement = heuristic_place(chains, topology, profiles)
assert placement.feasible, placement.infeasible_reason
artifacts = MetaCompiler(topology=topology, profiles=profiles).compile_placement(placement)
rack = DeployedRack(topology, artifacts, profiles)
cp = placement.chains[0]
for i in range(warmup):
    rack.inject(cp, _chain_packet(cp.chain, i % flows))
pkts = [_chain_packet(cp.chain, i % flows) for i in range(packets)]
t0 = time.perf_counter()
for p in pkts:
    rack.inject(cp, p)
print("pps=%.1f" % (packets / (time.perf_counter() - t0)))
"""


def _deploy():
    profiles = default_profiles()
    topology = topology_for("paper-testbed", smartnic=True).build()
    chains = chains_from_spec(SPEC, slos=[SLO_BOUNDS])
    placement = heuristic_place(chains, topology, profiles)
    assert placement.feasible, placement.infeasible_reason
    artifacts = MetaCompiler(
        topology=topology, profiles=profiles
    ).compile_placement(placement)
    rack = DeployedRack(topology, artifacts, profiles)
    return rack, placement


def _measure_seed_pps():
    """Per-packet throughput of the seed dataplane, or None if the seed
    commit cannot be materialised (no git, shallow clone, ...)."""
    with tempfile.TemporaryDirectory(prefix="seed-dataplane-") as tmp:
        tree = pathlib.Path(tmp) / "tree"
        try:
            subprocess.run(
                ["git", "-C", str(REPO_ROOT), "worktree", "add",
                 "--detach", str(tree), SEED_COMMIT],
                check=True, capture_output=True, timeout=120,
            )
            runner = pathlib.Path(tmp) / "runner.py"
            runner.write_text(_SEED_RUNNER.format(spec=SPEC))
            proc = subprocess.run(
                [sys.executable, str(runner), str(tree / "src"),
                 str(PACKETS), str(FLOWS), str(WARMUP)],
                check=True, capture_output=True, text=True, timeout=600,
            )
            for line in proc.stdout.splitlines():
                if line.startswith("pps="):
                    return float(line.split("=", 1)[1])
            return None
        except (subprocess.SubprocessError, OSError, ValueError):
            return None
        finally:
            subprocess.run(
                ["git", "-C", str(REPO_ROOT), "worktree", "remove",
                 "--force", str(tree)],
                capture_output=True, timeout=120,
            )


def _measure_serial_pps():
    rack, placement = _deploy()
    cp = placement.chains[0]
    for i in range(WARMUP):
        rack.run(cp, [_chain_packet(cp.chain, i % FLOWS)])
    pkts = [_chain_packet(cp.chain, i % FLOWS) for i in range(PACKETS)]
    t0 = time.perf_counter()
    for p in pkts:
        rack.run(cp, [p])
    return PACKETS / (time.perf_counter() - t0)


def _measure_batched():
    rack, placement = _deploy()
    engine = TrafficEngine(
        rack, placement, flows_per_chain=FLOWS, batch_size=BATCH
    )
    engine.run(packets_per_chain=WARMUP)
    report = engine.run(packets_per_chain=PACKETS)
    return report


def _measure_vectorized():
    rack, placement = _deploy()
    engine = TrafficEngine(
        rack, placement, flows_per_chain=FLOWS, batch_size=VEC_BATCH,
        vectorized=True,
    )
    engine.run(packets_per_chain=VEC_BATCH)
    report = engine.run(packets_per_chain=VEC_PACKETS)
    return report


def test_dataplane_throughput(benchmark):
    def run():
        seed_pps = _measure_seed_pps()
        serial_pps = _measure_serial_pps()
        report = _measure_batched()
        vec_report = _measure_vectorized()
        return seed_pps, serial_pps, report, vec_report

    seed_pps, serial_pps, report, vec_report = run_once(benchmark, run)
    batched_pps = report.achieved_pps
    chain = report.chains[0]
    vectorized_pps = vec_report.achieved_pps
    vec_chain = vec_report.chains[0]

    lines = [
        "dataplane throughput — Fig-2-style testbed (SmartNIC), "
        f"chain {SPEC.split(':')[0].split()[1]!r}: "
        f"{SPEC.split(':', 1)[1].strip()}",
        f"packets={PACKETS} flows={FLOWS} batch={BATCH}",
        "",
        f"{'path':24s} {'pps':>10s} {'vs seed':>9s} {'vs per-packet':>14s}",
    ]
    if seed_pps is not None:
        lines.append(
            f"{'seed per-packet':24s} {seed_pps:10.0f} {'1.00x':>9s} "
            f"{seed_pps / serial_pps:13.2f}x"
        )
    lines.append(
        f"{'per-packet (this tree)':24s} {serial_pps:10.0f} "
        + (f"{serial_pps / seed_pps:8.2f}x " if seed_pps is not None
           else f"{'n/a':>9s} ")
        + f"{'1.00x':>14s}"
    )
    lines.append(
        f"{'batched (this tree)':24s} {batched_pps:10.0f} "
        + (f"{batched_pps / seed_pps:8.2f}x " if seed_pps is not None
           else f"{'n/a':>9s} ")
        + f"{batched_pps / serial_pps:13.2f}x"
    )
    lines.append(
        f"{'vectorized (this tree)':24s} {vectorized_pps:10.0f} "
        + (f"{vectorized_pps / seed_pps:8.2f}x " if seed_pps is not None
           else f"{'n/a':>9s} ")
        + f"{vectorized_pps / serial_pps:13.2f}x"
    )
    lines += [
        "",
        f"vectorized tier: packets={VEC_PACKETS} batch={VEC_BATCH}, "
        f"{vectorized_pps / batched_pps:.2f}x the batched path",
        f"delivered {chain.delivered}/{chain.injected} "
        f"({100 * chain.delivered_fraction:.1f}%), "
        f"assigned rate {chain.assigned_mbps:.0f} Mbps",
    ]
    record_result("dataplane_throughput", "\n".join(lines))

    # every injected packet must come out the other end, on every tier
    assert chain.delivered == chain.injected
    assert vec_chain.delivered == vec_chain.injected == VEC_PACKETS

    # the batched path must beat the per-packet path outright
    assert batched_pps > 1.25 * serial_pps

    # reproduction target: the columnar tier is >= 10x the batched path
    # (same machine, same run), which puts it >= 10x the recorded 40.3k
    # pps baseline on the reference box
    assert vectorized_pps >= 10 * batched_pps

    # reproduction target: >= 5x the seed per-packet dataplane (only
    # checkable when the seed commit is reachable)
    if seed_pps is not None:
        assert batched_pps >= 5 * seed_pps
