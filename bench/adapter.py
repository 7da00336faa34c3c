"""The only file of the benchmark that imports ``repro``.

End-to-end paths go through the stable front doors only
(``chains_from_spec``, ``topology_for``, ``Placer.solve``,
``MultiRackPlacer.solve``, ``MetaCompiler.compile_placement``,
``DeployedRack``, ``TrafficEngine``, ``run_lifecycle``,
``python -m repro serve``). Optional parameters the ROADMAP plans to
remove (``vectorized=``, ``pool=``) are feature-detected, and a per-layer
target that no longer exists raises :class:`Absent` with a reason, so a
later refactor shows up as an ``absent`` probe instead of a crashed run.
"""

from __future__ import annotations

import importlib
import inspect
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from common import SRC_DIR

if SRC_DIR.is_dir() and str(SRC_DIR) not in sys.path:
    sys.path.insert(0, str(SRC_DIR))

from repro.chain.graph import chains_from_spec  # noqa: E402
from repro.chain.slo import SLO  # noqa: E402
from repro.core.placer import Placer, PlacementRequest  # noqa: E402
from repro.hw.spec import topology_for  # noqa: E402
from repro.metacompiler.compiler import MetaCompiler  # noqa: E402
from repro.obs import MetricsRegistry  # noqa: E402
from repro.profiles.defaults import default_profiles  # noqa: E402
from repro.sim.runtime import DeployedRack  # noqa: E402
from repro.sim.traffic import TrafficEngine  # noqa: E402

#: float slack on "rate >= t_min", the repo's own SLO tolerance.
RATE_RTOL = 1e-6


class Absent(Exception):
    """A per-layer target the tree no longer has (reason in ``args[0]``)."""


def accepts(fn: Callable, name: str) -> bool:
    try:
        return name in inspect.signature(fn).parameters
    except (TypeError, ValueError):
        return False


def resolve(module: str, attr: str = ""):
    """``module[.attr[.attr]]`` or :class:`Absent`."""
    try:
        target = importlib.import_module(module)
    except ImportError as exc:
        raise Absent(f"module {module} is gone: {exc}") from exc
    for part in attr.split(".") if attr else ():
        if not hasattr(target, part):
            raise Absent(f"{module}.{attr} is gone")
        target = getattr(target, part)
    return target


def versions() -> Dict[str, str]:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


# ---------------------------------------------------------------------------
# spec -> placement -> artifacts -> rack
# ---------------------------------------------------------------------------


def parse_chains(spec_text: str, slos: Sequence[Tuple[float, ...]]):
    return chains_from_spec(spec_text, slos=[
        SLO(t_min=b[0], t_max=b[1],
            d_max=b[2] if len(b) > 2 else math.inf)
        for b in slos
    ])


@dataclass
class RackDeployment:
    name: str
    topology: object
    placement: object
    artifacts: object
    rack: DeployedRack


@dataclass
class Deployment:
    """One cold spec -> deployed rack(s) result, single- or multi-rack."""

    chains: list
    racks: List[RackDeployment]
    rates: Dict[str, float]
    #: chain -> rack name (one entry per chain; "r0" for a single rack).
    assignment: Dict[str, str] = field(default_factory=dict)

    @property
    def assigned_gbps(self) -> float:
        return sum(self.rates.values()) / 1000.0

    @property
    def admitted(self) -> int:
        """Chains whose LP rate covers their ``t_min``."""
        return sum(
            1 for chain in self.chains
            if self.rates.get(chain.name, 0.0)
            >= chain.slo.t_min * (1.0 - RATE_RTOL)
        )


def _deploy_rack(topology, placement, profiles, seed, registry):
    artifacts = MetaCompiler(
        topology=topology, profiles=profiles
    ).compile_placement(placement)
    kwargs = {"seed": seed}
    if registry is not None and accepts(DeployedRack.__init__, "registry"):
        kwargs["registry"] = registry
    return artifacts, DeployedRack(topology, artifacts, profiles, **kwargs)


def cold_deploy(spec_text: str, slos, preset: str, seed: int,
                registry: Optional[MetricsRegistry] = None) -> Deployment:
    """Spec text -> chains -> placement (no cache) -> code -> live rack(s),
    every object fresh. A multi-rack preset goes through the hierarchical
    placer and gets its inter-rack hops installed, as
    ``run_fabric_traffic`` does."""
    chains = parse_chains(spec_text, slos)
    topology = topology_for(preset).build()
    profiles = default_profiles()
    if hasattr(topology, "racks"):
        return _cold_deploy_fabric(chains, topology, profiles, seed, registry)
    placement = Placer(topology=topology, profiles=profiles).solve(
        PlacementRequest(chains=chains)
    ).placement
    if not placement.feasible:
        raise RuntimeError(
            f"benchmark input is infeasible: {placement.infeasible_reason}"
        )
    artifacts, rack = _deploy_rack(
        topology, placement, profiles, seed, registry
    )
    return Deployment(
        chains=chains,
        racks=[RackDeployment("r0", topology, placement, artifacts, rack)],
        rates=dict(placement.rates),
        assignment={chain.name: "r0" for chain in chains},
    )


def _cold_deploy_fabric(chains, fabric, profiles, seed, registry):
    from repro.core.hierarchy import MultiRackPlacer
    from repro.sim.interrack import install_fabric_hops, link_drop_fractions

    placement = MultiRackPlacer(fabric, profiles).solve(
        PlacementRequest.multi_rack(chains)
    ).placement
    if not placement.feasible:
        raise RuntimeError(
            f"benchmark input is infeasible: {placement.infeasible_reason}"
        )
    drops = link_drop_fractions(
        fabric, placement.remote, placement.rates, registry
    )
    racks = []
    for name in sorted(placement.reports):
        topology = fabric.rack(name)
        per_rack = placement.placement_for(name)
        artifacts, rack = _deploy_rack(
            topology, per_rack, profiles, seed, registry
        )
        install_fabric_hops(
            rack, [cp.name for cp in per_rack.chains],
            placement.remote, drops,
        )
        racks.append(
            RackDeployment(name, topology, per_rack, artifacts, rack)
        )
    return Deployment(
        chains=chains, racks=racks, rates=dict(placement.rates),
        assignment=dict(placement.partition.assignment),
    )


def placement_violations(deployment: Deployment) -> List[str]:
    """Placement invariants read from public fields: cores within each
    server, stages within the switch, every chain's rate >= ``t_min``."""
    problems: List[str] = []
    for dep in deployment.racks:
        used: Dict[str, int] = {}
        for cp in dep.placement.chains:
            for sg in cp.subgroups:
                used[sg.server] = used.get(sg.server, 0) + sg.cores
        for server in dep.topology.servers:
            if used.get(server.name, 0) > server.allocatable_cores:
                problems.append(
                    f"{dep.name}/{server.name}: {used[server.name]} cores "
                    f"placed on {server.allocatable_cores}"
                )
        p4 = getattr(dep.artifacts, "p4", None)
        stages = getattr(dep.topology.switch, "num_stages", None)
        if p4 is not None and stages is not None \
                and p4.compile_result.stage_count > stages:
            problems.append(
                f"{dep.name}: {p4.compile_result.stage_count} stages on a "
                f"{stages}-stage switch"
            )
    if deployment.admitted != len(deployment.chains):
        problems.append(
            f"{len(deployment.chains) - deployment.admitted} chains "
            "placed below t_min"
        )
    return problems


# ---------------------------------------------------------------------------
# traffic
# ---------------------------------------------------------------------------


def traffic_engine(dep: RackDeployment, flows: int, batch: int,
                   columnar: bool = True, **extra) -> TrafficEngine:
    kwargs = {"flows_per_chain": flows, "batch_size": batch, **extra}
    if accepts(TrafficEngine.__init__, "vectorized"):
        kwargs["vectorized"] = columnar
    return TrafficEngine(dep.rack, dep.placement, **kwargs)


def synthesize(engine: TrafficEngine) -> None:
    for cp in engine.placement.chains:
        engine.synthesize_flows(cp)


def traffic_rows(report) -> List[dict]:
    """(chain, injected, delivered, dropped, slo_met) per report row."""
    return [
        {
            "chain": row.chain_name,
            "injected": row.injected,
            "delivered": row.delivered,
            "dropped": row.dropped,
            "slo_met": bool(row.slo_met),
        }
        for row in report.chains
    ]


def flow_packets(engine: TrafficEngine, cp, count: int,
                 start: int = 0) -> list:
    """``count`` fresh clones cycling ``cp``'s flow set from packet
    ``start``, as the engine injects them."""
    flows = engine.synthesize_flows(cp)
    return [flows[(start + i) % len(flows)].copy() for i in range(count)]


def flow_columns(engine: TrafficEngine, cp, count: int, start: int = 0):
    from repro.sim.columns import PacketColumns

    flows = engine.synthesize_flows(cp)
    return PacketColumns.for_flows(
        flows, [(start + i) % len(flows) for i in range(count)]
    )


def packet_outcomes(outputs) -> List[Optional[float]]:
    """Per injected packet: its latency stamp, or ``None`` if dropped."""
    return [
        None if packet is None
        else packet.metadata.fields.get("latency_us")
        for packet in outputs
    ]


def device_conservation(rack: DeployedRack) -> List[str]:
    """Per device: packets in = packets out + drops."""
    problems = []
    for name, stats in rack.device_stats().items():
        dropped = sum(stats["drops"].values())
        if stats["packets_in"] != stats["packets_out"] + dropped:
            problems.append(
                f"{name}: in={stats['packets_in']:g} "
                f"out={stats['packets_out']:g} dropped={dropped:g}"
            )
    return problems


# ---------------------------------------------------------------------------
# lifecycle
# ---------------------------------------------------------------------------


def lifecycle_spec(spec_text: str, slos, preset: str, events: List[dict],
                   seed: int, packets: int, flows: int, batch: int):
    from repro.sim.admission import ChainEvent
    from repro.sim.lifecycle import LifecycleSpec, LifecycleTimeline

    timeline = LifecycleTimeline(
        events=tuple(
            ChainEvent(
                at=ev["at"], action=ev["action"], chain=ev["chain"],
                spec=ev.get("spec", ""),
                t_min_mbps=ev.get("t_min_mbps", 0.0),
                t_max_mbps=ev.get("t_max_mbps", math.inf),
                d_max_us=ev.get("d_max_us", math.inf),
            )
            for ev in events
        ),
        seed=seed,
    )
    return LifecycleSpec(
        spec_text=spec_text,
        slos=tuple(tuple(b) for b in slos),
        topology=topology_for(preset),
        timeline=timeline,
        packets_per_phase=packets,
        flows_per_chain=flows,
        batch_size=batch,
        seed=seed,
    )


def run_lifecycle(spec, registry: MetricsRegistry):
    from repro.sim.lifecycle import run_lifecycle as front_door

    return front_door(spec, registry=registry)


def phase_rows(report) -> List[dict]:
    """(chain, injected, delivered, slo_met) per (phase, chain) row of a
    lifecycle/serve-style report object."""
    return [
        {
            "chain": row.chain_name,
            "injected": row.injected,
            "delivered": row.delivered,
            "slo_met": bool(phase.slo_met(row)),
        }
        for phase in report.phases
        for row in phase.chains
    ]


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------


def serve_argv(spec_path: str, slos, preset: str, state_dir: str,
               packets: int, flows: int, batch: int,
               checkpoint_every: int, seed: int) -> Tuple[List[str], dict]:
    """``python -m repro serve`` with default flags apart from sizes."""
    gbps = [f"{b[0] / 1000.0:g}" for b in slos]
    caps = [f"{b[1] / 1000.0:g}" for b in slos]
    argv = [
        sys.executable, "-m", "repro", "serve", spec_path,
        "--preset", preset, "--tmin", *gbps, "--tmax", *caps,
        "--state-dir", state_dir, "--seed", str(seed),
        "--packets", str(packets), "--flows", str(flows),
        "--batch", str(batch), "--checkpoint-every", str(checkpoint_every),
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return argv, env


def serve_daemon(spec_text: str, slos, preset: str, state_dir: str,
                 packets: int, flows: int, batch: int,
                 checkpoint_every: int, seed: int,
                 registry: Optional[MetricsRegistry] = None):
    """An in-process daemon for the traced run; the rack stays in this
    process (``pool="per-run"`` where the parameter still exists) so its
    layers can be wrapped in spans."""
    from repro.serve.daemon import ServeConfig, ServeDaemon

    kwargs = dict(
        spec_text=spec_text,
        slos=tuple(tuple(b) for b in slos),
        topology=topology_for(preset),
        packets_per_phase=packets,
        flows_per_chain=flows,
        batch_size=batch,
        seed=seed,
        checkpoint_every=checkpoint_every,
    )
    if accepts(ServeConfig, "pool"):
        kwargs["pool"] = "per-run"
    return ServeDaemon(ServeConfig(**kwargs), state_dir, registry=registry)


def parse_command(payload: dict):
    from repro.serve.commands import parse_command as front_door

    return front_door(payload)


def shutdown_worker_pool() -> None:
    """Stop the process-wide worker pool if anything started it."""
    try:
        resolve("repro.runtime.pool", "shutdown_pool")()
    except Absent:
        pass


# ---------------------------------------------------------------------------
# per-layer probe entry points
# ---------------------------------------------------------------------------

#: the one-chain arrival the incremental-solve and redeploy probes add.
PROBE_ARRIVAL = ("chain probe0: Monitor -> IPv4Fwd\n", ((300.0, 2000.0),))


def incremental_request(dep: RackDeployment):
    """(placer, request) for one arrival on top of ``dep``'s placement."""
    chains = [cp.chain for cp in dep.placement.chains]
    chains += parse_chains(*PROBE_ARRIVAL)
    placer = Placer(topology=dep.topology, profiles=default_profiles())
    return placer, PlacementRequest(
        chains=chains, base_placement=dep.placement
    )


def compile_placement(dep: RackDeployment, placement):
    return MetaCompiler(
        topology=dep.topology, profiles=default_profiles()
    ).compile_placement(placement)


def fingerprint(dep: RackDeployment) -> str:
    fn = resolve("repro.core.cache", "placement_fingerprint")
    placer = Placer(topology=dep.topology)
    return fn(
        [cp.chain for cp in dep.placement.chains], dep.topology,
        default_profiles(), placer.config.strategy,
        placer.config.packet_bits,
    )


def fresh_packet(template):
    """A packet rebuilt from ``template``'s bytes: nothing parsed yet."""
    return resolve("repro.net.packet", "Packet")(template.data)


def disabled_registry() -> MetricsRegistry:
    if not accepts(MetricsRegistry.__init__, "enabled"):
        raise Absent("MetricsRegistry has no disabled mode any more")
    return MetricsRegistry(enabled=False)


def latency_sample_share(registry: MetricsRegistry) -> float:
    """Retained samples / observations of the ``rack.latency_us``
    histograms (the first-SAMPLE_CAP retention, see README), read from
    the public ``dump_state`` form."""
    seen = kept = 0
    for name, _labels, count, _total, _mn, _mx, samples in \
            registry.dump_state().get("histograms", ()):
        if name == "rack.latency_us":
            seen += count
            kept += len(samples)
    if not seen:
        raise Absent("no rack.latency_us observations were recorded")
    return kept / seen


def worker_pool(workers: int):
    return resolve("repro.runtime.pool", "get_pool")(workers)


def pool_noop(arg):
    """Module-level so the pool can pickle it by reference."""
    return arg


def shm_arrays():
    return resolve("repro.runtime.shm", "ShmArrays")


# ---------------------------------------------------------------------------
# span targets (layer = module name)
# ---------------------------------------------------------------------------


def _placer_span(args, kwargs) -> str:
    request = args[1] if len(args) > 1 else kwargs.get("request")
    warm = getattr(request, "base_placement", None) is not None
    return "core.placer.incremental" if warm else "core.placer.solve"


def _process_span(prefix: str):
    def name(args, kwargs) -> str:
        event = args[1] if len(args) > 1 else kwargs.get("event")
        return f"{prefix}.process.{getattr(event, 'action', 'unknown')}"
    return name


#: (layer, span name or namer, module, attribute). Module-level
#: functions are re-bound in every ``repro`` module that imported them by
#: name; methods are patched on their class. The one private target,
#: ``_fallback_block_columns``, separates the scalar walk from columnar
#: replay inside ``run_columns`` — without it table2_stateful's time
#: would all read as ``sim.columns``.
SPAN_TARGETS = [
    ("chain", "chain.parse", "repro.chain.graph", "chains_from_spec"),
    ("core.placer", _placer_span, "repro.core.placer", "Placer.solve"),
    ("core.lp", "core.lp.solve", "repro.core.lp", "solve_rates"),
    ("core.lp", "core.lp.solve", "repro.core.lp", "solve_rates_max_min"),
    ("core.cache", "core.cache.fingerprint", "repro.core.cache",
     "placement_fingerprint"),
    ("core.partition", "core.partition.partition", "repro.core.partition",
     "partition_chains"),
    ("core.hierarchy", "core.hierarchy.solve", "repro.core.hierarchy",
     "MultiRackPlacer.solve"),
    ("p4c", "p4c.compile", "repro.p4c.compiler", "PISACompiler.compile"),
    ("p4c", "p4c.compile", "repro.p4c.compiler", "ContextCompiler.compile"),
    ("metacompiler", "metacompiler.compile",
     "repro.metacompiler.compiler", "MetaCompiler.compile_placement"),
    ("sim.runtime", "sim.runtime.deploy", "repro.sim.runtime",
     "DeployedRack.__init__"),
    ("sim.runtime", "sim.runtime.redeploy", "repro.sim.runtime",
     "DeployedRack.redeploy"),
    ("sim.runtime", "sim.runtime.reset", "repro.sim.runtime",
     "DeployedRack.reset_state"),
    ("sim.runtime", "sim.runtime.run", "repro.sim.runtime",
     "DeployedRack.run"),
    ("sim.runtime", "sim.runtime.fallback", "repro.sim.runtime",
     "DeployedRack._fallback_block_columns"),
    ("sim.columns", "sim.columns.run", "repro.sim.runtime",
     "DeployedRack.run_columns"),
    ("sim.columns", "sim.columns.build", "repro.sim.columns",
     "PacketColumns.for_flows"),
    ("sim.traffic", "sim.traffic.run", "repro.sim.traffic",
     "TrafficEngine.run"),
    ("sim.traffic", "sim.traffic.replay", "repro.sim.traffic",
     "TrafficEngine.replay_batch"),
    ("sim.traffic", "sim.traffic.synthesize", "repro.sim.traffic",
     "TrafficEngine.synthesize_flows"),
    ("sim.admission", "sim.admission.bootstrap", "repro.sim.admission",
     "AdmissionCore.bootstrap"),
    ("sim.admission", _process_span("sim.admission"),
     "repro.sim.admission", "AdmissionCore.process"),
    ("sim.admission", "sim.admission.run_phase", "repro.sim.admission",
     "AdmissionCore.run_phase"),
    ("sim.admission", "sim.admission.digest", "repro.sim.admission",
     "AdmissionCore.state_digest"),
    ("sim.interrack", "sim.interrack.bootstrap", "repro.sim.interrack",
     "FabricAdmissionCore.bootstrap"),
    ("sim.interrack", _process_span("sim.interrack"),
     "repro.sim.interrack", "FabricAdmissionCore.process"),
    ("sim.interrack", "sim.interrack.run_phase", "repro.sim.interrack",
     "FabricAdmissionCore.run_phase"),
    ("sim.interrack", "sim.interrack.digest", "repro.sim.interrack",
     "FabricAdmissionCore.state_digest"),
    ("serve.journal", "serve.journal.append", "repro.serve.journal",
     "Journal.append"),
    ("serve.journal", "serve.journal.replay", "repro.serve.journal",
     "Journal.replay"),
    ("serve.checkpoint", "serve.checkpoint.save", "repro.serve.journal",
     "CheckpointStore.save"),
    ("serve.checkpoint", "serve.checkpoint.load", "repro.serve.journal",
     "CheckpointStore.load"),
]


def patchable_modules() -> List[object]:
    """Every module that may hold a by-name reference to a ``repro``
    function: the package's own modules and this adapter."""
    return [sys.modules[__name__]] + [
        module for name, module in list(sys.modules.items())
        if module is not None
        and (name == "repro" or name.startswith("repro."))
    ]
