"""Command-line interface: ``python -m repro`` / ``lemur-repro``.

Subcommands mirror an operator's workflow:

* ``place``   — place a spec file's chains and print the placement;
* ``compile`` — place + meta-compile, dumping chosen artifacts;
* ``trace``   — run packets through the deployed rack and show NF trails;
* ``stats``   — trace a placement and dump the observability metrics:
  placer stage timings, codegen times, per-device packet/drop/cycle
  counters, and the per-hop latency breakdown;
* ``traffic`` — replay high-volume synthesized flows through the rack in
  batches and compare delivered rates against the LP's assignments;
* ``chaos``   — replay traffic under a seeded fault-injection timeline
  with the SLO guard reacting (graceful degradation, then auto-replan)
  and print the per-phase SLO compliance table;
* ``lifecycle`` — replay a chain arrival/scale/departure timeline with
  admission control, incremental placement, and delta redeploy; print
  per-event admission decisions and the per-phase SLO table;
* ``serve``   — run the always-on control-plane daemon: a live rack
  behind a typed HTTP command API (arrive/scale/depart/fault/snapshot)
  with a journal + checkpoint crash-recovery story;
* ``sweep``   — regenerate a Figure-2-style δ panel at the terminal;
* ``profile`` — print the Table 4 profiling statistics.

Exit codes are uniform across the report-producing subcommands:
0 — success, every SLO predicate held; 2 — the run completed but SLOs
were violated (or the placement was infeasible); 1 — usage or internal
error.

Example::

    python -m repro place examples/specs/pop.lemur --tmin 2 1 --tmax 40 40
    python -m repro compile examples/specs/pop.lemur --dump p4
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.chain.graph import chains_from_spec
from repro.chain.slo import SLO
from repro.core.placer import (
    Placer,
    PlacerConfig,
    PlacementRequest,
    available_strategies,
)
from repro.exceptions import ReproError, TopologyError
from repro.hw.multirack import MultiRackTopology
from repro.hw.spec import TopologySpec, topology_for
from repro.metacompiler.compiler import MetaCompiler
from repro.profiles.defaults import default_profiles
from repro.units import gbps


#: shared --help epilog: the uniform exit-code contract.
_EXIT_CODES = (
    "exit codes: 0 success (SLOs met); 2 SLO non-compliance or "
    "infeasible placement; 1 usage or internal error"
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Lemur reproduction: place and compile NF chains "
                    "across heterogeneous hardware.",
        epilog=_EXIT_CODES,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_topology_args(p):
        p.add_argument("--smartnic", action="store_true",
                       help="attach the 40G eBPF SmartNIC")
        p.add_argument("--openflow", action="store_true",
                       help="use an OpenFlow ToR instead of the PISA switch")
        p.add_argument("--servers", type=int, default=0,
                       help="use N eight-core servers (default: the "
                            "paper's one 2x8-core server)")
        p.add_argument("--metron", action="store_true",
                       help="enable Metron-style ToR core steering")
        p.add_argument("--racks", type=int, default=0, metavar="N",
                       help="replicate the flag-built rack into an N-rack "
                            "star fabric (satellites linked to r0 over "
                            "40G/50µs inter-rack links)")
        p.add_argument("--topology", default=None, metavar="FILE",
                       help="declarative TopologySpec JSON file "
                            "('-' for stdin); wins over every other "
                            "topology flag")
        p.add_argument("--preset", default=None, metavar="NAME",
                       help="named topology preset "
                            "(see repro.hw.spec.available_topologies(), "
                            "e.g. 'paper-testbed', 'two-rack')")

    def add_spec_args(p):
        p.add_argument("spec", help="chain spec file ('-' for stdin)")
        p.add_argument("--tmin", type=float, nargs="*", default=[],
                       help="per-chain minimum rate (Gbps)")
        p.add_argument("--tmax", type=float, nargs="*", default=[],
                       help="per-chain burst cap (Gbps)")
        p.add_argument("--dmax", type=float, nargs="*", default=[],
                       help="per-chain delay bound (µs)")
        p.add_argument("--strategy", default="lemur",
                       choices=available_strategies())
        p.add_argument("--fair", action="store_true",
                       help="split burst headroom max-min fairly instead "
                            "of maximizing aggregate marginal throughput")

    def add_latency_args(p):
        p.add_argument("--queueing", choices=("none", "mm1"),
                       default="none",
                       help="utilization-dependent queueing delay model "
                            "stamped on every forwarded packet "
                            "(default: none, fixed costs only)")
        p.add_argument("--objective",
                       choices=("throughput", "tail_latency"),
                       default="throughput",
                       help="placement objective: 'tail_latency' caps "
                            "per-device utilization so queueing delay "
                            "stays bounded and rejects chains whose "
                            "queueing-aware tail exceeds their d_max")
        p.add_argument("--latency-slo", type=float, default=0.0,
                       metavar="US",
                       help="p99 latency bound in µs applied to every "
                            "chain without an explicit --dmax entry "
                            "(0: unbounded)")

    place_cmd = sub.add_parser("place", help="place chains, print result")
    add_spec_args(place_cmd)
    add_topology_args(place_cmd)
    place_cmd.add_argument("--reserve", type=int, default=0,
                           help="hold back N cores per server for failover")

    compile_cmd = sub.add_parser("compile",
                                 help="place + generate platform code")
    add_spec_args(compile_cmd)
    add_topology_args(compile_cmd)
    compile_cmd.add_argument(
        "--dump", choices=["p4", "bess", "ebpf", "openflow", "paths", "none"],
        default="none", help="artifact family to print in full",
    )
    compile_cmd.add_argument(
        "--out", default=None, metavar="DIR",
        help="write all generated artifacts into DIR",
    )

    trace_cmd = sub.add_parser("trace",
                               help="execute packets through the rack")
    add_spec_args(trace_cmd)
    add_topology_args(trace_cmd)
    trace_cmd.add_argument("--packets", type=int, default=16)

    stats_cmd = sub.add_parser(
        "stats",
        help="trace a placement and report the full metrics surface",
    )
    add_spec_args(stats_cmd)
    add_topology_args(stats_cmd)
    add_latency_args(stats_cmd)
    stats_cmd.add_argument("--packets", type=int, default=32)
    stats_cmd.add_argument("--json", action="store_true",
                           help="emit one JSON document instead of text")

    traffic_cmd = sub.add_parser(
        "traffic",
        help="replay high-volume synthesized traffic through the rack",
        epilog=_EXIT_CODES,
    )
    add_spec_args(traffic_cmd)
    add_topology_args(traffic_cmd)
    add_latency_args(traffic_cmd)
    traffic_cmd.add_argument("--packets", type=int, default=2048,
                             help="packets injected per chain")
    traffic_cmd.add_argument("--flows", type=int, default=64,
                             help="distinct flows synthesized per chain")
    traffic_cmd.add_argument("--batch", type=int, default=64,
                             help="packets per injected batch (large ones "
                                  "run columnar, small scalar: same report)")
    traffic_cmd.add_argument("--seed", type=int, default=23,
                             help="rack drop-hash seed")
    traffic_cmd.add_argument("--json", action="store_true",
                             help="emit the report as one JSON document")
    traffic_cmd.add_argument("--out", default=None, metavar="FILE",
                             help="also write the report to FILE "
                                  "(.json suffix selects JSON)")

    chaos_cmd = sub.add_parser(
        "chaos",
        help="replay traffic under a fault timeline with the SLO guard "
             "(degrade, then auto-replan) and report per-phase compliance",
        epilog=_EXIT_CODES,
    )
    add_spec_args(chaos_cmd)
    add_topology_args(chaos_cmd)
    add_latency_args(chaos_cmd)
    chaos_cmd.add_argument("--packets", type=int, default=512,
                           help="packets injected per chain")
    chaos_cmd.add_argument("--flows", type=int, default=32,
                           help="distinct flows synthesized per chain")
    chaos_cmd.add_argument("--batch", type=int, default=32,
                           help="packets per injected batch")
    chaos_cmd.add_argument("--timeline", default=None, metavar="FILE",
                           help="JSON fault timeline ('-' for stdin)")
    chaos_cmd.add_argument("--fail", action="append", default=[],
                           metavar="DEV@PKT",
                           help="fail DEV at packet offset PKT (repeatable)")
    chaos_cmd.add_argument("--recover", action="append", default=[],
                           metavar="DEV@PKT",
                           help="recover DEV at packet offset PKT")
    chaos_cmd.add_argument("--degrade", action="append", default=[],
                           metavar="SRV@PKT:FRAC",
                           help="lose FRAC of SRV's link capacity at PKT")
    chaos_cmd.add_argument("--lose-cores", action="append", default=[],
                           metavar="SRV@PKT:N",
                           help="kill N of SRV's cores at packet offset PKT")
    chaos_cmd.add_argument("--window", type=int, default=128,
                           help="guard evaluation window (packets per chain)")
    chaos_cmd.add_argument("--threshold", type=float, default=1.0,
                           help="violation threshold as a fraction of t_min")
    chaos_cmd.add_argument("--latency-quantile", type=float, default=0.99,
                           help="windowed latency quantile the guard "
                                "checks against each chain's d_max "
                                "(0: disable tail-latency violations)")
    chaos_cmd.add_argument("--max-replans", type=int, default=3,
                           help="replan budget before the guard gives up")
    chaos_cmd.add_argument("--no-degrade-first", action="store_true",
                           help="skip graceful degradation, replan directly")
    chaos_cmd.add_argument("--seed", type=int, default=23,
                           help="chaos seed (drop hash + timeline)")
    chaos_cmd.add_argument("--jobs", type=int, default=1, metavar="N",
                           help="also run N-1 replica runs (on the worker "
                                "pool when N > 2) and require byte-identical "
                                "reports (determinism check)")
    chaos_cmd.add_argument("--json", action="store_true",
                           help="emit the report as one JSON document")
    chaos_cmd.add_argument("--out", default=None, metavar="FILE",
                           help="also write the report to FILE "
                                "(.json suffix selects JSON)")

    lifecycle_cmd = sub.add_parser(
        "lifecycle",
        help="replay a chain arrival/scale/departure timeline with "
             "admission control, incremental placement, and delta "
             "redeploy; report per-event decisions and per-phase SLOs",
        epilog=_EXIT_CODES,
    )
    add_spec_args(lifecycle_cmd)
    add_topology_args(lifecycle_cmd)
    add_latency_args(lifecycle_cmd)
    lifecycle_cmd.add_argument("--packets", type=int, default=256,
                               help="packets injected per chain per phase")
    lifecycle_cmd.add_argument("--flows", type=int, default=32,
                               help="distinct flows synthesized per chain")
    lifecycle_cmd.add_argument("--batch", type=int, default=32,
                               help="packets per injected batch")
    lifecycle_cmd.add_argument("--timeline", default=None, metavar="FILE",
                               help="JSON lifecycle timeline "
                                    "('-' for stdin)")
    lifecycle_cmd.add_argument("--arrive", action="append", default=[],
                               metavar="NAME@TICK:TMIN[:TMAX]=NFS",
                               help="admit chain NAME (body NFS, e.g. "
                                    "'ACL -> IPv4Fwd') at TICK with "
                                    "t_min TMIN Gbps (repeatable)")
    lifecycle_cmd.add_argument("--scale", action="append", default=[],
                               metavar="NAME@TICK:TMIN",
                               help="rescale NAME's t_min to TMIN Gbps "
                                    "at TICK")
    lifecycle_cmd.add_argument("--depart", action="append", default=[],
                               metavar="NAME@TICK",
                               help="retire chain NAME at TICK")
    lifecycle_cmd.add_argument("--random", type=int, default=0, metavar="N",
                               help="append N seeded random events")
    lifecycle_cmd.add_argument("--full-resolve", action="store_true",
                               help="re-solve every event from scratch "
                                    "instead of warm-starting from the "
                                    "running placement")
    lifecycle_cmd.add_argument("--seed", type=int, default=23,
                               help="lifecycle seed (timeline + rack)")
    lifecycle_cmd.add_argument("--jobs", type=int, default=1, metavar="N",
                               help="also run N-1 replica runs (on the "
                                    "worker pool when N > 2) and require "
                                    "byte-identical reports")
    lifecycle_cmd.add_argument("--json", action="store_true",
                               help="emit the report as one JSON document")
    lifecycle_cmd.add_argument("--out", default=None, metavar="FILE",
                               help="also write the report to FILE "
                                    "(.json suffix selects JSON)")

    serve_cmd = sub.add_parser(
        "serve",
        help="run the always-on control-plane daemon: typed HTTP command "
             "API over a live rack, with journal + checkpoint crash "
             "recovery (restart on the same --state-dir to recover)",
        epilog=_EXIT_CODES,
    )
    add_spec_args(serve_cmd)
    add_topology_args(serve_cmd)
    add_latency_args(serve_cmd)
    serve_cmd.add_argument("--state-dir", required=True, metavar="DIR",
                           help="journal/checkpoint directory; restarting "
                                "on a populated DIR crash-recovers the "
                                "rack before accepting commands")
    serve_cmd.add_argument("--host", default="127.0.0.1",
                           help="HTTP bind address")
    serve_cmd.add_argument("--port", type=int, default=0,
                           help="HTTP port (default: an ephemeral port, "
                                "printed in the ready line)")
    serve_cmd.add_argument("--packets", type=int, default=64,
                           help="packets injected per chain per applied "
                                "command (one deterministic phase each)")
    serve_cmd.add_argument("--flows", type=int, default=32,
                           help="distinct flows synthesized per chain")
    serve_cmd.add_argument("--batch", type=int, default=32,
                           help="packets per injected batch")
    serve_cmd.add_argument("--seed", type=int, default=23,
                           help="rack drop-hash seed")
    serve_cmd.add_argument("--checkpoint-every", type=int, default=8,
                           help="checkpoint the rack every N applied "
                                "commands (0: only at graceful shutdown)")
    serve_cmd.add_argument("--json", action="store_true",
                           help="emit the final report as JSON at exit")
    serve_cmd.add_argument("--out", default=None, metavar="FILE",
                           help="also write the final report to FILE "
                                "(.json suffix selects JSON)")

    sweep_cmd = sub.add_parser("sweep", help="run a Figure-2-style δ panel")
    sweep_cmd.add_argument("chains", type=int, nargs="+",
                           help="canonical chain indices, e.g. 1 2 3")
    sweep_cmd.add_argument("--deltas", type=float, nargs="*",
                           default=[0.5, 1.0, 1.5, 2.0])
    sweep_cmd.add_argument("--no-measure", action="store_true")
    sweep_cmd.add_argument("--jobs", type=int, default=1, metavar="N",
                           help="fan (scheme, δ) cells over N worker "
                                "processes (default: serial)")

    profile_cmd = sub.add_parser("profile",
                                 help="print Table 4 profiling statistics")
    profile_cmd.add_argument("--runs", type=int, default=500)
    return parser


def _topology_spec(args) -> TopologySpec:
    """The one topology a command names: ``--topology FILE``, else
    ``--preset NAME``, else the rack the legacy flags describe."""
    if args.topology and args.preset:
        raise TopologyError(
            "--topology and --preset both name a topology; pick one"
        )
    if args.topology:
        return TopologySpec.parse_json(_read_spec(args.topology))
    if args.preset:
        return topology_for(args.preset)
    return TopologySpec.from_flags(
        with_smartnic=args.smartnic,
        with_openflow=args.openflow,
        servers=args.servers,
        metron=args.metron,
        racks=args.racks,
    )


def _single_rack_topology(args, command: str):
    """The built topology, for subcommands that drive exactly one
    rack's compiled artifacts."""
    topology = _topology_spec(args).build()
    if isinstance(topology, MultiRackTopology):
        raise TopologyError(
            f"'{command}' drives one rack; use place/traffic/chaos/"
            "lifecycle/serve for a multi-rack fabric"
        )
    return topology


def _read_spec(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as handle:
        return handle.read()


def _slos(args, n_chains: int) -> List[SLO]:
    # --latency-slo is the blanket d_max; explicit --dmax entries win.
    default_d_max = getattr(args, "latency_slo", 0.0) or float("inf")
    slos = []
    for index in range(n_chains):
        t_min = gbps(args.tmin[index]) if index < len(args.tmin) else 0.0
        t_max = gbps(args.tmax[index]) if index < len(args.tmax) \
            else float("inf")
        d_max = args.dmax[index] if index < len(args.dmax) else default_d_max
        slos.append(SLO(t_min=t_min, t_max=t_max, d_max=d_max))
    return slos


def _load_chains(args):
    text = _read_spec(args.spec)
    chains = chains_from_spec(text)
    slos = _slos(args, len(chains))
    return [chain.with_slo(slo) for chain, slo in zip(chains, slos)]


def cmd_place(args) -> int:
    chains = _load_chains(args)
    topology = _topology_spec(args).build()
    config = PlacerConfig(
        strategy=args.strategy,
        rate_objective="max_min" if args.fair else "marginal",
    )
    if isinstance(topology, MultiRackTopology):
        from repro.core.hierarchy import MultiRackPlacer

        placer = MultiRackPlacer(
            fabric=topology, profiles=default_profiles(), config=config,
        )
        report = placer.solve(PlacementRequest.multi_rack(chains=chains))
        print(f"placed in {report.seconds * 1000:.1f} ms")
        print(report.placement.describe())
        return 0 if report.placement.feasible else 2
    placer = Placer(
        topology=topology, profiles=default_profiles(), config=config,
    )
    report = placer.solve(PlacementRequest(
        chains=chains, reserve_cores=args.reserve,
    ))
    print(f"placed in {report.seconds * 1000:.1f} ms")
    print(report.placement.describe())
    return 0 if report.placement.feasible else 2


def cmd_compile(args) -> int:
    chains = _load_chains(args)
    topology = _single_rack_topology(args, "compile")
    placer = Placer(
        topology=topology, profiles=default_profiles(),
        config=PlacerConfig(
            strategy=args.strategy,
            rate_objective="max_min" if args.fair else "marginal",
        ),
    )
    placement = placer.solve(PlacementRequest(chains=chains)).placement
    if not placement.feasible:
        print(f"infeasible: {placement.infeasible_reason}", file=sys.stderr)
        return 2
    meta = MetaCompiler(topology=topology, profiles=placer.profiles)
    artifacts = meta.compile_placement(placement)
    print(artifacts.stats.report())
    if getattr(args, "out", None):
        written = artifacts.write_to(args.out)
        print(f"wrote {len(written)} artifact file(s) under {args.out}")
    if args.dump == "p4" and artifacts.p4:
        print(artifacts.p4.program_text)
    elif args.dump == "bess":
        for server, script in artifacts.bess.items():
            print(f"# ==== {server} ====")
            print(script.render())
    elif args.dump == "ebpf":
        for nic, (program, _specs) in artifacts.ebpf.items():
            print(f"// ==== {nic} ({program.instructions} insns) ====")
            print(program.source)
    elif args.dump == "openflow":
        print(artifacts.openflow_text)
    elif args.dump == "paths":
        for path in artifacts.service_paths:
            hops = " | ".join(
                f"{h.device}[si={h.entry_si}]" for h in path.hops
            )
            print(f"spi={path.spi} ({path.chain_name}, "
                  f"{path.fraction:.0%}): {hops}")
    return 0


def cmd_trace(args) -> int:
    from repro.sim.runtime import DeployedRack

    chains = _load_chains(args)
    topology = _single_rack_topology(args, "trace")
    placer = Placer(topology=topology, profiles=default_profiles(),
                    config=PlacerConfig(strategy=args.strategy))
    placement = placer.solve(PlacementRequest(chains=chains)).placement
    if not placement.feasible:
        print(f"infeasible: {placement.infeasible_reason}", file=sys.stderr)
        return 2
    meta = MetaCompiler(topology=topology, profiles=placer.profiles)
    artifacts = meta.compile_placement(placement)
    rack = DeployedRack(topology, artifacts, placer.profiles)
    traces = rack.trace_chains(placement, packets_per_chain=args.packets)
    for name, trace in traces.items():
        print(f"{name}: {trace.delivered}/{trace.injected} delivered; "
              f"avg latency {trace.avg_latency_us:.2f} us; "
              f"trail: {' -> '.join(trace.nf_trail)}")
    return 0


def cmd_stats(args) -> int:
    import json

    from repro.obs import MetricsRegistry, render_text, set_registry
    from repro.sim.runtime import DeployedRack

    # a fresh registry so the report covers exactly this run
    registry = set_registry(MetricsRegistry())
    chains = _load_chains(args)
    topology = _single_rack_topology(args, "stats")
    placer = Placer(
        topology=topology, profiles=default_profiles(),
        config=PlacerConfig(
            strategy=args.strategy,
            rate_objective="max_min" if args.fair else "marginal",
        ),
    )
    report = placer.solve(PlacementRequest(
        chains=chains, objective=args.objective,
    ))
    placement, seconds = report.placement, report.seconds
    if not placement.feasible:
        print(f"infeasible: {placement.infeasible_reason}", file=sys.stderr)
        return 2
    meta = MetaCompiler(topology=topology, profiles=placer.profiles)
    artifacts = meta.compile_placement(placement)
    rack = DeployedRack(topology, artifacts, placer.profiles,
                        registry=registry)
    if args.queueing != "none":
        from repro.sim.traffic import configure_rack_queueing
        configure_rack_queueing(rack, placement.chains, placement.rates,
                                args.queueing)
    traces = rack.trace_chains(placement, packets_per_chain=args.packets)

    chain_reports = {
        name: {
            "injected": trace.injected,
            "delivered": trace.delivered,
            "dropped": trace.dropped,
            "avg_latency_us": trace.avg_latency_us,
            "latency_breakdown_us": trace.latency_breakdown,
            "hops": [
                {
                    "position": hop.position,
                    "device": hop.device,
                    "platform": hop.platform,
                    "packets": hop.packets,
                    "cycles": hop.cycles,
                    "avg_exec_us": hop.avg_exec_us,
                }
                for hop in trace.hops
            ],
        }
        for name, trace in traces.items()
    }
    if args.json:
        print(json.dumps({
            "placer_wall_clock_ms": seconds * 1000,
            "chains": chain_reports,
            "devices": rack.device_stats(),
            "metrics": registry.snapshot(),
        }, indent=2))
        return 0

    print(f"placer wall-clock: {seconds * 1000:.1f} ms")
    print()
    print("== chains ==")
    for name, report in chain_reports.items():
        breakdown = report["latency_breakdown_us"]
        print(f"{name}: {report['delivered']}/{report['injected']} "
              f"delivered, {report['dropped']} dropped; "
              f"avg latency {report['avg_latency_us']:.2f} us "
              f"(exec {breakdown.get('exec_us', 0.0):.2f} + "
              f"queue {breakdown.get('queue_us', 0.0):.2f} + "
              f"bounce {breakdown.get('bounce_us', 0.0):.2f} + "
              f"switch {breakdown.get('switch_us', 0.0):.2f})")
        for hop in report["hops"]:
            print(f"    hop {hop['position']}: {hop['device']} "
                  f"[{hop['platform']}] {hop['packets']} pkts, "
                  f"{hop['cycles']} cycles, "
                  f"avg exec {hop['avg_exec_us']:.3f} us")
    print()
    print("== devices ==")
    for device, stats in rack.device_stats().items():
        drops = stats.get("drops") or {}
        drop_text = (
            ", ".join(f"{k}={v:g}" for k, v in sorted(drops.items()))
            or "none"
        )
        print(f"{device} [{stats['platform']}]: "
              f"in={stats['packets_in']:g} out={stats['packets_out']:g} "
              f"cycles={stats['cycles']:g} drops: {drop_text}")
        for module, mstats in sorted(stats.get("modules", {}).items()):
            print(f"    {module}: rx={mstats['rx']} tx={mstats['tx']} "
                  f"dropped={mstats['dropped']} cycles={mstats['cycles']}")
    print()
    print("== metrics ==")
    print(render_text(registry))
    return 0


def cmd_traffic(args) -> int:
    from repro.cli_report import emit_report
    from repro.exceptions import PlacementError
    from repro.sim.traffic import TrafficSpec, run_traffic

    text = _read_spec(args.spec)
    n_chains = len(chains_from_spec(text))
    slos = tuple(
        (slo.t_min, slo.t_max, slo.d_max)
        for slo in _slos(args, n_chains)
    )
    spec = TrafficSpec(
        spec_text=text,
        slos=slos,
        topology=_topology_spec(args),
        packets_per_chain=args.packets,
        flows_per_chain=args.flows,
        batch_size=args.batch,
        seed=args.seed,
        strategy=args.strategy,
        queueing=args.queueing,
        objective=args.objective,
    )
    try:
        report = run_traffic(spec)
    except PlacementError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    return emit_report(report, out=args.out, as_json=args.json)


def _parse_event(value: str, action: str):
    """Decode the ``DEV@PKT`` CLI event shorthand (``DEV@PKT:SEVERITY``
    for the actions that carry one)."""
    from repro.exceptions import FaultInjectionError
    from repro.sim.faults import FaultEvent

    with_severity = action in ("degrade_link", "lose_cores")
    try:
        target, _, when = value.partition("@")
        offset, _, severity = (
            when.partition(":") if with_severity else (when, "", "1")
        )
        return FaultEvent(at_packet=int(offset), action=action,
                          target=target, severity=float(severity))
    except ValueError as exc:
        shape = "DEV@PKT:SEVERITY" if with_severity else "DEV@PKT"
        raise FaultInjectionError(
            f"--{action.replace('_', '-')} wants {shape}, got {value!r}: {exc}"
        ) from exc


def cmd_chaos(args) -> int:
    from repro.obs import MetricsRegistry, render_text, set_registry
    from repro.sim.faults import (
        ChaosSpec,
        FaultTimeline,
        GuardConfig,
        run_chaos_checked,
    )

    text = _read_spec(args.spec)
    n_chains = len(chains_from_spec(text))
    slos = tuple(
        (slo.t_min, slo.t_max, slo.d_max)
        for slo in _slos(args, n_chains)
    )
    events = []
    if args.timeline:
        events.extend(
            FaultTimeline.parse_json(_read_spec(args.timeline)).events
        )
    for action, values in (("fail", args.fail), ("recover", args.recover),
                           ("degrade_link", args.degrade),
                           ("lose_cores", args.lose_cores)):
        events.extend(_parse_event(value, action) for value in values)
    spec = ChaosSpec(
        spec_text=text,
        slos=slos,
        topology=_topology_spec(args),
        timeline=FaultTimeline(events=tuple(events), seed=args.seed),
        packets_per_chain=args.packets,
        flows_per_chain=args.flows,
        batch_size=args.batch,
        guard=GuardConfig(
            window_packets=args.window,
            threshold=args.threshold,
            degrade_first=not args.no_degrade_first,
            max_replans=args.max_replans,
            latency_quantile=args.latency_quantile,
        ),
        seed=args.seed,
        strategy=args.strategy,
        queueing=args.queueing,
        objective=args.objective,
    )
    # a fresh registry so the metrics section covers exactly this run
    registry = set_registry(MetricsRegistry())
    report = run_chaos_checked(spec, jobs=args.jobs, registry=registry)
    from repro.cli_report import emit_report

    return emit_report(
        report,
        out=args.out,
        as_json=args.json,
        sections=(("metrics", render_text(registry)),),
    )


def _parse_lifecycle_event(value: str, action: str):
    """Decode the ``NAME@TICK[...]`` lifecycle CLI shorthand.

    Shapes (rates in Gbps, converted to the engine's Mbps):
    ``--arrive NAME@TICK:TMIN[:TMAX]=NF -> NF``,
    ``--scale NAME@TICK:TMIN``, ``--depart NAME@TICK``.
    """
    from repro.exceptions import LifecycleError
    from repro.sim.lifecycle import ChainEvent

    shapes = {
        "arrive": "NAME@TICK:TMIN[:TMAX]=NFS",
        "scale": "NAME@TICK:TMIN",
        "depart": "NAME@TICK",
    }
    try:
        spec_body = ""
        if action == "arrive":
            value, _, spec_body = value.partition("=")
            if not spec_body.strip():
                raise ValueError("missing '=NFS' chain body")
        name, _, when = value.partition("@")
        t_min = 0.0
        t_max = float("inf")
        if action == "depart":
            tick = int(when)
        else:
            tick_text, _, rates = when.partition(":")
            tick = int(tick_text)
            t_min_text, _, t_max_text = rates.partition(":")
            t_min = gbps(float(t_min_text))
            if t_max_text:
                t_max = gbps(float(t_max_text))
        return ChainEvent(
            at=tick,
            action=action,
            chain=name,
            spec=f"chain {name}: {spec_body.strip()}" if spec_body else "",
            t_min_mbps=t_min,
            t_max_mbps=t_max,
        )
    except ValueError as exc:
        raise LifecycleError(
            f"--{action} wants {shapes[action]}, got {value!r}: {exc}"
        ) from exc


def cmd_lifecycle(args) -> int:
    from repro.cli_report import emit_report
    from repro.obs import MetricsRegistry, render_text, set_registry
    from repro.sim.lifecycle import (
        LifecycleSpec,
        LifecycleTimeline,
        run_lifecycle_checked,
    )

    text = _read_spec(args.spec)
    initial = chains_from_spec(text)
    slos = tuple(
        (slo.t_min, slo.t_max, slo.d_max)
        for slo in _slos(args, len(initial))
    )
    events = []
    if args.timeline:
        events.extend(
            LifecycleTimeline.parse_json(_read_spec(args.timeline)).events
        )
    events.extend(_parse_lifecycle_event(v, "arrive") for v in args.arrive)
    events.extend(_parse_lifecycle_event(v, "scale") for v in args.scale)
    events.extend(_parse_lifecycle_event(v, "depart") for v in args.depart)
    if args.random:
        events.extend(LifecycleTimeline.random(
            args.seed, args.random,
            base_names=[chain.name for chain in initial],
        ).events)
    spec = LifecycleSpec(
        spec_text=text,
        slos=slos,
        topology=_topology_spec(args),
        timeline=LifecycleTimeline(events=tuple(events), seed=args.seed),
        packets_per_phase=args.packets,
        flows_per_chain=args.flows,
        batch_size=args.batch,
        seed=args.seed,
        strategy=args.strategy,
        full_resolve=args.full_resolve,
        queueing=args.queueing,
        objective=args.objective,
    )
    # a fresh registry so the metrics section covers exactly this run
    registry = set_registry(MetricsRegistry())
    report = run_lifecycle_checked(spec, jobs=args.jobs, registry=registry)
    return emit_report(
        report,
        out=args.out,
        as_json=args.json,
        sections=(("metrics", render_text(registry)),),
    )


def cmd_serve(args) -> int:
    from repro.cli_report import emit_report
    from repro.serve import ServeConfig, run_server

    text = _read_spec(args.spec)
    n_chains = len(chains_from_spec(text))
    slos = tuple(
        (slo.t_min, slo.t_max, slo.d_max)
        for slo in _slos(args, n_chains)
    )
    config = ServeConfig(
        spec_text=text,
        slos=slos,
        topology=_topology_spec(args),
        packets_per_phase=args.packets,
        flows_per_chain=args.flows,
        batch_size=args.batch,
        seed=args.seed,
        strategy=args.strategy,
        checkpoint_every=args.checkpoint_every,
        queueing=args.queueing,
        objective=args.objective,
    )

    def ready(url: str) -> None:
        # the machine-parsable ready line the smoke harness waits for
        print(f"repro-serve listening on {url}", flush=True)

    report = run_server(
        config, args.state_dir,
        host=args.host, port=args.port, ready=ready,
    )
    return emit_report(report, out=args.out, as_json=args.json)


def cmd_sweep(args) -> int:
    from repro.experiments.runner import SweepSpec, run_sweep
    from repro.experiments.schemes import SCHEMES

    schemes = {k: v for k, v in SCHEMES.items() if k != "Optimal"}
    spec = SweepSpec(
        chain_indices=args.chains,
        deltas=tuple(args.deltas),
        schemes=schemes,
        measure=not args.no_measure,
        jobs=args.jobs,
    )
    print(run_sweep(spec).print_table())
    return 0


def cmd_profile(args) -> int:
    from repro.experiments.figures import table4_rows

    print("\n".join(table4_rows(runs=args.runs)))
    return 0


_COMMANDS = {
    "place": cmd_place,
    "compile": cmd_compile,
    "trace": cmd_trace,
    "stats": cmd_stats,
    "traffic": cmd_traffic,
    "chaos": cmd_chaos,
    "lifecycle": cmd_lifecycle,
    "serve": cmd_serve,
    "sweep": cmd_sweep,
    "profile": cmd_profile,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors; 2 is
        # reserved for SLO non-compliance, so usage errors map to 1.
        return 0 if not exc.code else 1
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 0  # output piped into a closed reader (e.g. `| head`)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
