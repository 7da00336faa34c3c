"""Lemur reproduction: SLO-meeting cross-platform NFV (CoNEXT 2020).

Quickstart::

    from repro import Placer, chains_from_spec, SLO, gbps

    chains = chains_from_spec(
        "chain c1: ACL -> Encrypt -> IPv4Fwd",
        slos=[SLO(t_min=gbps(1), t_max=gbps(10))],
    )
    report = Placer().solve(PlacementRequest(chains))
    print(report.placement.describe())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record.
"""

from repro.chain.graph import NFChain, NFGraph, chains_from_spec
from repro.chain.parser import parse_spec
from repro.chain.slo import SLO, SLOUseCase
from repro.chain.vocabulary import Vocabulary, default_vocabulary
from repro.core.placement import Placement
from repro.core.placer import (
    Placer,
    PlacerConfig,
    PlacementReport,
    PlacementRequest,
    available_strategies,
)
from repro.experiments.runner import SweepSpec, run_sweep
from repro.hw.multirack import InterRackLink, MultiRackTopology
from repro.hw.platform import Platform
from repro.hw.spec import (
    RackSpec,
    TopologySpec,
    available_topologies,
    topology_for,
)
from repro.hw.topology import Topology
from repro.metacompiler.compiler import CompiledArtifacts, MetaCompiler
from repro.profiles.defaults import ProfileDatabase, default_profiles
from repro.sim.testbed import TestbedSimulator
from repro.units import gbps, mbps, us

__version__ = "1.0.0"

__all__ = [
    "NFChain",
    "NFGraph",
    "chains_from_spec",
    "parse_spec",
    "SLO",
    "SLOUseCase",
    "Vocabulary",
    "default_vocabulary",
    "Placement",
    "Placer",
    "PlacerConfig",
    "PlacementRequest",
    "PlacementReport",
    "SweepSpec",
    "run_sweep",
    "available_strategies",
    "Platform",
    "Topology",
    "TopologySpec",
    "RackSpec",
    "InterRackLink",
    "MultiRackTopology",
    "available_topologies",
    "topology_for",
    "MetaCompiler",
    "CompiledArtifacts",
    "ProfileDatabase",
    "default_profiles",
    "TestbedSimulator",
    "gbps",
    "mbps",
    "us",
    "__version__",
]
