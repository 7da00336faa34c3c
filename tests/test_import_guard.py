"""The LP solver is loaded by the first solve that needs it.

``scipy.optimize`` is 0.5 s and ~45 MiB of every process that imports
it. The rate LP's presolve answers every instance where nothing binds,
so the CLI, a cold place → compile → deploy → run, the test processes
and the bench runners never call the solver — and must not import it
either. A fresh interpreter, because this process has long loaded it.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

SCRIPT = textwrap.dedent("""
    import math
    import sys

    import repro.cli

    def loaded():
        return "scipy.optimize" in sys.modules

    assert not loaded(), "importing repro.cli loads scipy.optimize"

    from repro.chain.graph import chains_from_spec
    from repro.chain.slo import SLO
    from repro.core.lp import solve_rates
    from repro.core.placer import PlacementRequest, Placer
    from repro.hw.spec import topology_for
    from repro.metacompiler.compiler import MetaCompiler
    from repro.obs import get_registry
    from repro.profiles.defaults import default_profiles
    from repro.sim.runtime import DeployedRack
    from repro.sim.traffic import TrafficEngine

    # the benchmark's nic_fastpath chains, placed, compiled, deployed cold
    chains = chains_from_spec(
        "chain a: BPF -> FastEncrypt -> IPv4Fwd\\n"
        "chain b: ACL -> Encrypt -> IPv4Fwd\\n",
        slos=[SLO(t_min=1000.0, t_max=39000.0)] * 2,
    )
    topology = topology_for("paper-smartnic").build()
    profiles = default_profiles()
    placement = Placer(topology=topology, profiles=profiles).solve(
        PlacementRequest(chains=chains)
    ).placement
    assert placement.feasible, placement.infeasible_reason
    artifacts = MetaCompiler(
        topology=topology, profiles=profiles
    ).compile_placement(placement)
    rack = DeployedRack(topology, artifacts, profiles, seed=1)
    report = TrafficEngine(rack, placement).run(packets_per_chain=64)
    assert [row.delivered for row in report.chains] == [64, 64]

    registry = get_registry()
    solves = registry.counter_value("lp.solves", objective="marginal")
    assert solves > 0
    assert registry.counter_value(
        "lp.presolved", objective="marginal") == solves
    assert not loaded(), "a deploy where no LP row binds loaded the solver"

    # two chains that together want more than the NIC they share: binding
    for cp in placement.chains:
        cp.chain.slo = SLO(t_min=1000.0, t_max=math.inf)
        cp.estimated_rate = 39000.0
        cp.server_visits = {"server0": 1.0}
    solution = solve_rates(placement.chains, topology)
    assert solution.feasible
    assert registry.counter_value(
        "lp.presolved", objective="marginal") == solves
    assert loaded(), "a binding LP was answered without the solver"
    print("ok")
""")


def test_only_a_binding_lp_loads_the_solver():
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
