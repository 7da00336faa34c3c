"""E14: §5.3 — meta-compiler benefit: auto-generated lines of code.

"For NF chains {1, 2, 3, 4} more than a third of the total code (about
820 out of 1700 lines) is auto-generated, with most of the auto-generated
code (600 lines) providing packet steering."

Reproduction targets: auto fraction > 1/3 with steering the majority of
generated code, at a total magnitude comparable to the paper's (~1-2k
lines for the four canonical chains).
"""

from conftest import record_result, run_once

from repro.core.heuristic import heuristic_place
from repro.experiments.chains import chains_with_delta
from repro.hw.spec import topology_for
from repro.metacompiler.compiler import MetaCompiler


def test_codegen_loc(benchmark, profiles):
    chains = chains_with_delta([1, 2, 3, 4], delta=0.5, profiles=profiles)
    topology = topology_for("paper-testbed").build()
    placement = heuristic_place(chains, topology, profiles)
    assert placement.feasible
    meta = MetaCompiler(topology=topology, profiles=profiles)

    artifacts = run_once(benchmark,
                         lambda: meta.compile_placement(placement))
    stats = artifacts.stats
    record_result("codegen_loc", stats.report())

    assert stats.auto_fraction > 1 / 3
    assert stats.steering_fraction_of_auto > 0.5
    assert 800 <= stats.total_lines <= 3000
    assert stats.per_platform.get("p4", 0) > \
        stats.per_platform.get("bess", 0)  # P4 codegen dominates (§5.1)

    # Pinned at the values measured before the manual-NF line count moved
    # to a per-class memo (ISSUE 13): memoizing must not move a number.
    # They change only with the NF module sources or the generators.
    assert stats.manual_nf_lines == 654
    assert stats.auto_nf_glue_lines == 417
    assert stats.auto_steering_lines == 459
    assert stats.per_platform == {"p4": 823, "bess": 96}
    assert meta.compile_placement(placement).stats == stats
