"""The heuristic decides exactly as it did before it memoized analyses.

One ``heuristic_place`` call used to form subgroups and analyze a chain
for every candidate it scored, even for the (chain, assignment) pairs an
earlier step had analyzed already. Now one ``ChainAnalyses`` per call
computes each pair once and the steps that change cores take copies.
The oracle is the same heuristic with that memo's accessor patched to
recompute the analysis on every call, as the old code did.
For random chain sets (branchy Table-2 bodies, small bodies), racks
(one server, several servers to rebalance over, a SmartNIC) and SLOs
(with and without ``d_max``, which adds the min-bounce candidate), both
must give the same placement text, rates, stage count, cores, derived
per-chain quantities and reason.
"""

import math
from collections import Counter
from unittest import mock

from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.chain.graph import chains_from_spec
from repro.chain.slo import SLO
from repro.core import pipeline
from repro.core.heuristic import heuristic_place
from repro.core.pipeline import ChainAnalyses
from repro.core.rates import analyze_chain
from repro.core.subgroups import form_subgroups
from repro.experiments.chains import canonical_chain
from repro.hw.spec import topology_for
from repro.profiles.defaults import default_profiles

PROFILES = default_profiles()


def recomputed(self, index, assignment):
    """What every analysis request cost before the memo."""
    chain = self.chains[index]
    subgroups = form_subgroups(chain, assignment, self.profiles)
    return analyze_chain(chain, assignment, subgroups, self.topology,
                         self.profiles, self.packet_bits)


def facts(placement):
    """Everything a placement decides, as plain values."""
    return {
        "describe": placement.describe(),
        "feasible": placement.feasible,
        "reason": placement.infeasible_reason,
        "rates": placement.rates,
        "objective": placement.objective_mbps,
        "stages": placement.switch_stages_used,
        "chains": [
            (cp.name, list(cp.assignment.items()),
             [(sg.sg_id, sg.server, sg.node_ids, sg.cycles, sg.replicable,
               sg.cores) for sg in cp.subgroups],
             cp.nic_caps, cp.server_visits, cp.bounces, cp.latency_us,
             cp.estimated_rate)
            for cp in placement.chains
        ],
    }


# -- inputs --------------------------------------------------------------------

SMALL_NFS = ("ACL", "BPF", "Encrypt", "FastEncrypt", "Monitor", "NAT", "LB",
             "Tunnel", "Dedup")


@st.composite
def small_bodies(draw):
    nfs = st.sampled_from(SMALL_NFS)
    head = draw(st.lists(nfs, min_size=1, max_size=4))
    if draw(st.booleans()):
        arms = draw(st.lists(nfs, min_size=2, max_size=3))
        head.append(f"[{', '.join(arms)}]")
    return " -> ".join([*head, "IPv4Fwd"])


@st.composite
def solves(draw):
    """A rack and 1–4 chains: Table-2 chains (each at most once) and
    small ones, with random SLOs, some of them carrying ``d_max``."""
    preset = draw(st.sampled_from(
        ["paper-testbed", "multi-server", "paper-smartnic"]))
    table2 = iter(draw(st.permutations([1, 2, 3, 4, 5])))
    chains = []
    for index in range(draw(st.integers(1, 4))):
        canonical = next(table2) if draw(st.booleans()) else None
        if canonical is not None:
            chain = canonical_chain(canonical)
        else:
            (chain,) = chains_from_spec(
                f"chain s{index}: {draw(small_bodies())}")
        t_min = draw(st.sampled_from([100.0, 500.0, 1500.0, 4000.0]))
        d_max = draw(st.sampled_from([math.inf, math.inf, 60.0, 150.0]))
        chains.append(chain.with_slo(SLO(t_min=t_min, t_max=100000.0,
                                         d_max=d_max)))
    return preset, chains


# -- the property --------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(solve=solves())
def test_memoized_heuristic_equals_recomputing_heuristic(solve):
    preset, chains = solve
    keys = Counter()
    real = pipeline.analyze_chain

    def counted(chain, assignment, *args, **kwargs):
        keys[(chain.name, tuple(assignment.items()))] += 1
        return real(chain, assignment, *args, **kwargs)

    with mock.patch.object(pipeline, "analyze_chain", counted):
        got = heuristic_place(chains, topology_for(preset).build(), PROFILES)
    with mock.patch.object(ChainAnalyses, "shared", recomputed):
        want = heuristic_place(chains, topology_for(preset).build(),
                               PROFILES)
    event(f"{preset}, feasible={got.feasible}")
    assert facts(got) == facts(want)
    assert max(keys.values()) == 1


def test_a_cold_table2_solve_analyzes_each_pair_once():
    """The four Table-2 chains of the paper's testbed: 8 distinct
    (chain, assignment) pairs, each formed and analyzed once (26 analyses
    and 32 subgroup formations before the memo)."""
    chains = [canonical_chain(index) for index in (1, 2, 3, 4)]
    calls = Counter()
    real_analyze, real_form = pipeline.analyze_chain, pipeline.form_subgroups

    def analyze(*args, **kwargs):
        calls["analyze_chain"] += 1
        return real_analyze(*args, **kwargs)

    def form(*args, **kwargs):
        calls["form_subgroups"] += 1
        return real_form(*args, **kwargs)

    with mock.patch.object(pipeline, "analyze_chain", analyze), \
            mock.patch.object(pipeline, "form_subgroups", form):
        placement = heuristic_place(
            chains, topology_for("paper-testbed").build(), PROFILES)
    assert placement.feasible
    assert calls == {"analyze_chain": 8, "form_subgroups": 8}


def test_a_placement_owns_its_subgroups():
    """Core allocation changes the cores of the copies it is handed,
    never of the memo's shared analysis."""
    (chain,) = chains_from_spec("chain c: ACL -> Encrypt -> IPv4Fwd")
    chain = chain.with_slo(SLO(t_min=1000.0, t_max=100000.0))
    topology = topology_for("paper-testbed").build()
    analyses = ChainAnalyses([chain], topology, PROFILES)
    assignment = heuristic_place([chain], topology, PROFILES).chains[0] \
        .assignment
    placement = pipeline.build_placement(
        [chain], [assignment], topology, PROFILES, analyses=analyses)
    shared = analyses.shared(0, dict(assignment))
    assert sum(sg.cores for sg in placement.chains[0].subgroups) > 1
    assert [sg.cores for sg in shared.subgroups] == [1] * len(shared.subgroups)
    assert not {id(sg) for sg in shared.subgroups} & {
        id(sg) for sg in placement.chains[0].subgroups}
