"""Experiment harness tests: canonical chains, δ sweeps, figure helpers."""

import pytest

from repro.experiments.chains import (
    base_rate_mbps,
    canonical_chain,
    canonical_chains,
    chains_with_delta,
    nat_stress_chain,
)
from repro.experiments.runner import SweepSpec, run_sweep
from repro.experiments.schemes import SCHEMES, run_scheme, scheme_names
from repro.exceptions import SpecError
from repro.hw.spec import topology_for
from repro.profiles.defaults import default_profiles
from repro.units import gbps


@pytest.fixture()
def profiles():
    return default_profiles()


class TestCanonicalChains:
    def test_all_five_build(self):
        for index in range(1, 6):
            chain = canonical_chain(index)
            assert len(chain.graph) > 0

    def test_table2_composition(self):
        c2 = canonical_chain(2)
        assert sorted(set(c2.graph.nf_multiset())) == \
            ["Encrypt", "IPv4Fwd", "LB", "NAT"]
        assert c2.graph.nf_multiset().count("NAT") == 3

        c3 = canonical_chain(3)
        assert c3.graph.nf_multiset() == \
            ["Dedup", "ACL", "Limiter", "LB", "IPv4Fwd"]

        c4 = canonical_chain(4)
        multiset = c4.graph.nf_multiset()
        assert multiset.count("LB") == 3 and multiset.count("Limiter") == 3

        c5 = canonical_chain(5)
        assert c5.graph.nf_multiset() == \
            ["ACL", "UrlFilter", "FastEncrypt", "IPv4Fwd"]

    def test_chain1_branches_three_ways(self):
        c1 = canonical_chain(1)
        (entry,) = c1.graph.entry_nodes()
        assert len(c1.graph.successors(entry)) == 3

    def test_unknown_index_rejected(self):
        with pytest.raises(SpecError):
            canonical_chain(9)

    def test_nat_stress_chain(self):
        chain = nat_stress_chain(11)
        assert chain.graph.nf_multiset().count("NAT") == 11


class TestBaseRates:
    def test_base_rate_is_slowest_software_nf(self, profiles):
        c3 = canonical_chain(3)
        base = base_rate_mbps(c3, profiles)
        dedup_rate = 1.7e9 / profiles.server_cycles("Dedup") * 12000 / 1e6
        assert base == pytest.approx(dedup_rate)

    def test_hardware_only_nfs_ignored(self, profiles):
        # IPv4Fwd (P4-only) must not contribute
        c2 = canonical_chain(2)
        base = base_rate_mbps(c2, profiles)
        encrypt_rate = 1.7e9 / profiles.server_cycles("Encrypt") * 12000 / 1e6
        assert base == pytest.approx(encrypt_rate)

    def test_delta_scales_tmin(self, profiles):
        chains = chains_with_delta([3], delta=2.0, profiles=profiles)
        base = base_rate_mbps(canonical_chain(3), profiles)
        assert chains[0].slo.t_min == pytest.approx(2.0 * base)
        assert chains[0].slo.t_max == pytest.approx(gbps(100))


class TestRunner:
    def test_mini_sweep_structure(self, profiles):
        schemes = {k: v for k, v in SCHEMES.items()
                   if k in ("Lemur", "SW Preferred")}
        sweep = run_sweep(SweepSpec(
            [2, 3], deltas=(0.5, 1.5), schemes=schemes, profiles=profiles,
            measure=False,
        ))
        assert len(sweep.results) == 4
        lemur = sweep.for_scheme("Lemur")
        assert all(r.feasible for r in lemur)
        assert sweep.feasibility_fraction("Lemur") == 1.0

    def test_measured_mode_populates(self, profiles):
        schemes = {"Lemur": SCHEMES["Lemur"]}
        sweep = run_sweep(SweepSpec(
            [2], deltas=(0.5,), schemes=schemes, profiles=profiles,
            measure=True,
        ))
        (cell,) = sweep.results
        assert cell.measured_mbps > 0
        assert cell.measured_mbps == pytest.approx(cell.predicted_mbps,
                                                   rel=0.15)

    def test_marginal_lead_metric(self, profiles):
        schemes = {k: v for k, v in SCHEMES.items()
                   if k in ("Lemur", "SW Preferred")}
        sweep = run_sweep(SweepSpec(
            [2, 3], deltas=(0.5,), schemes=schemes, profiles=profiles,
            measure=False,
        ))
        assert sweep.max_marginal_lead_mbps("Lemur") > 0

    def test_table_rendering(self, profiles):
        schemes = {"Lemur": SCHEMES["Lemur"]}
        sweep = run_sweep(SweepSpec(
            [2], deltas=(0.5,), schemes=schemes, profiles=profiles,
            measure=False,
        ))
        text = sweep.print_table()
        assert "Lemur" in text and "δ=0.5" in text


class TestSchemeRegistry:
    def test_six_schemes(self):
        assert scheme_names() == [
            "Lemur", "Optimal", "HW Preferred", "SW Preferred",
            "Min Bounce", "Greedy",
        ]

    def test_run_scheme_by_name(self, profiles):
        chains = chains_with_delta([2], delta=0.5, profiles=profiles)
        placement = run_scheme("Lemur", chains, topology_for("paper-testbed").build(), profiles)
        assert placement.feasible

    def test_ablations_accessible(self, profiles):
        chains = chains_with_delta([2], delta=0.5, profiles=profiles)
        placement = run_scheme("No Core Alloc", chains, topology_for("paper-testbed").build(),
                               profiles)
        assert placement is not None

    def test_unknown_scheme(self, profiles):
        with pytest.raises(KeyError):
            run_scheme("Magic", [], topology_for("paper-testbed").build(), profiles)
