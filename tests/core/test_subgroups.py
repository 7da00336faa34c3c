"""Subgroup formation and coalescing tests (§3.2)."""

import pytest

from repro.chain.graph import chains_from_spec
from repro.core.patterns import preferred_assignment
from repro.core.placement import NodeAssignment
from repro.core.subgroups import (
    coalesced_assignment,
    coalesced_cycles,
    evaluate_coalesce,
    find_coalesce_candidates,
    form_subgroups,
)
from repro.hw.platform import Platform
from repro.profiles.defaults import NSH_ENCAP_DECAP_CYCLES, default_profiles


@pytest.fixture()
def profiles():
    return default_profiles()


def assign_all_server(chain):
    return {
        nid: NodeAssignment(Platform.SERVER, "server0")
        for nid in chain.graph.nodes
    }


class TestFormation:
    def test_consecutive_server_nfs_fuse(self, profiles):
        chain = chains_from_spec("chain c: Dedup -> Monitor -> Limiter")[0]
        subgroups = form_subgroups(chain, assign_all_server(chain), profiles)
        assert len(subgroups) == 1
        assert len(subgroups[0].node_ids) == 3

    def test_switch_nf_splits_run(self, profiles):
        chain = chains_from_spec("chain c: Dedup -> ACL -> Monitor")[0]
        assignment = assign_all_server(chain)
        acl = next(n for n in chain.graph.nodes.values()
                   if n.nf_class == "ACL")
        assignment[acl.node_id] = NodeAssignment(Platform.PISA, "tofino0")
        subgroups = form_subgroups(chain, assignment, profiles)
        assert len(subgroups) == 2

    def test_cycles_include_nsh_overhead(self, profiles):
        chain = chains_from_spec("chain c: Monitor")[0]
        (sg,) = form_subgroups(chain, assign_all_server(chain), profiles)
        expected = NSH_ENCAP_DECAP_CYCLES + profiles.server_cycles("Monitor")
        assert sg.cycles == pytest.approx(expected)

    def test_branch_weighting(self, profiles):
        chain = chains_from_spec(
            "chain c: BPF -> [Encrypt, Monitor] -> Limiter"
        )[0]
        subgroups = form_subgroups(chain, assign_all_server(chain), profiles)
        enc = next(sg for sg in subgroups
                   if chain.graph.nodes[sg.node_ids[0]].nf_class == "Encrypt")
        expected = NSH_ENCAP_DECAP_CYCLES + 0.5 * profiles.server_cycles(
            "Encrypt")
        assert enc.cycles == pytest.approx(expected)

    def test_non_replicable_members(self, profiles):
        chain = chains_from_spec("chain c: Dedup -> Limiter")[0]
        (sg,) = form_subgroups(chain, assign_all_server(chain), profiles)
        assert not sg.replicable  # Limiter is bold in Table 3

    def test_branch_node_makes_non_replicable(self, profiles):
        chain = chains_from_spec("chain c: Monitor -> [Encrypt, Dedup]")[0]
        subgroups = form_subgroups(chain, assign_all_server(chain), profiles)
        monitor_sg = next(
            sg for sg in subgroups
            if chain.graph.nodes[sg.node_ids[0]].nf_class == "Monitor"
        )
        assert not monitor_sg.replicable

    def test_replicable_plain_run(self, profiles):
        chain = chains_from_spec("chain c: Dedup -> Monitor")[0]
        (sg,) = form_subgroups(chain, assign_all_server(chain), profiles)
        assert sg.replicable


class TestCoalescing:
    def _sandwich(self, profiles):
        """{Dedup} -> ACL(switch) -> {Monitor}."""
        chain = chains_from_spec("chain c: Dedup -> ACL -> Monitor")[0]
        assignment = assign_all_server(chain)
        acl = next(n for n in chain.graph.nodes.values()
                   if n.nf_class == "ACL")
        assignment[acl.node_id] = NodeAssignment(Platform.PISA, "tofino0")
        subgroups = form_subgroups(chain, assignment, profiles)
        return chain, assignment, subgroups

    def test_candidate_found(self, profiles):
        chain, assignment, subgroups = self._sandwich(profiles)
        candidates = find_coalesce_candidates(chain, assignment, subgroups)
        assert len(candidates) == 1
        assert chain.graph.nodes[candidates[0].switch_node].nf_class == "ACL"

    def test_no_candidate_without_sandwich(self, profiles):
        chain = chains_from_spec("chain c: ACL -> Dedup -> Monitor")[0]
        assignment = assign_all_server(chain)
        acl = next(n for n in chain.graph.nodes.values()
                   if n.nf_class == "ACL")
        assignment[acl.node_id] = NodeAssignment(Platform.PISA, "tofino0")
        subgroups = form_subgroups(chain, assignment, profiles)
        assert find_coalesce_candidates(chain, assignment, subgroups) == []

    def test_coalesced_cycles_save_one_nsh_boundary(self, profiles):
        chain, assignment, subgroups = self._sandwich(profiles)
        (candidate,) = find_coalesce_candidates(chain, assignment, subgroups)
        fused = coalesced_cycles(chain, candidate, subgroups, profiles)
        separate = sum(sg.cycles for sg in subgroups)
        moved = profiles.server_cycles("ACL")
        assert fused == pytest.approx(
            separate + moved - NSH_ENCAP_DECAP_CYCLES
        )

    def test_apply_coalesce_fuses(self, profiles):
        chain, assignment, subgroups = self._sandwich(profiles)
        (candidate,) = find_coalesce_candidates(chain, assignment, subgroups)
        new_assignment = coalesced_assignment(chain, candidate, assignment)
        new_subgroups = form_subgroups(chain, new_assignment, profiles)
        assert len(new_subgroups) == 1
        assert new_assignment[candidate.switch_node].platform is \
            Platform.SERVER

    def test_aggressive_rule_checks_tmin(self, profiles):
        from repro.chain.slo import SLO
        chain, assignment, subgroups = self._sandwich(profiles)
        (candidate,) = find_coalesce_candidates(chain, assignment, subgroups)
        ok = evaluate_coalesce(
            chain.with_slo(SLO(t_min=100.0)), candidate, subgroups, profiles,
            freq_hz=1.7e9, packet_bits=12000,
            rule="aggressive", current_bottleneck_mbps=500.0,
        )
        assert ok  # fused 1-core rate ~540 Mbps >= 100
        not_ok = evaluate_coalesce(
            chain.with_slo(SLO(t_min=5000.0)), candidate, subgroups, profiles,
            freq_hz=1.7e9, packet_bits=12000,
            rule="aggressive", current_bottleneck_mbps=500.0,
        )
        assert not not_ok

    def test_conservative_rule_checks_bottleneck(self, profiles):
        chain, assignment, subgroups = self._sandwich(profiles)
        (candidate,) = find_coalesce_candidates(chain, assignment, subgroups)
        assert evaluate_coalesce(
            chain, candidate, subgroups, profiles, 1.7e9, 12000,
            rule="conservative", current_bottleneck_mbps=400.0,
        )
        assert not evaluate_coalesce(
            chain, candidate, subgroups, profiles, 1.7e9, 12000,
            rule="conservative", current_bottleneck_mbps=2000.0,
        )

    def test_unknown_rule_raises(self, profiles):
        chain, assignment, subgroups = self._sandwich(profiles)
        (candidate,) = find_coalesce_candidates(chain, assignment, subgroups)
        with pytest.raises(ValueError):
            evaluate_coalesce(chain, candidate, subgroups, profiles,
                              1.7e9, 12000, rule="bogus",
                              current_bottleneck_mbps=0.0)
