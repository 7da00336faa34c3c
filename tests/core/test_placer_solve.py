"""Placer.solve(PlacementRequest) and the deprecated wrapper delegation."""

import pytest

from repro.core.placer import (
    Placer,
    PlacementReport,
    PlacementRequest,
    PlacerConfig,
)
from repro.exceptions import PlacementError
from repro.hw.spec import topology_for


class TestSolve:
    def test_solve_returns_report(self, simple_chains):
        report = Placer().solve(PlacementRequest(chains=simple_chains))
        assert isinstance(report, PlacementReport)
        assert report.placement.feasible
        assert report.strategy == "lemur"
        assert report.seconds > 0

    def test_solve_strategy_override(self, simple_chains):
        report = Placer().solve(
            PlacementRequest(chains=simple_chains, strategy="greedy")
        )
        assert report.strategy == "greedy"
        assert report.placement.strategy == "greedy"

    def test_solve_unknown_strategy(self, simple_chains):
        with pytest.raises(PlacementError):
            Placer().solve(
                PlacementRequest(chains=simple_chains, strategy="quantum")
            )

    def test_solve_with_failed_devices_restores(self, simple_chains):
        placer = Placer(topology=topology_for("paper-smartnic").build())
        report = placer.solve(PlacementRequest(
            chains=simple_chains, failed_devices=("agilio0",),
        ))
        assert report.placement.feasible
        assert "agilio0" not in placer.topology.failed_devices

    def test_solve_preexisting_failure_stays(self, simple_chains):
        placer = Placer(topology=topology_for("paper-smartnic").build())
        placer.topology.mark_failed("agilio0")
        placer.solve(PlacementRequest(
            chains=simple_chains, failed_devices=("agilio0",),
        ))
        assert "agilio0" in placer.topology.failed_devices

    def test_solve_with_reserve_restores(self, simple_chains):
        placer = Placer()
        before = [s.reserved_cores for s in placer.topology.servers]
        report = placer.solve(PlacementRequest(
            chains=simple_chains, reserve_cores=2,
        ))
        assert report.placement is not None
        assert [s.reserved_cores for s in placer.topology.servers] == before

    def test_solve_negative_reserve_rejected(self, simple_chains):
        with pytest.raises(PlacementError):
            Placer().solve(PlacementRequest(
                chains=simple_chains, reserve_cores=-1,
            ))

    def test_solve_excessive_reserve_rejected_and_restored(
            self, simple_chains):
        placer = Placer()
        before = [s.reserved_cores for s in placer.topology.servers]
        with pytest.raises(PlacementError):
            placer.solve(PlacementRequest(
                chains=simple_chains, reserve_cores=100,
            ))
        assert [s.reserved_cores for s in placer.topology.servers] == before


def _answer(report):
    """What a solve decided, as the tests compare it: the rendered
    placement, the LP rates and the switch stages it uses."""
    placement = report.placement
    return (placement.describe(), placement.rates,
            placement.switch_stages_used)


class TestSolveDeterminism:
    """A repeated solve is the same answer, every scenario knob is part
    of the answer, and a request's knobs end with its solve."""

    def test_repeat_solve_is_identical(self, simple_chains):
        placer = Placer()
        first = placer.solve(PlacementRequest(chains=simple_chains))
        second = placer.solve(PlacementRequest(chains=simple_chains))
        assert second.placement is not first.placement
        assert _answer(second) == _answer(first)
        warm = [
            placer.solve(PlacementRequest(
                chains=simple_chains, base_placement=first.placement,
            ))
            for _ in range(2)
        ]
        assert _answer(warm[1]) == _answer(warm[0])

    def test_request_knobs_change_only_their_own_solve(self, simple_chains):
        placer = Placer(topology=topology_for("multi-server").build())
        plain = _answer(placer.solve(PlacementRequest(chains=simple_chains)))
        failed = _answer(placer.solve(PlacementRequest(
            chains=simple_chains, failed_devices=("server0",),
        )))
        reserved = _answer(placer.solve(PlacementRequest(
            chains=simple_chains, reserve_cores=2,
        )))
        assert len({plain[0], failed[0], reserved[0]}) == 3
        # a request's knobs are rolled back after its solve
        assert _answer(placer.solve(
            PlacementRequest(chains=simple_chains))) == plain

    def test_rate_objective_changes_the_rates(self):
        """Two chains behind one 40 G NIC: the marginal objective gives
        the headroom to one chain, max-min splits it."""
        from repro.chain.graph import chains_from_spec
        from repro.chain.slo import SLO
        from repro.units import gbps

        chains = chains_from_spec(
            "chain fat: ACL -> Monitor -> IPv4Fwd\n"
            "chain thin: BPF -> Monitor -> IPv4Fwd",
            slos=[SLO(t_min=gbps(2), t_max=gbps(100)),
                  SLO(t_min=gbps(1), t_max=gbps(100))],
        )
        answers = [
            _answer(Placer(config=PlacerConfig(rate_objective=objective))
                    .solve(PlacementRequest(chains=chains)))
            for objective in ("marginal", "max_min", "marginal")
        ]
        assert answers[0][1] != answers[1][1]
        assert answers[2] == answers[0]


class TestIncrementalSolve:
    def _arrival(self, base_chains, extra_spec, extra_slo):
        from repro.chain.graph import chains_from_spec

        (new_chain,) = chains_from_spec(extra_spec, slos=[extra_slo])
        return list(base_chains) + [new_chain]

    def test_arrival_pins_existing_assignments(self, simple_chains):
        from repro.chain.slo import SLO
        from repro.units import gbps

        placer = Placer()
        base = placer.solve(PlacementRequest(chains=simple_chains))
        grown = self._arrival(
            simple_chains, "chain gamma: Monitor -> IPv4Fwd",
            SLO(t_min=gbps(0.5), t_max=gbps(30)),
        )
        report = placer.solve(PlacementRequest(
            chains=grown, base_placement=base.placement,
        ))
        assert report.mode == "incremental"
        assert report.pinned_chains == len(simple_chains)
        assert report.placed_chains == 1
        assert report.placement.feasible
        by_name = {cp.name: cp for cp in report.placement.chains}
        for cp in base.placement.chains:
            assert by_name[cp.name].assignment == cp.assignment
        for cp in report.placement.chains:
            assert report.placement.rates[cp.name] >= \
                cp.chain.slo.t_min - 1e-6

    def test_departure_reuses_pattern_and_resolves_rates(self, simple_chains):
        placer = Placer()
        base = placer.solve(PlacementRequest(chains=simple_chains)).placement
        report = placer.solve(PlacementRequest(
            chains=simple_chains[:1], base_placement=base,
        ))
        assert report.mode == "incremental"
        assert report.placed_chains == 0
        assert report.placement.feasible
        (cp,) = report.placement.chains
        base_cp = next(b for b in base.chains if b.name == cp.name)
        assert cp.assignment == base_cp.assignment
        # the departed chain's capacity is released to the survivor
        assert report.placement.rates[cp.name] >= base.rates[cp.name] - 1e-6

    def test_scale_keeps_assignment_updates_lp(self, simple_chains):
        placer = Placer()
        base = placer.solve(PlacementRequest(chains=simple_chains)).placement
        scaled = [simple_chains[0].with_slo(
            simple_chains[0].slo.with_tmin(simple_chains[0].slo.t_min * 2)
        )] + list(simple_chains[1:])
        report = placer.solve(PlacementRequest(
            chains=scaled, base_placement=base,
        ))
        assert report.mode == "incremental"
        assert report.placed_chains == 0  # same structure: still pinned
        assert report.placement.feasible
        name = simple_chains[0].name
        assert report.placement.rates[name] >= \
            simple_chains[0].slo.t_min * 2 - 1e-6

    def test_infeasible_base_rejected(self, simple_chains):
        from repro.core.placement import Placement

        with pytest.raises(PlacementError):
            Placer().solve(PlacementRequest(
                chains=simple_chains,
                base_placement=Placement(chains=[], feasible=False),
            ))

    def test_full_solve_unaffected(self, simple_chains):
        report = Placer().solve(PlacementRequest(chains=simple_chains))
        assert report.mode == "full"
        assert report.pinned_chains == 0 and report.placed_chains == 0


class TestTailLatencyObjective:
    def _chain(self, d_max=float("inf")):
        from repro.chain.graph import chains_from_spec
        from repro.chain.slo import SLO
        from repro.units import gbps

        return chains_from_spec(
            "chain a: Encrypt -> IPv4Fwd",
            slos=[SLO(t_min=gbps(0.5), t_max=gbps(30), d_max=d_max)],
        )

    def test_unknown_objective_rejected(self, simple_chains):
        with pytest.raises(PlacementError, match="objective"):
            Placer().solve(PlacementRequest(
                chains=simple_chains, objective="latency",
            ))

    def test_cap_trades_rate_for_headroom(self):
        throughput = Placer().solve(
            PlacementRequest(chains=self._chain()))
        tail = Placer().solve(PlacementRequest(
            chains=self._chain(), objective="tail_latency"))
        assert throughput.placement.feasible
        assert tail.placement.feasible
        # the utilization cap binds below the burst cap the throughput
        # objective saturates, but never below the admitted t_min floor
        assert tail.placement.rates["a"] < throughput.placement.rates["a"]
        assert tail.placement.rates["a"] >= self._chain()[0].slo.t_min

    def test_queueing_aware_tail_gates_admission(self):
        # 20 µs passes the fixed-cost d_max check (~11.5 µs) but not the
        # capped-utilization queueing-aware tail (~24 µs): only the
        # tail_latency objective rejects it, with the tail in the reason
        loose = Placer().solve(PlacementRequest(
            chains=self._chain(d_max=20.0)))
        assert loose.placement.feasible
        tight = Placer().solve(PlacementRequest(
            chains=self._chain(d_max=20.0), objective="tail_latency"))
        assert not tight.placement.feasible
        assert "queueing-aware tail latency" in \
            tight.placement.infeasible_reason

    def test_objective_changes_only_its_own_solve(self, simple_chains):
        placer = Placer()
        answers = [
            _answer(placer.solve(PlacementRequest(
                chains=simple_chains, objective=objective)))
            for objective in ("throughput", "tail_latency", "throughput")
        ]
        assert answers[0] != answers[1]
        assert answers[2] == answers[0]
