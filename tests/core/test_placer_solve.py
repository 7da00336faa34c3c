"""Placer.solve(PlacementRequest) and the deprecated wrapper delegation."""

import pytest

from repro.core.cache import placement_fingerprint
from repro.core.placer import Placer, PlacementReport, PlacementRequest
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


def _key(placer, chains, extra=()):
    """The sweep memo's key for ``chains`` on the placer's rack as it
    stands (``Placer.solve`` itself memoizes nothing)."""
    return placement_fingerprint(
        chains, placer.topology, placer.profiles,
        placer.config.strategy, placer.config.packet_bits, extra=extra,
    )


class TestSolveCaching:
    """What made a memoized placement safe to reuse: a repeated solve is
    the same answer, and every scenario knob moves the sweep memo's key."""

    def test_repeat_solve_is_identical(self, simple_chains):
        placer = Placer()
        first = placer.solve(PlacementRequest(chains=simple_chains))
        second = placer.solve(PlacementRequest(chains=simple_chains))
        assert second.placement is not first.placement
        assert second.placement.describe() == first.placement.describe()
        assert second.placement.rates == first.placement.rates
        warm = [
            placer.solve(PlacementRequest(
                chains=simple_chains, base_placement=first.placement,
            )).placement
            for _ in range(2)
        ]
        assert warm[1].describe() == warm[0].describe()
        assert warm[1].rates == warm[0].rates

    def test_scenario_knobs_partition_the_key(self, simple_chains):
        placer = Placer(topology=topology_for("paper-smartnic").build())
        plain = _key(placer, simple_chains)
        placer.solve(PlacementRequest(
            chains=simple_chains, failed_devices=("agilio0",),
        ))
        placer.solve(PlacementRequest(
            chains=simple_chains, reserve_cores=2,
        ))
        # a request's knobs are rolled back after its solve, the key too
        assert _key(placer, simple_chains) == plain
        placer.topology.mark_failed("agilio0")
        failed = _key(placer, simple_chains)
        placer.topology.failed_devices.discard("agilio0")
        for server in placer.topology.servers:
            server.reserved_cores += 2
        reserved = _key(placer, simple_chains)
        assert len({plain, failed, reserved}) == 3

    def test_rate_objective_in_key(self, simple_chains):
        placer = Placer()
        keys = {
            _key(placer, simple_chains, extra=("rate_objective", objective))
            for objective in ("marginal", "max_min")
        }
        assert len(keys) == 2


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

    def test_objective_partitions_cache_key(self, simple_chains):
        placer = Placer()
        keys = [
            _key(placer, simple_chains, extra=("objective", objective))
            for objective in ("throughput", "tail_latency", "throughput")
        ]
        assert keys[0] != keys[1]
        assert keys[2] == keys[0]
