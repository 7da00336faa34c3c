"""Sweep engine: SweepSpec API, parallel/serial equivalence, isolation."""

import warnings

import pytest

from repro.experiments.runner import (
    DEFAULT_DELTAS,
    SweepSpec,
    run_sweep,
)
from repro.experiments.schemes import SCHEMES
from repro.hw.spec import topology_for
from repro.obs import scoped_registry
from repro.profiles.defaults import default_profiles

FAST = {k: v for k, v in SCHEMES.items()
        if k in ("Lemur", "SW Preferred", "Greedy")}


@pytest.fixture()
def profiles():
    return default_profiles()


@pytest.fixture()
def spec(profiles):
    return SweepSpec(
        chain_indices=(2, 3), deltas=(0.5, 1.0), schemes=FAST,
        profiles=profiles, measure=False,
    )


class TestSweepSpec:
    def test_default_deltas_are_figure2(self):
        assert SweepSpec(chain_indices=(1,)).deltas == DEFAULT_DELTAS

    def test_cells_enumerate_serial_order(self, spec):
        cells = spec.cells()
        assert [c.index for c in cells] == list(range(len(cells)))
        assert [(c.delta, c.scheme) for c in cells] == [
            (d, s) for d in spec.deltas for s in FAST
        ]


class TestParallelEquivalence:
    def test_parallel_rows_identical_to_serial(self, spec):
        serial = run_sweep(spec)
        parallel = run_sweep(spec.with_jobs(2))
        assert serial.results == parallel.results  # same rows, same order

    def test_parallel_measured_rows_identical(self, profiles):
        measured = SweepSpec(
            chain_indices=(2,), deltas=(0.5,),
            schemes={"Lemur": SCHEMES["Lemur"]},
            profiles=profiles, measure=True,
        )
        serial = run_sweep(measured)
        assert run_sweep(measured.with_jobs(2)).results == serial.results

    def test_unpicklable_scheme_falls_back_to_serial(self, profiles):
        lambda_schemes = {
            "Lemur": lambda chains, topo, prof, packet_bits: SCHEMES["Lemur"](
                chains, topo, prof, packet_bits=packet_bits
            ),
        }
        spec = SweepSpec(
            chain_indices=(2, 3), deltas=(0.5, 1.0), schemes=lambda_schemes,
            profiles=profiles, measure=False, jobs=2,
        )
        with pytest.warns(RuntimeWarning, match="not picklable"):
            sweep = run_sweep(spec)
        assert len(sweep.results) == 2

    def test_worker_metrics_merge_back(self, spec):
        with scoped_registry() as registry:
            run_sweep(spec.with_jobs(2))
            cells = sum(
                c.value for c in registry.counters()
                if c.name == "sweep.cells"
            )
            assert cells == len(spec.cells())
            # placer-side instrumentation recorded in workers came home too
            assert registry.counter_value(
                "lp.solves", objective="marginal") > 0
            worker_hists = [h for h in registry.histograms()
                            if h.name == "sweep.worker.seconds"]
            assert worker_hists
            assert sum(h.count for h in worker_hists) >= 1


class TestTopologyIsolation:
    def test_caller_topology_never_mutated(self, profiles):
        topology = topology_for("paper-testbed").build()
        before_reserved = [s.reserved_cores for s in topology.servers]
        run_sweep(SweepSpec(
            (2, 3), deltas=(0.5, 1.0), schemes=FAST, topology=topology,
            profiles=profiles, measure=False,
        ))
        assert topology.failed_devices == set()
        assert [s.reserved_cores for s in topology.servers] == before_reserved

    def test_mutating_scheme_does_not_leak_across_cells(self, profiles):
        """A scheme that damages its topology only damages its own cell."""
        calls = []

        def vandal(chains, topology, prof, packet_bits):
            calls.append(sorted(topology.failed_devices))
            topology.mark_failed("server0")
            return SCHEMES["Lemur"](chains, topology, prof,
                                    packet_bits=packet_bits)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # unpicklable-scheme fallback
            run_sweep(SweepSpec(
                (2,), deltas=(0.5, 1.0, 1.5), schemes={"Vandal": vandal},
                topology=topology_for("multi-server").build(),
                profiles=profiles, measure=False, jobs=1,
            ))
        # every cell started from a pristine copy: no failures carried over
        assert calls == [[], [], []]
