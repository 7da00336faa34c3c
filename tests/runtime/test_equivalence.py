"""A fan-out whose worker dies ends in the documented degraded mode.

Every fan-out caller — the sweep grid and the chaos/lifecycle replica
cross-checks — whose worker is SIGKILLed mid-call warns once and returns
the serial result.
"""

import os
import signal

import pytest

from repro.core.cache import scoped_cache
from repro.experiments import parallel
from repro.experiments.runner import SweepSpec, run_sweep
from repro.experiments.schemes import SCHEMES
from repro.obs import MetricsRegistry
from repro.runtime import pool
from repro.sim.faults import (
    ChaosSpec,
    FaultEvent,
    FaultTimeline,
    run_chaos_checked,
)
from repro.sim.lifecycle import (
    ChainEvent,
    LifecycleSpec,
    LifecycleTimeline,
    run_lifecycle_checked,
)


def _sweep(parallel_run):
    spec = SweepSpec(
        chain_indices=(2, 3), deltas=(0.5, 1.0),
        schemes={"Lemur": SCHEMES["Lemur"]}, measure=False,
        jobs=2 if parallel_run else 1,
    )
    with scoped_cache():  # a cold solve: the fallback must really run
        return run_sweep(spec).results


def _chaos(parallel_run):
    spec = ChaosSpec(
        spec_text="chain c: ACL -> IPv4Fwd\nchain d: NAT -> IPv4Fwd",
        slos=((100.0, 200.0),) * 2,
        timeline=FaultTimeline((
            FaultEvent(at_packet=32, action="degrade_link",
                       target="server0", severity=0.5),
        )),
        packets_per_chain=64, flows_per_chain=8, batch_size=16,
    )
    return run_chaos_checked(
        spec, jobs=3 if parallel_run else 1, registry=MetricsRegistry()
    ).to_json()


def _lifecycle(parallel_run):
    spec = LifecycleSpec(
        spec_text="chain c: ACL -> IPv4Fwd",
        slos=((100.0, 200.0),),
        timeline=LifecycleTimeline((
            ChainEvent(at=1, action="arrive", chain="d",
                       spec="chain d: NAT -> IPv4Fwd",
                       t_min_mbps=100.0, t_max_mbps=200.0),
        )),
        packets_per_phase=32, flows_per_chain=8, batch_size=16,
    )
    return run_lifecycle_checked(
        spec, jobs=3 if parallel_run else 1, registry=MetricsRegistry()
    ).to_json()


#: what each caller's worker calls first, where the test plants the kill
_TASK_ENTRY = {
    _sweep: (parallel, "execute_cell"),
    _chaos: (pool, "MetricsRegistry"),
    _lifecycle: (pool, "MetricsRegistry"),
}


@pytest.mark.parametrize("caller", [_sweep, _chaos, _lifecycle])
def test_failed_dispatch_warns_and_returns_the_serial_result(
        caller, monkeypatch):
    serial = caller(parallel_run=False)

    parent = os.getpid()
    module, name = _TASK_ENTRY[caller]
    entry = getattr(module, name)

    def dies_in_a_worker(*args, **kwargs):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return entry(*args, **kwargs)

    monkeypatch.setattr(module, name, dies_in_a_worker)
    with pytest.warns(RuntimeWarning) as warned:
        fallen_back = caller(parallel_run=True)
    assert len(warned) == 1
    assert "running serially in-process" in str(warned[0].message)
    assert fallen_back == serial
