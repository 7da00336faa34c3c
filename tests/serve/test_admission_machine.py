"""Stateful property test of online admission, through the real daemon.

A Hypothesis ``RuleBasedStateMachine`` drives ``ServeDaemon.submit``
with arrivals, scales, departures and faults (every action of
``FAULT_ACTIONS``, core loss included) — so every command
goes through the worker, the journal and the checkpoints a tenant's
would — on a single rack and on a three-rack fabric. After every rule
it checks the four invariants admission is built on:

1. capacity: no server's cores, no switch's stages and no inter-rack
   link's committed floors exceed what the hardware has, read from the
   live placement and the deployed P4 program;
2. no eviction: the active chain set changes only through accepted
   decisions (a chain leaves only by an accepted ``depart``) and every
   active chain's LP rate stays at its floor, ``t_min × (1 − SLO_RTOL)``
   — serve's faults never shed;
3. an accepted *incremental* decision leaves each rack with a chain set
   a cold ``Placer.solve`` also places;
4. ``state_digest()`` equals the digest of a fresh daemon that cold
   replays a copy of the state dir with its checkpoint removed.
"""

import asyncio
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core.placer import Placer, PlacerConfig, PlacementRequest
from repro.hw.multirack import MultiRackTopology
from repro.hw.spec import topology_for
from repro.obs import MetricsRegistry, scoped_registry
from repro.serve import Arrive, Depart, InjectFault, Scale, ServeDaemon
from repro.serve.commands import (
    STATUS_APPLIED,
    STATUS_INVALID,
    STATUS_REJECTED,
)
from repro.sim.admission import FAULT_ACTIONS
from repro.units import SLO_RTOL

from conftest import _make_config

_FABRIC_BODY = "ACL(rules=64) -> Encrypt -> IPv4Fwd"

#: conftest's two-chain SPEC on the multi-server rack
SINGLE = _make_config(topology=topology_for("multi-server"))
FABRIC = _make_config(
    spec_text="".join(f"chain c{i}: {_FABRIC_BODY}\n" for i in range(6)),
    slos=((4000.0, 9000.0, 400.0),) * 6,
    topology=topology_for("three-rack"),
)


def _devices(config):
    """Fault targets: every server and switch, plus a name no rack has."""
    built = config.topology.build()
    racks = (built.racks.values() if isinstance(built, MultiRackTopology)
             else [built])
    names = []
    for rack in racks:
        names.extend(server.name for server in rack.servers)
        names.append(rack.switch.name)
    return names + ["nowhere0"]


def _fabric_links(config):
    built = config.topology.build()
    return built.links if isinstance(built, MultiRackTopology) else []


def _racks(core):
    """``(topology, active chains, placement, deployed rack)`` per
    occupied rack. A core without a ``cores`` map owns its one rack
    directly; the machine reads either shape."""
    cores = getattr(core, "cores", None)
    owners = [core] if cores is None else [
        cores[name] for name in sorted(cores)
    ]
    return [(c.topology, c.active, c.placement, c.rack) for c in owners]


class AdmissionMachine(RuleBasedStateMachine):
    """One live daemon plus a model of what its tenants were told."""

    config = SINGLE
    #: arrival bodies, floors and d_max; scale targets
    menu = ("ACL -> IPv4Fwd", "BPF -> NAT -> IPv4Fwd",
            "ACL -> Encrypt -> IPv4Fwd")
    arrive_floors = (500.0, 2000.0, 8000.0)
    arrive_d_max = (float("inf"),)
    scale_floors = (300.0, 1500.0, 6000.0, 15000.0)
    t_max = 20000.0

    def __init__(self):
        super().__init__()
        self.devices = _devices(self.config)
        self.links = _fabric_links(self.config)
        self.dir = Path(tempfile.mkdtemp(prefix="admission-machine-"))
        self.loop = asyncio.new_event_loop()
        self.daemon = ServeDaemon(self.config, self.dir / "live")
        self.loop.run_until_complete(self.daemon.start())
        #: chain -> t_min the tenant was last granted
        self.model = {
            chain.name: chain.slo.t_min
            for chain in self.config.build_chains()
        }
        self.arrivals = 0
        self.replays = 0
        self.last = None

    def teardown(self):
        try:
            self.loop.run_until_complete(self.daemon.stop(checkpoint=False))
        finally:
            self.loop.close()
            shutil.rmtree(self.dir, ignore_errors=True)

    # -- driving the daemon ------------------------------------------------

    def _submit(self, command):
        before = self.daemon.seq
        outcome = self.loop.run_until_complete(self.daemon.submit(command))
        assert outcome.status in (
            STATUS_APPLIED, STATUS_REJECTED, STATUS_INVALID,
        ), (outcome.status, outcome.error)
        if outcome.status == STATUS_INVALID:
            assert outcome.seq == before == self.daemon.seq
        else:
            assert outcome.seq == before + 1 == self.daemon.seq
        self.last = outcome
        return outcome

    def _name(self, pick):
        """An active chain, or (one pick in ``len + 1``) an unknown one."""
        names = sorted(self.model) + ["ghost"]
        return names[pick % len(names)]

    # -- rules ---------------------------------------------------------------

    @rule(body=st.integers(0, 7), floor=st.integers(0, 7),
          d_max=st.integers(0, 7), duplicate=st.integers(0, 9))
    def arrive(self, body, floor, d_max, duplicate):
        if duplicate == 0 and self.model:
            name = sorted(self.model)[0]
        else:
            name = f"a{self.arrivals}"
            self.arrivals += 1
        t_min = self.arrive_floors[floor % len(self.arrive_floors)]
        outcome = self._submit(Arrive(
            chain=name,
            spec=f"chain {name}: {self.menu[body % len(self.menu)]}",
            t_min_mbps=t_min, t_max_mbps=self.t_max,
            d_max_us=self.arrive_d_max[d_max % len(self.arrive_d_max)],
        ))
        if outcome.decision.accepted:
            assert name not in self.model
            self.model[name] = t_min

    @rule(pick=st.integers(0, 15), floor=st.integers(0, 7))
    def scale(self, pick, floor):
        name = self._name(pick)
        t_min = self.scale_floors[floor % len(self.scale_floors)]
        outcome = self._submit(Scale(chain=name, t_min_mbps=t_min))
        if outcome.decision.accepted:
            self.model[name] = t_min

    @rule(pick=st.integers(0, 15))
    def depart(self, pick):
        name = self._name(pick)
        outcome = self._submit(Depart(chain=name))
        if outcome.decision.accepted:
            del self.model[name]

    @rule(action=st.sampled_from(FAULT_ACTIONS),
          device=st.integers(0, 15),
          severity=st.sampled_from((0.25, 1.0, 2.0)))
    def inject_fault(self, action, device, severity):
        self._submit(InjectFault(
            action=action,
            target=self.devices[device % len(self.devices)],
            severity=severity,
        ))

    # -- invariants ------------------------------------------------------------

    @invariant()
    def capacity_holds(self):
        core = self.daemon.core
        for topology, _active, placement, rack in _racks(core):
            used = {}
            for cp in placement.chains:
                for sg in cp.subgroups:
                    used[sg.server] = used.get(sg.server, 0) + sg.cores
            for server in topology.servers:
                assert used.get(server.name, 0) <= server.allocatable_cores
            p4 = rack.artifacts.p4
            if p4 is not None:
                assert p4.compile_result.stage_count \
                    <= topology.switch.num_stages
        floors = {}
        remote = getattr(core.placement, "remote", {})
        t_min = {chain.name: chain.slo.t_min for chain in core.active}
        for chain, route in remote.items():
            for link in route.links:
                floors[link] = floors.get(link, 0.0) + t_min[chain]
        for link in self.links:
            assert floors.get(link.name, 0.0) <= link.capacity_mbps + 1e-6

    @invariant()
    def admitted_chains_keep_their_floor(self):
        core = self.daemon.core
        assert {chain.name for chain in core.active} == set(self.model)
        for chain in core.active:
            assert chain.slo.t_min == self.model[chain.name]
            assert core.rates[chain.name] \
                >= chain.slo.t_min * (1.0 - SLO_RTOL)

    @precondition(lambda self: self.last is not None)
    @invariant()
    def incremental_implies_cold_feasible(self):
        decision, self.last = self.last.decision, None
        if decision is None or not decision.accepted \
                or decision.mode != "incremental":
            return
        with scoped_registry(MetricsRegistry()):
            for topology, active, _placement, _rack in _racks(
                    self.daemon.core):
                cold = Placer(
                    topology=topology,
                    config=PlacerConfig(strategy=self.config.strategy),
                ).solve(PlacementRequest(
                    chains=list(active), strategy=self.config.strategy,
                    objective=self.config.objective,
                ))
                assert cold.placement.feasible, \
                    cold.placement.infeasible_reason

    @invariant()
    def digest_equals_cold_journal_replay(self):
        self.replays += 1
        copy = self.dir / f"replay{self.replays}"
        shutil.copytree(self.dir / "live", copy)
        (copy / "checkpoint.pkl").unlink(missing_ok=True)
        cold = ServeDaemon(self.config, copy)
        self.loop.run_until_complete(cold.start())
        try:
            assert cold.seq == self.daemon.seq
            assert cold.state_snapshot()["digest"] \
                == self.daemon.state_snapshot()["digest"]
        finally:
            self.loop.run_until_complete(cold.stop(checkpoint=False))
            shutil.rmtree(copy, ignore_errors=True)


class FabricAdmissionMachine(AdmissionMachine):
    """The same machine on three racks: arrivals spill, scale-ups
    migrate, the last chain off a rack tears its core down, and an RTT
    larger than a chain's d_max keeps it on the ingress."""

    config = FABRIC
    menu = (_FABRIC_BODY,)
    arrive_floors = (4000.0, 1000.0)
    arrive_d_max = (400.0, 400.0, 90.0)
    scale_floors = (2000.0, 4000.0, 12000.0, 30000.0)
    t_max = 9000.0


# ≈ 12 s and ≈ 15 s on a 2-vCPU host: the digest invariant cold-replays
# the whole journal after every step, so a run costs O(steps²) commands.
# Every shrunk counterexample a longer, undirected run finds is kept
# below as a named test that replays its steps.
def _settings(examples):
    return settings(
        max_examples=examples, stateful_step_count=20, deadline=None,
        derandomize=True, suppress_health_check=list(HealthCheck),
    )


TestSingleRackAdmission = AdmissionMachine.TestCase
TestSingleRackAdmission.settings = _settings(12)
TestFabricAdmission = FabricAdmissionMachine.TestCase
TestFabricAdmission.settings = _settings(8)


# -- shrunk counterexamples ---------------------------------------------------


def _replay(machine_class, steps):
    """Run ``(rule, arguments)`` steps through a fresh machine and check
    every invariant after each, as Hypothesis does."""
    machine = machine_class()
    try:
        for rule_name, arguments in steps:
            getattr(machine, rule_name)(**arguments)
            machine.capacity_holds()
            machine.admitted_chains_keep_their_floor()
            machine.incremental_implies_cold_feasible()
            machine.digest_equals_cold_journal_replay()
    finally:
        machine.teardown()


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "Placer is not monotone: the incremental solve pins a0 at its floor "
    "and places a1, a2 beside it, but a cold heuristic solve of the same "
    "five chains leaves a2 at 6427 Mbps < t_min 8000 Mbps (ROADMAP item 6(c))"
))
def test_an_incremental_admission_a_cold_solve_cannot_place():
    """Undirected run, multi-server: three ``ACL -> Encrypt -> IPv4Fwd``
    arrivals at 8, 0.5 and 8 Gbps are each accepted incrementally."""
    encrypt = dict(body=2, d_max=0, duplicate=1)
    _replay(AdmissionMachine, [
        ("arrive", dict(encrypt, floor=2)),
        ("arrive", dict(encrypt, floor=0)),
        ("arrive", dict(encrypt, floor=2)),
    ])
