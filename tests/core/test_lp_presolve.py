"""Presolve ≡ solver: the rate LP's guard answers only what HiGHS would.

``solve_rates`` returns every chain's cap without calling ``linprog``
when the caps fit inside every row. Same-seed reports are byte-identical
to the solver-only tree's, which rests on that answer being *exactly*
(``==``) the solver's — the property below, over instances the test
draws as raw numbers so it can hand ``linprog`` the same arrays itself.
"""

import math

import numpy as np
import pytest
import scipy.optimize
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.chain.graph import chains_from_spec
from repro.chain.slo import SLO
from repro.core import lp
from repro.core.placement import ChainPlacement, Subgroup
from repro.hw.spec import topology_for
from repro.obs import MetricsRegistry, scoped_registry

TOPOLOGY = topology_for("paper-testbed", servers=4).build()
SERVERS = [server.name for server in TOPOLOGY.servers]
NIC_MBPS = TOPOLOGY.servers[0].primary_nic().rate_mbps
PORT_MBPS = TOPOLOGY.switch.port_rate_mbps


def make_cp(name, t_min, t_max, estimated, visits, cycles=0.0, cores=1):
    """A ChainPlacement carrying exactly what the LP reads."""
    chain = chains_from_spec(
        f"chain {name}: ACL -> IPv4Fwd", slos=[SLO(t_min=t_min, t_max=t_max)]
    )[0]
    subgroups = [
        Subgroup(f"{name}.sg", name, server, ("n",), cycles, True, cores)
        for server in visits if cycles
    ]
    return ChainPlacement(
        chain=chain, assignment={}, subgroups=subgroups,
        server_visits=dict(visits), estimated_rate=estimated,
    )


@st.composite
def instances(draw):
    """1–12 chains over 0–4 NIC rows, sized so about half are slack:
    ``load`` scales the caps against what the NICs carry."""
    n = draw(st.integers(1, 12))
    rows = draw(st.integers(0, 4))
    load = draw(st.sampled_from([0.3, 0.6, 0.9, 1.2, 2.0, 4.0]))
    utilization_cap = draw(st.sampled_from([None, None, 0.5, 0.9]))
    # one instance in ten has a chain whose estimate is under its floor:
    # the typed early rejection
    low = draw(st.sampled_from([n] * 9 + [0]))
    chains = []
    for i in range(n):
        visits = {
            server: draw(st.sampled_from([1.0, 0.0, 0.5, 2.0]))
            for server in SERVERS[:rows]
        }
        estimated = load * NIC_MBPS / n * draw(st.floats(0.25, 1.75))
        t_min = estimated * draw(st.sampled_from([0.0, 0.1, 0.3, 1.0]))
        shape = draw(st.sampled_from(["capped", "open", "line-rate"]))
        if i == low:
            t_min, t_max = estimated * 1.5, math.inf
        elif shape == "capped":
            t_max = t_min + draw(st.floats(0.0, 2.0)) * estimated
        elif shape == "line-rate":
            # all-switch chain with unbounded burst: the ToR port clips
            estimated, t_max, visits = 4 * PORT_MBPS, math.inf, {}
        else:
            t_max = math.inf
        cycles = draw(st.sampled_from([100.0, 500.0, 2500.0])) \
            if utilization_cap is not None else 0.0
        chains.append(dict(
            name=f"c{i}", t_min=t_min, t_max=t_max, estimated=estimated,
            visits={s: v for s, v in visits.items() if v},
            cycles=cycles, cores=draw(st.integers(1, 4)),
        ))
    return chains, utilization_cap


def reference_arrays(chains, placements, utilization_cap):
    """The LP's arrays, rebuilt from the drawn numbers."""
    lower = np.array([c["t_min"] for c in chains])
    upper = np.array([
        min(c["estimated"], PORT_MBPS, c["t_max"]) for c in chains
    ])
    rows, caps = [], []
    for server in SERVERS:
        coeffs = np.array([c["visits"].get(server, 0.0) for c in chains])
        if coeffs.any():
            rows.append(coeffs)
            caps.append(NIC_MBPS)
    if utilization_cap is not None:
        extra_rows, extra_caps = lp._utilization_rows(
            placements, TOPOLOGY, utilization_cap, 12000,
        )
        rows.extend(extra_rows)
        caps.extend(extra_caps)
    if not rows:
        return lower, upper, None, None
    return lower, upper, np.vstack(rows), np.array(caps)


class SolverSpy:
    """Stands in for ``scipy.optimize.linprog``; keeps what it returned."""

    def __init__(self, monkeypatch):
        self.real = scipy.optimize.linprog
        self.results = []
        monkeypatch.setattr(scipy.optimize, "linprog", self)

    def __call__(self, *args, **kwargs):
        self.results.append(self.real(*args, **kwargs))
        return self.results[-1]


def solve(placements, utilization_cap=None, topology=TOPOLOGY):
    registry = MetricsRegistry()
    with scoped_registry(registry):
        solution = lp.solve_rates(
            placements, topology, utilization_cap=utilization_cap,
            packet_bits=12000,
        )
    return solution, registry


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(instance=instances())
def test_presolve_answers_only_what_the_solver_would(instance, monkeypatch):
    chains, utilization_cap = instance
    placements = [make_cp(**c) for c in chains]
    with monkeypatch.context() as patch:
        spy = SolverSpy(patch)
        solution, registry = solve(placements, utilization_cap)
    solves = registry.counter_value("lp.solves", objective="marginal")
    presolved = registry.counter_value("lp.presolved", objective="marginal")

    low = next((c for c in chains
                if min(c["estimated"], PORT_MBPS, c["t_max"]) + 1e-9
                < c["t_min"]), None)
    if low is not None:
        event("floor above cap")
        assert not solution.feasible and not spy.results and solves == 0
        assert solution.reason == (
            f"chain {low['name']}: estimated rate "
            f"{low['estimated']:.0f} Mbps < t_min {low['t_min']:.0f} Mbps"
        )
        return

    assert solves == 1
    lower, upper, a_ub, b_ub = reference_arrays(
        chains, placements, utilization_cap)
    slack = a_ub is None or bool((a_ub @ upper <= b_ub).all())
    event("slack" if slack else "binding")
    assert presolved == (1 if slack else 0)
    assert len(spy.results) == (0 if slack else 1)

    result = spy.results[0] if spy.results else spy.real(
        c=-np.ones(len(chains)), A_ub=a_ub, b_ub=b_ub,
        bounds=list(zip(lower, upper)), method="highs",
    )
    if not result.success:
        event("solver says infeasible")
        assert not slack and not solution.feasible
        assert solution.reason == f"rate LP infeasible: {result.message}"
        return
    assert solution.feasible
    # exact equality, not approx: byte-identical reports rest on it
    assert [solution.rates[c["name"]] for c in chains] == \
        [float(r) for r in result.x]
    assert solution.objective_mbps == sum(
        float(r) - c["t_min"] for c, r in zip(chains, result.x)
    )
    assert registry.counter_value("lp.iterations", objective="marginal") \
        == (0 if slack else int(result.nit))


def test_binding_row_calls_the_solver(monkeypatch):
    spy = SolverSpy(monkeypatch)
    placements = [
        make_cp(f"c{i}", 1000.0, math.inf, 30000.0, {"server0": 1.0})
        for i in range(2)
    ]
    solution, registry = solve(placements)
    assert len(spy.results) == 1
    assert registry.counter_value("lp.solves", objective="marginal") == 1
    assert registry.counter_value("lp.presolved", objective="marginal") == 0
    assert sum(solution.rates.values()) == pytest.approx(NIC_MBPS)


def test_infeasible_floors_keep_the_solver_message(monkeypatch):
    spy = SolverSpy(monkeypatch)
    placements = [
        make_cp(f"c{i}", 25000.0, math.inf, 30000.0, {"server0": 1.0})
        for i in range(2)
    ]
    solution, registry = solve(placements)
    assert not solution.feasible
    assert solution.reason == \
        f"rate LP infeasible: {spy.results[0].message}"
    assert registry.counter_value("lp.presolved", objective="marginal") == 0


def test_non_finite_cap_goes_to_the_solver(monkeypatch):
    """No port rate, no burst cap, no server bottleneck: the cap is
    ``inf`` and only the solver may say what that means."""
    spy = SolverSpy(monkeypatch)
    topology = topology_for("paper-testbed", servers=4).build()
    topology.switch.port_rate_mbps = math.inf
    placements = [
        make_cp("c0", 1000.0, math.inf, math.inf, {"server0": 1.0}),
        make_cp("c1", 1000.0, 5000.0, 9000.0, {"server0": 1.0}),
    ]
    solution, registry = solve(placements, topology=topology)
    assert len(spy.results) == 1
    assert registry.counter_value("lp.presolved", objective="marginal") == 0
    assert solution.feasible
    assert solution.rates["c0"] + solution.rates["c1"] == \
        pytest.approx(NIC_MBPS)


def test_no_rows_is_presolved(monkeypatch):
    spy = SolverSpy(monkeypatch)
    solution, registry = solve(
        [make_cp("c0", 1000.0, 50000.0, 70000.0, {})]
    )
    assert not spy.results
    assert solution.rates == {"c0": 50000.0}
    assert solution.objective_mbps == 49000.0
    assert registry.counter_value("lp.presolved", objective="marginal") == 1
    assert registry.counter_value("lp.iterations", objective="marginal") == 0
