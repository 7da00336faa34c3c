"""Rate-assignment LP (§3.2 "Finding Maximum Marginal Throughput").

Given per-chain estimated rates and per-server NIC traversal
multiplicities, assign each chain a rate r_i maximizing aggregate marginal
throughput Σ(r_i − t_min_i) subject to:

* t_min_i ≤ r_i ≤ min(t_max_i, estimated_i, ToR port rate);
* for every server NIC and direction: Σ_i visits_{i,S} · r_i ≤ capacity_S
  — each switch↔server bounce of chain i consumes NIC bandwidth once per
  direction, which is how the LP accounts for the cost of bounces;
* on a rack homed off a fabric's ingress: Σ_i r_i ≤ the headroom its
  inter-rack links leave (``Topology.uplink``), added only when the
  answer without it goes over.

Solved with scipy's HiGHS backend — when something binds. An instance
whose every chain fits at its cap inside every row has that as its only
optimum, so :func:`solve_rates` answers it without the solver
(``lp.presolved``), and ``scipy.optimize`` is imported by the first
solve that needs it rather than by the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.placement import ChainPlacement
from repro.hw.topology import Topology
from repro.obs import get_registry
from repro.profiles.defaults import DEMUX_LB_CYCLES
from repro.units import DEFAULT_PACKET_BITS


def _record_solve(objective: str, result=None) -> None:
    """Count one answered LP and its simplex/IPM iterations in the
    registry; ``result`` is ``None`` when the presolve answered it and
    the solver never ran."""
    registry = get_registry()
    registry.counter("lp.solves", objective=objective).inc()
    if result is None:
        registry.counter("lp.presolved", objective=objective).inc()
    iterations = getattr(result, "nit", 0) or 0
    registry.counter("lp.iterations", objective=objective).inc(
        int(iterations)
    )


@dataclass
class RateSolution:
    """LP outcome: per-chain rates + aggregate marginal objective."""

    rates: Dict[str, float] = field(default_factory=dict)
    feasible: bool = False
    objective_mbps: float = 0.0
    reason: Optional[str] = None


def _utilization_rows(
    placements: Sequence[ChainPlacement],
    topology: Topology,
    utilization_cap: float,
    packet_bits: int,
) -> tuple:
    """Linear rows capping per-device compute utilization (tail latency).

    For each server: Σ_i cycles_{i,S} · r_i ≤ cap · cores_S · f_S ·
    packet_bits / 1e6 (both sides divided by the pps-per-Mbps constant),
    where cycles_{i,S} sums chain i's subgroup costs on S (demux penalty
    included) and cores_S counts the cores those subgroups allocated.
    For each SmartNIC: Σ_i r_i / cap_i ≤ cap. Bounding ρ at
    ``utilization_cap`` bounds the M/M/1 wait factor ρ/(1−ρ), which is
    how the ``tail_latency`` placement objective trades marginal
    throughput for tail latency.
    """
    n = len(placements)
    server_coeffs: Dict[str, np.ndarray] = {}
    server_supply: Dict[str, float] = {}
    nic_coeffs: Dict[str, np.ndarray] = {}
    for index, cp in enumerate(placements):
        for sg in cp.subgroups:
            server = topology.server(sg.server)
            cycles = sg.cycles
            if sg.cores > 1 and not topology.metron_steering:
                cycles += DEMUX_LB_CYCLES
            coeffs = server_coeffs.setdefault(sg.server, np.zeros(n))
            coeffs[index] += cycles
            server_supply[sg.server] = (
                server_supply.get(sg.server, 0.0)
                + sg.cores * server.freq_hz
            )
        for device, nic_cap in cp.nic_caps.items():
            if nic_cap > 0:
                coeffs = nic_coeffs.setdefault(device, np.zeros(n))
                coeffs[index] += 1.0 / nic_cap
    rows: List[np.ndarray] = []
    caps: List[float] = []
    for name in sorted(server_coeffs):
        rows.append(server_coeffs[name])
        caps.append(
            utilization_cap * server_supply[name] * packet_bits / 1e6
        )
    for name in sorted(nic_coeffs):
        rows.append(nic_coeffs[name])
        caps.append(utilization_cap)
    return rows, caps


def _problem(
    placements: Sequence[ChainPlacement],
    topology: Topology,
    utilization_cap: Optional[float],
    packet_bits: int,
):
    """The bounds and capacity rows both objectives solve over:
    ``(lower, upper, rows, caps)``, or the reason a chain's cap is under
    its ``t_min`` floor.

    Bounds are t_min_i ≤ r_i ≤ min(t_max_i, estimated_i, ToR port rate).
    One pass over the chains fills them and every server's NIC row;
    traffic enters and exits a server the same number of times, so one
    row per (server, NIC) covers both directions.
    """
    n = len(placements)
    port_rate = getattr(topology.switch, "port_rate_mbps", math.inf)
    servers = [s for s in topology.servers
               if s.name not in topology.failed_devices]
    row_of = {server.name: row for row, server in enumerate(servers)}
    visits: List[List[float]] = [[0.0] * n for _ in servers]
    lower = np.empty(n)
    upper = np.empty(n)
    for i, cp in enumerate(placements):
        slo = cp.chain.slo
        cap = min(cp.estimated_rate, port_rate)
        if not math.isinf(slo.t_max):
            cap = min(cap, slo.t_max)
        if cap + 1e-9 < slo.t_min:
            return (
                f"chain {cp.name}: estimated rate "
                f"{cp.estimated_rate:.0f} Mbps < t_min {slo.t_min:.0f} Mbps"
            )
        lower[i] = slo.t_min
        upper[i] = cap
        for name, count in cp.server_visits.items():
            row = row_of.get(name)
            if row is not None:
                visits[row][i] = count

    rows: List[object] = []
    caps: List[float] = []
    for server, coeffs in zip(servers, visits):
        if any(coeffs):
            rows.append(coeffs)
            caps.append(server.primary_nic().rate_mbps)
    if utilization_cap is not None:
        extra_rows, extra_caps = _utilization_rows(
            placements, topology, utilization_cap, packet_bits,
        )
        rows.extend(extra_rows)
        caps.extend(extra_caps)
    return lower, upper, rows, caps


def solve_rates(
    placements: Sequence[ChainPlacement],
    topology: Topology,
    objective: str = "marginal",
    utilization_cap: Optional[float] = None,
    packet_bits: int = DEFAULT_PACKET_BITS,
) -> RateSolution:
    """Assign per-chain rates.

    ``objective`` selects the allocation policy:

    * ``marginal`` (default, the paper's) — maximize Σ(r_i − t_min_i);
    * ``max_min`` — lexicographic max-min fairness on marginal rates
      (footnote 2 of the paper leaves fair allocation to future work;
      this implements it via iterative LP water-filling).

    ``utilization_cap`` (the ``tail_latency`` placement objective)
    appends per-device compute-utilization rows so no placed core runs
    hotter than the cap — bounding the queueing wait at the cost of
    burst headroom. Chains whose t_min floors alone exceed the cap make
    the LP infeasible, which admission reports as the binding reason.

    A rack homed off a fabric's ingress carries ``topology.uplink``:
    the Mbps its route's inter-rack links leave it. An answer over that
    gets the link row Σ_i r_i ≤ headroom and is solved again; floors
    alone over it make the solve infeasible, naming the link.
    """
    solve = _SOLVERS.get(objective)
    if solve is None:
        raise ValueError(f"unknown rate objective {objective!r}")
    if not placements:
        return RateSolution(feasible=True)
    problem = _problem(placements, topology, utilization_cap, packet_bits)
    if isinstance(problem, str):
        return RateSolution(feasible=False, reason=problem)
    lower, upper, rows, caps = problem
    assigned = solve(lower, upper, rows, caps)
    link, headroom = topology.uplink
    if not isinstance(assigned, str) and assigned.sum() > headroom:
        floors = lower.sum()
        if floors > headroom:
            return RateSolution(
                feasible=False,
                reason=(
                    f"link {link} capacity exhausted: floors need "
                    f"{floors:g} Mbps, link carries {headroom:g} Mbps"
                ),
            )
        assigned = solve(lower, upper, rows + [np.ones(len(lower))],
                         caps + [headroom])
    if isinstance(assigned, str):
        return RateSolution(feasible=False, reason=assigned)
    rates = dict(zip((cp.name for cp in placements), assigned.tolist()))
    objective_mbps = sum(
        rates[cp.name] - cp.chain.slo.t_min for cp in placements
    )
    return RateSolution(rates=rates, feasible=True,
                        objective_mbps=objective_mbps)


def _marginal(lower: np.ndarray, upper: np.ndarray, rows: list,
              caps: List[float]):
    """Maximize Σ r_i under the rows: the rates, or why HiGHS found no
    answer."""
    a_ub = np.array(rows, dtype=float) if rows else None
    b_ub = np.array(caps) if rows else None

    # Presolve: maximising Σ r_i under r_i ≤ upper_i has one optimum
    # when every chain fits at its cap inside every row — the caps
    # themselves, which is what HiGHS returns. Only an instance where
    # something binds (or a cap is not finite) needs the solver.
    if (
        np.isfinite(upper).all()
        and (lower <= upper).all()
        and (a_ub is None or (a_ub @ upper <= b_ub).all())
    ):
        _record_solve("marginal")
        return upper
    from scipy.optimize import linprog

    result = linprog(
        c=-np.ones(len(lower)),  # maximize Σ r_i (t_min offsets are constant)
        A_ub=a_ub,
        b_ub=b_ub,
        bounds=list(zip(lower, upper)),
        method="highs",
    )
    _record_solve("marginal", result)
    if not result.success:
        return f"rate LP infeasible: {result.message}"
    return result.x


def _max_min(lower: np.ndarray, upper: np.ndarray, rows: list,
             caps: List[float]):
    """Lexicographic max-min fair marginal rates: the rates, or why a
    stage found no answer.

    Two-stage LP: first maximize the smallest achievable marginal rate t*
    (r_i ≥ t_min_i + t for every chain whose caps allow it), then maximize
    aggregate throughput subject to that fairness floor. Fairness costs
    aggregate throughput relative to the ``marginal`` objective but
    prevents one cheap chain from absorbing all burst headroom (§2
    footnote 2).
    """
    from scipy.optimize import linprog

    n = len(lower)
    # Progressive filling: raise a common marginal floor t over the
    # chains that still have cap headroom; chains whose headroom is
    # exhausted saturate at their cap and drop out of the floor, so a
    # tightly-capped chain (e.g. a virtual pipe with zero burst headroom)
    # never drags the others down.
    headroom = upper - lower
    saturated = set()
    floor = np.array(lower, dtype=float)
    for _round in range(n):
        active = [i for i in range(n) if i not in saturated]
        if not active:
            break
        c = np.zeros(n + 1)
        c[-1] = -1.0
        a_ub_rows: List[np.ndarray] = []
        b_ub: List[float] = []
        for coeffs, cap in zip(rows, caps):
            row = np.zeros(n + 1)
            row[:n] = coeffs
            a_ub_rows.append(row)
            b_ub.append(cap)
        for i in active:
            row = np.zeros(n + 1)
            row[i] = -1.0
            row[-1] = 1.0
            a_ub_rows.append(row)
            b_ub.append(-lower[i])
        bounds = []
        for i in range(n):
            if i in saturated:
                # keep the fairness level it already earned; it may rise
                # to its cap but must not be squeezed below its floor
                bounds.append((floor[i], upper[i]))
            else:
                bounds.append((lower[i], upper[i]))
        bounds.append((0.0, None))
        stage1 = linprog(
            c=c,
            A_ub=np.vstack(a_ub_rows),
            b_ub=np.array(b_ub),
            bounds=bounds,
            method="highs",
        )
        _record_solve("max_min", stage1)
        if not stage1.success:
            return f"max-min LP infeasible: {stage1.message}"
        t_star = stage1.x[-1]
        for i in active:
            floor[i] = lower[i] + min(t_star, headroom[i])
        newly_saturated = {
            i for i in active if headroom[i] <= t_star + 1e-7
        }
        if not newly_saturated:
            break
        saturated |= newly_saturated

    # Final stage: maximize aggregate throughput above the fairness floor.
    stage2 = linprog(
        c=-np.ones(n),
        A_ub=np.vstack(rows) if rows else None,
        b_ub=np.array(caps) if rows else None,
        bounds=list(zip(floor, upper)),
        method="highs",
    )
    _record_solve("max_min", stage2)
    if not stage2.success:
        return f"max-min LP stage 2 infeasible: {stage2.message}"
    return stage2.x


_SOLVERS = {"marginal": _marginal, "max_min": _max_min}


def nic_headroom(
    placements: Sequence[ChainPlacement],
    rates: Dict[str, float],
    topology: Topology,
) -> Dict[str, float]:
    """Remaining NIC capacity per server at the assigned rates (reporting)."""
    headroom: Dict[str, float] = {}
    for server in topology.servers:
        load = sum(
            cp.server_visits.get(server.name, 0.0) * rates.get(cp.name, 0.0)
            for cp in placements
        )
        headroom[server.name] = server.primary_nic().rate_mbps - load
    return headroom
