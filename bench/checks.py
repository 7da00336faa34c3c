"""Correctness checks, counted as operations.

Every check adds one to ``attempted`` and, when it fails, one to
``failed`` with a line of detail in the result record; nothing here
raises on a failed comparison, so a wrong output costs the run its
``correct`` flag and its exit code instead of a silent number.
"""

from __future__ import annotations

import json
from typing import Callable, List

import adapter
from workloads import DataplaneInputs

#: packets per chain replayed through both engines for the equivalence
#: and determinism checks.
_REPLAY_PACKETS = 512


class Ledger:
    """Attempted / failed operation counts plus the failed checks' detail."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.checks: List[dict] = []

    def ops(self, attempted: int, failed: int = 0) -> None:
        """Count workload operations (packets, commands, events)."""
        self.attempted += attempted
        self.failed += failed

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
        self.checks.append(
            {"check": name, "ok": bool(ok), "detail": "" if ok else detail}
        )
        return bool(ok)

    def guarded(self, name: str, fn: Callable[[], None]) -> None:
        """Run a block of checks; an exception inside it is a failure of
        ``name``, not the end of the run."""
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 — reported, never hidden
            self.check(name, False, f"{type(exc).__name__}: {exc}")

    @property
    def correct(self) -> bool:
        return self.failed == 0


def _canonical(payload: object) -> str:
    return json.dumps(payload, sort_keys=True)


def _fresh(inputs: DataplaneInputs, seed: int):
    deployment = adapter.cold_deploy(
        inputs.spec_text, inputs.slos, inputs.preset, seed,
        registry=adapter.MetricsRegistry(),
    )
    dep = deployment.racks[0]
    engine = adapter.traffic_engine(dep, inputs.flows, inputs.batch)
    return deployment, dep, engine


def dataplane_checks(ledger: Ledger, inputs: DataplaneInputs,
                     sabotage: bool = False) -> dict:
    """Scalar-vs-columnar equivalence, conservation, same-seed
    determinism, placement invariants and the workload's asserted
    pressure. Returns the measured pressure figures."""
    count = min(_REPLAY_PACKETS, inputs.packets)
    step = min(inputs.batch, count)
    pressure = {}

    deployment, scalar_dep, scalar_engine = _fresh(inputs, inputs.seed)
    # ``sabotage`` deploys the columnar side under another seed: its
    # cycle draws differ, so the equivalence check must fail.
    _d, column_dep, column_engine = _fresh(
        inputs, inputs.seed + (1 if sabotage else 0)
    )
    fallback = total = 0
    for scalar_cp, column_cp in zip(scalar_dep.placement.chains,
                                    column_dep.placement.chains):
        want = adapter.packet_outcomes(scalar_dep.rack.run(
            scalar_cp, adapter.flow_packets(scalar_engine, scalar_cp, count)
        ).outputs)
        got: list = []
        for start in range(0, count, step):
            size = min(step, count - start)
            result = column_dep.rack.run_columns(
                column_cp,
                adapter.flow_columns(column_engine, column_cp, size, start),
            )
            fallback += len(result.scalar)
            total += result.count
            got.extend(adapter.packet_outcomes(result.materialize()))
        ledger.check(
            f"scalar==columnar:{scalar_cp.name}", want == got,
            f"first differing packet: {_first_diff(want, got)}",
        )
        ledger.check(
            f"conservation:{scalar_cp.name}",
            len(want) == count and len(got) == count,
            f"{len(want)} scalar / {len(got)} columnar outcomes for "
            f"{count} injected",
        )
    for label, dep in (("scalar", scalar_dep), ("columnar", column_dep)):
        problems = adapter.device_conservation(dep.rack)
        ledger.check(f"device-conservation:{label}", not problems,
                     "; ".join(problems))

    pressure["fallback_share"] = fallback / total if total else 0.0
    low, high = inputs.fallback_share
    ledger.check(
        "pressure:fallback_share", low <= pressure["fallback_share"] <= high,
        f"{pressure['fallback_share']:.3f} outside [{low}, {high}]: the "
        "workload no longer exercises the engine tier it was built for",
    )
    size = min(inputs.batch, inputs.packets)
    columns = adapter.flow_columns(
        column_engine, column_dep.placement.chains[0], size
    )
    pressure["pkts_per_signature"] = size / len(set(columns.sig.tolist()))
    low, high = inputs.per_signature
    ledger.check(
        "pressure:pkts_per_signature",
        low <= pressure["pkts_per_signature"] <= high,
        f"{pressure['pkts_per_signature']:g} outside [{low}, {high}]",
    )

    reports = []
    for _ in range(2):
        _d, _dep, engine = _fresh(inputs, inputs.seed)
        reports.append(_canonical(engine.run(count).as_dict()))
    ledger.check("determinism:same-seed-report", reports[0] == reports[1],
                 "two fresh racks with one seed produced different reports")

    problems = adapter.placement_violations(deployment)
    ledger.check("placement-invariants", not problems, "; ".join(problems))
    return pressure


def _first_diff(want: list, got: list) -> str:
    for index, (a, b) in enumerate(zip(want, got)):
        if a != b:
            return f"#{index}: scalar {a!r} vs columnar {b!r}"
    return f"lengths {len(want)} vs {len(got)}"


def conservation_rows(ledger: Ledger, rows: List[dict], label: str) -> None:
    """injected = delivered + dropped on every report row."""
    bad = [
        row for row in rows
        if not 0 <= row["delivered"] <= row["injected"]
        or row.get("dropped", row["injected"] - row["delivered"])
        != row["injected"] - row["delivered"]
    ]
    ledger.check(f"conservation:{label}", not bad,
                 f"{len(bad)} rows break injected = delivered + dropped")


def share_in_band(ledger: Ledger, name: str, value: float,
                  low: float, high: float, meaning: str) -> None:
    ledger.check(
        f"pressure:{name}", low <= value <= high,
        f"{value:.3f} outside [{low}, {high}]: {meaning}",
    )
