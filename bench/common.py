"""Paths, the BENCHMARK.json contract, and the few statistics the harness
reports. No ``repro`` import lives here (see ``adapter.py`` for those)."""

from __future__ import annotations

import json
import math
import pathlib
import statistics
from typing import Dict, Iterable, List, Sequence

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
CONTRACT_PATH = ROOT / "BENCHMARK.json"

#: results of the simulator, not of the host clock: they repeat exactly
#: for a fixed seed, so ``check.py`` compares them for equality instead
#: of against a bound.
SIMULATED = frozenset({"assigned_gbps", "slo_met_share", "admit_share"})


def load_contract() -> dict:
    with open(CONTRACT_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def contract_names(contract: dict, section: str) -> List[str]:
    return [entry["name"] for entry in contract[section]]


def units(contract: dict) -> Dict[str, str]:
    return {
        entry["name"]: entry["unit"]
        for section in ("end_to_end", "per_layer")
        for entry in contract[section]
    }


def median(values: Iterable[float]) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (numpy's default), without numpy so
    ``check.py`` runs anywhere."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = math.ceil(position)
    weight = position - low
    return float(ordered[low] * (1.0 - weight) + ordered[high] * weight)


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, the run-to-run spread the pipeline uses; 0 for
    fewer than two samples (``statistics.quantiles`` needs two)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return abs(q3 - q1) / abs(mid) if mid else 0.0


def write_json(path: pathlib.Path, payload: object) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
