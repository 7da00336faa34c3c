#!/usr/bin/env python3
"""Compare two result records of ``bench/run.py --out``.

    python3 bench/check.py A.json B.json

Per (workload, metric) row: both values, the quartiles of the per-trial
samples behind them, the ratio B/A (base: A) and the bound from
``BENCHMARK.json``. Exits non-zero when B is worse than A beyond the
bound, when a simulated metric differs at all, or when
``failed_ops / attempted_ops`` rose. A timing pair whose base (A) spreads
wider between its own quartiles than the bound is reported as
*unresolved*, never as unchanged.
"""

import json
import sys

from common import SIMULATED, load_contract, quantile, quartile_spread


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    if "workloads" not in record:  # a single-workload record
        record = {"workloads": {record["workload"]: record}}
    return record


def worsening(entry: dict, base: float, other: float) -> float:
    """How much worse ``other`` is than ``base``, as a share of ``base``
    (negative: better)."""
    if base == 0:
        return 0.0 if other == 0 else float("inf")
    delta = (other - base) / abs(base)
    return delta if entry["better"] == "lower" else -delta


def quartiles(samples) -> str:
    if len(samples) < 2:
        return "-"
    return f"{quantile(samples, 0.25):.4g}..{quantile(samples, 0.75):.4g}"


def compare(a: dict, b: dict, contract: dict) -> int:
    failures = 0
    unresolved = 0
    header = (f"{'workload':<22} {'metric':<16} {'A':>12} {'A q1..q3':>22} "
              f"{'B':>12} {'B q1..q3':>22} {'B/A':>8} {'bound':>6}  verdict")
    print(header)
    for workload in (w["name"] for w in contract["workloads"]):
        wa = a["workloads"].get(workload)
        wb = b["workloads"].get(workload)
        if wa is None or wb is None:
            print(f"{workload:<22} missing from "
                  f"{'A' if wa is None else 'B'}")
            failures += 1
            continue
        for entry in contract["end_to_end"]:
            name = entry["name"]
            ma, mb = wa["metrics"].get(name), wb["metrics"].get(name)
            if ma is None or mb is None:
                print(f"{workload:<22} {name:<16} missing")
                failures += 1
                continue
            va, vb = ma["value"], mb["value"]
            ratio = vb / va if va else float("nan")
            worse = worsening(entry, va, vb)
            if name in SIMULATED:
                # exact for a fixed seed, whatever the pipeline's bound
                verdict = "ok (exact)" if va == vb else "FAIL: simulated " \
                    "result moved"
            elif quartile_spread(ma.get("samples", [])) > entry["bound"] \
                    and abs(worse) <= quartile_spread(ma["samples"]):
                verdict = "unresolved: A spreads wider than the bound"
            elif worse > entry["bound"]:
                verdict = f"FAIL: {worse * 100:.1f} % worse"
            else:
                verdict = "ok"
            failures += verdict.startswith("FAIL")
            unresolved += verdict.startswith("unresolved")
            print(f"{workload:<22} {name:<16} {va:>12.5g} "
                  f"{quartiles(ma.get('samples', [])):>22} {vb:>12.5g} "
                  f"{quartiles(mb.get('samples', [])):>22} {ratio:>8.3f} "
                  f"{entry['bound']:>6.2f}  {verdict}")
        share_a = wa["failed_ops"] / max(1, wa["attempted_ops"])
        share_b = wb["failed_ops"] / max(1, wb["attempted_ops"])
        verdict = "ok" if share_b <= share_a else "FAIL: failure share rose"
        failures += verdict.startswith("FAIL")
        print(f"{workload:<22} {'failed/attempted':<16} "
              f"{wa['failed_ops']}/{wa['attempted_ops']:<10} {'':>21} "
              f"{wb['failed_ops']}/{wb['attempted_ops']:<10} {'':>33} "
              f"{verdict}")
    print(f"{failures} failing, {unresolved} unresolved")
    return 1 if failures else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    return compare(load(argv[0]), load(argv[1]), load_contract())


if __name__ == "__main__":
    sys.exit(main())
