#!/usr/bin/env python3
"""The repo benchmark: one command, five whole-flow workloads.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
        one workload in this process (what the pipeline calls); the last
        stdout line is one JSON object {correct, attempted, failed,
        metrics}: the end-to-end metrics with --trace 0, the per-layer
        metrics with --trace 1

    python3 bench/run.py [--seed N] [--seconds S] [--trace] [--quick] --out F
        every workload, each in its own subprocess, gathered into one
        result record for ``bench/check.py``

See bench/README.md for what each workload and metric means.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here

import hostspeed  # noqa: E402  (stdlib only: cheap, and needed first)

_CPU, _STARTING_CPUS = hostspeed.pin_to_one_cpu()
# first yardstick sample: before the heavy imports
_SPEED = hostspeed.HostSpeed(_STARTING_CPUS)

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

from common import (  # noqa: E402
    BENCH_DIR,
    OUT_DIR,
    ROOT,
    contract_names,
    load_contract,
    units,
    write_json,
)

SCHEMA = 1


def parse_args(argv=None) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run this one workload in-process "
                             "(default: all, one subprocess each)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the measured section "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", nargs="?", type=int, choices=(0, 1),
                        const=1, default=0,
                        help="1: the traced run (per-layer metrics)")
    parser.add_argument("--quick", action="store_true",
                        help="small passes and few repeats, same names "
                             "(schema smoke test; numbers are not "
                             "comparable with a full run)")
    parser.add_argument("--out", metavar="FILE",
                        help="also write the full result record here")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--sabotage-check", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_workload(args: argparse.Namespace, contract: dict) -> int:
    """Driver mode: one workload, in this process."""
    try:
        import adapter
        from runners import RUNNERS
    except ImportError as exc:
        print(f"bench: cannot import the program under test: {exc}",
              file=sys.stderr)
        return 2

    seconds = args.seconds if args.seconds is not None else \
        (2.0 if args.quick else float(contract["run_seconds"]))
    runner = RUNNERS[args.workload](
        args.workload, args.seed, seconds, args.quick, _T0, _SPEED,
        sabotage=args.sabotage_check,
    )
    started = time.perf_counter()
    tracer = None
    # a terminated run unwinds through ``finish`` too, so it leaves no
    # daemon or pool worker behind
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        runner.setup()
        if args.setup_only:
            print(json.dumps({"setup_s": runner.setup_s,
                              "factor": runner.setup_factor,
                              "digest": runner.digest}), flush=True)
            return 0
        if args.trace:
            import tracing

            measurement, tracer = runner.trace()
            # to read trace_overhead_share against: spans x cost / wall
            runner.notes.update(
                spans=len(tracer.spans),
                span_cost_us=tracing.span_cost() * 1e6)
        else:
            measurement = runner.measure()
    finally:
        runner.finish()

    section = "per_layer" if args.trace else "end_to_end"
    unit_of = units(contract)
    declared = contract_names(contract, section)
    not_exercised = [n for n in declared if n not in measurement.values]
    undeclared = [n for n in measurement.values if n not in declared]
    ledger = runner.ledger
    # an end-to-end metric may never be missing; a per-layer one reads 0
    # when the workload does not enter that layer (listed in the record)
    ledger.check("schema:every-declared-metric-emitted",
                 not (not_exercised and not args.trace),
                 f"missing: {not_exercised}")
    ledger.check("schema:no-undeclared-metric", not undeclared,
                 f"not in BENCHMARK.json: {undeclared}")
    metrics = {
        name: {"value": measurement.values.get(name, 0.0),
               "unit": unit_of[name]}
        for name in declared
    }

    harness_wall = time.perf_counter() - _T0
    record = {
        "schema": SCHEMA,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "quick": args.quick,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "pinned_cpu": _CPU,
        "host_speed": {
            "reference_s": hostspeed.REFERENCE_S,
            "spins_s": runner.speed.spins,
        },
        "versions": adapter.versions(),
        "correct": ledger.correct,
        "attempted_ops": ledger.attempted,
        "failed_ops": ledger.failed,
        "metrics": {
            name: {
                **metrics[name],
                "samples": measurement.samples.get(name, []),
                "n": measurement.counts.get(name, 0),
                **({"raw": measurement.raw[name]}
                   if name in measurement.raw else {}),
            }
            for name in declared
        },
        "checks": ledger.checks,
        "absent": runner.absent,
        "not_exercised": not_exercised if args.trace else [],
        "notes": runner.notes,
        "harness_wall_s": harness_wall,
        "measured_wall_s": time.perf_counter() - started,
    }
    suffix = "trace" if args.trace else "e2e"
    write_json(OUT_DIR / f"result-{args.workload}-{args.seed}-{suffix}.json",
               record)
    if args.out:
        write_json(pathlib.Path(args.out), record)
    if tracer is not None:
        tracer.write_chrome_trace(OUT_DIR / f"trace-{args.workload}.json")

    for name in declared:
        entry = record["metrics"][name]
        note = "  (not exercised)" if name in not_exercised else ""
        print(f"{args.workload:<22} {name:<44} "
              f"{entry['value']:>16.6g} {entry['unit']}{note}")
    for name, reason in sorted(runner.absent.items()):
        print(f"{args.workload:<22} {name:<44} absent: {reason}")
    for entry in ledger.checks:
        if not entry["ok"]:
            print(f"FAILED {entry['check']}: {entry['detail']}")
    print(f"{args.workload}: attempted_ops={ledger.attempted} "
          f"failed_ops={ledger.failed} harness_wall_s={harness_wall:.2f}")
    print(json.dumps({
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0 if ledger.correct else 1


def run_all(args: argparse.Namespace, contract: dict) -> int:
    """Every workload in its own subprocess, one combined record."""
    combined = {"schema": SCHEMA, "seed": args.seed, "trace": args.trace,
                "quick": args.quick, "workloads": {}}
    status = 0
    tmp = OUT_DIR / f"all-{os.getpid()}.json"
    for entry in contract["workloads"]:
        command = [
            sys.executable, str(BENCH_DIR / "run.py"),
            "--workload", entry["name"], "--seed", str(args.seed),
            "--trace", str(args.trace), "--out", str(tmp),
        ]
        if args.seconds is not None:
            command += ["--seconds", str(args.seconds)]
        if args.quick:
            command.append("--quick")
        proc = subprocess.run(command)
        if proc.returncode != 0:
            status = proc.returncode
        if tmp.exists():
            with open(tmp, encoding="utf-8") as fh:
                combined["workloads"][entry["name"]] = json.load(fh)
            tmp.unlink()
    first = next(iter(combined["workloads"].values()), {})
    for key in ("git_sha", "nproc", "versions"):
        combined[key] = first.get(key)
    if args.out:
        write_json(pathlib.Path(args.out), combined)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    contract = load_contract()
    if args.workload:
        return run_workload(args, contract)
    return run_all(args, contract)


if __name__ == "__main__":
    sys.exit(main())
