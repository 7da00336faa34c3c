#!/usr/bin/env python
"""End-to-end smoke test for the ``repro serve`` control-plane daemon.

Drives a real daemon subprocess over HTTP, SIGKILLs it mid-timeline,
restarts it on the same state directory, and asserts the crash-recovery
invariant: the recovered run's final report is byte-identical to an
uninterrupted run's. This is the process-level counterpart of
``tests/serve/test_crash_recovery.py`` (which crashes in-process) —
here the kill is a genuine ``SIGKILL`` against a separate interpreter.

Run from the repo root:

    PYTHONPATH=src python scripts/serve_smoke.py [--metrics-out FILE]

``--metrics-out`` saves the reference daemon's ``/v1/metrics`` snapshot
(per-layer timers of every command it served) before it shuts down.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import urllib.error
import urllib.request

SPEC = (
    "chain enterprise: ACL -> Encrypt -> IPv4Fwd\n"
    "chain residential: BPF -> NAT -> IPv4Fwd\n"
)

COMMANDS = [
    {"kind": "arrive", "chain": "dyn0",
     "spec": "chain dyn0: ACL -> IPv4Fwd",
     "t_min_mbps": 500.0, "t_max_mbps": 4000.0},
    {"kind": "scale", "chain": "enterprise", "t_min_mbps": 1500.0},
    {"kind": "inject_fault", "action": "degrade_link",
     "target": "server0", "severity": 0.4},
    {"kind": "depart", "chain": "dyn0"},
    {"kind": "inject_fault", "action": "restore_link",
     "target": "server0"},
]

KILL_AFTER = 3  # SIGKILL once this many commands are acknowledged


def start_daemon(state_dir: str, spec_path: str):
    """Spawn ``repro serve`` and return ``(process, base_url)``."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", spec_path,
         "--tmin", "1", "1", "--tmax", "20", "20",
         "--state-dir", state_dir,
         "--packets", "16", "--flows", "8", "--batch", "8",
         "--checkpoint-every", "2"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    line = proc.stdout.readline()
    prefix = "repro-serve listening on "
    if not line.startswith(prefix):
        proc.kill()
        rest = proc.stdout.read()
        raise SystemExit(f"daemon never became ready: {line!r}\n{rest}")
    return proc, line[len(prefix):].strip()


def request(url: str, payload=None):
    data = json.dumps(payload).encode() if payload is not None else None
    req = urllib.request.Request(url, data=data)
    try:
        with urllib.request.urlopen(req, timeout=120) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def drive(proc, base, commands):
    outcomes = []
    for command in commands:
        code, body = request(base + "/v1/commands", command)
        if code != 200 or body["status"] != "applied":
            proc.kill()
            raise SystemExit(f"command not applied ({code}): {body}")
        outcomes.append(body)
        print(f"  s{body['seq']} {command['kind']} -> {body['status']}")
    return outcomes


def shutdown(proc, base):
    code, _ = request(base + "/v1/shutdown", {})
    assert code == 200, f"shutdown returned {code}"
    out, _ = proc.communicate(timeout=120)
    if proc.returncode != 0:
        raise SystemExit(
            f"daemon exited {proc.returncode}:\n{out}"
        )
    return out


def run_uninterrupted(root: str, spec_path: str, metrics_out=None) -> dict:
    print("== reference run (uninterrupted) ==")
    state = os.path.join(root, "reference")
    proc, base = start_daemon(state, spec_path)
    drive(proc, base, COMMANDS)
    _, report = request(base + "/v1/report")
    if metrics_out:
        _, metrics = request(base + "/v1/metrics")
        with open(metrics_out, "w") as fh:
            json.dump(metrics, fh, indent=2, sort_keys=True)
        print(f"  metrics snapshot -> {metrics_out}")
    shutdown(proc, base)
    return report


def run_crashed(root: str, spec_path: str) -> dict:
    print(f"== crashed run (SIGKILL after {KILL_AFTER} commands) ==")
    state = os.path.join(root, "crashed")
    proc, base = start_daemon(state, spec_path)
    drive(proc, base, COMMANDS[:KILL_AFTER])
    proc.send_signal(signal.SIGKILL)
    proc.wait(timeout=120)
    print(f"  killed (exit {proc.returncode})")

    print("== restart on the same state dir ==")
    proc, base = start_daemon(state, spec_path)
    code, health = request(base + "/v1/health")
    assert health["recovered"] is True, f"not recovered: {health}"
    print(f"  recovered at seq {health['seq']}")
    assert health["seq"] == KILL_AFTER, health
    drive(proc, base, COMMANDS[KILL_AFTER:])
    _, report = request(base + "/v1/report")
    shutdown(proc, base)
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--metrics-out", metavar="FILE",
                        help="write the reference daemon's /v1/metrics here")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="repro-serve-smoke-") as root:
        spec_path = os.path.join(root, "chains.lemur")
        with open(spec_path, "w") as fh:
            fh.write(SPEC)

        reference = run_uninterrupted(root, spec_path, args.metrics_out)
        recovered = run_crashed(root, spec_path)

        ref_doc = json.dumps(reference, sort_keys=True)
        got_doc = json.dumps(recovered, sort_keys=True)
        if ref_doc != got_doc:
            print("FAIL: recovered report diverges from reference")
            print(f"reference: {ref_doc}")
            print(f"recovered: {got_doc}")
            return 1
        print("OK: recovered report is byte-identical to the "
              "uninterrupted run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
