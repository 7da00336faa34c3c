#!/usr/bin/env python
"""End-to-end smoke test for the ``repro serve`` control-plane daemon.

Drives a real daemon subprocess over HTTP, SIGKILLs it mid-timeline,
restarts it on the same state directory, and asserts the crash-recovery
invariant: the recovered run's final report is byte-identical to an
uninterrupted run's. This is the process-level counterpart of
``tests/serve/test_crash_recovery.py`` (which crashes in-process) —
here the kill is a genuine ``SIGKILL`` against a separate interpreter.
The kill is made to look like one mid-append — a partial line is left at
the journal's tail — and a second kill follows one command later: the
restart must cut the torn tail off (``serve.journal.repaired``) before
it journals, or that command's record merges into it and is lost.
A ``lose_cores``/``restore_cores`` pair straddles the first kill, so
recovery replays a core loss. A third leg truncates the finished run's
``checkpoint.pkl`` and restarts once more: the daemon must discard it,
rebuild the same report from the journal alone, and count the discard. The reference leg also times 20
keep-alive ``GET /v1/health`` round trips through a stock
``http.client`` connection: a median above 20 ms means responses are
being held by Nagle and the client's delayed ACK again.

Run from the repo root:

    PYTHONPATH=src python scripts/serve_smoke.py [--metrics-out FILE]

``--metrics-out`` saves the rebuilt daemon's ``/v1/metrics`` snapshot:
the per-layer timers of every command (it replayed them all) plus
``serve.checkpoint.discarded``.
"""

import argparse
import http.client
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.parse
import urllib.request

SPEC = (
    "chain enterprise: ACL -> Encrypt -> IPv4Fwd\n"
    "chain residential: BPF -> NAT -> IPv4Fwd\n"
)

#: the core loss lands before the first SIGKILL and is restored after
#: it, so recovery replays a ``lose_cores`` whose stale-placement
#: shortfall shapes the phases in between
COMMANDS = [
    {"kind": "arrive", "chain": "dyn0",
     "spec": "chain dyn0: ACL -> IPv4Fwd",
     "t_min_mbps": 500.0, "t_max_mbps": 4000.0},
    {"kind": "inject_fault", "action": "lose_cores",
     "target": "server0", "severity": 2},
    {"kind": "scale", "chain": "enterprise", "t_min_mbps": 1500.0},
    {"kind": "inject_fault", "action": "degrade_link",
     "target": "server0", "severity": 0.4},
    {"kind": "inject_fault", "action": "restore_cores",
     "target": "server0"},
    {"kind": "depart", "chain": "dyn0"},
    {"kind": "inject_fault", "action": "restore_link",
     "target": "server0"},
]

KILL_AFTER = 3  # SIGKILL once this many commands are acknowledged
#: what a SIGKILL between write() and fsync() can leave behind
TORN_TAIL = '{"command": {"action": "restore_link", "kind": "inject_fa'


def start_daemon(state_dir: str, spec_path: str):
    """Spawn ``repro serve``; return ``(process, base_url, whatever it
    printed before the ready line)``."""
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
    prefix = "repro-serve listening on "
    preamble = []  # stderr shares the pipe: a recovery warning comes first
    for line in proc.stdout:
        if line.startswith(prefix):
            return proc, line[len(prefix):].strip(), "".join(preamble)
        preamble.append(line)
    proc.kill()
    raise SystemExit(
        f"daemon never became ready:\n{''.join(preamble)}")


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


def keep_alive_rtt_ms(base: str, trips: int = 20) -> float:
    """Median round trip of ``GET /v1/health`` on one untuned keep-alive
    connection (no TCP_NODELAY, no TCP_QUICKACK)."""
    address = urllib.parse.urlsplit(base)
    conn = http.client.HTTPConnection(
        address.hostname, address.port, timeout=120)
    spent = []
    try:
        for _ in range(trips):
            started = time.perf_counter()
            conn.request("GET", "/v1/health")
            conn.getresponse().read()
            spent.append((time.perf_counter() - started) * 1e3)
    finally:
        conn.close()
    return statistics.median(spent)


def run_uninterrupted(root: str, spec_path: str) -> dict:
    print("== reference run (uninterrupted) ==")
    state = os.path.join(root, "reference")
    proc, base, _ = start_daemon(state, spec_path)
    drive(proc, base, COMMANDS)
    rtt = keep_alive_rtt_ms(base)
    print(f"  keep-alive GET /v1/health: median {rtt:.2f} ms of 20")
    if rtt > 20.0:
        proc.kill()
        raise SystemExit(
            f"FAIL: a stock keep-alive client waits {rtt:.1f} ms per "
            "response (Nagle + delayed ACK?)")
    _, report = request(base + "/v1/report")
    shutdown(proc, base)
    return report


def counter_total(metrics: dict, name: str) -> float:
    return sum(
        counter["value"] for counter in metrics["counters"]
        if counter["name"] == name
    )


def kill(proc) -> None:
    proc.send_signal(signal.SIGKILL)
    proc.wait(timeout=120)
    print(f"  killed (exit {proc.returncode})")


def restart(state: str, spec_path: str, seq: int):
    proc, base, _ = start_daemon(state, spec_path)
    _, health = request(base + "/v1/health")
    assert health["recovered"] is True, f"not recovered: {health}"
    print(f"  recovered at seq {health['seq']}")
    assert health["seq"] == seq, health
    return proc, base


def run_crashed(root: str, spec_path: str) -> dict:
    print(f"== crashed run (SIGKILL after {KILL_AFTER} commands, "
          "mid-append) ==")
    state = os.path.join(root, "crashed")
    proc, base, _ = start_daemon(state, spec_path)
    drive(proc, base, COMMANDS[:KILL_AFTER])
    kill(proc)
    with open(os.path.join(state, "journal.jsonl"), "a") as fh:
        fh.write(TORN_TAIL)

    print("== restart on the torn journal, one command, SIGKILL again ==")
    proc, base = restart(state, spec_path, KILL_AFTER)
    _, metrics = request(base + "/v1/metrics")
    repaired = counter_total(metrics, "serve.journal.repaired")
    assert repaired == 1, f"serve.journal.repaired = {repaired}"
    drive(proc, base, COMMANDS[KILL_AFTER:KILL_AFTER + 1])
    kill(proc)

    print("== restart on the same state dir ==")
    # the command acknowledged after the repair is still there
    proc, base = restart(state, spec_path, KILL_AFTER + 1)
    drive(proc, base, COMMANDS[KILL_AFTER + 1:])
    _, report = request(base + "/v1/report")
    shutdown(proc, base)
    return report


def run_rebuilt(root: str, spec_path: str, metrics_out=None) -> dict:
    print("== restart after truncating checkpoint.pkl ==")
    state = os.path.join(root, "crashed")
    checkpoint = os.path.join(state, "checkpoint.pkl")
    os.truncate(checkpoint, os.path.getsize(checkpoint) // 2)
    proc, base, preamble = start_daemon(state, spec_path)
    assert "discarded unreadable checkpoint" in preamble, preamble
    _, health = request(base + "/v1/health")
    assert health["recovered"] is True, f"not recovered: {health}"
    assert health["seq"] == len(COMMANDS), health
    print(f"  rebuilt from the journal alone at seq {health['seq']}")
    _, report = request(base + "/v1/report")
    _, metrics = request(base + "/v1/metrics")
    discarded = counter_total(metrics, "serve.checkpoint.discarded")
    assert discarded == 1, f"serve.checkpoint.discarded = {discarded}"
    if metrics_out:
        with open(metrics_out, "w") as fh:
            json.dump(metrics, fh, indent=2, sort_keys=True)
        print(f"  metrics snapshot -> {metrics_out}")
    shutdown(proc, base)
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--metrics-out", metavar="FILE",
                        help="write the rebuilt daemon's /v1/metrics here")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="repro-serve-smoke-") as root:
        spec_path = os.path.join(root, "chains.lemur")
        with open(spec_path, "w") as fh:
            fh.write(SPEC)

        reference = run_uninterrupted(root, spec_path)
        recovered = run_crashed(root, spec_path)
        rebuilt = run_rebuilt(root, spec_path, args.metrics_out)

        ref_doc = json.dumps(reference, sort_keys=True)
        for leg, report in (("recovered", recovered), ("rebuilt", rebuilt)):
            got_doc = json.dumps(report, sort_keys=True)
            if ref_doc != got_doc:
                print(f"FAIL: {leg} report diverges from reference")
                print(f"reference: {ref_doc}")
                print(f"{leg}: {got_doc}")
                return 1
        print("OK: recovered report is byte-identical to the "
              "uninterrupted run (and so is one rebuilt from the journal "
              "after the checkpoint was truncated); the torn journal tail "
              "cost no acknowledged command")
    return 0


if __name__ == "__main__":
    sys.exit(main())
