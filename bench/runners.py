"""The timed flow of each workload: set-up, measured section, checks.

All timings are *host* wall clock (``time.perf_counter``), divided by the
host-speed factor measured around each timed section (``hostspeed.py``;
the raw value is kept beside every metric); ``assigned_gbps``,
``slo_met_share`` and ``admit_share`` are *simulated* results that repeat
exactly for a fixed seed. Load comes from one
process: the dataplane workloads and ``fabric_lifecycle`` run in this
process single-threaded, ``serve_churn`` is one closed-loop client on one
HTTP connection to one daemon.

The pipeline wants every end-to-end metric on every workload, so each
metric has one definition that holds on all five (README, "metric
definitions"): a *request* is the front-door call an operator waits on —
one ``TrafficEngine.run`` on the dataplane workloads, one HTTP command on
``serve_churn``, one admission decision on ``fabric_lifecycle``.
"""

from __future__ import annotations

import asyncio
import hashlib
import http.client
import json
import os
import resource
import shutil
import signal
import socket
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

import adapter
import checks
import hostspeed
import probes
import tracing
import workloads
from common import BENCH_DIR, OUT_DIR, median, quantile

#: simulated metrics and the first-pass pressure figures come from these
#: many timed passes, which always run, so they do not depend on how many
#: more the time budget allowed.
MIN_PASSES = 3
MAX_PASSES = 64
#: share of ``--seconds`` spent on traffic passes; the rest on deploys.
PASS_BUDGET_SHARE = 0.9
MIN_DEPLOYS = 21
MAX_DEPLOYS = 201
#: set-ups measured per run besides the run's own (median of all).
EXTRA_SETUPS = 2
#: traced run: untraced reference passes, traced passes, traced deploys.
TRACE_PASSES = 2
TRACE_DEPLOYS = 5
TRACE_OPERATIONS = 80
#: SIGKILL -> restart cycles per serve trial (median reported).
RECOVERIES = 3


def _digest(payload: object) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


#: one timed observation: (raw value, host-speed factor around it)
Timing = Tuple[float, float]


def _live_pids(field: int, value: int) -> List[int]:
    """Live (non-zombie) processes whose ``/proc/<pid>/stat`` field after
    the state letter -- 1: parent pid, 2: process group -- is ``value``."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[0] != "Z" and int(fields[field]) == value:
            pids.append(int(entry))
    return pids


def adopt_orphans() -> None:
    """Make this process the reaper of all its descendants, so that the
    pool workers of a SIGKILLed daemon are waited for here
    (``stop_children``) and not by init at some later time."""
    try:
        import ctypes

        PR_SET_CHILD_SUBREAPER = 36
        ctypes.CDLL(None).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: orphans go to init as usual


def _reap_zombies() -> None:
    try:
        while os.waitpid(-1, os.WNOHANG)[0]:
            pass
    except ChildProcessError:
        pass


def stop_children(grace: float = 10.0) -> None:
    """Stop every process this one started and still has, and wait until
    each has ended, so that nothing outlives the run."""
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        # started behind the scenes by the first shared-memory segment or
        # pool worker; it ignores SIGTERM and ends only once its pipe is
        # closed -- a moment *after* this process has gone, unless it is
        # told to stop (which closes the pipe and waits for it)
        try:
            tracker._resource_tracker._stop()
        except (AttributeError, OSError):
            pass
    children = _live_pids(1, os.getpid())
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for pid in children:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        deadline = time.perf_counter() + grace
        while children and time.perf_counter() < deadline:
            for pid in list(children):
                try:
                    done, _status = os.waitpid(pid, os.WNOHANG)
                except ChildProcessError:  # someone else waited for it
                    done = pid
                if done:
                    children.remove(pid)
            if children:
                time.sleep(0.01)
        if not children:
            break
    _reap_zombies()


def _norm(timings: List[Timing]) -> List[float]:
    return [value / factor for value, factor in timings]


def _raw(timings: List[Timing]) -> List[float]:
    return [value for value, _factor in timings]


class Measurement:
    """Metric name -> reported value, the per-trial values of that same
    statistic, how many raw observations stand behind it, and (for a
    timing) the value before host-speed normalisation."""

    def __init__(self) -> None:
        self.values: Dict[str, float] = {}
        self.samples: Dict[str, List[float]] = {}
        self.counts: Dict[str, int] = {}
        self.raw: Dict[str, float] = {}

    def put(self, name: str, value: float,
            samples: Optional[List[float]] = None,
            n: Optional[int] = None, raw: Optional[float] = None) -> None:
        self.values[name] = float(value)
        self.samples[name] = [float(v) for v in (samples or [value])]
        self.counts[name] = len(self.samples[name]) if n is None else n
        if raw is not None:
            self.raw[name] = float(raw)

    @classmethod
    def of(cls, values: Dict[str, float]) -> "Measurement":
        out = cls()
        for name, value in values.items():
            out.put(name, value)
        return out

    def put_median(self, name: str, samples: List[float],
                   raw: Optional[List[float]] = None) -> None:
        self.put(name, median(samples), samples,
                 raw=median(raw) if raw else None)

    def put_rate(self, name: str, amount: float,
                 timings: List[Timing]) -> None:
        """Median of ``amount / seconds`` over timed sections."""
        self.put_median(name, [amount / t for t in _norm(timings)],
                        [amount / t for t in _raw(timings)])

    def put_quantile(self, name: str, q: float,
                     trials: List[List[Timing]]) -> None:
        """Quantile ``q`` of the pooled observations; the per-trial
        quantiles are kept as the run-to-run samples."""
        pooled = [v for trial in trials for v in _norm(trial)]
        self.put(
            name, quantile(pooled, q),
            [quantile(_norm(trial), q) for trial in trials], n=len(pooled),
            raw=quantile([v for trial in trials for v in _raw(trial)], q),
        )


class Runner:
    """Shared plumbing; subclasses provide ``setup``/``measure``/``trace``."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 quick: bool, t0: float, speed: hostspeed.HostSpeed,
                 sabotage: bool = False):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.quick = quick
        self.t0 = t0
        self.sabotage = sabotage
        self.ledger = checks.Ledger()
        #: probe / span target -> why it could not be measured
        self.absent: Dict[str, str] = {}
        #: free-form record fields (inputs file, counts, pressure, ...)
        self.notes: Dict[str, object] = {}
        self.setup_s = 0.0
        self.digest = ""
        #: host-speed yardstick; it already holds a sample from before
        #: the imports, this one is after them
        self.speed = speed
        adopt_orphans()
        speed.mark()

    # -- helpers ------------------------------------------------------------

    def end_setup(self) -> None:
        """Close set-up: its wall since process start and the host-speed
        factor across it."""
        self.setup_s = time.perf_counter() - self.t0
        self.setup_factor = self.speed.factor_since_start()

    @property
    def own_setup(self) -> Timing:
        return (self.setup_s, self.setup_factor)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def _deploy(self, registry=None) -> adapter.Deployment:
        """Cold spec -> rack(s) for the workload's base chains, all fresh."""
        inputs = self.inputs
        return adapter.cold_deploy(
            inputs.spec_text, inputs.slos, inputs.preset, inputs.seed,
            registry=registry,
        )

    def _traced_deploys(self, tracer: tracing.Tracer):
        """``TRACE_DEPLOYS`` cold deploys under an installed tracer, one
        request id each; returns their span range and the last result."""
        low = len(tracer.spans)
        for index in range(TRACE_DEPLOYS):
            tracer.request = 1000 + index
            with tracer.span("bench.deploy"):
                cold = self._deploy()
        return (low, len(tracer.spans)), cold

    def _rack_probes(self) -> Dict[str, probes.Probe]:
        """The one-rack probe suite on a throwaway deployment."""
        throwaway = self._deploy(adapter.MetricsRegistry())
        return probes.rack_probes(
            throwaway.racks[0], self.inputs.flows, self.inputs.batch)

    def extra_setups(self) -> Tuple[List[Timing], List[Timing]]:
        """Set the workload up again in fresh processes.

        Returns the children's own ``setup_s`` and, as the recovery time
        of a workload without a daemon, the wall from spawning each child
        to it reporting the same warm-state digest as this process — both
        with the host-speed factor the child measured across its set-up.
        """
        setups: List[Timing] = []
        recoveries: List[Timing] = []
        command = [
            sys.executable, str(BENCH_DIR / "run.py"),
            "--workload", self.workload, "--seed", str(self.seed),
            "--setup-only",
        ] + (["--quick"] if self.quick else [])
        for _ in range(1 if self.quick else EXTRA_SETUPS):
            started = time.perf_counter()
            proc = subprocess.Popen(
                command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True,
            )
            line = proc.stdout.readline()
            wall = time.perf_counter() - started
            _rest, errors = proc.communicate(timeout=170)
            try:
                child = json.loads(line)
            except ValueError:
                child = {}
            self.ledger.check(
                "fresh-process-digest",
                proc.returncode == 0
                and child.get("digest") == self.digest,
                f"child exit {proc.returncode}, digest "
                f"{child.get('digest')!r} != {self.digest!r}: "
                f"{errors.strip()[-300:]}",
            )
            if "setup_s" in child:
                setups.append((child["setup_s"], child["factor"]))
                recoveries.append((wall, child["factor"]))
        return setups, recoveries

    def finish(self) -> None:
        """Stop anything a probe or engine may have left running."""
        try:
            adapter.shutdown_worker_pool()
        finally:
            stop_children()


# ---------------------------------------------------------------------------
# nic_fastpath / flowscale_smallbatch / table2_stateful
# ---------------------------------------------------------------------------


class DataplaneRunner(Runner):
    def setup(self) -> None:
        self.inputs = workloads.dataplane_inputs(
            self.workload, self.seed, self.quick)
        self.notes["inputs_file"] = workloads.dump_inputs(
            self.workload, self.seed, self.inputs.as_dict())
        self.registry = adapter.MetricsRegistry()
        self.deployment = self._deploy(self.registry)
        self.dep = self.deployment.racks[0]
        self.engine = adapter.traffic_engine(
            self.dep, self.inputs.flows, self.inputs.batch)
        adapter.synthesize(self.engine)
        self.speed.mark()
        warm = self.engine.run(self.inputs.packets)
        self.digest = _digest(warm.as_dict())
        self.end_setup()

    def _timed_pass(self) -> Tuple[float, object]:
        started = time.perf_counter()
        report = self.engine.run(self.inputs.packets)
        return time.perf_counter() - started, report

    def measure(self) -> Measurement:
        out = Measurement()
        inputs = self.inputs
        speed = self.speed
        chains = len(self.dep.placement.chains)
        per_pass = inputs.packets * chains

        passes: List[Timing] = []
        rows: List[dict] = []
        deadline = time.perf_counter() + self.seconds * PASS_BUDGET_SHARE
        while len(passes) < MAX_PASSES and (
            len(passes) < MIN_PASSES or time.perf_counter() < deadline
        ):
            wall, report = self._timed_pass()
            passes.append((wall, speed.factor()))
            self.ledger.ops(report.injected,
                            failed=per_pass - report.injected)
            if len(passes) <= MIN_PASSES:
                rows.extend(adapter.traffic_rows(report))
        checks.conservation_rows(self.ledger, rows, "timed-passes")

        deadline = time.perf_counter() \
            + self.seconds * (1.0 - PASS_BUDGET_SHARE)
        deploys, cold = _timed_deploys(
            self._deploy, speed, 5 if self.quick else MIN_DEPLOYS, deadline)
        self.ledger.ops(len(deploys))
        rss = self.peak_rss_mb()

        self.ledger.guarded("dataplane-checks", lambda: self.notes.update(
            pressure=checks.dataplane_checks(
                self.ledger, inputs, sabotage=self.sabotage)
        ))
        setups, recoveries = self.extra_setups()
        setups.insert(0, self.own_setup)

        walls_ms = [(w * 1e3, f) for w, f in passes]
        out.put_median("setup_s", _norm(setups), _raw(setups))
        out.put("peak_rss_mb", rss)
        out.put_rate("pps", per_pass, passes)
        out.put_median("deploy_ms", _norm(deploys), _raw(deploys))
        out.put("assigned_gbps", cold.assigned_gbps)
        out.put("slo_met_share",
                sum(r["slo_met"] for r in rows) / len(rows))
        out.put("admit_share", cold.admitted / len(cold.chains))
        out.put_rate("cmd_per_s", 1.0, passes)
        out.put_quantile("cmd_p50_ms", 0.50, [walls_ms])
        out.put_quantile("cmd_p95_ms", 0.95, [walls_ms])
        recoveries = recoveries or [self.own_setup]
        out.put_median("recover_s", _norm(recoveries), _raw(recoveries))
        out.put_rate("events_per_s", chains, passes)
        self.notes.update(passes=len(passes), deploys=len(deploys),
                          packets_per_pass=per_pass)
        return out

    def trace(self) -> Tuple[Measurement, tracing.Tracer]:
        inputs = self.inputs
        chains = len(self.dep.placement.chains)
        per_pass = inputs.packets * chains
        before = self._flow_cache()
        tracer = tracing.Tracer()
        reference: List[float] = []
        traced: List[float] = []
        low = len(tracer.spans)
        # untraced and traced passes alternate, so drift on a shared box
        # lands on both sides of the overhead ratio
        for index in range(TRACE_PASSES):
            reference.append(self._timed_pass()[0])
            tracer.install()
            try:
                tracer.request = index
                with tracer.span("bench.pass") as root:
                    report = self.engine.run(inputs.packets)
            finally:
                tracer.uninstall()
            traced.append(root.duration)
            self.ledger.ops(2 * report.injected)
        passes = (low, len(tracer.spans))
        tracer.install()
        try:
            deploys, cold = self._traced_deploys(tracer)
        finally:
            tracer.uninstall()
        self.absent.update(tracer.absent)
        after = self._flow_cache()

        values = tracing.section_metrics(
            tracer, passes, sum(traced), TRACE_PASSES,
            per_pass * TRACE_PASSES)
        values.update(tracing.deploy_metrics(tracer, deploys))
        values["trace_overhead_share"] = \
            median(traced) / median(reference) - 1.0
        lookups = sum(after) - sum(before)
        if lookups:
            values["sim.runtime.flow_cache_hit_share"] = \
                (after[0] - before[0]) / lookups
        values.update(_artifact_metrics(cold))

        suite = self._rack_probes()
        reduced = max(64, inputs.packets // 4)
        suite.update(probes.obs_probes(
            self._deploy, inputs.flows, inputs.batch, reduced))
        probed, absent = probes.run_probes(suite)
        if self.workload != "flowscale_smallbatch":
            # the issue's two sharding inputs: all-vector and all-scalar.
            # Workers inherit the affinity of the moment they fork, so
            # the pool is started and stopped inside the unpinned block.
            with hostspeed.all_cpus(self.speed.starting_cpus):
                pooled, missing = probes.run_probes(probes.runtime_probes(
                    self.dep, self.registry, inputs.flows, inputs.batch,
                    reduced))
                adapter.shutdown_worker_pool()
            probed.update(pooled)
            absent.update(missing)
        self.absent.update(absent)
        # spans of the workload's own flow win over a probe of the same
        # quantity (none on a dataplane workload, by construction)
        probed.update(values)

        self.ledger.guarded("dataplane-checks", lambda: self.notes.update(
            pressure=checks.dataplane_checks(
                self.ledger, inputs, sabotage=self.sabotage)
        ))
        pressure = self.notes.get("pressure", {})
        probed["sim.columns.fallback_share"] = \
            pressure.get("fallback_share", 0.0)
        probed["sim.columns.pkts_per_signature"] = \
            pressure.get("pkts_per_signature", 0.0)
        return Measurement.of(probed), tracer

    def _flow_cache(self) -> Tuple[float, float]:
        return tuple(
            self.registry.counter_value(
                "rack.flow_cache.lookups", result=result)
            for result in ("hit", "miss")
        )


def _timed_deploys(deploy, speed: hostspeed.HostSpeed, floor: int,
                   deadline: float = 0.0):
    """Cold deploys, each timed in ms; the host-speed factor is taken per
    group of ~0.1 s so the yardstick does not outweigh a 6 ms deploy.
    Runs ``floor`` deploys at least and on until ``deadline``."""
    timings: List[Timing] = []
    cold = None
    speed.mark()
    while len(timings) < MAX_DEPLOYS and (
        len(timings) < floor or time.perf_counter() < deadline
    ):
        group: List[float] = []
        group_started = time.perf_counter()
        while time.perf_counter() - group_started < 0.1 \
                and len(timings) + len(group) < MAX_DEPLOYS:
            started = time.perf_counter()
            cold = deploy()
            group.append((time.perf_counter() - started) * 1e3)
        factor = speed.factor()
        timings.extend((ms, factor) for ms in group)
    return timings, cold


def _artifact_metrics(deployment: adapter.Deployment) -> Dict[str, float]:
    import pickle

    stages = 0
    size = 0
    for dep in deployment.racks:
        p4 = getattr(dep.artifacts, "p4", None)
        if p4 is not None:
            stages = max(stages, p4.compile_result.stage_count)
        size += len(pickle.dumps(dep.artifacts))
    return {"p4c.stages_used": float(stages),
            "metacompiler.artifact_bytes": float(size)}


# ---------------------------------------------------------------------------
# serve_churn
# ---------------------------------------------------------------------------


class _Client:
    """One keep-alive HTTP connection.

    ``tuned`` sets ``TCP_NODELAY`` and re-arms ``TCP_QUICKACK`` before
    each read. Without them every response waits ~40 ms: the daemon
    writes headers and body as two segments without ``TCP_NODELAY`` and a
    keep-alive client's delayed ACK holds the second one back. That
    stall is reported on its own (``serve.http.rtt_plain_ms``); the
    command metrics use the tuned client so they measure the control
    plane rather than a kernel timer.
    """

    def __init__(self, url: str, tuned: bool = True):
        host, _, port = url.split("//", 1)[1].partition(":")
        self.conn = http.client.HTTPConnection(host, int(port), timeout=120)
        self.conn.connect()
        self.tuned = tuned and hasattr(socket, "TCP_QUICKACK")
        if self.tuned:
            self.conn.sock.setsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def request(self, method: str, path: str,
                payload: Optional[dict] = None) -> Tuple[int, dict]:
        body = None if payload is None else json.dumps(payload).encode()
        headers = {"Content-Type": "application/json"} if body else {}
        self.conn.request(method, path, body=body, headers=headers)
        if self.tuned:
            self.conn.sock.setsockopt(
                socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)
        response = self.conn.getresponse()
        return response.status, json.loads(response.read())

    def close(self) -> None:
        self.conn.close()


class _Daemon:
    """A ``python -m repro serve`` subprocess in its own process group
    (its worker-pool children die and are waited for with it)."""

    READY = "repro-serve listening on "

    def __init__(self, argv: List[str], env: dict):
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith(self.READY):
            self.kill()
            raise RuntimeError(
                f"daemon never became ready: {line!r} "
                f"{self.proc.stderr.read()[-500:]}"
            )
        self.start_s = time.perf_counter() - started
        self.url = line[len(self.READY):].strip()

    def members(self) -> List[int]:
        """Live (non-zombie) processes of the daemon's process group."""
        return _live_pids(2, self.proc.pid)

    def peak_rss_mb(self) -> float:
        """Sum of ``VmHWM`` over the daemon and its pool workers."""
        total = 0.0
        for pid in self.members():
            try:
                with open(f"/proc/{pid}/status") as fh:
                    for line in fh:
                        if line.startswith("VmHWM:"):
                            total += float(line.split()[1]) / 1024.0
            except OSError:
                continue
        return total

    def kill(self) -> None:
        """SIGKILL the whole group and wait until every member is gone."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait(timeout=60)
        for stream in (self.proc.stdout, self.proc.stderr):
            stream.close()
        deadline = time.perf_counter() + 30
        while self.members() and time.perf_counter() < deadline:
            time.sleep(0.01)

    def shutdown(self, client: _Client) -> int:
        """Graceful stop: drain, checkpoint, print the report, exit."""
        client.request("POST", "/v1/shutdown", {})
        client.close()
        try:
            self.proc.communicate(timeout=120)
        finally:
            self.kill()
        return self.proc.returncode


class ServeRunner(Runner):
    def setup(self) -> None:
        self.inputs = workloads.serve_inputs(self.seed, self.quick)
        self.workdir = OUT_DIR / f"serve-{os.getpid()}"
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self.spec_path = self.workdir / "chains.lemur"
        self.spec_path.write_text(self.inputs.spec_text)
        self._states = 0
        self._before_spawn = time.perf_counter() - self.t0
        self.daemon = self._spawn(self._new_state())
        self.client = _Client(self.daemon.url)
        self.end_setup()

    def _new_state(self) -> str:
        self._states += 1
        return str(self.workdir / f"state{self._states}")

    def _spawn(self, state_dir: str) -> _Daemon:
        inputs = self.inputs
        argv, env = adapter.serve_argv(
            str(self.spec_path), inputs.slos, inputs.preset, state_dir,
            inputs.packets, inputs.flows, inputs.batch,
            inputs.checkpoint_every, inputs.seed,
        )
        return _Daemon(argv, env)

    def finish(self) -> None:
        daemon = getattr(self, "daemon", None)
        if daemon is not None:
            daemon.kill()
        shutil.rmtree(getattr(self, "workdir", ""), ignore_errors=True)
        super().finish()

    def _storm(self, client: _Client) -> dict:
        """Drive one seeded command storm; returns what it observed.

        The host-speed yardstick runs between commands, every
        ``checkpoint_every`` of them (the client is idle there anyway:
        closed loop), and never inside a send -> ack interval.
        """
        generator = workloads.ServeCommandGenerator(
            self.inputs.seed, self.inputs.operations)
        latencies: List[Timing] = []
        group: List[float] = []
        verdicts = {"accepted": 0, "rejected": 0}
        arrivals = {"accepted": 0, "rejected": 0}
        failed = journaled = 0
        last: dict = {}
        self.speed.mark()
        for command in generator:
            sent = time.perf_counter()
            _code, body = client.request("POST", "/v1/commands", command)
            group.append(time.perf_counter() - sent)
            if len(group) == self.inputs.checkpoint_every:
                factor = self.speed.factor()
                latencies.extend((seconds, factor) for seconds in group)
                group = []
            status = body.get("status", "error")
            generator.observe(status)
            if status not in ("applied", "rejected"):
                failed += 1
                continue
            last = body
            if command["kind"] != "snapshot":
                journaled += 1
            if command["kind"] in ("arrive", "scale"):
                key = "accepted" if status == "applied" else "rejected"
                verdicts[key] += 1
                if command["kind"] == "arrive":
                    arrivals[key] += 1
        if group:
            factor = self.speed.factor()
            latencies.extend((seconds, factor) for seconds in group)
        self.ledger.ops(len(latencies), failed=failed)
        # closed loop: the storm's wall is the sum of its round trips
        return {
            "wall": (sum(_raw(latencies)), sum(_raw(latencies))
                     / sum(_norm(latencies))),
            "latencies": latencies, "verdicts": verdicts,
            "arrivals": arrivals, "journaled": journaled, "last": last,
            "commands": generator.issued,
        }

    def _trial(self, first: bool) -> dict:
        """Storm, SIGKILL, restart on the same state dir, verify."""
        if first:
            daemon, client = self.daemon, self.client
            state_dir = str(self.workdir / "state1")
        else:
            state_dir = self._new_state()
            daemon = self.daemon = self._spawn(state_dir)
            client = _Client(daemon.url)
        _code, initial = client.request("GET", "/v1/report")
        storm = self._storm(client)
        _code, before = client.request("GET", "/v1/report")
        storm["rss"] = daemon.peak_rss_mb()
        client.close()
        daemon.kill()

        # a recovered daemon replays the journal suffix without writing a
        # checkpoint, so killing it again repeats the same recovery work
        recoveries: List[Timing] = []
        for attempt in range(1 if self.quick else RECOVERIES):
            if attempt:
                client.close()
                daemon.kill()
            self.speed.mark()
            started = time.perf_counter()
            daemon = self.daemon = self._spawn(state_dir)
            client = _Client(daemon.url)
            _code, health = client.request("GET", "/v1/health")
            recoveries.append((time.perf_counter() - started,
                               self.speed.factor()))
        storm["recover_s"] = recoveries
        _code, after = client.request("GET", "/v1/report")
        self.ledger.check(
            "recovery:health",
            health.get("recovered") is True
            and health.get("seq") == storm["journaled"]
            and health.get("digest") == storm["last"].get("digest"),
            f"health {health} after {storm['journaled']} journaled "
            f"commands, last ack digest {storm['last'].get('digest')}",
        )
        self.ledger.check(
            "recovery:report-byte-identical",
            json.dumps(before, sort_keys=True)
            == json.dumps(after, sort_keys=True),
            "the recovered /v1/report differs from the pre-kill one",
        )
        code = daemon.shutdown(client)
        self.ledger.check("daemon-exit", code in (0, 2),
                          f"graceful shutdown exited {code}")
        storm["packets"] = \
            before["total_injected"] - initial["total_injected"]
        storm["rows"] = [
            row for phase in before["phases"] for row in phase["chains"]
        ]
        storm["report_digest"] = _digest(before)
        return storm

    def measure(self) -> Measurement:
        out = Measurement()
        trials = [self._trial(first=True)]
        spent = trials[0]["wall"][0]
        while not self.quick \
                and spent + trials[-1]["wall"][0] <= self.seconds:
            trials.append(self._trial(first=False))
            spent += trials[-1]["wall"][0]
        self.ledger.check(
            "determinism:trials-agree",
            len({t["report_digest"] for t in trials}) == 1,
            "same-seed trials produced different reports",
        )
        first = trials[0]
        self.notes["inputs_file"] = workloads.dump_inputs(
            self.workload, self.seed,
            {**self.inputs.as_dict(), "commands": first["commands"]})

        # set-up again: imports (as measured once) + spawn -> ready on an
        # empty state dir
        setups = [self.own_setup]
        for _ in range(1 if self.quick else EXTRA_SETUPS):
            self.speed.mark()
            daemon = self.daemon = self._spawn(self._new_state())
            setups.append((self._before_spawn + daemon.start_s,
                           self.speed.factor()))
            code = daemon.shutdown(_Client(daemon.url))
            self.ledger.check("daemon-exit", code in (0, 2),
                              f"graceful shutdown exited {code}")

        inputs = self.inputs
        deploys, cold = _timed_deploys(
            self._deploy, self.speed, 5 if self.quick else MIN_DEPLOYS)
        self.ledger.ops(len(deploys))
        problems = adapter.placement_violations(cold)
        self.ledger.check("placement-invariants", not problems,
                          "; ".join(problems))

        rows = first["rows"]
        checks.conservation_rows(self.ledger, rows, "phases")
        arrivals = first["arrivals"]
        reject_share = arrivals["rejected"] / max(1, sum(arrivals.values()))
        if not self.quick:
            checks.share_in_band(
                self.ledger, "arrival_reject_share", reject_share,
                0.02, 0.45,
                "admission is no longer under the intended pressure")
        verdicts = first["verdicts"]
        walls = [t["wall"] for t in trials]
        latencies = [[(seconds * 1e3, factor)
                      for seconds, factor in t["latencies"]]
                     for t in trials]
        recoveries = [r for t in trials for r in t["recover_s"]]

        out.put_median("setup_s", _norm(setups), _raw(setups))
        out.put_median("peak_rss_mb", [t["rss"] for t in trials])
        out.put_rate("pps", first["packets"], walls)
        out.put_median("deploy_ms", _norm(deploys), _raw(deploys))
        out.put("assigned_gbps", cold.assigned_gbps)
        out.put("slo_met_share",
                sum(bool(r["slo_met"]) for r in rows) / len(rows))
        out.put("admit_share",
                verdicts["accepted"] / max(1, sum(verdicts.values())))
        out.put_rate("cmd_per_s", inputs.operations, walls)
        out.put_quantile("cmd_p50_ms", 0.50, latencies)
        out.put_quantile("cmd_p95_ms", 0.95, latencies)
        out.put_median("recover_s", _norm(recoveries), _raw(recoveries))
        out.put_rate("events_per_s", first["journaled"], walls)
        self.notes.update(
            trials=len(trials), arrival_reject_share=reject_share,
            journaled=first["journaled"])
        return out

    # -- traced run ---------------------------------------------------------

    def _replay(self, state_dir: str, count: int,
                tracer: Optional[tracing.Tracer]) -> dict:
        """Replay the storm's first ``count`` commands through an
        in-process daemon (rack in this process, so spans can see it)."""
        inputs = self.inputs
        registry = adapter.MetricsRegistry()
        daemon = adapter.serve_daemon(
            inputs.spec_text, inputs.slos, inputs.preset, state_dir,
            inputs.packets, inputs.flows, inputs.batch,
            inputs.checkpoint_every, inputs.seed, registry=registry)
        generator = workloads.ServeCommandGenerator(
            inputs.seed, inputs.operations)
        walls: List[float] = []

        async def drive() -> None:
            await daemon.start()
            for index, command in enumerate(generator):
                if index >= count:
                    break
                parsed = adapter.parse_command(command)
                if tracer is not None:
                    tracer.request = index
                    with tracer.span("bench.command") as root:
                        outcome = await daemon.submit(parsed)
                    walls.append(root.duration)
                else:
                    started = time.perf_counter()
                    outcome = await daemon.submit(parsed)
                    walls.append(time.perf_counter() - started)
                generator.observe(outcome.status)
            await daemon.stop()

        asyncio.run(drive())
        self.ledger.ops(len(walls))
        report = daemon.report()
        return {"walls": walls, "daemon": daemon,
                "packets": report.total_injected}

    def trace(self) -> Tuple[Measurement, tracing.Tracer]:
        inputs = self.inputs
        count = min(TRACE_OPERATIONS, inputs.operations)
        values: Dict[str, float] = {
            "serve.daemon.start_ms": self.daemon.start_s * 1e3,
        }
        # the subprocess daemon from setup: HTTP floor, then stop it
        for name, tuned in (("serve.http.rtt_ms", True),
                            ("serve.http.rtt_plain_ms", False)):
            client = self.client if tuned else _Client(self.daemon.url,
                                                       tuned=False)
            samples = []
            for _ in range(15):
                started = time.perf_counter()
                client.request("GET", "/v1/state")
                samples.append((time.perf_counter() - started) * 1e3)
            values[name] = median(samples)
            if not tuned:
                client.close()
        self.ledger.ops(30)
        self.daemon.shutdown(self.client)

        reference = self._replay(self._new_state(), count, None)
        tracer = tracing.Tracer()
        tracer.install()
        traced_state = self._new_state()
        try:
            low = len(tracer.spans)
            traced = self._replay(traced_state, count, tracer)
            section = (low, len(tracer.spans))
            deploys, cold = self._traced_deploys(tracer)
        finally:
            tracer.uninstall()
        self.absent.update(tracer.absent)

        wall = sum(traced["walls"])
        values.update(tracing.section_metrics(
            tracer, section, wall, count, traced["packets"]))
        values.update(tracing.deploy_metrics(tracer, deploys))
        values.update(_artifact_metrics(cold))
        values["trace_overhead_share"] = \
            wall / sum(reference["walls"]) - 1.0
        values["serve.daemon.submit_ms"] = wall / count * 1e3

        store = traced["daemon"].checkpoints
        journaled = traced["daemon"].seq

        def load_ms() -> float:
            started = time.perf_counter()
            store.load()
            return (time.perf_counter() - started) * 1e3

        def replay_ms_per_cmd() -> float:
            # journal-only recovery: drop the checkpoint, restart
            os.remove(store.path)
            daemon = adapter.serve_daemon(
                inputs.spec_text, inputs.slos, inputs.preset, traced_state,
                inputs.packets, inputs.flows, inputs.batch,
                inputs.checkpoint_every, inputs.seed)

            async def restart() -> float:
                started = time.perf_counter()
                await daemon.start()
                elapsed = time.perf_counter() - started
                await daemon.stop(checkpoint=False)
                return elapsed

            return asyncio.run(restart()) / max(1, journaled) * 1e3

        suite = self._rack_probes()
        suite.update({
            "serve.checkpoint.bytes": lambda: os.path.getsize(store.path),
            "serve.checkpoint.load_ms": load_ms,
            "serve.journal.replay_ms_per_cmd": replay_ms_per_cmd,
        })
        probed, absent = probes.run_probes(suite)
        self.absent.update(absent)
        probed.update(values)

        self.notes["traced_commands"] = count
        return Measurement.of(probed), tracer


# ---------------------------------------------------------------------------
# fabric_lifecycle
# ---------------------------------------------------------------------------


class FabricRunner(Runner):
    def _spec(self, events: List[dict]):
        inputs = self.inputs
        return adapter.lifecycle_spec(
            inputs.spec_text, inputs.slos, inputs.preset, events,
            inputs.seed, inputs.packets, inputs.flows, inputs.batch)

    def setup(self) -> None:
        self.inputs = workloads.fabric_inputs(self.seed, self.quick)
        self.events = workloads.fabric_events(self.inputs.operations)
        self.notes["inputs_file"] = workloads.dump_inputs(
            self.workload, self.seed,
            {**self.inputs.as_dict(), "events": self.events})
        self.spec = self._spec(self.events)
        # warm-up: the first tenth of the timeline, so lazy imports and
        # process-wide memos are filled before anything is timed
        warm = adapter.run_lifecycle(
            self._spec(self.events[:max(8, len(self.events) // 10)]),
            adapter.MetricsRegistry())
        self.digest = _digest(warm.as_dict())
        self.end_setup()

    def _trial(self) -> dict:
        registry = adapter.MetricsRegistry()
        self.speed.mark()
        started = time.perf_counter()
        report = adapter.run_lifecycle(self.spec, registry)
        wall = (time.perf_counter() - started, self.speed.factor())
        self.ledger.ops(len(report.decisions),
                        failed=len(self.events) - len(report.decisions))
        return {"wall": wall, "report": report, "registry": registry}

    def _pressure(self, trial: dict) -> dict:
        """Decision counts of one trial (exact for a seed)."""
        report, registry = trial["report"], trial["registry"]
        decisions = report.decisions
        arrivals = [d for d in decisions if d.action == "arrive"]
        judged = [d for d in decisions if d.action in ("arrive", "scale")]
        return {
            "arrivals": len(arrivals),
            "arrivals_accepted": sum(d.accepted for d in arrivals),
            "judged": len(judged),
            "accepted": sum(d.accepted for d in judged),
            "spills": registry.counter_value("lifecycle.spills"),
            "migrations": registry.counter_value("lifecycle.migrations"),
            "teardowns": registry.counter_value("lifecycle.rack_teardowns"),
        }

    def measure(self) -> Measurement:
        out = Measurement()
        trials = [self._trial(), self._trial()]
        spent = sum(t["wall"][0] for t in trials)
        while not self.quick \
                and spent + trials[-1]["wall"][0] <= self.seconds:
            trials.append(self._trial())
            spent += trials[-1]["wall"][0]
        first = trials[0]["report"]
        self.ledger.check(
            "determinism:same-seed-report",
            len({_digest(t["report"].as_dict()) for t in trials}) == 1,
            "same-seed trials produced different reports")
        rows = adapter.phase_rows(first)
        checks.conservation_rows(self.ledger, rows, "phases")
        self.ledger.check(
            "conservation:totals",
            first.total_injected == sum(r["injected"] for r in rows),
            "report totals disagree with its rows")

        pressure = self._pressure(trials[0])
        if not self.quick:
            checks.share_in_band(
                self.ledger, "spill_share",
                pressure["spills"] / max(1, pressure["arrivals_accepted"]),
                0.10, 1.0, "arrivals no longer spill across racks")
            self.ledger.check(
                "pressure:migrations", pressure["migrations"] >= 1,
                "no scale-up migrated a chain between racks")

        deploys, cold = _timed_deploys(
            self._deploy, self.speed, 5 if self.quick else MIN_DEPLOYS)
        self.ledger.ops(len(deploys))
        self.ledger.check(
            "anchors:every-rack-occupied",
            len(set(cold.assignment.values())) == len(cold.racks) == 3,
            f"bootstrap left a rack empty: {cold.assignment} (the "
            "generator relies on anchored racks, see workloads.py)")
        problems = adapter.placement_violations(cold)
        self.ledger.check("placement-invariants", not problems,
                          "; ".join(problems))
        rss = self.peak_rss_mb()
        setups, recoveries = self.extra_setups()
        setups.insert(0, self.own_setup)
        recoveries = recoveries or [self.own_setup]

        walls = [t["wall"] for t in trials]
        solves = [
            [(d.seconds * 1e3, t["wall"][1])
             for d in t["report"].decisions if d.seconds > 0]
            for t in trials
        ]
        out.put_median("setup_s", _norm(setups), _raw(setups))
        out.put("peak_rss_mb", rss)
        out.put_rate("pps", first.total_injected, walls)
        out.put_median("deploy_ms", _norm(deploys), _raw(deploys))
        out.put("assigned_gbps", cold.assigned_gbps)
        out.put("slo_met_share",
                sum(r["slo_met"] for r in rows) / len(rows))
        out.put("admit_share", pressure["accepted"] / pressure["judged"])
        out.put_rate("cmd_per_s", len(first.decisions), walls)
        out.put_quantile("cmd_p50_ms", 0.50, solves)
        out.put_quantile("cmd_p95_ms", 0.95, solves)
        out.put_median("recover_s", _norm(recoveries), _raw(recoveries))
        out.put_rate("events_per_s", len(self.events), walls)
        self.notes.update(trials=len(trials), pressure=pressure)
        return out

    def trace(self) -> Tuple[Measurement, tracing.Tracer]:
        count = min(TRACE_OPERATIONS, len(self.events))
        spec = self._spec(self.events[:count])
        started = time.perf_counter()
        adapter.run_lifecycle(spec, adapter.MetricsRegistry())
        reference = time.perf_counter() - started

        registry = adapter.MetricsRegistry()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            low = len(tracer.spans)
            with tracer.span("bench.trial") as root:
                report = adapter.run_lifecycle(spec, registry)
            section = (low, len(tracer.spans))
            deploys, cold = self._traced_deploys(tracer)
        finally:
            tracer.uninstall()
        self.absent.update(tracer.absent)
        self.ledger.ops(len(report.decisions))

        values = tracing.section_metrics(
            tracer, section, root.duration, count, report.total_injected)
        values.update(tracing.deploy_metrics(tracer, deploys))
        values.update(_artifact_metrics(cold))
        values["trace_overhead_share"] = root.duration / reference - 1.0
        pressure = self._pressure({"report": report, "registry": registry})
        for name in ("spills", "migrations", "teardowns"):
            values[f"sim.interrack.{name}"] = float(pressure[name])

        probed, absent = probes.run_probes(self._rack_probes())
        self.absent.update(absent)
        probed.update(values)

        self.notes.update(traced_events=count, pressure=pressure)
        return Measurement.of(probed), tracer


RUNNERS = {
    "nic_fastpath": DataplaneRunner,
    "flowscale_smallbatch": DataplaneRunner,
    "table2_stateful": DataplaneRunner,
    "serve_churn": ServeRunner,
    "fabric_lifecycle": FabricRunner,
}
