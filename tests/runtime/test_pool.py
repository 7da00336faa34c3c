"""Unit tests for the per-call process fan-out."""

import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.runtime.pool import fan_out


# -- worker entry points (must be importable by name) ------------------------


def _square(x):
    return x * x


def _pid(_arg):
    return os.getpid()


def _boom(message):
    raise KeyError(message)


def test_results_come_back_in_submission_order():
    assert fan_out(_square, range(8), workers=2, what="squares") == [
        n * n for n in range(8)
    ]


def test_tasks_run_in_worker_processes():
    pids = fan_out(_pid, [None] * 4, workers=2, what="pids")
    assert os.getpid() not in pids


def test_single_task_runs_in_process():
    assert fan_out(_pid, [None], workers=4, what="pid") == [os.getpid()]


def test_task_exception_keeps_its_type():
    with pytest.raises(KeyError, match="kaput"):
        fan_out(_boom, ["kaput", "also"], workers=2, what="boom")


def test_unpicklable_task_warns_and_runs_serially():
    parent = os.getpid()
    with pytest.warns(RuntimeWarning, match="lambdas: tasks are not "
                                            "picklable; running serially"):
        pids = fan_out(lambda _arg: os.getpid(), [None] * 3, workers=2,
                       what="lambdas")
    assert pids == [parent] * 3


def _alive(pid):
    """A pid that still runs: exists and is not a zombie."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except FileNotFoundError:
        return False
    state = next(line for line in status.splitlines()
                 if line.startswith("State:"))
    return state.split()[1] not in ("Z", "X")


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="reads /proc")
def test_workers_exit_when_the_parent_is_sigkilled(tmp_path):
    """A parent SIGKILLed mid-fan_out cannot shut its pool down: every
    worker notices on its own and exits within 5 s."""
    pids_file = tmp_path / "pids"
    script = textwrap.dedent(f"""
        import os, signal, threading, time
        from repro.runtime.pool import fan_out

        def report_and_sleep(_arg):
            with open({str(pids_file)!r}, "a") as out:
                out.write(f"{{os.getpid()}}\\n")
            time.sleep(60)

        def kill_parent_once_both_workers_run():
            while len(open({str(pids_file)!r}).read().split()) < 2:
                time.sleep(0.05)
            os.kill(os.getpid(), signal.SIGKILL)

        open({str(pids_file)!r}, "w").close()
        threading.Thread(target=kill_parent_once_both_workers_run,
                         daemon=True).start()
        fan_out(report_and_sleep, [0, 1], workers=2, what="sleepers")
    """)
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[2] / "src")}
    parent = subprocess.run([sys.executable, "-c", script], env=env,
                            timeout=60)
    assert parent.returncode == -signal.SIGKILL
    workers = [int(pid) for pid in pids_file.read_text().split()]
    assert len(workers) == 2
    deadline = time.monotonic() + 5.0
    while any(map(_alive, workers)) and time.monotonic() < deadline:
        time.sleep(0.1)
    assert not any(map(_alive, workers))
