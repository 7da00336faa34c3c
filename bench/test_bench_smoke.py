"""Smoke test of the benchmark harness itself.

Run explicitly (tier-1 ``testpaths`` does not collect it):

    python -m pytest bench -q

It validates ``BENCHMARK.json`` against the pipeline's limits, runs every
workload in ``--quick`` mode untraced and traced, and checks that the
names emitted and the names declared are the same set, that a broken
check input fails the run, that the harness refuses to report from a
directory without the program, and that ``check.py`` passes a record
against itself and fails a doctored one.
"""

import copy
import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def run(*args, cwd=ROOT, timeout=170):
    return subprocess.run(
        [sys.executable, str(pathlib.Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_contract_is_within_the_pipeline_limits():
    assert set(CONTRACT) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert CONTRACT["paths"] == ["bench"]
    assert 1 <= CONTRACT["run_seconds"] <= 60
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    names = []
    for entry in CONTRACT["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
        names.append(entry["name"])
    for entry in CONTRACT["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
        names.append(entry["name"])
    for entry in CONTRACT["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
        names.append(entry["name"])
    for entry in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert UNIT.match(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher")
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    setup = next(e for e in CONTRACT["end_to_end"] if e["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(e["bound"] for e in CONTRACT["end_to_end"])
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_quick_run_emits_exactly_the_declared_names(workload, trace):
    proc = run("--workload", workload, "--seed", "5", "--quick",
               "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    section = CONTRACT["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {e["name"] for e in section}
    for entry in section:
        metric = result["metrics"][entry["name"]]
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == entry["unit"]
        assert isinstance(metric["value"], (int, float))
        if not trace:
            assert metric["value"] > 0, entry["name"]
    if trace:
        assert (BENCH / "out" / f"trace-{workload}.json").exists()


def test_a_broken_check_input_fails_the_run():
    proc = run("--workload", "nic_fastpath", "--seed", "5", "--quick",
               "--sabotage-check")
    assert proc.returncode != 0
    result = last_json(proc)
    assert result["correct"] is False and result["failed"] >= 1


def test_no_result_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("--workload", "nic_fastpath", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_check_passes_itself_and_fails_a_doctored_record(tmp_path):
    record = tmp_path / "a.json"
    proc = run("--workload", "fabric_lifecycle", "--seed", "5", "--quick",
               "--out", str(record))
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]

    def check(a, b):
        return subprocess.run(
            [sys.executable, str(BENCH / "check.py"), str(a), str(b)],
            cwd=ROOT, capture_output=True, text=True, timeout=60,
        )

    # a one-workload record has no rows for the other four: complete it
    single = json.loads(record.read_text())
    full = {"workloads": {name: single for name in WORKLOADS}}
    record.write_text(json.dumps(full))
    assert check(record, record).returncode == 0

    for metric, factor in (("events_per_s", 0.5), ("admit_share", 0.99)):
        doctored = copy.deepcopy(full)
        entry = doctored["workloads"]["fabric_lifecycle"]["metrics"][metric]
        entry["value"] *= factor
        entry["samples"] = [v * factor for v in entry["samples"]]
        worse = tmp_path / f"worse-{metric}.json"
        worse.write_text(json.dumps(doctored))
        assert check(record, worse).returncode == 1, metric
