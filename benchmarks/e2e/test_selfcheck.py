"""Self-check of the benchmark (outside tier-1: pyproject ``testpaths`` is ``tests``).

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_selfcheck.py -q

Runs the whole command once in ``--smoke`` mode and checks that what it
prints is exactly what ``BENCHMARK.json`` declares, then that a corrupted
oracle makes the command fail.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _load(path: str):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def benchmark_json():
    return _load(os.path.join(ROOT, "BENCHMARK.json"))


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke") / "smoke.json"
    started = time.perf_counter()
    done = subprocess.run([sys.executable, RUN, "--smoke", "--out", str(out)],
                          capture_output=True, text=True, timeout=180)
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stdout + done.stderr
    return {"stdout": done.stdout, "document": _load(str(out)), "elapsed": elapsed}


def test_benchmark_json_is_within_the_contract(benchmark_json):
    spec = benchmark_json
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/e2e"]
    assert spec["command"][-1].startswith(spec["paths"][0] + "/")
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = []
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
        names.append(metric["name"])
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names), "a name is used twice"
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_spec_describes_every_per_layer_metric(benchmark_json):
    spec = _load(os.path.join(HERE, "spec.json"))
    assert isinstance(spec["default_seed"], int)
    assert spec["serve_command"][:4] == ["python", "-m", "repro.cli", "serve"]
    described = spec["per_layer"]
    assert set(described) == {m["name"] for m in benchmark_json["per_layer"]}
    movable = {m["name"] for m in benchmark_json["end_to_end"]} | set(described)
    workloads = {w["name"] for w in benchmark_json["workloads"]} | {"all"}
    for metric in described.values():
        assert metric["layer"] and metric["call"]
        for gate, workload in metric["moves"]:
            assert gate in movable and workload in workloads


def test_smoke_prints_exactly_what_is_declared(benchmark_json, smoke):
    declared = {0: {m["name"]: m["unit"] for m in benchmark_json["end_to_end"]},
                1: {m["name"]: m["unit"] for m in benchmark_json["per_layer"]}}
    runs = smoke["document"]["runs"]
    assert ([run["workload"] for run in runs if not run["trace"]]
            == [w["name"] for w in benchmark_json["workloads"]])
    assert sum(run["trace"] for run in runs) == 1, "one traced ladder"
    for run in runs:
        assert set(run["metrics"]) == set(declared[run["trace"]])
    printed = {}
    section = None
    for line in smoke["stdout"].splitlines():
        header = re.match(r"== (\S+) \(seed \d+, trace ([01])\)", line)
        if header:
            section = printed.setdefault((header[1], int(header[2])), {})
        elif section is not None and line.startswith("  "):
            name, _value, unit = line.split()[:3]
            section[name] = unit
    assert len(printed) == len(runs)
    for (_, trace), section in printed.items():
        assert section == declared[trace]


def test_smoke_has_no_failed_operation_and_stops_cleanly(smoke):
    for run in smoke["document"]["runs"]:
        assert run["attempted"] >= 1 and run["failed"] == 0, run["workload"]
        assert run["hygiene"]["leaked_shm"] == 0
        assert run["hygiene"]["orphan_procs"] == 0
    traced = [run for run in smoke["document"]["runs"] if run["trace"]][0]
    assert traced["metrics"]["diag.failed_share"] == 0
    for value in traced["metrics"].values():
        assert isinstance(value, float) or (value["value"] is None and value["reason"])


def test_smoke_is_quick(smoke):
    assert smoke["elapsed"] < 30.0


def test_corrupted_oracle_fails_the_command():
    done = subprocess.run(
        [sys.executable, RUN, "--smoke", "--workload", "point_lookup",
         "--selftest-corrupt"], capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "WRONG ANSWER" in done.stderr
