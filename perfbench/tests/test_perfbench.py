"""The benchmark's own tests.

    python3 -m pytest perfbench/tests -q

The seed fixes the inputs, the percentile helper refuses thin tails, self
time adds up on nested calls, the metric tables are BENCHMARK.json's, and
every workload passes a reduced-size run, traced and untraced.
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import run, workloads  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402

RUN = os.path.join(ROOT, "perfbench", "run.py")
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _stream:
    BENCHMARK = json.load(_stream)


def _plan(seed, pass_index=0):
    return workloads.serve_plan(seed, pass_index, requests=600, warm_keys=400)


def test_seed_fixes_job_order_and_request_plan(tmp_path):
    def order(seed):
        return workloads.Detect(seed, str(tmp_path), smoke=False).order

    assert order(1) == order(1)
    assert order(1) != order(2)
    assert sorted(order(1)) == sorted(workloads.DETECT_BUGS)
    assert _plan(1) == _plan(1)
    assert _plan(1) != _plan(2)


def test_request_plan_mix():
    requests = [request for client in _plan(5) for request in client]
    misses = {(bug, crs) for kind, bug, crs in requests if kind == "miss"}
    hits = {(bug, crs) for kind, bug, crs in requests if kind == "hit"}
    warm = {workloads.warm_request(index) for index in range(400)}
    assert len(requests) == 600
    assert len(misses) == 120  # every miss is a key of its own...
    assert not misses & warm  # ...that was never warmed
    assert hits <= warm
    next_pass = {
        (bug, crs)
        for client in _plan(5, 1)
        for kind, bug, crs in client
        if kind == "miss"
    }
    assert not next_pass & misses


def test_percentile_needs_ten_samples_beyond_it():
    assert workloads.percentile(range(1, 21), 0.5) == 10
    assert workloads.percentile(range(1, 101), 0.9) == 90
    assert workloads.percentile(range(1, 201), 0.95) == 190
    for values, fraction in (
        (range(1, 20), 0.5),
        (range(1, 100), 0.9),
        (range(1, 200), 0.95),
        ([], 0.5),
    ):
        with pytest.raises(ValueError):
            workloads.percentile(values, fraction)


def _fake_clock(*readings):
    ticks = iter(readings)
    return lambda: next(ticks)


def test_self_time_of_nested_calls():
    tracer = Tracer(clock=_fake_clock(0.0, 1.0, 3.0, 4.0, 7.0, 10.0))
    inner = tracer.wrap(lambda: None, "inner", "layer.b")

    def body():
        inner()
        inner()

    tracer.wrap(body, "outer", "layer.a")()
    assert tracer.self_seconds == {"outer": 5.0, "inner": 5.0}
    assert tracer.calls == {"outer": 1, "inner": 2}
    assert tracer.layer_seconds("layer.a") == 5.0
    assert tracer.layer_calls("layer.b") == 2
    assert tracer.total_self_seconds() == 10.0  # the outer call, counted once


def test_self_time_when_a_child_raises():
    tracer = Tracer(clock=_fake_clock(0.0, 2.0, 5.0, 9.0))

    def fail():
        raise KeyError("boom")

    failing = tracer.wrap(fail, "fail", "layer")

    def body():
        with pytest.raises(KeyError):
            failing()

    tracer.wrap(body, "outer", "layer")()
    assert tracer.self_seconds == {"outer": 6.0, "fail": 3.0}
    assert tracer.layer_seconds("layer") == 9.0


def test_install_rebinds_imported_names_and_uninstall_restores():
    engine = importlib.import_module("repro.bmc.engine")
    module = importlib.import_module("repro.sat.preprocess")
    original = module.preprocess
    tracer = Tracer()
    tracer.install([("repro.sat.preprocess", "preprocess", "sat.preprocess", None)])
    try:
        assert module.preprocess is not original
        assert engine.preprocess is module.preprocess
    finally:
        tracer.uninstall()
    assert module.preprocess is original
    assert engine.preprocess is original


def test_metric_tables_are_benchmark_json():
    assert run.END_TO_END == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert run.PER_LAYER == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert list(run.WORKLOADS) == [w["name"] for w in BENCHMARK["workloads"]]
    assert sorted(workloads.BY_NAME) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_reduced_run(workload, trace):
    command = [
        sys.executable, RUN, "--workload", workload, "--seed", "3",
        "--seconds", "0", "--trace", str(trace), "--smoke",
    ]
    result = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stdout + result.stderr
    line = json.loads(result.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"], result.stdout
    assert line["failed"] == 0 and line["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    emitted = {name: metric["unit"] for name, metric in line["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in BENCHMARK[section]}
    if not trace:
        assert all(metric["value"] > 0 for metric in line["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"),
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    command = [
        sys.executable, "perfbench/run.py", "--workload", "detect", "--seed", "1",
        "--seconds", "10", "--trace", "0",
    ]
    result = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert result.returncode != 0
    assert result.stdout == ""
