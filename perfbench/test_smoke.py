"""Smoke test of the benchmark at tiny sizes (about a minute).

Run from the root of a checkout:  python3 -m pytest perfbench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--seed", "7",
         "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"),
                                         ("1", "per_layer")])
def test_prints_every_metric_with_its_unit(workload, trace, kind):
    proc = run("--workload", workload, "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    out = result(proc)
    assert out["correct"] is True
    assert out["attempted"] >= 1 and out["failed"] == 0
    want = {m["name"]: m["unit"] for m in BENCH[kind]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want


def test_all_runs_every_workload():
    proc = run("--workload", "all", "--tiny")
    assert proc.returncode == 0, proc.stderr
    out = result(proc)
    assert out["correct"] is True and out["failed"] == 0
    assert set(out["metrics"]) == {f"{w}.{m['name']}" for w in WORKLOADS
                                   for m in BENCH["end_to_end"]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_broken_gate_input_fails_the_run(workload):
    proc = run("--workload", workload, "--tiny", "--break-gate")
    assert proc.returncode == 1
    out = result(proc)
    assert out["correct"] is False
    assert out["failed"] == out["attempted"]


def test_refuses_a_checkout_without_sources():
    bare = os.path.join(ROOT, ".perfbench-out", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("--workload", "ensemble_gaussian", cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode == 2
    assert proc.stdout == ""
