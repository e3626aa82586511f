"""Self-tests of the benchmark, at tiny workload sizes (seconds in total).

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import run, workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _spec:
    SPEC = json.load(_spec)

#: Host-second layer metrics measured outside the timed run (set-up) or
#: defined as a difference of runs.
NOT_IN_RUN = {
    "scenario.build_s", "workload.materialize_s",
    "sim.sharded.replica_build_s", "trace.overhead_s",
}
#: Run-side inclusive spans that contain other layers' self time.
INCLUSIVE = {"sim.sharded.window_s", "sim.sharded.barrier_s", "sim.sharded.inject_s"}


@pytest.fixture(scope="module")
def traced():
    """One tiny traced measurement per workload."""
    return {
        name: run.measure(name, 3, 0.0, True, size="tiny")
        for name in workloads.WORKLOADS
    }


def test_workload_names_match():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_printed_metrics_are_exactly_the_declared_ones(traced):
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        declared = {m["name"]: m["unit"] for m in SPEC[section]}
        for result in traced.values():
            line = json.loads(run.summary_line(result, trace))
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            printed = {k: v["unit"] for k, v in line["metrics"].items()}
            assert printed == declared


def test_tiny_runs_pass_the_gate(traced):
    for result in traced.values():
        assert result["correct"], result["problems"]
        assert result["failed"] == 0 < result["attempted"]


def test_self_times_are_bounded_by_the_traced_run(traced):
    for result in traced.values():
        run_s = result["traced_run_s"]
        own = {
            k: v for k, (v, unit) in result["layers"].items()
            if unit == "s" and k not in NOT_IN_RUN
        }
        for name, value in own.items():
            assert -1e-9 <= value <= run_s, (name, value, run_s)
        # Self times of disjoint layers partition (part of) the run.
        assert sum(v for k, v in own.items() if k not in INCLUSIVE) <= run_s


def test_gate_fails_on_an_unbalanced_work_ledger():
    workload = workloads.WORKLOADS["lanes"]
    rep = workloads.run_once(workload, 3, "tiny")
    assert workloads.gate(workload, rep, 3) == []
    rep.contexts[0].scenario.accountant.move_work += 1.0
    problems = workloads.gate(workload, rep, 3)
    assert problems and "accountant" in problems[0]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_seed_fixes_the_script_and_the_simulated_metrics(name):
    import repro.workload

    workload = workloads.WORKLOADS[name]

    def script(seed):
        _, source = workload.make(seed, "tiny")
        return repro.workload.materialize(source, seed)

    assert script(3) != script(4)
    assert script(3) == script(3)
    first = workloads.simulated(workloads.run_once(workload, 3, "tiny"))
    again = workloads.simulated(workloads.run_once(workload, 3, "tiny"))
    assert first == again


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    child = subprocess.run(
        [sys.executable] + SPEC["command"][1:]
        + ["--workload", "lanes", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert child.returncode != 0
    assert child.stdout == ""
