"""Tests of the benchmark itself: its checks, its tracer, its workloads.

Every correctness check must reject a deliberately broken input, each
workload must pass its checks at smoke size, and nothing here may write
a file of the repository.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from perfbench import ROOT, use_checkout_sources

use_checkout_sources()

from repro.scheduler.events import Event, EventLog, EventType  # noqa: E402
from repro.scheduler.solver.backend import ScipyLinProgBackend  # noqa: E402

from perfbench import checks, run, tracer, workloads  # noqa: E402


@pytest.fixture(scope="module")
def sticky_smoke():
    """A smoke-size sticky workload and one round of its results."""
    prepared = workloads.prepare("synergy256-sticky", workloads.Clock(), 5, smoke=True)
    results, _ = prepared.run_round()
    return prepared, results


def _cell_and_result(sticky_smoke, i=0):
    prepared, results = sticky_smoke
    return prepared.cells[i], results[i]


# ----------------------------------------------------------------------
# Each check rejects a broken input
# ----------------------------------------------------------------------
def test_jct_bound_rejects_a_record_finishing_too_early(sticky_smoke):
    cell, result = _cell_and_result(sticky_smoke)
    scores = cell.true_profile.scores
    assert checks.jct_lower_bound(cell.trace, result, scores) == []
    spec = next(iter(cell.trace))
    bound = spec.total_iterations * spec.iteration_time_s * scores[spec.class_id].min()
    records = list(result.records)
    i = next(k for k, r in enumerate(records) if r.job_id == spec.job_id)
    records[i] = dataclasses.replace(
        records[i], finish_s=records[i].arrival_s + 0.99 * bound
    )
    broken = dataclasses.replace(result, records=tuple(records))
    assert checks.jct_lower_bound(cell.trace, broken, scores)


def test_finish_once_rejects_a_duplicated_job(sticky_smoke):
    cell, result = _cell_and_result(sticky_smoke)
    assert checks.finish_once(cell.trace, result) == []
    broken = dataclasses.replace(
        result, records=result.records[:-1] + (result.records[0],)
    )
    assert checks.finish_once(cell.trace, broken)


def test_capacity_rejects_more_gpus_than_the_cluster(sticky_smoke):
    _, result = _cell_and_result(sticky_smoke)
    assert checks.capacity(result) == []
    over = dataclasses.replace(result, gpus_in_use=result.gpus_in_use + result.cluster_size)
    assert checks.capacity(over)
    busy = dataclasses.replace(
        result, busy_gpu_seconds=float(result.gpus_in_use.sum()) * result.epoch_s * 1.01
    )
    assert checks.capacity(busy)


def test_replay_rejects_a_gpu_held_by_two_jobs():
    start = EventType.START
    double = EventLog([
        Event(0.0, start, 1, {"gpus": [0, 1]}),
        Event(0.0, start, 2, {"gpus": [1, 2]}),
    ])
    assert checks.replay_gpu_holders(double)
    # Two jobs swapping GPUs in one non-sticky round is legal.
    swap = EventLog([
        Event(0.0, start, 1, {"gpus": [0]}),
        Event(0.0, start, 2, {"gpus": [1]}),
        Event(300.0, EventType.MIGRATE, 1, {"from_gpus": [0], "to_gpus": [1]}),
        Event(300.0, EventType.MIGRATE, 2, {"from_gpus": [1], "to_gpus": [0]}),
        Event(400.0, EventType.FINISH, 1, {}),
        Event(600.0, EventType.RESTART, 3, {"gpus": [1]}),
    ])
    assert checks.replay_gpu_holders(swap) == []
    late = EventLog(list(swap)[:4] + [Event(600.0, EventType.START, 3, {"gpus": [1]})])
    assert checks.replay_gpu_holders(late)


def test_lp_check_rejects_a_solution_pushed_infeasible():
    c = np.array([-1.0, -1.0])
    a_ub = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    b_ub = np.array([1.0, 1.0, 1.5])
    sol = ScipyLinProgBackend().solve(c, a_ub, b_ub)
    reference = ScipyLinProgBackend(method="highs-ipm")
    assert checks.lp_reaches_optimum(c, a_ub, b_ub, sol.x, sol.objective, reference) == []
    pushed = sol.x + np.array([0.25, 0.0])
    assert checks.lp_reaches_optimum(
        c, a_ub, b_ub, pushed, float(c @ pushed), reference
    )


def test_same_records_rejects_two_records_that_differ(sticky_smoke):
    _, result = _cell_and_result(sticky_smoke)
    assert checks.same_records(result, result, "self") == []
    records = list(result.records)
    records[3] = dataclasses.replace(records[3], n_preemptions=records[3].n_preemptions + 1)
    other = dataclasses.replace(result, records=tuple(records))
    assert checks.same_records(result, other, "tampered")


def test_a_child_process_left_alive_fails_the_run():
    # In a process of its own: the test session may hold other tests'
    # worker pools, which the check would stop.
    script = (
        "import subprocess, sys\n"
        "from perfbench import checks\n"
        "child = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'])\n"
        "found = checks.no_child_left()\n"
        "print(len(found), child.poll() is not None, len(checks.no_child_left()))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    assert out.stdout.split() == ["1", "True", "0"], out.stderr


def _live_pids() -> set[int]:
    return {pid for pid, _ in checks.live_descendants()}


# ----------------------------------------------------------------------
# Workloads at smoke size
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_workload_passes_its_checks(name):
    # Other tests of the session may keep worker pools alive; only this
    # workload's processes must be gone.
    alive_before = _live_pids()
    prepared = workloads.prepare(name, workloads.Clock(), 2, smoke=True)
    results, cell_s = prepared.run_round()
    assert not [r for r in results if isinstance(r, workloads.CellFailure)]
    assert cell_s is None or len(cell_s) == len(prepared.cells)
    assert workloads.verify(prepared, results) == []
    assert run.sim_metrics(results)["sim_jct_h"] > 0
    assert _live_pids() <= alive_before


@pytest.mark.parametrize("name", ["gavel-reprofile", "sia-grid"])
def test_traced_smoke_round_cross_checks(name):
    t = tracer.Tracer()
    t.install()
    try:
        prepared = workloads.prepare(name, workloads.Clock(), 2, smoke=True)
        results, _ = t.call("round", prepared.run_round)
        t.absorb(results)
    finally:
        t.uninstall()
    totals = workloads.outcome_counts(results)
    values, missing, problems = run.trace_metrics(t, prepared, 1, results, totals)
    assert problems == [] and missing == [] and t.missing == {}
    assert set(values) == set(tracer.PER_LAYER)
    assert values["runner.cells"] == len(prepared.cells)
    assert values["stage.placement.s"] > 0 and values["engine.rounds"] > 0
    assert 0 < values["placement.useful_ratio"] <= 1
    if name == "gavel-reprofile":
        assert values["solver.lp_calls"] > 0 and values["stage.profiling.s"] > 0
    else:  # cells ran in worker processes and shipped their spans back
        assert values["runner.dispatch_s"] > 0
        assert all(tracer.SHIP_KEY not in r.metadata for r in results)


def test_a_missing_entry_point_is_a_missing_metric_not_a_crash():
    gone = tuple(
        dataclasses.replace(ep, attr="MergedStage.run")
        if ep.span == "stage.placement" else ep
        for ep in tracer.ENTRY_POINTS
    )
    t = tracer.Tracer()
    t.install(gone)
    try:
        prepared = workloads.prepare("synergy256-sticky", workloads.Clock(), 2, smoke=True)
        results, _ = t.call("round", prepared.run_round)
    finally:
        t.uninstall()
    totals = workloads.outcome_counts(results)
    values, missing, problems = run.trace_metrics(t, prepared, 1, results, totals)
    assert "stage.placement.s" in missing and "placement.useful_ratio" in missing
    assert "stage.placement.s" not in values and values["stage.execution.s"] > 0
    assert problems == []


def test_wall_s_is_the_fastest_pass():
    # In process: each cell's fastest round, even when no one round holds them all.
    assert run.wall_seconds({"cells": [[1.0, 3.0], [2.0, 0.5]], "rounds": [3.0, 3.5]}) == 1.5
    # Worker processes: the fastest whole round.
    assert run.wall_seconds({"cells": [], "rounds": [5.0, 4.0, 6.0]}) == 4.0


def test_benchmark_json_names_what_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()
    }
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracer.PER_LAYER


def test_the_benchmark_writes_no_tracked_file(tmp_path, monkeypatch):
    assert "perfbench/out/" in (ROOT / ".gitignore").read_text().split()
    assert run.OUT_DIR == ROOT / "perfbench" / "out"
    before = _snapshot()
    prepared = workloads.prepare("gavel-reprofile", workloads.Clock(), 1, smoke=True)
    t = tracer.Tracer()
    t.install()
    try:
        results, _ = t.call("round", prepared.run_round)
    finally:
        t.uninstall()
    assert workloads.verify(prepared, results) == []
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    args = run.parse_args(["--workload", "gavel-reprofile", "--seed", "1", "--seconds", "1"])
    assert run.write_trace(t, args, {}, {}).parent == tmp_path
    assert _snapshot() == before


def _snapshot() -> dict[str, tuple[int, int]]:
    skip_names = {".git", "__pycache__", ".pytest_cache", ".hypothesis"}
    skip_dirs = {str(ROOT / "perfbench" / "out")}
    out = {}
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = [
            d for d in dirnames
            if d not in skip_names and os.path.join(dirpath, d) not in skip_dirs
        ]
        for name in filenames:
            st = os.stat(os.path.join(dirpath, name))
            out[os.path.join(dirpath, name)] = (st.st_mtime_ns, st.st_size)
    return out
