"""Run one benchmark workload and print its metrics (see README.md).

    python3 perfbench/run.py --workload synergy256-sticky --seed 1 \\
        --seconds 10 --trace 0

Runs whole rounds of the workload's cells until ``--seconds`` have
passed, checks the outputs, and prints one JSON object as the last line
of standard output: ``correct``, ``attempted`` and ``failed`` cells,
and the end-to-end metrics (``--trace 0``) or the per-layer metrics of
a traced run (``--trace 1``, which also writes its spans to
``perfbench/out/``).  Diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import ROOT, MissingProgram, use_checkout_sources  # noqa: E402

OUT_DIR = ROOT / "perfbench" / "out"

#: End-to-end metric -> (unit, better); per-layer ones are in
#: ``perfbench.tracer.PER_LAYER``.
END_TO_END: dict[str, tuple[str, str]] = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "sim_jct_h": ("h", "lower"),
    "sim_p99_jct_h": ("h", "lower"),
    "sim_makespan_h": ("h", "lower"),
}


def process_age_s() -> float:
    """Seconds since this process started (kernel start time, boot clock)."""
    with open("/proc/self/stat") as f:
        stat = f.read()
    start_ticks = int(stat[stat.rindex(")") + 2 :].split()[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf(
        "SC_CLK_TCK"
    )


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def measure(prepared, seconds: float, tracer) -> dict:
    """Run whole rounds until ``seconds`` passed.

    Returns the round durations, each cell's durations (in-process
    workloads), the first round's results, problems found comparing
    later rounds with it, and outcome totals over all rounds for the
    traced run's cross-checks.
    """
    from perfbench import checks
    from perfbench.workloads import CellFailure, outcome_counts

    run = {"rounds": [], "cells": [], "first": None, "problems": [],
           "totals": {"lp_calls": 0, "gpu_set_changes": 0, "failed": 0}}
    totals = run["totals"]
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        if tracer is None:
            results, cell_s = prepared.run_round()
        else:
            results, cell_s = tracer.call("round", prepared.run_round)
            tracer.absorb(results)
        run["rounds"].append(time.perf_counter() - t0)
        if cell_s is not None:
            run["cells"].append(cell_s)
        totals["failed"] += sum(isinstance(r, CellFailure) for r in results)
        for key, value in outcome_counts(results).items():
            totals[key] += value
        if run["first"] is None:
            run["first"] = results
        else:
            for a, b in zip(run["first"], results):
                if not (isinstance(a, CellFailure) or isinstance(b, CellFailure)):
                    run["problems"] += checks.same_records(a, b, "repeated round")
        if time.perf_counter() >= deadline:
            return run


def wall_seconds(run: dict) -> float:
    """Host seconds for one pass over the cells: the fastest pass.

    Every round repeats the same deterministic work (the checks require
    identical records), so the rounds of one run differ only in how fast
    the host lets them go, and a shared host only ever slows them.  The
    figure is the sum over cells of each cell's fastest time across the
    rounds when the cells run in this process, and the fastest round
    when they run in worker processes.
    """
    if run["cells"]:
        return sum(min(ts) for ts in zip(*run["cells"]))
    return min(run["rounds"])


def peak_rss_mb() -> float:
    """Peak resident MB of this process plus its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def sim_metrics(results: list) -> dict[str, float]:
    from perfbench.workloads import CellFailure, geomean

    done = [r for r in results if not isinstance(r, CellFailure)]
    if not done:
        return {}
    return {
        "sim_jct_h": geomean(r.avg_jct_h() for r in done),
        "sim_p99_jct_h": geomean(r.p99_jct_s() / 3600.0 for r in done),
        "sim_makespan_h": geomean(r.makespan_s / 3600.0 for r in done),
    }


def trace_metrics(tracer, prepared, n_rounds: int, first: list, totals: dict):
    """Per-layer metrics and the traced run's cross-check problems."""
    from perfbench.tracer import layer_metrics
    from perfbench.workloads import CellFailure

    values, missing = layer_metrics(tracer, n_rounds, prepared.workers)
    for phase in ("import", "env", "trace"):
        values[f"setup.{phase}_s"] = prepared.setup.get(phase, 0.0)
    done = [r for r in first if not isinstance(r, CellFailure)]
    profiling = [r.metadata["profiling"] for r in done if "profiling" in r.metadata]
    values["profiling.campaigns"] = sum(p["campaigns"] for p in profiling)
    values["profiling.gpu_epochs"] = sum(p["gpu_epochs_spent"] for p in profiling)

    problems = []
    if "solver.lp" not in tracer.missing:
        seen = tracer.calls("solver.lp")
        if seen != totals["lp_calls"]:
            problems.append(
                f"{seen} LP calls seen at the backend, results report "
                f"{totals['lp_calls']}"
            )
    if "stage.placement" not in tracer.missing:
        seen = int(tracer.counts["placement.changed"])
        if seen != totals["gpu_set_changes"]:
            problems.append(
                f"{seen} GPU-set changes seen around placement, records give "
                f"{totals['gpu_set_changes']} starts + migrations + restarts"
            )
    return values, missing, problems


def write_trace(tracer, args, metrics: dict, setup: dict) -> Path:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    payload = {"workload": args.workload, "seed": args.seed, "setup": setup,
               "metrics": metrics, **tracer.dump()}
    path.write_text(json.dumps(payload))
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    t_import = time.perf_counter()
    try:
        use_checkout_sources()
    except MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from perfbench import checks, workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; known: "
            f"{sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload = workloads.WORKLOADS[args.workload]
    for module in workload.imports:
        __import__(module)
    clock = workloads.Clock()
    clock.seconds["import"] = time.perf_counter() - t_import

    tracer = None
    if args.trace:
        from perfbench.tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        prepared = workloads.prepare(args.workload, clock, args.seed)
        prepared.setup = dict(clock.seconds)
        setup_s = process_age_s()
        run = measure(prepared, args.seconds, tracer)
        first, problems, totals = run["first"], run["problems"], run["totals"]
        if tracer is not None:
            metrics_values, missing, cross = trace_metrics(
                tracer, prepared, len(run["rounds"]), first, totals
            )
            problems += cross
    finally:
        if tracer is not None:
            tracer.uninstall()

    problems += workloads.verify(prepared, first)
    problems += checks.no_child_left()

    wall_s = wall_seconds(run)
    print(
        f"perfbench: {args.workload} seed {args.seed}: {len(run['rounds'])} round(s) "
        f"of {len(prepared.cells)} cells, round seconds "
        f"{[round(d, 3) for d in run['rounds']]}, wall_s {wall_s:.3f}, "
        f"set-up {setup_s:.3f}s"
        + (" (traced)" if tracer is not None else ""),
        file=sys.stderr,
    )
    if tracer is not None:
        from perfbench.tracer import PER_LAYER

        metrics = {
            name: {"value": value, "unit": PER_LAYER[name][0]}
            for name, value in metrics_values.items()
        }
        path = write_trace(tracer, args, metrics_values, prepared.setup)
        print(f"perfbench: traced wall_s {wall_s:.4f}; spans in {path}", file=sys.stderr)
        for name in missing:
            print(f"perfbench: missing metric {name}: entry point gone", file=sys.stderr)
    else:
        values = {
            "wall_s": wall_s,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
            **sim_metrics(first),
        }
        metrics = {
            name: {"value": v, "unit": END_TO_END[name][0]} for name, v in values.items()
        }
    for problem in problems:
        print(f"perfbench: CHECK FAILED: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": len(prepared.cells) * len(run["rounds"]),
                "failed": totals["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
