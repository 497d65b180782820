"""Correctness checks on the program's outputs.

Each check tests a property or recomputes a quantity independently of
the code that produced it, and returns a list of problems (empty when
the output passes).  None of them compares against stored copies of
earlier outputs.
"""

from __future__ import annotations

import os
import signal
from itertools import groupby

import numpy as np

__all__ = [
    "finish_once",
    "jct_lower_bound",
    "capacity",
    "same_records",
    "replay_gpu_holders",
    "lp_reaches_optimum",
    "no_child_left",
    "live_descendants",
    "stop_descendants",
]

#: Relative slack for float comparisons of simulated seconds.
_REL = 1e-9


def finish_once(trace, result) -> list[str]:
    """Every job of ``trace`` has exactly one record, finished after it
    arrived and started."""
    want = sorted(spec.job_id for spec in trace)
    got = sorted(r.job_id for r in result.records)
    problems = []
    if got != want:
        extra = sorted(set(got) - set(want))
        lost = sorted(set(want) - set(got))
        dup = len(got) - len(set(got))
        problems.append(
            f"{_label(result)}: records do not cover the trace once "
            f"({dup} duplicated, missing {lost[:5]}, unknown {extra[:5]})"
        )
    for r in result.records:
        if not (r.arrival_s <= r.first_start_s <= r.finish_s < float("inf")):
            problems.append(
                f"{_label(result)}: job {r.job_id} arrives {r.arrival_s}, "
                f"starts {r.first_start_s}, finishes {r.finish_s}"
            )
            break
    return problems


def jct_lower_bound(trace, result, true_scores: np.ndarray) -> list[str]:
    """No job beats paper Eq. 1 on its class's fastest GPU, packed.

    The bound is iterations x iteration time x the smallest true score
    of the job's class (locality penalty 1 within a node).  Drift in the
    workloads only raises scores, so the table a cell starts from bounds
    every epoch.
    """
    fastest = np.asarray(true_scores).min(axis=1)
    spec_of = {spec.job_id: spec for spec in trace}
    for r in result.records:
        spec = spec_of.get(r.job_id)
        if spec is None:
            continue  # finish_once reports it
        bound = spec.total_iterations * spec.iteration_time_s * fastest[spec.class_id]
        if r.jct_s < bound * (1.0 - _REL):
            return [
                f"{_label(result)}: job {r.job_id} JCT {r.jct_s:.3f}s is below "
                f"its Eq. 1 bound {bound:.3f}s"
            ]
    return []


def capacity(result) -> list[str]:
    """GPUs in use never exceed the cluster; busy GPU-seconds fit in them."""
    in_use = np.asarray(result.gpus_in_use)
    problems = []
    if in_use.size and int(in_use.max()) > result.cluster_size:
        problems.append(
            f"{_label(result)}: {int(in_use.max())} GPUs in use on a "
            f"{result.cluster_size}-GPU cluster"
        )
    held = float(in_use.sum()) * result.epoch_s
    if result.busy_gpu_seconds > held * (1.0 + _REL):
        problems.append(
            f"{_label(result)}: {result.busy_gpu_seconds:.1f} busy GPU-seconds "
            f"exceed the {held:.1f} GPU-seconds held"
        )
    return problems


def same_records(a, b, what: str) -> list[str]:
    """Two runs of one cell produced identical job records."""
    if a.records == b.records:
        return []
    if len(a.records) != len(b.records):
        return [f"{_label(a)}: {what}: {len(a.records)} vs {len(b.records)} records"]
    for ra, rb in zip(a.records, b.records):
        if ra != rb:
            return [f"{_label(a)}: {what}: job {ra.job_id} differs ({ra} vs {rb})"]
    return [f"{_label(a)}: {what}: records differ"]  # pragma: no cover


_CLAIMS = {"start": "gpus", "restart": "gpus", "migrate": "to_gpus", "resize": "to_gpus"}
_MEASURING = "re-profiling"


def replay_gpu_holders(events) -> list[str]:
    """Replay an event log and find any GPU held by two holders at once.

    Holders are jobs and in-flight re-profiling batches.  Events of one
    instant are applied as the engine applies them within a round: all
    releases (PREEMPT, FINISH, the old set of a MIGRATE or RESIZE,
    PROFILE_DONE) before all claims (START, RESTART, the new set of a
    MIGRATE or RESIZE, PROFILE), since a non-sticky round releases the
    whole prefix before re-placing it.
    """
    owner: dict[int, object] = {}
    held: dict[object, set[int]] = {}

    def release(holder, gpus=None):
        for g in list(held.get(holder, ())) if gpus is None else gpus:
            if owner.get(g) == holder:
                del owner[g]
                held[holder].discard(g)

    for time_s, group in groupby(events, key=lambda e: e.time_s):
        claims = []
        for e in group:
            kind = e.type.value
            if kind in ("preempt", "finish", "migrate", "resize"):
                release(e.job_id)
            elif kind == "profile-done":
                release(_MEASURING, e.detail["gpus"])
            if kind in _CLAIMS:
                claims.append((e.job_id, e.detail[_CLAIMS[kind]]))
            elif kind == "profile":
                claims.append((_MEASURING, e.detail["gpus"]))
        for holder, gpus in claims:
            for g in gpus:
                if g in owner and owner[g] != holder:
                    return [
                        f"t={time_s}: GPU {g} claimed by {holder} while "
                        f"held by {owner[g]}"
                    ]
                owner[g] = holder
                held.setdefault(holder, set()).add(g)
    return []


#: Constraint violation an LP solution may show, relative to the right
#: hand side: HiGHS's primal feasibility tolerance is 1e-7.
_LP_FEASIBILITY = 1e-6


def lp_reaches_optimum(c, a_ub, b_ub, x, objective, reference) -> list[str]:
    """``x`` is feasible and ``reference`` (another LP method) reaches
    the same optimum on ``min c@x, A x <= b, x >= 0``."""
    scale = max(1.0, abs(objective))
    problems = []
    violation = max(float((a_ub @ x - b_ub).max(initial=0.0)), float((-x).max(initial=0.0)))
    if violation > _LP_FEASIBILITY * max(1.0, float(np.abs(b_ub).max(initial=0.0))):
        problems.append(f"LP solution violates a constraint by {violation:.3g}")
    if abs(float(c @ x) - objective) > _REL * scale:
        problems.append(f"LP objective {objective} is not c @ x = {float(c @ x)}")
    other = reference.solve(c, a_ub, b_ub).objective
    if abs(other - objective) > _REL * scale:
        problems.append(
            f"LP optimum {objective} differs from {reference.method}'s {other}"
        )
    return problems


def no_child_left() -> list[str]:
    """No process this one started is still alive.

    A leftover is reported, then killed and reaped, so the run that
    found it still ends without leaving it behind.
    """
    left = live_descendants()
    if not left:
        return []
    stop_descendants(left)
    return [f"processes left running: {left}"]


def live_descendants() -> list[tuple[int, str]]:
    """(pid, command) of every process below this one, read from /proc."""
    root = os.getpid()
    children: dict[int, list[tuple[int, str]]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue  # ended while listing
        comm = stat[stat.index("(") + 1 : stat.rindex(")")]
        ppid = int(stat[stat.rindex(")") + 2 :].split()[1])
        children.setdefault(ppid, []).append((int(entry), comm))
    out, todo = [], [root]
    while todo:
        for child in children.get(todo.pop(), []):
            out.append(child)
            todo.append(child[0])
    return out


def stop_descendants(procs: list[tuple[int, str]]) -> None:
    """Kill ``procs`` and reap the ones that are this process's children."""
    for pid, _ in procs:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    for pid, _ in procs:
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass  # a grandchild; its own parent was killed above


def _label(result) -> str:
    return f"{result.trace_name}/{result.scheduler_name}/{result.placement_name}"
