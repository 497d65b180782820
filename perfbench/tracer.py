"""Traced runs: spans around the program's layer entry points.

A traced run installs the wrappers below before its set-up builds
anything.  Each wrapper replaces the attribute the program looks up at
call time: a class method (``PlacementStage.run``,
``PlacementPolicy.select_gpus`` on every subclass that defines it, ...)
or a module global at the module that calls it by name (the solver's
``solve_max_*`` in ``repro.scheduler.solver.policy``,
``execute_run_spec`` in ``repro.runner.sweep``).  Every call becomes a
span: name, start, end and the span that encloses it.  Spans stay in
memory, aggregated per (parent, name) into calls, inclusive seconds
and self seconds (inclusive minus the spans nested in it); the coarse
ones (cells, engine runs, executor maps, solves, builds) are also kept
whole.  The run writes them out once, at its end.

Cells run by the ``process`` executor execute in forked workers that
inherit the wrappers; each worker ships its share of the aggregate
back in the cell result's metadata and :meth:`Tracer.absorb` folds it
into the parent's.

An entry point the program no longer has is recorded in
:attr:`Tracer.missing`, and every metric that needs it is reported
missing instead of the run failing.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "ENTRY_POINTS",
    "EntryPoint",
    "PER_LAYER",
    "Tracer",
    "layer_metrics",
    "traced_execute_run_spec",
]

#: Result-metadata key carrying a worker's share of the trace.
SHIP_KEY = "perfbench.trace"

#: Spans kept whole (besides the per-(parent, name) aggregate).
COARSE = frozenset(
    {"cell", "engine.run", "runner.map", "solver.solve", "build.env", "build.trace"}
)


@dataclass(frozen=True)
class EntryPoint:
    """One call site the traced run wraps.

    ``attr`` is ``"function"`` (a module global) or ``"Class.method"``;
    with ``subclasses`` the method is wrapped on every subclass of
    ``Class`` that defines it.  ``outermost`` spans ignore calls nested
    in a span of the same name (``super()`` chains, a cell entry point
    calling another).
    """

    span: str
    module: str
    attr: str
    subclasses: bool = False
    outermost: bool = False


_STAGES = "repro.scheduler.engine.stages"
ENTRY_POINTS: tuple[EntryPoint, ...] = (
    EntryPoint("stage.arrival", _STAGES, "ArrivalStage.run"),
    EntryPoint("stage.ordering", _STAGES, "OrderingStage.run"),
    EntryPoint("stage.placement", _STAGES, "PlacementStage.run"),
    EntryPoint("stage.fast-forward", _STAGES, "FastForwardStage.run"),
    EntryPoint("stage.execution", _STAGES, "ExecutionStage.run"),
    EntryPoint("stage.dynamics", "repro.dynamics.stage", "DynamicsStage.run"),
    EntryPoint("stage.profiling", "repro.profiling.stage", "ProfilingStage.run"),
    EntryPoint("placement.place", _STAGES, "PlacementStage._place"),
    EntryPoint(
        "placement.select", "repro.scheduler.placement.base",
        "PlacementPolicy.select_gpus", subclasses=True, outermost=True,
    ),
    EntryPoint(
        "ordering.order", "repro.scheduler.policies",
        "SchedulingPolicy.order", subclasses=True, outermost=True,
    ),
    EntryPoint("cluster.allocate", "repro.cluster.state", "ClusterState.allocate"),
    EntryPoint("engine.run", "repro.scheduler.engine.core", "RoundEngine.run"),
    EntryPoint(
        "engine.round", "repro.scheduler.engine.context", "RoundContext.begin_round"
    ),
    EntryPoint("solver.solve", "repro.scheduler.solver.policy", "solve_max_throughput"),
    EntryPoint(
        "solver.solve", "repro.scheduler.solver.policy", "solve_max_min_fairness"
    ),
    EntryPoint(
        "solver.lp", "repro.scheduler.solver.backend", "ScipyLinProgBackend.solve"
    ),
    EntryPoint(
        "runner.map", "repro.runner.executors", "Executor.map",
        subclasses=True, outermost=True,
    ),
    EntryPoint("cell", "repro.runner.execute", "execute_sim_cell", outermost=True),
    EntryPoint("cell", "repro.runner.sweep", "execute_run_spec", outermost=True),
    EntryPoint("build.env", "repro.runner.spec", "EnvSpec.build"),
    EntryPoint("build.trace", "repro.runner.spec", "TraceSpec.build"),
)

#: Imported before subclass walks, so every policy and executor class
#: the workloads can build is already defined when it is wrapped.
_SUBCLASS_MODULES = (
    "repro.scheduler.placement",
    "repro.scheduler.solver",
    "repro.runner",
)

_ACTIVE: "Tracer | None" = None


class Tracer:
    """In-memory span recorder behind the traced run's wrappers."""

    def __init__(self) -> None:
        self.owner_pid = os.getpid()
        #: (parent span, span) -> [calls, inclusive s, self s]
        self.stats: dict[tuple[str, str], list] = {}
        #: Event counts observed at the boundaries (not spans).
        self.counts: dict[str, float] = defaultdict(float)
        #: Wall seconds of every main-loop engine round.
        self.round_s: list[float] = []
        #: Coarse spans: (name, parent, start, end).
        self.spans: list[tuple[str, str, float, float]] = []
        #: Span name -> why its entry point could not be wrapped.
        self.missing: dict[str, str] = {}
        self._stack: list[list] = []
        self._open: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []
        self._round_t0: float | None = None
        self._lp_seen: set[bytes] = set()
        self._run_spec: Callable | None = None

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def call(self, span: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span named ``span``."""
        frame = [span, 0.0, 0.0]
        self._stack.append(frame)
        self._open[span] += 1
        frame[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(frame)

    def _close(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name = frame[0]
        self._open[name] -= 1
        dur = end - frame[1]
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
        key = (parent[0] if parent is not None else "", name)
        rec = self.stats.get(key)
        if rec is None:
            rec = self.stats[key] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - frame[2]
        if name in COARSE:
            self.spans.append((name, key[0], frame[1], end))

    def calls(self, span: str) -> int:
        return sum(rec[0] for (_, name), rec in self.stats.items() if name == span)

    def seconds(self, span: str) -> float:
        return sum(rec[1] for (_, name), rec in self.stats.items() if name == span)

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self, entry_points: tuple[EntryPoint, ...] = ENTRY_POINTS) -> None:
        """Wrap every entry point the program still has."""
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("another tracer is installed")
        _ACTIVE = self
        for name in _SUBCLASS_MODULES:
            try:
                importlib.import_module(name)
            except ImportError:
                pass  # its entry points are reported missing below
        for ep in entry_points:
            try:
                targets = _resolve(ep)
            except (ImportError, AttributeError) as exc:
                self.missing.setdefault(ep.span, f"{ep.module}.{ep.attr}: {exc}")
                continue
            for owner, attr, fn in targets:
                self._undo.append((owner, attr, fn))
                setattr(owner, attr, self._wrapper(ep, fn))

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        global _ACTIVE
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()
        if _ACTIVE is self:
            _ACTIVE = None

    def _wrapper(self, ep: EntryPoint, fn: Callable) -> Callable:
        if ep.span == "engine.round":
            return self._round_wrapper(fn)
        if ep.module == "repro.runner.sweep":
            # Mapped over worker processes, so it must pickle by name.
            self._run_spec = fn
            return traced_execute_run_spec
        before, after = _HOOKS.get(ep.span, (None, None))
        span, outermost, open_ = ep.span, ep.outermost, self._open
        tracer = self

        def wrapper(*args, **kwargs):
            if outermost and open_[span]:
                return fn(*args, **kwargs)
            state = before(tracer, args) if before is not None else None
            result = tracer.call(span, fn, *args, **kwargs)
            if after is not None:
                after(tracer, args, result, state)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _round_wrapper(self, fn: Callable) -> Callable:
        stack, counts, tracer = self._stack, self.counts, self

        def begin_round(ctx):
            # Only the engine loop's own call starts a round; the
            # execution stage's idle jump calls it from inside a stage.
            if stack and stack[-1][0] == "engine.run":
                now = time.perf_counter()
                if tracer._round_t0 is not None:
                    tracer.round_s.append(now - tracer._round_t0)
                tracer._round_t0 = now
                counts["engine.rounds"] += 1
            return fn(ctx)

        begin_round.__wrapped__ = fn
        return begin_round

    # ------------------------------------------------------------------
    # Worker processes
    # ------------------------------------------------------------------
    def mark(self) -> tuple:
        return (
            {k: tuple(v) for k, v in self.stats.items()},
            dict(self.counts),
            len(self.round_s),
            len(self.spans),
        )

    def since(self, mark: tuple) -> dict:
        stats0, counts0, n_rounds, n_spans = mark
        stats = {}
        for key, rec in self.stats.items():
            old = stats0.get(key, (0, 0.0, 0.0))
            if rec[0] != old[0]:
                stats[key] = [rec[i] - old[i] for i in range(3)]
        return {
            "stats": stats,
            "counts": {
                k: v - counts0.get(k, 0.0)
                for k, v in self.counts.items()
                if v != counts0.get(k, 0.0)
            },
            "round_s": self.round_s[n_rounds:],
            "spans": self.spans[n_spans:],
        }

    def absorb(self, results) -> None:
        """Fold the trace shares workers attached to ``results``."""
        for result in results:
            metadata = getattr(result, "metadata", None)
            if not metadata or SHIP_KEY not in metadata:
                continue
            share = metadata.pop(SHIP_KEY)
            for key, delta in share["stats"].items():
                rec = self.stats.setdefault(key, [0, 0.0, 0.0])
                for i in range(3):
                    rec[i] += delta[i]
            for key, value in share["counts"].items():
                self.counts[key] += value
            self.round_s.extend(share["round_s"])
            self.spans.extend(share["spans"])

    # ------------------------------------------------------------------
    def dump(self) -> dict:
        """Everything recorded, JSON-ready."""
        return {
            "aggregate": [
                {
                    "parent": parent, "span": name, "calls": rec[0],
                    "total_s": rec[1], "self_s": rec[2],
                }
                for (parent, name), rec in sorted(self.stats.items())
            ],
            "counts": dict(self.counts),
            "spans": [
                {"span": n, "parent": p, "start": s, "end": e}
                for n, p, s, e in self.spans
            ],
            "missing": dict(self.missing),
        }


def traced_execute_run_spec(spec):
    """The traced stand-in for ``repro.runner.sweep.execute_run_spec``."""
    tracer = _ACTIVE
    if tracer is None or tracer._run_spec is None:
        raise RuntimeError("traced_execute_run_spec called without a tracer")
    mark = tracer.mark()
    result = tracer.call("cell", tracer._run_spec, spec)
    if os.getpid() != tracer.owner_pid:
        result.metadata[SHIP_KEY] = tracer.since(mark)
    return result


def _resolve(ep: EntryPoint) -> list[tuple[object, str, Callable]]:
    """(owner, attribute, current value) for every place to wrap."""
    module = importlib.import_module(ep.module)
    if "." not in ep.attr:
        return [(module, ep.attr, getattr(module, ep.attr))]
    cls_name, method = ep.attr.split(".")
    base = getattr(module, cls_name)
    getattr(base, method)  # AttributeError when the method is gone
    classes = [base]
    if ep.subclasses:
        todo = list(base.__subclasses__())
        while todo:
            cls = todo.pop()
            classes.append(cls)
            todo.extend(cls.__subclasses__())
    out = []
    for cls in classes:
        fn = cls.__dict__.get(method)
        if fn is None or getattr(fn, "__isabstractmethod__", False):
            continue
        out.append((cls, method, fn))
    return out


# ----------------------------------------------------------------------
# Boundary observations: (before(tracer, args) -> state,
#                         after(tracer, args, result, state))
# ----------------------------------------------------------------------
def _placement_before(tracer, args):
    ctx = args[1]
    return [(job, job.allocation) for job in ctx.active]


def _placement_after(tracer, args, result, snapshot):
    changed = 0
    for job, before in snapshot:
        after = job.allocation
        if after is None or after is before:
            continue
        if before is None or not np.array_equal(before, after):
            changed += 1
    tracer.counts["placement.changed"] += changed


def _ff_before(tracer, args):
    return args[1].epoch_idx


def _ff_after(tracer, args, result, epoch_before):
    if getattr(result, "name", None) == "NEXT_ROUND":
        tracer.counts["engine.ff_epochs_skipped"] += (
            args[1].epoch_idx - epoch_before - 1
        )


def _engine_before(tracer, args):
    tracer._round_t0 = None
    tracer._lp_seen = set()


def _engine_after(tracer, args, result, state):
    if tracer._round_t0 is not None:
        tracer.round_s.append(time.perf_counter() - tracer._round_t0)
        tracer._round_t0 = None
    tracer.counts["engine.epochs"] += result.metadata["epochs_run"]


def _lp_before(tracer, args):
    _, c, a_ub, b_ub = args[:4]
    h = hashlib.blake2b(digest_size=16)
    for arr in (c, a_ub, b_ub):
        arr = np.ascontiguousarray(arr)
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())
    key = h.digest()
    if key in tracer._lp_seen:
        tracer.counts["solver.lp_repeats"] += 1
    else:
        tracer._lp_seen.add(key)


_HOOKS = {
    "stage.placement": (_placement_before, _placement_after),
    "stage.fast-forward": (_ff_before, _ff_after),
    "engine.run": (_engine_before, _engine_after),
    "solver.lp": (_lp_before, None),
}


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def _stage(span):
    return lambda t: t.seconds(span)


def _ratio(num, den):
    return num / den if den else 0.0


def _percentile_ms(q):
    return lambda t: float(np.percentile(t.round_s, q)) * 1e3 if t.round_s else 0.0


#: metric -> (unit, better, spans it needs, value of the whole traced run).
#: Seconds and counts are divided by the number of workload rounds.
LAYER_METRICS: dict[str, tuple[str, str, tuple[str, ...], Callable, bool]] = {}


def _metric(name, unit, better, needs, fn, per_round=True):
    LAYER_METRICS[name] = (unit, better, needs, fn, per_round)


_metric("stage.placement.s", "s", "lower", ("stage.placement",), _stage("stage.placement"))
_metric("placement.select_calls", "count", "lower", ("placement.select",),
        lambda t: t.calls("placement.select"))
_metric("placement.select_s", "s", "lower", ("placement.select",),
        _stage("placement.select"))
_metric("placement.useful_ratio", "ratio", "higher",
        ("stage.placement", "placement.select"),
        lambda t: _ratio(t.counts["placement.changed"], t.calls("placement.select")),
        per_round=False)
_metric("placement.rounds_placed", "count", "lower", ("placement.place",),
        lambda t: t.calls("placement.place"))
_metric("cluster.allocate_calls", "count", "lower", ("cluster.allocate",),
        lambda t: t.calls("cluster.allocate"))
_metric("stage.fast-forward.s", "s", "lower", ("stage.fast-forward",),
        _stage("stage.fast-forward"))
_metric("engine.rounds", "count", "lower", ("engine.round", "engine.run"),
        lambda t: t.counts["engine.rounds"])
_metric("engine.ff_epochs_skipped", "count", "higher", ("stage.fast-forward",),
        lambda t: t.counts["engine.ff_epochs_skipped"])
_metric("engine.us_per_epoch", "us", "lower", ("engine.run",),
        lambda t: _ratio(t.seconds("engine.run"), t.counts["engine.epochs"]) * 1e6,
        per_round=False)
_metric("stage.arrival.s", "s", "lower", ("stage.arrival",), _stage("stage.arrival"))
_metric("stage.ordering.s", "s", "lower", ("stage.ordering",), _stage("stage.ordering"))
_metric("stage.execution.s", "s", "lower", ("stage.execution",),
        _stage("stage.execution"))
_metric("ordering.order_s", "s", "lower", ("ordering.order",), _stage("ordering.order"))
_metric("engine.round_ms_p50", "ms", "lower", ("engine.round", "engine.run"),
        _percentile_ms(50), per_round=False)
_metric("engine.round_ms_p99", "ms", "lower", ("engine.round", "engine.run"),
        _percentile_ms(99), per_round=False)
_metric("solver.solves", "count", "lower", ("solver.solve",),
        lambda t: t.calls("solver.solve"))
_metric("solver.solve_s", "s", "lower", ("solver.solve",), _stage("solver.solve"))
_metric("solver.lp_calls", "count", "lower", ("solver.lp",),
        lambda t: t.calls("solver.lp"))
_metric("solver.lp_s", "s", "lower", ("solver.lp",), _stage("solver.lp"))
_metric("solver.lp_repeat_ratio", "ratio", "lower", ("solver.lp", "engine.run"),
        lambda t: _ratio(t.counts["solver.lp_repeats"], t.calls("solver.lp")),
        per_round=False)
_metric("stage.dynamics.s", "s", "lower", ("stage.dynamics",), _stage("stage.dynamics"))
_metric("stage.profiling.s", "s", "lower", ("stage.profiling",),
        _stage("stage.profiling"))
_metric("runner.map_s", "s", "lower", ("runner.map",), _stage("runner.map"))
_metric("runner.cells", "count", "lower", ("cell",), lambda t: t.calls("cell"))

#: Every per-layer metric of a traced run, name -> (unit, better): the
#: ones above and those computed from set-up clocks, results and two
#: spans together.
PER_LAYER: dict[str, tuple[str, str]] = {
    **{name: spec[:2] for name, spec in LAYER_METRICS.items()},
    "runner.dispatch_s": ("s", "lower"),
    "setup.import_s": ("s", "lower"),
    "setup.env_s": ("s", "lower"),
    "setup.trace_s": ("s", "lower"),
    "profiling.campaigns": ("count", "lower"),
    "profiling.gpu_epochs": ("count", "lower"),
}


def layer_metrics(tracer: Tracer, n_rounds: int, workers: int) -> tuple[dict, list]:
    """(metric -> value, names of metrics whose entry point is gone)."""
    values: dict[str, float] = {}
    missing: list[str] = []
    for name, (_, _, needs, fn, per_round) in LAYER_METRICS.items():
        if any(span in tracer.missing for span in needs):
            missing.append(name)
            continue
        value = fn(tracer)
        values[name] = value / n_rounds if per_round else value
    if "runner.map" in tracer.missing or "cell" in tracer.missing:
        missing.append("runner.dispatch_s")
    else:
        values["runner.dispatch_s"] = (
            tracer.seconds("runner.map") - tracer.seconds("cell") / workers
        ) / n_rounds
    return values, missing
