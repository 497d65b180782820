"""The benchmark's workloads: set-up, one measured round, and checks.

A round runs every cell of the workload once; an operation is one
cell.  Every cell is simulated from scratch in every round: set-up
builds the environments and traces once, and no round reads a result
cache or a memoized result.  In-process workloads map the runner's
concrete-cell entry point (``execute_sim_cell``) over ``SimCell``s with
the ``serial`` executor; ``sia-grid`` runs a ``SweepSpec`` through
``run_sweep`` on a fresh 2-worker ``process`` pool per round, whose
forked workers start with empty environment and trace memos and build
their own.  Executor and cache are always passed explicitly, so the
``REPRO_EXECUTOR``, ``REPRO_WORKERS`` and ``REPRO_CACHE_DIR``
environment variables change nothing.

The traces are fixed per workload and ``--seed`` draws the clusters
(profile sample, profiling campaign, PM-Score fit) and every cell's
seed.  A cell's makespan is set by the few jobs that finish last, so
each workload averages enough traces, or clusters, that its simulated
metrics move between seeds by well under their bounds (README.md has
the figures).
"""

from __future__ import annotations

import dataclasses
import math
import random
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

from repro.experiments.gavel import regimes
from repro.runner import execute
from repro.runner.executors import ProcessExecutor, SerialExecutor
from repro.runner.spec import EnvSpec, SweepSpec, TraceSpec
from repro.runner.sweep import run_sweep
from repro.scheduler.placement import ALL_POLICY_NAMES
from repro.scheduler.simulator import SimulatorConfig

from . import checks

__all__ = ["WORKLOADS", "Workload", "Prepared", "CellFailure", "verify", "geomean"]

#: Seed of the fixed gavel and Sia traces (see the module docstring); the
#: Synergy workloads use trace seeds 0, 1, ... per load.
TRACE_SEED = 0


@dataclass(frozen=True)
class CellFailure:
    """Stands in for the result of a cell that raised."""

    error: str


@dataclass
class Prepared:
    """A workload after set-up, ready to run rounds."""

    workload: str
    seed: int
    #: Concrete inputs of every operation, in the order results come back.
    cells: list
    #: Runs every cell once: one result (or CellFailure) per cell, and
    #: each cell's wall seconds when the cells run in this process.
    run_round: Callable[[], tuple[list, list | None]]
    #: Worker processes the cells run on.
    workers: int = 1
    #: Workload-specific checks on the first round's results.
    extra_checks: Callable[[list], list[str]] = lambda results: []
    #: Set-up phase -> seconds.
    setup: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable[["Clock", int, bool], Prepared]
    #: Modules the workload imports beyond the runner (timed as set-up).
    imports: tuple[str, ...] = ()


class Clock:
    """Accumulates wall seconds per set-up phase."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}

    @contextmanager
    def __call__(self, phase: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[phase] = self.seconds.get(phase, 0.0) + (
                time.perf_counter() - t0
            )


def _attempt(cell) -> tuple[object, float]:
    """Run one cell and time it; a cell that raises is counted, not fatal."""
    t0 = time.perf_counter()
    try:
        result = execute.execute_sim_cell(cell)
    except Exception:  # the boundary of one operation: report and go on
        traceback.print_exc(file=sys.stderr)
        result = CellFailure(traceback.format_exc(limit=1))
    return result, time.perf_counter() - t0


def _serial_round(cells) -> Callable[[], tuple[list, list]]:
    def run_round():
        timed = SerialExecutor().map(_attempt, cells)
        return [r for r, _ in timed], [t for _, t in timed]

    return run_round


def _cells(env, traces, pairs, seed, config=None) -> list:
    return [
        execute.SimCell(
            trace=trace,
            scheduler=scheduler,
            placement=placement,
            seed=seed,
            topology=env.topology,
            true_profile=env.true_profile,
            pm_table=env.pm_table,
            locality=env.locality,
            config=config,
        )
        for trace in traces
        for scheduler, placement in pairs
    ]


# ----------------------------------------------------------------------
# synergy256-nonsticky / synergy256-sticky
# ----------------------------------------------------------------------
SYNERGY_ENV = EnvSpec(n_gpus=256, profile_cluster="longhorn", locality=1.7)
#: The loads of Figs. 16/17 (jobs/hour).
SYNERGY_LOADS = (8.0, 12.0)
NONSTICKY_JOBS = 50
NONSTICKY_TRACES = 3
STICKY_JOBS = 50
STICKY_TRACES = 6
SMOKE_JOBS = 24


def _synergy(schedulers, placements, n_jobs, n_traces):
    """Set-up of a Synergy workload with ``n_traces`` fixed traces per load.

    A cell's makespan hangs on its trace's longest job, so with one
    trace per load the makespan geomean moves by 0.11 (quartile spread
    over median) from one cluster draw to the next; several traces per
    load average that down.
    """
    pairs = [(s, p) for s in schedulers for p in placements]

    def setup(clock: Clock, seed: int, smoke: bool) -> Prepared:
        with clock("env"):
            env = SYNERGY_ENV.build(seed)
        with clock("trace"):
            traces = [
                TraceSpec(
                    "synergy", load=load,
                    n_jobs=SMOKE_JOBS if smoke else n_jobs, seed=trace_seed,
                ).build(seed)
                for load in SYNERGY_LOADS
                for trace_seed in range(1 if smoke else n_traces)
            ]
        cells = _cells(env, traces, pairs, seed)
        return Prepared("", seed, cells, _serial_round(cells))

    return setup


# ----------------------------------------------------------------------
# gavel-reprofile
# ----------------------------------------------------------------------
GAVEL_ENV = EnvSpec(n_gpus=64, profile_cluster="longhorn", locality=1.7)
GAVEL_JOBS = 16
GAVEL_SMOKE_JOBS = 10
#: Clusters per run: a solver cell's LP count, and with it its host
#: time, moves by about 6 % from one cluster draw to the next.
GAVEL_CLUSTERS = 2
GAVEL_PAIRS = (("gavel-mt", "gavel-mt"), ("gavel-mmf", "gavel-mmf"), ("las", "pal"))
#: LP instances re-solved by the check, reservoir-sampled per run.
LP_SAMPLE = 8


def _gavel_setup(clock: Clock, seed: int, smoke: bool) -> Prepared:
    env_seeds = [seed * GAVEL_CLUSTERS + i for i in range(1 if smoke else GAVEL_CLUSTERS)]
    with clock("env"):
        envs = [GAVEL_ENV.build(s) for s in env_seeds]
    with clock("trace"):
        trace = TraceSpec(
            "synergy", load=8.0,
            n_jobs=GAVEL_SMOKE_JOBS if smoke else GAVEL_JOBS, seed=TRACE_SEED,
        ).build(seed)
    config = regimes()["drift+reprofile"]
    cells = [
        cell
        for env, env_seed in zip(envs, env_seeds)
        for cell in _cells(env, [trace], GAVEL_PAIRS, env_seed, config)
    ]
    prepared = Prepared("", seed, cells, _serial_round(cells))
    prepared.extra_checks = lambda results: _check_lps(prepared, results)
    return prepared


@contextmanager
def _lp_sample(k: int, rng: random.Random):
    """Reservoir-sample ``k`` LP instances at the solver backend."""
    from repro.scheduler.solver.backend import ScipyLinProgBackend

    solve = ScipyLinProgBackend.__dict__["solve"]
    sample: list[tuple] = []
    seen = [0]

    def capturing(self, c, a_ub, b_ub):
        sol = solve(self, c, a_ub, b_ub)
        if len(sample) < k:
            sample.append((c, a_ub, b_ub, sol))
        else:
            j = rng.randrange(seen[0] + 1)
            if j < k:
                sample[j] = (c, a_ub, b_ub, sol)
        seen[0] += 1
        return sol

    ScipyLinProgBackend.solve = capturing
    try:
        yield sample
    finally:
        ScipyLinProgBackend.solve = solve


def _check_lps(prepared: Prepared, results: list) -> list[str]:
    """Re-run a seed-chosen solver cell capturing its LPs; re-solve a
    sample with interior point and check the simplex solutions."""
    from repro.scheduler.solver.backend import ScipyLinProgBackend

    rng = _rng(prepared, "lp")
    solver_cells = [
        i for i, c in enumerate(prepared.cells) if c.scheduler.startswith("gavel")
    ]
    i = rng.choice(solver_cells)
    if isinstance(results[i], CellFailure):
        return []
    with _lp_sample(LP_SAMPLE, rng) as sample:
        again = execute.execute_sim_cell(prepared.cells[i])
    problems = checks.same_records(results[i], again, "LP capture re-run")
    if not sample:
        problems.append(f"{again.scheduler_name}: no LP instance captured")
    reference = ScipyLinProgBackend(method="highs-ipm")
    for c, a_ub, b_ub, sol in sample:
        problems += checks.lp_reaches_optimum(
            c, a_ub, b_ub, sol.x, sol.objective, reference
        )
    return problems


# ----------------------------------------------------------------------
# sia-grid
# ----------------------------------------------------------------------
SIA_ENV = EnvSpec(n_gpus=64, profile_cluster="longhorn", use_per_model_locality=True)
SIA_JOBS = 40
SIA_SEEDS = 8
SIA_WORKERS = 2
#: Cells of the process run that a serial run repeats.
SIA_SERIAL_SAMPLE = 6


def _sia_setup(clock: Clock, seed: int, smoke: bool) -> Prepared:
    workload_ids = (1, 2) if smoke else tuple(range(1, 9))
    seeds = tuple(seed * SIA_SEEDS + i for i in range(1 if smoke else SIA_SEEDS))
    spec = SweepSpec(
        traces=tuple(
            TraceSpec(
                "sia", workload=w, n_jobs=SMOKE_JOBS if smoke else SIA_JOBS,
                seed=TRACE_SEED,
            )
            for w in workload_ids
        ),
        schedulers=("fifo",),
        placements=ALL_POLICY_NAMES,
        seeds=seeds,
        env=SIA_ENV,
        name="perfbench-sia-grid",
    )
    runs = spec.expand()
    # The parent builds what the checks need with the spec's own
    # builders, never through the runner's per-process memos: a worker
    # forked from this process must start with empty memos.
    with clock("env"):
        envs = {s: spec.env.build(s) for s in seeds}
    with clock("trace"):
        traces = {t: t.build(TRACE_SEED) for t in spec.traces}
    cells = [
        execute.SimCell(
            trace=traces[run.trace],
            scheduler=run.scheduler,
            placement=run.placement,
            seed=run.seed,
            topology=envs[run.seed].topology,
            true_profile=envs[run.seed].true_profile,
            pm_table=envs[run.seed].pm_table,
            locality=envs[run.seed].locality,
        )
        for run in runs
    ]

    def run_round() -> tuple[list, None]:
        try:
            sweep = run_sweep(
                spec, executor=ProcessExecutor(max_workers=SIA_WORKERS), cache=None
            )
        except Exception:  # the whole sweep is the boundary here
            traceback.print_exc(file=sys.stderr)
            return [CellFailure(traceback.format_exc(limit=1))] * len(runs), None
        return list(sweep.results), None

    prepared = Prepared("", seed, cells, run_round, workers=SIA_WORKERS)

    def serial_subset(results: list) -> list[str]:
        rng = _rng(prepared, "serial")
        picked = sorted(rng.sample(range(len(runs)), min(SIA_SERIAL_SAMPLE, len(runs))))
        serial = SerialExecutor().map(execute.execute_run_spec, [runs[i] for i in picked])
        problems = []
        for i, res in zip(picked, serial):
            if isinstance(results[i], CellFailure):
                continue
            diffs = results[i].same_outcome_as(res)
            if diffs:
                problems.append(f"{runs[i].label}: process vs serial differ in {diffs}")
        return problems

    prepared.extra_checks = serial_subset
    return prepared


# ----------------------------------------------------------------------
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "synergy256-nonsticky",
            "Figs. 16/17 setting: non-sticky PAL and PM-First re-place the whole "
            "prefix, so placement dominates host time",
            _synergy(
                ("las", "srtf"), ("pal", "pm-first", "tiresias"), NONSTICKY_JOBS,
                NONSTICKY_TRACES,
            ),
        ),
        Workload(
            "synergy256-sticky",
            "same cluster and loads with sticky placements: the engine loop and "
            "fast-forward dominate, placement is small",
            _synergy(
                ("fifo", "las", "srtf"),
                ("tiresias", "pal-sticky", "pm-first-sticky"),
                STICKY_JOBS,
                STICKY_TRACES,
            ),
        ),
        Workload(
            "gavel-reprofile",
            "drift plus re-profiling with the LP lanes: the only workload that runs "
            "the solver, dynamics and profiling layers",
            _gavel_setup,
            imports=("scipy.optimize", "repro.scheduler.solver"),
        ),
        Workload(
            "sia-grid",
            "Fig. 11 grid over 8 seeds on a 2-worker process pool: runner dispatch, "
            "per-worker builds, sparse traces where fast-forward wins",
            _sia_setup,
        ),
    )
}


def prepare(name: str, clock: Clock, seed: int, smoke: bool = False) -> Prepared:
    prepared = WORKLOADS[name].setup(clock, seed, smoke)
    prepared.workload = name
    return prepared


def _rng(prepared: Prepared, purpose: str) -> random.Random:
    return random.Random(f"{prepared.workload}/{prepared.seed}/{purpose}")


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def naive_config(config: SimulatorConfig | None) -> SimulatorConfig:
    return dataclasses.replace(
        config or SimulatorConfig(), fast_forward=False, record_events=True
    )


def verify(prepared: Prepared, results: list) -> list[str]:
    """Every correctness check of one round's results."""
    problems: list[str] = []
    pairs = [
        (cell, res)
        for cell, res in zip(prepared.cells, results)
        if not isinstance(res, CellFailure)
    ]
    for cell, res in pairs:
        problems += checks.finish_once(cell.trace, res)
        problems += checks.jct_lower_bound(cell.trace, res, cell.true_profile.scores)
        problems += checks.capacity(res)

    i = _rng(prepared, "naive").randrange(len(prepared.cells))
    if not isinstance(results[i], CellFailure):
        cell = prepared.cells[i]
        naive = execute.execute_sim_cell(
            dataclasses.replace(cell, config=naive_config(cell.config))
        )
        problems += checks.same_records(results[i], naive, "naive loop")
        problems += checks.replay_gpu_holders(naive.events)

    problems += pal_beats_tiresias(pairs)
    problems += prepared.extra_checks(results)
    return problems


def pal_beats_tiresias(pairs) -> list[str]:
    """PAL's geomean average JCT is below Tiresias's on shared traces.

    PAL-sticky stands in for PAL in workloads that only run sticky
    placements.
    """
    by_key = {
        (id(cell.trace), cell.scheduler, cell.seed, cell.placement): res
        for cell, res in pairs
    }
    problems = []
    for pal in ("pal", "pal-sticky"):
        ratios = [
            res.avg_jct_s() / by_key[key[:3] + ("tiresias",)].avg_jct_s()
            for key, res in by_key.items()
            if key[3] == pal and key[:3] + ("tiresias",) in by_key
        ]
        if ratios and geomean(ratios) >= 1.0:
            problems.append(
                f"{pal}/Tiresias geomean avg JCT is {geomean(ratios):.3f}, not below 1"
            )
    return problems


def outcome_counts(results: list) -> dict[str, int]:
    """Totals the traced run cross-checks against its own observations."""
    lp_calls = changed = 0
    for res in results:
        if isinstance(res, CellFailure):
            continue
        solver = res.metadata.get("solver")
        if solver is not None:
            lp_calls += solver["n_lp_calls"]
        changed += sum(1 + r.n_migrations + r.n_restarts for r in res.records)
    return {"lp_calls": lp_calls, "gpu_set_changes": changed}
