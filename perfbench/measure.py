"""Untraced measurement: set-up, the serial baseline, timed searches, checks.

A workload is measured in three steps:

1. **set-up** (:func:`setup`) is repeated several times (instance
   load, problem build and, on the warm workloads, pool construction plus a
   throwaway ``step(1)`` that boots the workers); the last set-up is kept;
2. the **serial baseline** (:func:`serial_baseline`) runs one plain ``TabuSearch`` path from the
   master's initial solution for half of one TSW path's budget; its final
   best cost is the run's *target* (the paper's speed-up-to-quality level);
3. measured **searches** (:func:`measure_runs`) repeat until ``seconds`` have passed, and every
   result goes through :func:`check_result`.

A small shared host can run 1.5x faster or slower, in spells of a second
to minutes, as its neighbours come and go, and CPU time follows the wall
clock; its CPUs change speed independently of each other.  So a fixed
loop that does not use the library, timed once pinned to each CPU
(:func:`calibration`), brackets every timed sample: it runs once between
set-up repeats and three times (:func:`calibrate`) between searches.  Each
sample is scaled by the mean of the calibrations just before and just after
it, and the two timings are the medians of the scaled samples, in
*reference seconds*: ``setup_s`` is the median of set-up wall time times
``CALIBRATION_REFERENCE_S / bracket``, ``run_s`` the same over searches.
The raw wall times and every calibration are in the report.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from workloads import (
    CALIBRATION_REFERENCE_S,
    CALIBRATIONS_PER_SEARCH,
    JOIN_TIMEOUT_S,
    REFERENCE_SEED,
    SETUP_MIN_S,
    SETUP_REPEATS,
    Workload,
)

_CALIBRATION_DATA = np.random.default_rng(0).random(20_000)
_CALIBRATION_INDEX = np.random.default_rng(1).integers(0, 20_000, 20_000)
_CALIBRATION_TEXT = " ".join(f"cell{i} net{i % 97} {i * 7 % 1000}" for i in range(4_000))


def calibration() -> float:
    """Mean wall time of :func:`reference_loop` run once on each CPU this
    process may use, pinned to it: on a shared host the CPUs change speed
    independently, and the searches run on all of them."""
    cpus = sorted(os.sched_getaffinity(0))
    try:
        times = []
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            times.append(reference_loop())
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.mean(times)


def reference_loop() -> float:
    """Wall time of a fixed loop: pure-Python arithmetic, a NumPy gather and
    sort (the mix the search runs), and tokenising, counting and sorting a
    fixed text (the allocation-heavy mix of instance loading)."""
    start = time.perf_counter()
    total = 0
    for i in range(120_000):
        total += i * i
    for _ in range(40):
        total += float(np.sort(_CALIBRATION_DATA[_CALIBRATION_INDEX])[0])
    for _ in range(2):
        counts: Dict[str, int] = {}
        for token in _CALIBRATION_TEXT.split():
            counts[token] = counts.get(token, 0) + 1
        total += len(sorted((key, value, str(value)) for key, value in counts.items()))
    return time.perf_counter() - start


@dataclass
class Prepared:
    """A workload after set-up: the problem, the params and (warm) the pool."""

    workload: Workload
    params: Any
    problem: Any
    pool: Any = None
    #: Raw set-up samples: one dict of phase times per repeat, with the
    #: mean of the calibrations around it as ``calibration_s``.
    setups: List[Dict[str, float]] = field(default_factory=list)
    #: One :func:`calibration` before the first set-up repeat and after each.
    calibrations: List[float] = field(default_factory=list)

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()
            self.pool = None


@dataclass
class Baseline:
    iterations: int
    wall_s: float
    target_cost: float

    @property
    def iter_ms(self) -> float:
        return 1e3 * self.wall_s / self.iterations


@dataclass
class RunSample:
    """One measured search, reduced to what the metrics and checks need."""

    wall_s: float
    best_cost: float
    #: local iterations of the steady part of the search, and its duration:
    #: global rounds 2..G on processes (finish_time span), the whole run on
    #: the simulator (run wall time)
    steady_iterations: int
    steady_span_s: float
    time_to_target_s: Optional[float]
    #: finish_time differences of consecutive global iterations (wall s on
    #: processes, virtual s on the simulator)
    round_s: List[float]
    phases: Dict[str, float]
    #: mean of the :func:`calibrate` results just before and after the search
    calibration_s: float
    #: exact repeat signature (virtual makespan, messages, bytes) on the
    #: simulator, ``None`` on processes
    sim_signature: Optional[tuple]
    interrupted_tsws: int
    violations: List[str]


def setup_once(workload: Workload, seed: int) -> Prepared:
    """One timed set-up of ``workload`` (see the module docstring)."""
    from repro import SearchSession, WorkerPool, load_benchmark
    from repro.parallel import build_problem

    params = workload.params(seed)
    phases: Dict[str, float] = {}
    start = time.perf_counter()
    netlist = load_benchmark(workload.instance, use_cache=False)
    loaded = time.perf_counter()
    problem = build_problem(netlist, params, reference_seed=REFERENCE_SEED)
    built = time.perf_counter()
    phases["load_s"] = loaded - start
    phases["build_s"] = built - loaded
    prepared = Prepared(workload, params, problem)
    if workload.mode == "warm":
        prepared.pool = WorkerPool(
            workload.num_tsws,
            workload.clws_per_tsw,
            backend="processes",
            cluster=workload.cluster(),
        )
        pooled = time.perf_counter()
        try:
            SearchSession(
                problem=problem, params=params, pool=prepared.pool,
                join_timeout=JOIN_TIMEOUT_S,
            ).step(1)
        except BaseException:
            prepared.close()
            raise
        phases["pool_init_s"] = pooled - built
        phases["warmup_s"] = time.perf_counter() - pooled
    phases["setup_s"] = time.perf_counter() - start
    prepared.setups.append(phases)
    return prepared


def setup(
    workload: Workload, seed: int, repeats: int = SETUP_REPEATS, min_s: float = SETUP_MIN_S
) -> Prepared:
    """Set up at least ``repeats`` times and for at least ``min_s`` seconds;
    keep the last set-up, close the others."""
    samples: List[Dict[str, float]] = []
    calibrations: List[float] = [calibration()]
    prepared: Optional[Prepared] = None
    while len(samples) < repeats or sum(s["setup_s"] for s in samples) < min_s:
        if prepared is not None:
            prepared.close()
        prepared = setup_once(workload, seed)
        calibrations.append(calibration())
        (phases,) = prepared.setups
        phases["calibration_s"] = (calibrations[-2] + calibrations[-1]) / 2
        samples.append(phases)
    prepared.setups = samples
    prepared.calibrations = calibrations
    return prepared


def serial_baseline(prepared: Prepared) -> Baseline:
    """Plain serial tabu search from the master's initial solution."""
    from repro import TabuSearch, TerminationCriteria

    params = prepared.params
    iterations = max(1, prepared.workload.path_iterations // 2)
    evaluator = prepared.problem.make_evaluator(
        prepared.problem.random_solution(params.initial_placement_seed)
    )
    search = TabuSearch(evaluator, params.tabu, seed=params.seed)
    start = time.perf_counter()
    result = search.run(TerminationCriteria(max_iterations=iterations), record_trace=False)
    wall = time.perf_counter() - start
    return Baseline(iterations=iterations, wall_s=wall, target_cost=float(result.best_cost))


def run_search(prepared: Prepared):
    """One measured search; returns ``(result, wall_s, trace_origin, end_clock)``.

    ``trace_origin`` is the run's entry on the trace's clock: the warm pool's
    kernel clock (``pool.kernel.now``); 0 for a cold run, whose kernel clock
    starts inside ``run_parallel_search``; 0 on the simulator's virtual clock.
    ``end_clock`` is the run's return on the same clock (warm runs only).
    """
    from repro import SearchSession, run_parallel_search

    workload, params, problem = prepared.workload, prepared.params, prepared.problem
    if workload.mode == "warm":
        session = SearchSession(
            problem=problem, params=params, pool=prepared.pool, join_timeout=JOIN_TIMEOUT_S
        )
        origin = prepared.pool.kernel.now
        start = time.perf_counter()
        result = session.run()
        wall = time.perf_counter() - start
        return result, wall, origin, prepared.pool.kernel.now
    start = time.perf_counter()
    result = run_parallel_search(
        problem=problem,
        params=params,
        backend=workload.backend,
        cluster=workload.cluster(),
        join_timeout=JOIN_TIMEOUT_S,
    )
    wall = time.perf_counter() - start
    return result, wall, 0.0, None


def time_to_reach(trace, target: float, origin: float) -> Optional[float]:
    for moment, cost in trace:
        if cost <= target:
            return float(moment) - origin
    return None


def check_result(problem, result) -> List[str]:
    """Violations of one search result (empty when it is correct).

    The best solution must assign every cell its own slot (an injection of
    the cells into the layout's slots), and the reported best cost must
    equal the exact cost recomputed from that solution.
    """
    solution = np.asarray(result.best_solution)
    num_slots = problem.layout.num_slots
    if (
        solution.shape != (problem.num_cells,)
        or solution.min() < 0
        or solution.max() >= num_slots
        or np.unique(solution).size != solution.size
    ):
        return ["best_solution does not give every cell its own slot"]
    exact = float(problem.make_evaluator(solution).exact_cost())
    if not math.isclose(exact, float(result.best_cost), rel_tol=1e-9, abs_tol=1e-12):
        return [f"best_cost {result.best_cost!r} != exact recomputed cost {exact!r}"]
    return []


def sample_of(prepared: Prepared, result, wall, origin, end_clock, target, calibration_s):
    """Reduce one search result to a :class:`RunSample` (checks included)."""
    workload = prepared.workload
    records = result.global_records
    finish = [float(r.finish_time) for r in records]
    violations = check_result(prepared.problem, result)
    ttt = time_to_reach(result.trace, target, origin)
    if ttt is None:
        violations.append(f"missed the target cost {target!r}")
    phases: Dict[str, float] = {}
    if workload.mode == "sim":
        from repro.parallel.messages import TswSummary

        steady_iterations = sum(
            info.result.local_iterations_done
            for info in result.process_infos
            if isinstance(info.result, TswSummary)
        )
        span = wall
        stats = result.sim_stats
        signature = (
            float(result.virtual_runtime), int(stats.total_messages), int(stats.total_bytes)
        )
    else:
        span = finish[-1] - finish[0]
        steady_iterations = workload.num_tsws * workload.local_iterations * (len(finish) - 1)
        signature = None
        first_point = float(result.trace[0][0])
        if workload.mode == "warm":
            phases["master_start_s"] = first_point - origin
            phases["first_round_s"] = finish[0] - first_point
            phases["teardown_s"] = end_clock - finish[-1]
        else:
            # the cold run's kernel clock starts inside run_parallel_search,
            # after argument checks only
            phases["cold_start_s"] = first_point
    return RunSample(
        wall_s=wall,
        best_cost=float(result.best_cost),
        steady_iterations=steady_iterations,
        steady_span_s=span,
        time_to_target_s=ttt,
        round_s=[b - a for a, b in zip(finish, finish[1:])],
        phases=phases,
        calibration_s=calibration_s,
        sim_signature=signature,
        interrupted_tsws=sum(int(r.interrupted_tsws) for r in records),
        violations=violations,
    )


@dataclass
class Measurement:
    prepared: Prepared
    baseline: Baseline
    samples: List[RunSample]
    attempted: int
    failures: List[str]
    #: every :func:`calibration`: :data:`CALIBRATIONS_PER_SEARCH` before the
    #: first search and after each
    calibrations: List[float] = field(default_factory=list)
    #: the last successful result (the traced replay is compared against it)
    last_result: Any = None

    @property
    def failed(self) -> int:
        return self.attempted - sum(1 for s in self.samples if not s.violations)


def measure_runs(prepared: Prepared, baseline: Baseline, seconds: float) -> Measurement:
    """Repeat measured searches until ``seconds`` have passed (at least one)."""
    measurement = Measurement(prepared, baseline, [], 0, [])

    def calibrate() -> float:
        """Mean of :data:`CALIBRATIONS_PER_SEARCH` calibrations, all kept."""
        times = [calibration() for _ in range(CALIBRATIONS_PER_SEARCH)]
        measurement.calibrations += times
        return statistics.mean(times)

    deadline = time.perf_counter() + seconds
    before = calibrate()
    while measurement.attempted == 0 or time.perf_counter() < deadline:
        measurement.attempted += 1
        try:
            result, wall, origin, end_clock = run_search(prepared)
        except Exception as error:  # a failed run is counted, not fatal
            measurement.failures.append(f"run {measurement.attempted}: {error!r}")
            before = calibrate()
            continue
        after = calibrate()
        sample = sample_of(prepared, result, wall, origin, end_clock, baseline.target_cost,
                           (before + after) / 2)
        before = after
        measurement.samples.append(sample)
        measurement.last_result = result
    mark_repeat_violations(measurement.samples)
    for index, sample in enumerate(measurement.samples, start=1):
        measurement.failures.extend(f"run {index}: {v}" for v in sample.violations)
    return measurement


def mark_repeat_violations(samples: List[RunSample]) -> None:
    """Seeded repeats must agree exactly (best cost; on the simulator also
    virtual makespan, messages and bytes).  A disagreeing run is marked."""
    if not samples:
        return
    first = samples[0]
    for sample in samples[1:]:
        if sample.best_cost != first.best_cost:
            sample.violations.append(
                f"best_cost {sample.best_cost!r} differs from run 1 ({first.best_cost!r})"
            )
        if sample.sim_signature != first.sim_signature:
            sample.violations.append(
                f"simulator signature {sample.sim_signature} differs from run 1 "
                f"({first.sim_signature})"
            )


def peak_rss_mib() -> float:
    """Peak RSS of this process plus the largest reaped child, in MiB
    (``ru_maxrss`` is in KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def median(values) -> Optional[float]:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def reference_s(wall_s: float, calibration_s: float) -> float:
    """``wall_s`` in reference seconds (see the module docstring)."""
    return wall_s * CALIBRATION_REFERENCE_S / calibration_s


def end_to_end(measurement: Measurement, rss_mib: float) -> Dict[str, Optional[float]]:
    """End-to-end metric values of one measurement (``None`` when missing)."""
    samples, prepared = measurement.samples, measurement.prepared
    return {
        "setup_s": median(
            reference_s(s["setup_s"], s["calibration_s"]) for s in prepared.setups
        ),
        "run_s": median(reference_s(s.wall_s, s.calibration_s) for s in samples),
        "best_cost": median(s.best_cost for s in samples),
        "peak_rss_mib": rss_mib,
    }


def iters_per_s(samples: List[RunSample]) -> Optional[float]:
    """Steady throughput of all runs pooled (one short round alone is noisy)."""
    span = sum(s.steady_span_s for s in samples)
    return sum(s.steady_iterations for s in samples) / span if span > 0 else None
