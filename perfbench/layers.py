"""Traced mode: per-layer self times and counts, measured from outside.

The tracer wraps public functions of each layer by patching the attribute
its caller looks up (a class attribute for methods, a module attribute for
functions imported by name), keeps a stack of open spans to split each
span into self time and child time, and holds the totals in memory until
the run ends.  The wrappers are installed only inside :func:`traced` and
removed on exit, so the timing runs never see them.

The in-worker layers run in other processes on the ``processes`` backend,
out of reach of an in-process wrapper.  They are therefore measured on an
in-process ``simulated`` replay of the workload's exact configuration.
Under homogeneous sync the replay walks the same trajectory as the real
run, which the benchmark checks by comparing best costs.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from measure import time_to_reach


class Tracer:
    """Self time and call counts per span name, computed with a stack."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        #: open spans: [name, start, time covered by children]
        self._stack: List[list] = []

    def enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def exit(self) -> None:
        name, start, children = self._stack.pop()
        duration = time.perf_counter() - start
        self.self_s[name] += duration - children
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration

    def span(self, name: str, func: Callable, count: Optional[Callable] = None) -> Callable:
        """``func`` wrapped in a span; ``count(args, kwargs, result)`` adds to
        the counter of the same name."""
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            tracer.enter(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.exit()
            if count is not None:
                tracer.counts[name] += count(args, kwargs, result)
            return result

        return wrapper

    def generator_span(self, name: str, func: Callable) -> Callable:
        """A PVM process function wrapped so that each resumption of its
        generator body is one span (the time between yields)."""
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            body = func(*args, **kwargs)
            value = None
            while True:
                tracer.enter(name)
                try:
                    syscall = body.send(value)
                except StopIteration as stop:
                    return stop.value
                finally:
                    tracer.exit()
                value = yield syscall

        return wrapper


def _nbytes(args, kwargs, result) -> float:
    arrays = [a for a in (*args, *kwargs.values(), result) if isinstance(a, np.ndarray)]
    return float(sum(a.nbytes for a in arrays))


def _patch_targets(tracer: Tracer) -> List[Tuple[object, str, Callable]]:
    """``(owner, attribute, replacement)`` for every traced public function."""
    import repro.accel
    import repro.parallel.master as master_module
    import repro.parallel.tsw as tsw_module
    import repro.session.session as session_module
    import repro.tabu.moves as moves_module
    import repro.tabu.search as search_module
    from repro.parallel.delta import DeltaEncoder
    from repro.placement.cost import CostEvaluator
    from repro.placement.timing import TimingAnalyzer
    from repro.problems.placement import PlacementProblem
    from repro.pvm.simulator import SimKernel
    from repro.tabu.moves import CompoundMoveBuilder
    from repro.tabu.search import TabuSearch
    from repro.tabu.tabu_list import ArrayTabuList

    def method(owner, attribute, name, count=None):
        return owner, attribute, tracer.span(name, getattr(owner, attribute), count)

    def process(owner, attribute, name):
        return owner, attribute, tracer.generator_span(name, getattr(owner, attribute))

    return [
        method(SimKernel, "run", "pvm.sim"),
        process(session_module, "master_process", "parallel.protocol"),
        process(master_module, "tsw_process", "parallel.protocol"),
        process(tsw_module, "clw_process", "parallel.protocol"),
        method(DeltaEncoder, "encode", "parallel.encode",
               lambda args, kwargs, payload: float(payload.is_full)),
        method(master_module, "decode_solution", "parallel.decode"),
        method(TabuSearch, "consider_candidates", "tabu.consider"),
        method(TabuSearch, "diversify", "tabu.diversify"),
        method(CompoundMoveBuilder, "step", "tabu.builder_step"),
        method(moves_module, "sample_candidate_pairs_array", "tabu.sample"),
        method(search_module, "sample_candidate_pairs_array", "tabu.sample"),
        method(ArrayTabuList, "is_tabu_pairs", "tabu.tabu_check"),
        method(CostEvaluator, "evaluate_swaps_batch", "placement.batch_eval",
               lambda args, kwargs, costs: float(len(costs))),
        method(CostEvaluator, "commit_swap", "placement.commit"),
        method(CostEvaluator, "apply_swaps", "placement.commit"),
        method(TimingAnalyzer, "analyze", "placement.sta"),
        method(repro.accel, "hpwl_batch_deltas", "accel.hpwl_batch", _nbytes),
        method(moves_module, "masked_argmin", "accel.select"),
        method(PlacementProblem, "make_evaluator", "problems.make_evaluator"),
    ]


@contextlib.contextmanager
def traced(tracer: Tracer) -> Iterator[Tracer]:
    """Install the wrappers for the duration of the block, then restore."""
    targets = _patch_targets(tracer)
    originals = [(owner, attribute, owner.__dict__[attribute]) for owner, attribute, _ in targets]
    try:
        for owner, attribute, replacement in targets:
            setattr(owner, attribute, replacement)
        yield tracer
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)


def replay(prepared):
    """The workload's exact configuration on the simulated backend,
    in-process; returns ``(result, wall_s)``."""
    from repro import run_parallel_search

    workload = prepared.workload
    start = time.perf_counter()
    result = run_parallel_search(
        problem=prepared.problem,
        params=prepared.params,
        backend="simulated",
        cluster=workload.cluster(),
    )
    return result, time.perf_counter() - start


def replay_metrics(prepared, target: float) -> Tuple[Dict[str, float], object]:
    """Per-layer metrics of one untraced plus one traced replay.

    Returns the metrics and the traced replay's result.
    """
    _, untraced_wall = replay(prepared)
    tracer = Tracer()
    with traced(tracer):
        result, traced_wall = replay(prepared)
    self_s, calls, counts = tracer.self_s, tracer.calls, tracer.counts
    covered = sum(self_s.values())
    stats = result.sim_stats
    rounds = max(1, len(result.global_records))
    infos = result.process_infos
    master = next(info for info in infos if info.name == "master")
    workers = [info for info in infos if info.name != "master" and info.clock > 0]
    metrics = {
        "pvm.msgs_per_round": stats.total_messages / rounds,
        "pvm.bytes_per_round": stats.total_bytes / rounds,
        "pvm.sim_events": float(stats.total_events),
        "pvm.sim_self_s": self_s["pvm.sim"],
        "pvm.virtual_makespan_s": float(result.virtual_runtime),
        "pvm.virtual_time_to_target_s": time_to_reach(result.trace, target, 0.0),
        "parallel.protocol_s": self_s["parallel.protocol"],
        "parallel.encode_s": self_s["parallel.encode"],
        "parallel.encode_calls": float(calls["parallel.encode"]),
        "parallel.full_ratio": (
            counts["parallel.encode"] / calls["parallel.encode"]
            if calls["parallel.encode"] else 0.0
        ),
        "parallel.decode_s": self_s["parallel.decode"],
        "parallel.master_wait_frac": 1.0 - master.busy_seconds / master.clock,
        "parallel.worker_busy_frac_min": min(
            info.busy_seconds / info.clock for info in workers
        ),
        "tabu.consider_s": self_s["tabu.consider"],
        "tabu.consider_calls": float(calls["tabu.consider"]),
        "tabu.diversify_s": self_s["tabu.diversify"],
        "tabu.builder_step_s": self_s["tabu.builder_step"],
        "tabu.builder_steps": float(calls["tabu.builder_step"]),
        "tabu.sample_s": self_s["tabu.sample"],
        "tabu.tabu_check_s": self_s["tabu.tabu_check"],
        "placement.batch_eval_s": self_s["placement.batch_eval"],
        "placement.batch_eval_calls": float(calls["placement.batch_eval"]),
        "placement.pairs_evaluated": counts["placement.batch_eval"],
        "placement.commit_s": self_s["placement.commit"],
        "placement.sta_s": self_s["placement.sta"],
        "placement.sta_calls": float(calls["placement.sta"]),
        "accel.hpwl_batch_s": self_s["accel.hpwl_batch"],
        "accel.hpwl_batch_calls": float(calls["accel.hpwl_batch"]),
        "accel.hpwl_bytes_computed": counts["accel.hpwl_batch"],
        "accel.select_s": self_s["accel.select"],
        "problems.make_evaluator_s": self_s["problems.make_evaluator"],
        "problems.make_evaluator_calls": float(calls["problems.make_evaluator"]),
        "trace.residual_frac": max(0.0, traced_wall - covered) / traced_wall,
        # SimKernel.run and the process bodies absorb whatever no narrower
        # wrapper covers, so this share bounds the unattributed time
        "trace.catchall_frac": (
            self_s["pvm.sim"] + self_s["parallel.protocol"]
        ) / traced_wall,
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
        "trace.replay_wall_s": traced_wall,
    }
    return metrics, result
