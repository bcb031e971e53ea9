"""Workloads and metric definitions of the end-to-end search benchmark.

Everything the benchmark publishes is defined here once: the four
workloads, the end-to-end metrics (with their regression bounds), and the
per-layer metrics (with the public function that backs each one and the
end-to-end metric it should move).  ``BENCHMARK.json`` and
``perfbench/METRICS.md`` are generated from these tables
(``python3 perfbench/run.py --write-spec``) and the self-test checks that
the committed copies match.

Every workload is closed-loop: one benchmark process runs one search at a
time and starts the next only when the previous one has returned.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, Tuple

#: Reference seed of the fuzzy cost anchor.  It is fixed, so that costs of
#: runs with different ``--seed`` values are on one scale; the seed drives
#: only the search (initial solution and worker random streams).
REFERENCE_SEED = 2003
#: Seconds one run measures (the default of ``--seconds``).
RUN_SECONDS = 16
#: Set-up is repeated at least this many times per run, and until
#: :data:`SETUP_MIN_S` seconds have been spent; ``setup_s`` is the median.
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
#: Reference time of ``measure.calibration`` (about its mean on a 2-vCPU
#: Xeon at 2.0 GHz); ``setup_s`` and ``run_s`` are scaled to it.
CALIBRATION_REFERENCE_S = 0.025
#: Calibrations between two searches (one calibration alone varies by up
#: to 2x); each search is scaled by the mean of those before and after it.
CALIBRATIONS_PER_SEARCH = 3
#: Wall-clock deadline of one search on the processes backend.
JOIN_TIMEOUT_S = 120.0
#: Homogeneous cluster size of the processes workloads (master + 2 TSWs +
#: 2 CLWs; every machine runs at reference speed, so nothing is throttled).
HOMOGENEOUS_MACHINES = 5


@dataclass(frozen=True)
class Workload:
    """One benchmark input: an instance plus a complete search configuration."""

    name: str
    why: str
    instance: str
    #: ``"warm"`` (runs on one pre-built processes WorkerPool), ``"oneshot"``
    #: (cold ``run_parallel_search`` on processes) or ``"sim"`` (simulated).
    mode: str
    num_tsws: int
    clws_per_tsw: int
    global_iterations: int
    local_iterations: int
    pairs_per_step: int
    move_depth: int
    sync_mode: str = "homogeneous"
    diversify: bool = False

    @property
    def backend(self) -> str:
        return "simulated" if self.mode == "sim" else "processes"

    @property
    def path_iterations(self) -> int:
        """Local iterations one TSW path runs over the whole search."""
        return self.global_iterations * self.local_iterations

    def cluster(self):
        from repro import homogeneous_cluster, paper_cluster

        if self.mode == "sim":
            return paper_cluster()
        return homogeneous_cluster(HOMOGENEOUS_MACHINES)

    def params(self, seed: int):
        """The search parameters the program receives for ``--seed``."""
        from repro import ParallelSearchParams, TabuSearchParams

        draw = random.Random(seed)
        return ParallelSearchParams(
            num_tsws=self.num_tsws,
            clws_per_tsw=self.clws_per_tsw,
            global_iterations=self.global_iterations,
            sync_mode=self.sync_mode,
            diversify=self.diversify,
            tabu=TabuSearchParams(
                local_iterations=self.local_iterations,
                pairs_per_step=self.pairs_per_step,
                move_depth=self.move_depth,
                early_accept=False,
            ),
            seed=draw.randrange(1, 2**31),
            initial_placement_seed=draw.randrange(1, 2**31),
        )

    def tiny(self) -> "Workload":
        """Smallest budget with a steady round (self-test smoke runs)."""
        return replace(
            self,
            global_iterations=2,
            local_iterations=2,
            pairs_per_step=min(self.pairs_per_step, 32),
            move_depth=min(self.move_depth, 2),
        )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="c532-warm",
            why=(
                "compute-bound: evaluator, tabu and accel layers do the work on a "
                "warm 2x1 processes pool; worker boot is paid once, in setup_s"
            ),
            instance="c532",
            mode="warm",
            num_tsws=2,
            clws_per_tsw=1,
            global_iterations=4,
            local_iterations=50,
            pairs_per_step=256,
            move_depth=6,
        ),
        Workload(
            name="big10k-warm",
            why=(
                "fixed-cost and bytes-bound: master spawn, 10k-cell evaluator "
                "builds and shipments dominate; takes the CSR and hashed-tabu paths"
            ),
            instance="big10k",
            mode="warm",
            num_tsws=2,
            clws_per_tsw=1,
            global_iterations=4,
            local_iterations=10,
            pairs_per_step=256,
            move_depth=6,
        ),
        Workload(
            name="c532-oneshot",
            why=(
                "startup-bound: cold run_parallel_search pays process spawn, child "
                "import, shm shipping and evaluator build, as the CLI run does"
            ),
            instance="c532",
            mode="oneshot",
            num_tsws=2,
            clws_per_tsw=1,
            global_iterations=3,
            local_iterations=10,
            pairs_per_step=256,
            move_depth=6,
        ),
        Workload(
            name="c532-sim-hetero",
            why=(
                "simulator-bound: paper cluster, 4x2 heterogeneous sync with "
                "REPORT_NOW interrupts and diversification; the simulator is the wall time"
            ),
            instance="c532",
            mode="sim",
            num_tsws=4,
            clws_per_tsw=2,
            global_iterations=8,
            local_iterations=10,
            pairs_per_step=64,
            move_depth=3,
            sync_mode="heterogeneous",
            diversify=True,
        ),
    )
}


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    definition: str


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    #: Public function (or result field) the number is measured at.
    source: str
    #: End-to-end metric it should move, and the workloads where it should.
    moves: str
    workloads: str


END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd(
        "setup_s", "s", "lower", 0.25,
        "median of the set-up repeats: instance load, problem build, and on the "
        "warm workloads pool construction plus one throwaway step(1); each "
        "repeat in reference seconds (x CALIBRATION_REFERENCE_S / mean of the "
        "calibrations just before and after it)",
    ),
    EndToEnd(
        "run_s", "s", "lower", 0.25,
        "median wall time of one measured search (warm run, cold one-shot run, "
        "or simulated run), in reference seconds like setup_s",
    ),
    EndToEnd(
        "best_cost", "cost", "lower", 0.1,
        "median final best cost at the fixed budget",
    ),
    EndToEnd(
        "peak_rss_mib", "MiB", "lower", 0.1,
        "peak RSS of the benchmark process plus the largest reaped worker "
        "(getrusage SELF + CHILDREN)",
    ),
)

_REPLAY = "traced simulated replay"
#: Layers on the steady per-iteration path move run_s through search.iters_per_s.
_STEADY = "run_s (steady rounds)"
PER_LAYER: Tuple[PerLayer, ...] = (
    # --- session: timed around the warm run's public calls (0 elsewhere) - #
    PerLayer("session.pool_init_s", "s", "lower", "WorkerPool()", "setup_s", "*-warm"),
    PerLayer("session.warmup_s", "s", "lower",
             "throwaway SearchSession(...).step(1)", "setup_s", "*-warm"),
    PerLayer("session.master_start_s", "s", "lower",
             "SearchSession.run entry -> first trace point (pool.kernel.now)",
             "run_s", "big10k-warm"),
    PerLayer("session.first_round_s", "s", "lower",
             "first trace point -> global_records[0].finish_time",
             "run_s", "big10k-warm"),
    PerLayer("session.teardown_s", "s", "lower",
             "global_records[-1].finish_time -> run return", "run_s", "*-warm"),
    PerLayer("search.iters_per_s", "iter/s", "higher",
             "steady throughput of all runs pooled: TSWs x local iterations x (G-1) "
             "over the first-to-last global_records finish_time span; on the "
             "simulator, local iterations done over run wall time",
             "run_s", "c532-warm"),
    PerLayer("search.time_to_target_s", "s", "lower",
             "run entry -> first result.trace point at or below the serial target "
             "(wall clock; virtual clock on c532-sim-hetero)",
             "run_s", "c532-warm"),
    # --- pvm -------------------------------------------------------------- #
    PerLayer("pvm.cold_start_s", "s", "lower",
             "kernel clock start (inside run_parallel_search, after argument "
             "checks) -> first trace point; c532-oneshot only", "run_s", "c532-oneshot"),
    PerLayer("pvm.problem_bytes", "bytes", "lower",
             "len(pickle.dumps(problem))", "run_s, setup_s", "c532-oneshot, big10k-warm"),
    PerLayer("pvm.msgs_per_round", "count", "lower",
             f"SimStats.total_messages / G ({_REPLAY})", "run_s", "big10k-warm"),
    PerLayer("pvm.bytes_per_round", "bytes", "lower",
             f"SimStats.total_bytes / G ({_REPLAY})", "run_s", "big10k-warm"),
    PerLayer("pvm.sim_events", "count", "lower",
             f"SimStats.total_events ({_REPLAY})", "run_s", "c532-sim-hetero"),
    PerLayer("pvm.sim_self_s", "s", "lower",
             "SimKernel.run self time (minus wrapped child layers)",
             "run_s", "c532-sim-hetero"),
    PerLayer("pvm.virtual_makespan_s", "s", "lower",
             f"result.virtual_runtime ({_REPLAY}; virtual clock)",
             "- (virtual clock)", "c532-sim-hetero"),
    PerLayer("pvm.virtual_time_to_target_s", "s", "lower",
             f"first trace point at or below target ({_REPLAY}; virtual clock)",
             "- (virtual clock)", "c532-sim-hetero"),
    # --- parallel --------------------------------------------------------- #
    PerLayer("parallel.round_s_p50", "s", "lower",
             "median steady global_records finish_time diff", _STEADY, "c532-warm"),
    PerLayer("parallel.round_s_tail", "s", "lower",
             "largest steady finish_time diff", _STEADY, "c532-warm"),
    PerLayer("parallel.round_samples", "count", "higher",
             "number of steady round samples behind round_s_*", "-", "-"),
    PerLayer("parallel.round_overhead_s", "s", "lower",
             "round_s_p50 - local_iterations x tabu.serial_iter_ms",
             _STEADY, "c532-warm, big10k-warm"),
    PerLayer("parallel.protocol_s", "s", "lower",
             "self time inside master_process / tsw_process / clw_process bodies",
             "run_s", "c532-sim-hetero"),
    PerLayer("parallel.encode_s", "s", "lower", "DeltaEncoder.encode", "run_s", "big10k-warm"),
    PerLayer("parallel.encode_calls", "count", "lower", "DeltaEncoder.encode", "run_s",
             "big10k-warm"),
    PerLayer("parallel.full_ratio", "fraction", "lower",
             "SolutionPayload.is_full share of DeltaEncoder.encode results",
             "run_s", "big10k-warm"),
    PerLayer("parallel.decode_s", "s", "lower", "decode_solution", "run_s", "big10k-warm"),
    PerLayer("parallel.interrupted_tsws", "count", "lower",
             "sum of global_records[i].interrupted_tsws", "best_cost", "c532-sim-hetero"),
    PerLayer("parallel.master_wait_frac", "fraction", "lower",
             f"1 - master ProcessInfo.busy_seconds / clock ({_REPLAY})",
             "- (virtual clock)", "c532-sim-hetero"),
    PerLayer("parallel.worker_busy_frac_min", "fraction", "higher",
             f"min worker ProcessInfo.busy_seconds / clock ({_REPLAY})",
             "- (virtual clock)", "c532-sim-hetero"),
    # --- tabu ------------------------------------------------------------- #
    PerLayer("tabu.serial_iter_ms", "ms", "lower",
             "TabuSearch.run on the same instance and params", _STEADY, "c532-warm"),
    PerLayer("tabu.consider_s", "s", "lower", "TabuSearch.consider_candidates (TSW accept)",
             _STEADY, "c532-warm"),
    PerLayer("tabu.consider_calls", "count", "lower", "TabuSearch.consider_candidates",
             _STEADY, "c532-warm"),
    PerLayer("tabu.diversify_s", "s", "lower", "TabuSearch.diversify", "run_s",
             "c532-sim-hetero"),
    PerLayer("tabu.builder_step_s", "s", "lower", "CompoundMoveBuilder.step (CLW explore)",
             _STEADY, "c532-warm"),
    PerLayer("tabu.builder_steps", "count", "lower", "CompoundMoveBuilder.step",
             _STEADY, "c532-warm"),
    PerLayer("tabu.sample_s", "s", "lower", "sample_candidate_pairs_array", _STEADY,
             "c532-warm"),
    PerLayer("tabu.tabu_check_s", "s", "lower", "ArrayTabuList.is_tabu_pairs",
             _STEADY, "c532-warm"),
    # --- placement -------------------------------------------------------- #
    PerLayer("placement.batch_eval_s", "s", "lower", "CostEvaluator.evaluate_swaps_batch",
             "run_s", "c532-warm"),
    PerLayer("placement.batch_eval_calls", "count", "lower",
             "CostEvaluator.evaluate_swaps_batch", _STEADY, "c532-warm"),
    PerLayer("placement.pairs_evaluated", "count", "lower",
             "CostEvaluator.evaluate_swaps_batch (len(pairs))", _STEADY, "c532-warm"),
    PerLayer("placement.commit_s", "s", "lower",
             "CostEvaluator.commit_swap / apply_swaps", _STEADY, "c532-warm"),
    PerLayer("placement.sta_s", "s", "lower", "TimingAnalyzer.analyze", _STEADY,
             "c532-warm"),
    PerLayer("placement.sta_calls", "count", "lower", "TimingAnalyzer.analyze",
             _STEADY, "c532-warm"),
    # --- accel ------------------------------------------------------------ #
    PerLayer("accel.hpwl_batch_s", "s", "lower", "repro.accel.hpwl_batch_deltas",
             _STEADY, "big10k-warm"),
    PerLayer("accel.hpwl_batch_calls", "count", "lower", "repro.accel.hpwl_batch_deltas",
             _STEADY, "big10k-warm"),
    PerLayer("accel.hpwl_bytes_computed", "bytes", "lower",
             "array nbytes in and out of hpwl_batch_deltas (computed, not measured)",
             _STEADY, "big10k-warm"),
    PerLayer("accel.select_s", "s", "lower", "masked_argmin (CompoundMoveBuilder)",
             _STEADY, "c532-warm"),
    # --- problems / core -------------------------------------------------- #
    PerLayer("problems.load_s", "s", "lower", "load_benchmark", "setup_s", "big10k-warm"),
    PerLayer("problems.build_s", "s", "lower", "build_problem", "setup_s", "big10k-warm"),
    PerLayer("problems.make_evaluator_s", "s", "lower", "PlacementProblem.make_evaluator",
             "run_s", "big10k-warm"),
    PerLayer("problems.make_evaluator_calls", "count", "lower",
             "PlacementProblem.make_evaluator", "run_s", "big10k-warm"),
    # --- the host and the trace itself ---------------------------------- #
    PerLayer("host.calibration_ms", "ms", "lower",
             "mean wall time of measure.calibration, a fixed loop outside the "
             "library timed before every search (host speed)",
             "- (not the program)", "all"),
    PerLayer("trace.residual_frac", "fraction", "lower",
             "replay wall outside SimKernel.run (not covered by any self time)",
             "-", "all"),
    PerLayer("trace.catchall_frac", "fraction", "lower",
             "(pvm.sim_self_s + parallel.protocol_s) / traced replay wall: time "
             "no narrower layer wrapper claims", "-", "all"),
    PerLayer("trace.overhead_frac", "fraction", "lower",
             "traced / untraced replay wall - 1", "-", "all"),
    PerLayer("trace.replay_wall_s", "s", "lower",
             "wall time of the traced replay", "run_s", "c532-sim-hetero"),
)

#: Metrics one might look for here that are not reported as named, with the reason.
DROPPED = {
    "iters_per_s (end-to-end)": (
        "each run's value rests on a few steady rounds of 0.1-0.5 s; over ten "
        "seeds its spread was 0.14-0.25, at the largest allowed bound, and it "
        "moves with run_s; it is the per-layer search.iters_per_s"
    ),
    "time_to_target_s (end-to-end)": (
        "the point where a parallel and a serial trajectory cross moves with the "
        "seed far beyond any bound <= 0.25: over seeds 1-8 the time to the "
        "half-budget serial cost, as a share of the makespan, had IQR/median "
        "0.87 (c532-warm), 0.25 (c532-sim-hetero), 0.24 (big10k-warm); it is "
        "the per-layer search.time_to_target_s"
    ),
    "failed_ratio": (
        "end-to-end metrics must never be 0; failures are reported in the "
        "result's attempted/failed counts and fail the run instead"
    ),
    "virtual_makespan_s / virtual_time_to_target_s (end-to-end)": (
        "every end-to-end metric is reported on every workload; these exist "
        "only on the simulator, so they are per-layer pvm.* metrics (taken "
        "from the simulated replay of every workload)"
    ),
    "tabu.step_s / tabu.steps": (
        "TabuSearch.step runs only in the serial baseline; the parallel path "
        "accepts through TabuSearch.consider_candidates (tabu.consider_*)"
    ),
    "tabu.mask_s": (
        "is_tabu_mask is called only by TabuSearch.step; the TSW checks "
        "candidates with is_tabu_pairs (tabu.tabu_check_s)"
    ),
}


def spec() -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }


def metrics_markdown() -> str:
    """The content of ``perfbench/METRICS.md`` (generated; do not edit)."""
    lines = [
        "# Benchmark metrics",
        "",
        "Generated by `python3 perfbench/run.py --write-spec` from",
        "`perfbench/workloads.py`; do not edit by hand.",
        "",
        "## Workloads",
        "",
        "| workload | mode | instance | topology | budget (G x L, m, d) | sync | why |",
        "|---|---|---|---|---|---|---|",
    ]
    for w in WORKLOADS.values():
        lines.append(
            f"| `{w.name}` | {w.mode} ({w.backend}) | {w.instance} | "
            f"{w.num_tsws} TSW x {w.clws_per_tsw} CLW | "
            f"{w.global_iterations} x {w.local_iterations}, {w.pairs_per_step}, "
            f"{w.move_depth} | {w.sync_mode}{', diversify' if w.diversify else ''} "
            f"| {w.why} |"
        )
    lines += [
        "",
        "## End-to-end metrics (untraced runs)",
        "",
        "| name | unit | better | bound | definition |",
        "|---|---|---|---|---|",
    ]
    for m in END_TO_END:
        lines.append(f"| `{m.name}` | {m.unit} | {m.better} | {m.bound} | {m.definition} |")
    lines += [
        "",
        "## Per-layer metrics (`--trace 1`)",
        "",
        "| name | unit | measured at | moves | on workload |",
        "|---|---|---|---|---|",
    ]
    for m in PER_LAYER:
        lines.append(f"| `{m.name}` | {m.unit} | {m.source} | {m.moves} | {m.workloads} |")
    lines += ["", "## Not reported", "", "| metric | reason |", "|---|---|"]
    for name, reason in DROPPED.items():
        lines.append(f"| `{name}` | {reason} |")
    return "\n".join(lines) + "\n"
