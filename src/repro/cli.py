"""Command-line interface.

The CLI wraps the most common workflows so the system can be driven without
writing Python::

    python -m repro problems                      # list problem domains
    python -m repro circuits                      # list benchmark circuits
    python -m repro run --circuit c532 --tsws 4 --clws 2
    python -m repro run --problem qap --instance rand64 --tsws 4
    python -m repro run --circuit c1355 --sync homogeneous --save-placement out.pl
    python -m repro run --circuit c532 --pause-after 2 --checkpoint run.rtss
    python -m repro run --resume run.rtss --checkpoint run.rtss
    python -m repro sessions run.rtss
    python -m repro figure fig9 --circuits c532
    python -m repro classify --tsws 4 --clws 4

Problem domains are resolved through the core registry
(:mod:`repro.core.registry`): ``--problem`` selects the domain and
``--instance`` names the instance in domain terms (a benchmark circuit, a
``rand<n>`` synthetic QAP instance, a QAPLIB ``.dat`` path).

Every subcommand prints plain text (the same tables the benchmark harness
writes) and returns a conventional exit code, so it composes with shell
scripts; :func:`main` accepts an ``argv`` list which is what the unit tests
use.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

import os

from . import accel
from .core.registry import available_domains, get_domain
from .errors import ReproError
from .experiments import ALL_FIGURES, current_scale
from .metrics import format_mapping, format_table
from .parallel import FaultPolicy, ParallelSearchParams, classify
from .placement import Placement, benchmark_names, load_benchmark
from .placement.io import write_placement
from .pvm import FaultPlan, homogeneous_cluster, paper_cluster
from .session import SearchSession, SessionState
from .tabu import TabuSearchParams

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the ``repro`` command."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Parallel tabu search for VLSI cell placement on a simulated "
            "heterogeneous cluster (reproduction of Al-Yamani et al., IPDPS 2003)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    # problems ---------------------------------------------------------------
    subparsers.add_parser(
        "problems", help="list the registered problem domains and their instances"
    )

    # circuits ---------------------------------------------------------------
    subparsers.add_parser("circuits", help="list the available benchmark circuits")

    # run ---------------------------------------------------------------------
    run_parser = subparsers.add_parser("run", help="run the parallel tabu search once")
    run_parser.add_argument(
        "--problem", default="placement", choices=available_domains(),
        help="problem domain to search (resolved through the core registry)",
    )
    run_parser.add_argument(
        "--instance", default=None,
        help="instance name in domain terms (circuit, rand<n>, QAPLIB .dat path); "
             "defaults to the domain's default instance",
    )
    run_parser.add_argument("--circuit", default=None,
                            help="benchmark circuit name (placement shorthand for --instance)")
    run_parser.add_argument("--tsws", type=int, default=4, help="number of Tabu Search Workers")
    run_parser.add_argument("--clws", type=int, default=1, help="CLWs per TSW")
    run_parser.add_argument("--global-iterations", type=int, default=4)
    run_parser.add_argument("--local-iterations", type=int, default=8)
    run_parser.add_argument("--pairs-per-step", type=int, default=5, help="m: pairs tried per step")
    run_parser.add_argument("--move-depth", type=int, default=3, help="d: compound move depth")
    run_parser.add_argument(
        "--sync", choices=["heterogeneous", "homogeneous"], default="heterogeneous"
    )
    run_parser.add_argument("--no-diversify", action="store_true",
                            help="disable the TSW diversification step")
    run_parser.add_argument("--seed", type=int, default=2003)
    run_parser.add_argument(
        "--cluster", default="paper",
        help="'paper' (12 heterogeneous machines) or 'homogeneous:<N>'",
    )
    run_parser.add_argument(
        "--backend", choices=["simulated", "threads", "processes"], default=None,
        help="PVM backend (default: simulated, or the checkpoint's backend "
             "with --resume)",
    )
    run_parser.add_argument(
        "--save-placement", metavar="FILE", default=None,
        help="write the best placement to FILE in the .pl text format",
    )
    run_parser.add_argument("--trace", action="store_true",
                            help="also print the best-cost-vs-time trace")
    run_parser.add_argument(
        "--pause-after", type=int, metavar="N", default=None,
        help="pause the session after N further global iterations instead of "
             "running to completion (combine with --checkpoint)",
    )
    run_parser.add_argument(
        "--checkpoint", metavar="FILE", default=None,
        help="write a resumable session checkpoint to FILE when the run "
             "pauses or finishes",
    )
    run_parser.add_argument(
        "--resume", metavar="FILE", default=None,
        help="continue a previous run from a checkpoint written by "
             "--checkpoint (instance and parameters come from the artifact)",
    )
    run_parser.add_argument(
        "--fault-tolerant", action="store_true",
        help="survive worker death mid-run: deadline tracking, range "
             "re-assignment over the survivors, degraded completion",
    )
    run_parser.add_argument(
        "--round-deadline", type=float, metavar="SECONDS", default=None,
        help="report deadline per global iteration before a worker is struck "
             "out (implies --fault-tolerant; default 30)",
    )
    run_parser.add_argument(
        "--fault-plan", metavar="FILE", default=None,
        help="JSON fault-injection plan (seeded kills/throttles/message "
             "faults) replayed by the simulated backend; implies "
             "--fault-tolerant",
    )
    run_parser.add_argument(
        "--device", choices=("auto", "cpu", "cuda"), default=None,
        help="where the hot kernels execute: 'cuda' requires a working CuPy "
             "install and fails loudly without one, 'cpu' forces the NumPy "
             "path, 'auto' (default) probes (equivalent to REPRO_DEVICE)",
    )

    # figure -------------------------------------------------------------------
    figure_parser = subparsers.add_parser(
        "figure", help="regenerate one of the paper's figures (5-11)"
    )
    figure_parser.add_argument("figure_id", choices=sorted(ALL_FIGURES))
    figure_parser.add_argument(
        "--circuits", nargs="+", default=None, help="restrict to these circuits"
    )

    # classify -------------------------------------------------------------------
    classify_parser = subparsers.add_parser(
        "classify", help="print the Crainic-taxonomy classification of a configuration"
    )
    classify_parser.add_argument("--tsws", type=int, default=4)
    classify_parser.add_argument("--clws", type=int, default=1)
    classify_parser.add_argument("--no-diversify", action="store_true")

    # sessions ------------------------------------------------------------------
    sessions_parser = subparsers.add_parser(
        "sessions", help="inspect resumable session checkpoint artifacts"
    )
    sessions_parser.add_argument(
        "checkpoints", nargs="+", metavar="FILE",
        help="checkpoint files written by 'repro run --checkpoint'; prefix "
             "with 'inspect' to report each checkpoint's topology history "
             "(workers admitted, drained, dead and respawned, with virtual "
             "timestamps)",
    )

    # devices -------------------------------------------------------------------
    subparsers.add_parser(
        "devices",
        help="print the accelerator capability probe (cupy/driver versions, "
             "selected device, fallback reason)",
    )

    return parser


def _make_cluster(spec: str):
    if spec == "paper":
        return paper_cluster()
    if spec.startswith("homogeneous:"):
        count = int(spec.split(":", 1)[1])
        return homogeneous_cluster(count)
    raise ReproError(
        f"unknown cluster spec {spec!r}; use 'paper' or 'homogeneous:<N>'"
    )


def _command_circuits(_: argparse.Namespace) -> int:
    rows = []
    for name in benchmark_names():
        stats = load_benchmark(name).stats()
        rows.append(
            (name, stats.num_cells, stats.num_nets, stats.num_pins,
             round(stats.avg_net_degree, 2))
        )
    print(
        format_table(
            ["circuit", "cells", "nets", "pins", "avg net degree"],
            rows,
            title="Available benchmark circuits (paper circuits: highway, c532, c1355, c3540)",
        )
    )
    return 0


def _command_problems(_: argparse.Namespace) -> int:
    rows = []
    for name in available_domains():
        domain = get_domain(name)
        instances = domain.list_instances()
        preview = ", ".join(instances[:6]) + (", ..." if len(instances) > 6 else "")
        rows.append((name, domain.default_instance, preview, domain.description))
    print(
        format_table(
            ["domain", "default", "instances", "description"],
            rows,
            title="Registered problem domains (select with: repro run --problem <domain>)",
        )
    )
    return 0


def _fault_policy(args: argparse.Namespace):
    if not (args.fault_tolerant or args.round_deadline is not None or args.fault_plan):
        return None
    round_deadline = args.round_deadline if args.round_deadline is not None else 30.0
    return FaultPolicy(round_deadline=round_deadline, clw_deadline=round_deadline / 2.0)


def _build_session(args: argparse.Namespace) -> SearchSession:
    cluster = _make_cluster(args.cluster)
    fault = _fault_policy(args)
    fault_plan = FaultPlan.from_file(args.fault_plan) if args.fault_plan else None
    if args.resume is not None:
        if args.instance is not None or args.circuit is not None:
            raise ReproError(
                "--resume restores the instance and parameters from the "
                "checkpoint; drop --instance/--circuit"
            )
        if fault is not None:
            raise ReproError(
                "--resume restores the parameters (fault policy included) "
                "from the checkpoint; drop the fault flags"
            )
        session = SearchSession.restore(
            args.resume, backend=args.backend, cluster=cluster
        )
        print(
            f"Resuming {session.problem.name} from {args.resume}: "
            f"{session.rounds_done}/{session.params.global_iterations} "
            f"global iterations done, backend {session.backend} ..."
        )
        return session
    domain = get_domain(args.problem)
    instance_name = args.instance or args.circuit or domain.default_instance
    problem = domain.build_problem(instance_name, reference_seed=args.seed)
    tabu = TabuSearchParams(
        local_iterations=args.local_iterations,
        pairs_per_step=args.pairs_per_step,
        move_depth=args.move_depth,
    ).scaled_for_circuit(problem.num_cells)
    params = ParallelSearchParams(
        num_tsws=args.tsws,
        clws_per_tsw=args.clws,
        global_iterations=args.global_iterations,
        sync_mode=args.sync,
        diversify=not args.no_diversify,
        tabu=tabu,
        seed=args.seed,
        fault=fault,
    )
    extras = ", fault-tolerant" if fault is not None else ""
    print(f"Running {args.problem}:{problem.name} with {args.tsws} TSWs x "
          f"{args.clws} CLWs ({args.sync} sync{extras}) on "
          f"{cluster.num_machines} machines ...")
    return SearchSession(
        problem=problem,
        params=params,
        backend=args.backend or "simulated",
        cluster=cluster,
        fault_plan=fault_plan,
    )


def _command_devices(_: argparse.Namespace) -> int:
    print(format_mapping(dict(accel.device_report()), title="accelerator probe"))
    return 0


def _command_run(args: argparse.Namespace) -> int:
    if args.circuit is not None and args.problem != "placement":
        raise ReproError("--circuit is a placement shorthand; use --instance instead")
    if getattr(args, "device", None) is not None:
        # Validate up front — an explicit 'cuda' without a usable device must
        # fail here with the probe's reason, not deep inside a worker — then
        # propagate through the environment so spawned worker processes
        # resolve the same device.
        accel.resolve_device(args.device)
        os.environ["REPRO_DEVICE"] = args.device
    if args.circuit is not None and args.instance is not None:
        raise ReproError(
            f"--circuit {args.circuit!r} and --instance {args.instance!r} both name "
            "an instance; pass only one"
        )
    if args.save_placement and args.resume is None and args.problem != "placement":
        raise ReproError("--save-placement only applies to the placement domain")
    if args.pause_after is not None and args.pause_after < 1:
        raise ReproError("--pause-after needs at least one global iteration")
    session = _build_session(args)
    if args.pause_after is not None and not session.complete:
        session.step(args.pause_after)
    elif not session.complete:
        session.run()
    result = session.result()
    summary = {
        "instance": result.instance,
        "initial cost": result.initial_cost,
        "best cost": result.best_cost,
        "improvement": f"{result.improvement * 100:.1f} %",
    }
    if result.complete:
        # domain-specific crisp objectives (ObjectiveVector / QAPObjectives)
        summary.update(result.best_objectives.as_dict())
    else:
        summary["progress"] = (
            f"{session.rounds_done}/{session.params.global_iterations} "
            "global iterations (paused)"
        )
    summary.update(
        {
            "virtual runtime (s)": result.virtual_runtime,
            "wall clock (s)": result.wall_clock_seconds,
        }
    )
    print(format_mapping(summary, title="Result"))
    fault_events = getattr(result, "fault_events", None)
    if fault_events:
        print()
        print(
            format_table(
                ["time (s)", "event", "worker", "detail"],
                [(round(e.time, 3), e.kind, e.worker, e.detail) for e in fault_events],
                title="Fault events",
            )
        )
    if args.checkpoint:
        session.checkpoint(args.checkpoint)
        print(f"Checkpoint written to {args.checkpoint}")
    if args.trace:
        print()
        print(
            format_table(
                ["virtual time (s)", "best cost"],
                result.trace,
                title="Best cost vs time",
            )
        )
    if args.save_placement:
        layout = getattr(session.problem, "layout", None)
        if layout is None:
            raise ReproError("--save-placement only applies to the placement domain")
        placement = Placement(layout, result.best_solution)
        write_placement(placement, args.save_placement)
        print(f"\nBest placement written to {args.save_placement}")
    return 0


def _sessions_inspect(paths: Sequence[str]) -> int:
    """Report the topology history stored in each checkpoint artifact."""
    if not paths:
        raise ReproError("sessions inspect: give at least one checkpoint FILE")
    for path in paths:
        state = SessionState.load(path)
        run_state = state.run_state
        workers = run_state.num_workers if run_state is not None else state.params.num_tsws
        drained = tuple(run_state.drained_workers) if run_state is not None else ()
        print(f"{path}: {state.problem.name} [{state.backend}]")
        print(
            f"  topology: {workers} worker slot(s), "
            f"{len(drained)} drained{' ' + str(list(drained)) if drained else ''}, "
            f"rounds {state.rounds_done}/{state.params.global_iterations}"
        )
        events = tuple(state.topology_events)
        if not events:
            print("  topology history: (no admissions, deaths or drains recorded)")
            continue
        rows = [
            (
                f"{float(event.time):.3f}",
                event.kind,
                "-" if event.worker in ("tsw-1", "-1", "") else str(event.worker),
                event.detail,
            )
            for event in events
        ]
        print(
            format_table(
                ["time (s)", "event", "worker", "detail"],
                rows,
                title="Topology history",
            )
        )
    return 0


def _command_sessions(args: argparse.Namespace) -> int:
    if args.checkpoints and args.checkpoints[0] == "inspect":
        return _sessions_inspect(args.checkpoints[1:])
    rows = []
    for path in args.checkpoints:
        state = SessionState.load(path)
        if state.complete:
            lifecycle = "complete"
        elif state.run_state is not None:
            lifecycle = "paused"
        else:
            lifecycle = "fresh"
        rows.append(
            (
                path,
                state.problem.name,
                state.backend,
                f"{state.params.num_tsws}x{state.params.clws_per_tsw}",
                f"{state.rounds_done}/{state.params.global_iterations}",
                "-" if state.best_cost is None else f"{state.best_cost:.4f}",
                lifecycle,
            )
        )
    print(
        format_table(
            ["checkpoint", "instance", "backend", "topology", "rounds", "best cost",
             "state"],
            rows,
            title="Session checkpoints (resume with: repro run --resume <FILE>)",
        )
    )
    return 0


def _command_figure(args: argparse.Namespace) -> int:
    generator = ALL_FIGURES[args.figure_id]
    scale = current_scale()
    kwargs = {}
    if args.circuits:
        kwargs["circuits"] = args.circuits
    result = generator(scale=scale, **kwargs)
    print(result.format())
    return 0


def _command_classify(args: argparse.Namespace) -> int:
    params = ParallelSearchParams(
        num_tsws=args.tsws, clws_per_tsw=args.clws, diversify=not args.no_diversify
    )
    classification = classify(params)
    print(classification.describe())
    return 0


_COMMANDS = {
    "problems": _command_problems,
    "circuits": _command_circuits,
    "run": _command_run,
    "figure": _command_figure,
    "classify": _command_classify,
    "sessions": _command_sessions,
    "devices": _command_devices,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
