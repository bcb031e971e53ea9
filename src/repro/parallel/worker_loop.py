"""Persistent worker loops for the warm :class:`~repro.session.WorkerPool`.

A cold run spawns its whole TSW/CLW tree per search and tears it down at the
end — on the processes backend that means OS-process startup plus
shared-memory export on every run.  A *warm* pool instead keeps one
:func:`tsw_worker_loop` process per TSW (each owning its
:func:`clw_worker_loop` children) alive across runs; a new search ships a
``SETUP`` message carrying the worker's start-up record
(:class:`~repro.parallel.messages.TswSetup` /
:class:`~repro.parallel.messages.ClwSetup`, the one argument a cold spawn
passes too), the loop hands it unchanged to the ordinary
:func:`~repro.parallel.tsw.tsw_process` /
:func:`~repro.parallel.clw.clw_process` body, run inline (``yield from``),
and returns to idle when the master sends ``STOP``.

The loops reproduce the cold spawn topology exactly — worker names (which
seed the per-worker RNG streams) and seed derivations are identical — so a
search on a warm pool takes the same decisions as a cold one.

On the processes backend a ``SETUP`` carries the problem as its
shared-memory handle; a loop resolves it once and keeps it across runs, and
lets it go (:func:`~repro.pvm.shm.release_shared`) when a ``SETUP`` names a
different problem.  On the other backends the release is a no-op.

Setup is acknowledged bottom-up: each CLW loop acks its TSW after installing
the setup, the TSW acks the master only after all CLW acks arrived, and the
master starts run traffic only after all TSW acks.  Both tiers provision
through the same :class:`~repro.parallel.coordinator.Coordinator` calls
(``provision`` per child, then ``await_acks``): the master inside
:func:`~repro.parallel.master.master_process`, each TSW inside
:func:`~repro.parallel.tsw.tsw_process`, so in fault mode a CLW loop that
stays silent is struck out at the CLW deadline like any other child.  The
handshake closes the simulated network's ordering hazard where a large
``SETUP`` payload (size-dependent latency) could be overtaken by a smaller
message sent later.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import ProcessError
from ..pvm.shm import release_shared
from .clw import clw_process
from .messages import SetupAck, Tags, TswSetup
from .tsw import tsw_process

__all__ = ["clw_worker_loop", "tsw_worker_loop"]


def _serve(ctx, run, children: Sequence[int] = ()):
    """Run ``run(message)`` once per ``SETUP`` until ``POOL_SHUTDOWN``.

    The loop keeps the last ``SETUP``'s problem and releases it when a new
    one names a different problem.  ``POOL_SHUTDOWN`` is passed on to
    ``children`` before the loop ends.  Returns the number of runs served.
    """
    runs = 0
    problem = None
    while True:
        message = yield ctx.recv()
        if message.tag == Tags.POOL_SHUTDOWN:
            for pid in children:
                yield ctx.send(pid, Tags.POOL_SHUTDOWN)
            break
        if message.tag != Tags.SETUP:
            continue
        if message.payload.problem is not problem:
            release_shared(problem)
            problem = message.payload.problem
        yield from run(message)
        runs += 1
    return runs


def clw_worker_loop(ctx):
    """Persistent CLW: serve one :func:`clw_process` run per ``SETUP``."""

    def run(message):
        yield ctx.send(message.src, Tags.SETUP_ACK, SetupAck(worker_name=ctx.name))
        yield from clw_process(ctx, message.payload)

    return (yield from _serve(ctx, run))


def tsw_worker_loop(ctx, clws_per_tsw: int):
    """Persistent TSW: own ``clws_per_tsw`` CLW loops, serve runs on ``SETUP``."""
    clw_pids = []
    for clw_index in range(clws_per_tsw):
        # Cold runs name CLWs f"tsw{i}.clw{j}" and the name feeds the CLW's
        # RNG stream — the pool loop must be named f"tsw{i}" for the warm
        # topology to reproduce cold decisions.
        pid = yield ctx.spawn(clw_worker_loop, name=f"{ctx.name}.clw{clw_index}")
        clw_pids.append(pid)

    def run(message):
        setup: TswSetup = message.payload
        if len(setup.clw_ranges) != len(clw_pids):
            raise ProcessError(
                f"{ctx.name}: setup ships {len(setup.clw_ranges)} CLW ranges "
                f"but the pool keeps {len(clw_pids)} CLW loops"
            )
        yield from tsw_process(ctx, setup, master_pid=message.src, clw_pids=list(clw_pids))

    return (yield from _serve(ctx, run, clw_pids))
