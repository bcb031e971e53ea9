"""Unit tests for the real-OS-process backend running the same process code.

The process bodies live at module level because the kernel ships them to
the workers by pickled module reference.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import queue as queue_module
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.errors import ProcessError
from repro.pvm import ClusterSpec, MachineSpec, ProcessKernel, ThreadKernel, homogeneous_cluster
from repro.pvm.faults import WORKER_DOWN_TAG
from repro.pvm.message import Message
from repro.pvm.process_backend import _QueueMailbox


# --------------------------------------------------------------------------- #
# process bodies (must be module-level to pickle by reference)
# --------------------------------------------------------------------------- #
def echo_child(ctx):
    message = yield ctx.recv(tag="ping")
    yield ctx.send(message.src, "pong", message.payload + 1)
    return "ok"


def echo_parent(ctx):
    child_pid = yield ctx.spawn(echo_child, name="child")
    yield ctx.send(child_pid, "ping", 1)
    reply = yield ctx.recv(tag="pong")
    return reply.payload


def square_worker(ctx, value):
    yield ctx.compute(1.0)
    yield ctx.send(ctx.parent, "result", value * value)
    return None


def fan_out_parent(ctx, count):
    for value in range(count):
        yield ctx.spawn(square_worker, value)
    total = 0
    for _ in range(count):
        message = yield ctx.recv(tag="result")
        total += message.payload
    return total


def local_parent(ctx, token):
    """Runs on a kernel thread: spawns an OS-process child, echoes through it."""
    child_pid = yield ctx.spawn(echo_child, name="child")
    yield ctx.send(child_pid, "ping", 1)
    reply = yield ctx.recv(tag="pong")
    return token, reply.payload


def probing_proc(ctx):
    nothing = yield ctx.probe(tag="never")
    timed_out = yield ctx.recv_timeout(0.05, tag="never")
    return (nothing, timed_out)


def failing_proc(ctx):
    yield ctx.compute(1.0)
    raise RuntimeError("kaput")


def unpicklable_result_proc(ctx):
    yield ctx.compute(1.0)
    return lambda: None  # lambdas do not pickle


def sleeper_proc(ctx, seconds):
    yield ctx.sleep(seconds)
    return "slept"


def hard_dying_proc(ctx):
    import os

    yield ctx.compute(1.0)
    os._exit(3)  # simulates a crash: the exit message is never sent


def stuck_proc(ctx):
    yield ctx.recv(tag="never-sent")
    return None


def not_a_generator(ctx):
    return 1


def environ_proc(ctx, name):
    return os.environ.get(name)
    yield  # pragma: no cover - makes this a generator function


def clock_proc(ctx):
    now = yield ctx.now()
    return now


def notice_listener(ctx):
    notice = yield ctx.recv_timeout(30.0, tag=WORKER_DOWN_TAG)
    if notice is None:
        return None
    return (notice.payload.name, notice.payload.reason)


def make_kernel() -> ProcessKernel:
    return ProcessKernel(homogeneous_cluster(4))


class TestProcessKernel:
    def test_send_recv_round_trip_with_spawn(self):
        with make_kernel() as kernel:
            pid = kernel.spawn(echo_parent, name="parent")
            # The child is spawned *while* join_all runs — the re-scanning
            # join must pick it up too.
            kernel.join_all(timeout=60.0)
            assert kernel.result_of(pid) == 2

    def test_spawn_local_runs_on_a_kernel_thread(self):
        token = lambda: None  # noqa: E731 - unpicklable on purpose
        with make_kernel() as kernel:
            pid = kernel.spawn_local(local_parent, token, name="local")
            kernel.join_all(timeout=60.0)
            # arguments and result are the caller's objects, never pickled
            got, pong = kernel.result_of(pid)
            assert got is token
            assert pong == 2
            (child,) = kernel.child_pids(pid)
            assert kernel._records[pid].process is None
            assert kernel._records[child].process is not None

    def test_fan_out_fan_in(self):
        with make_kernel() as kernel:
            pid = kernel.spawn(fan_out_parent, 3, name="parent")
            kernel.join_all(timeout=60.0)
            assert kernel.result_of(pid) == sum(v * v for v in range(3))

    def test_probe_and_timeout(self):
        with make_kernel() as kernel:
            pid = kernel.spawn(probing_proc)
            kernel.join(pid, timeout=60.0)
            assert kernel.result_of(pid) == (None, None)

    def test_process_error_reported_on_result(self):
        with make_kernel() as kernel:
            pid = kernel.spawn(failing_proc)
            kernel.join(pid, timeout=60.0)
            with pytest.raises(ProcessError):
                kernel.result_of(pid)

    def test_unpicklable_result_degrades_to_error(self):
        with make_kernel() as kernel:
            pid = kernel.spawn(unpicklable_result_proc)
            kernel.join(pid, timeout=60.0)
            with pytest.raises(ProcessError):
                kernel.result_of(pid)

    def test_non_generator_rejected(self):
        with make_kernel() as kernel:
            with pytest.raises(ProcessError, match="generator"):
                kernel.spawn(not_a_generator)

    def test_unknown_pid(self):
        with make_kernel() as kernel:
            with pytest.raises(ProcessError, match="unknown"):
                kernel.result_of(123)

    def test_join_all_overall_deadline(self):
        with make_kernel() as kernel:
            kernel.spawn(sleeper_proc, 60.0)
            start = time.monotonic()
            with pytest.raises(ProcessError):
                kernel.join_all(timeout=0.5)
            # one overall deadline, not one allowance per worker
            assert time.monotonic() - start < 30.0

    def test_hard_death_fails_join_all_fast(self):
        """A worker that dies without reporting must be detected within the
        death-report grace, and join_all must then abort within the failure
        grace instead of burning the whole deadline."""
        with make_kernel() as kernel:
            kernel.death_report_grace = 0.5
            kernel.failure_grace = 0.5
            kernel.spawn(stuck_proc, name="stuck")
            dead_pid = kernel.spawn(hard_dying_proc, name="crasher")
            start = time.monotonic()
            with pytest.raises(ProcessError, match="crasher"):
                kernel.join_all(timeout=60.0)
            assert time.monotonic() - start < 30.0
            with pytest.raises(ProcessError):
                kernel.result_of(dead_pid)

    def test_failure_grace_abort_names_the_processes_still_running(self):
        """The abort after a failure names every process that did not stop
        (up to eight, by name and pid), as the deadline abort does."""
        with make_kernel() as kernel:
            kernel.failure_grace = 0.5
            sleeper = kernel.spawn(sleeper_proc, 60.0, name="sleeper")
            kernel.spawn(failing_proc, name="crasher")
            start = time.monotonic()
            with pytest.raises(ProcessError) as info:
                kernel.join_all(timeout=60.0)
            assert time.monotonic() - start < 30.0
            message = str(info.value)
            assert message.startswith("process 'crasher' failed with 1 process(es)")
            assert f"'sleeper' (pid {sleeper})" in message

    def test_now_increases(self):
        kernel = make_kernel()
        try:
            first = kernel.now
            assert kernel.now >= first >= 0.0
        finally:
            kernel.shutdown()

    def test_spawn_after_shutdown_rejected(self):
        kernel = make_kernel()
        kernel.shutdown()
        with pytest.raises(ProcessError, match="shut down"):
            kernel.spawn(sleeper_proc, 0.0)

    def test_clock_starts_at_construction_not_at_first_spawn(self):
        kernel = make_kernel()
        try:
            time.sleep(0.2)
            # the first OS spawn starts the worker runtime; the workers'
            # clock still counts from the kernel's construction
            pid = kernel.spawn(clock_proc)
            kernel.join(pid, timeout=60.0)
            assert 0.2 <= kernel.result_of(pid) <= kernel.now
        finally:
            kernel.shutdown()

    def test_kernel_thread_crash_is_announced_to_the_death_listener(self):
        with make_kernel() as kernel:
            listener = kernel.spawn(notice_listener, name="listener")
            kernel.notify_deaths_to(listener)
            kernel.spawn_local(failing_proc, name="local-crasher")
            kernel.join(listener, timeout=60.0)
            name, reason = kernel.result_of(listener)
            assert name == "local-crasher"
            assert "kaput" in reason


#: A driver script run in a fresh interpreter: ``repro`` is importable only
#: through its runtime sys.path insert, as in ``perfbench/run.py``.
FRESH_DRIVER = """
import json, os, sys
sys.path.insert(0, {src!r})

from repro.pvm import ProcessKernel, homogeneous_cluster


def parent_pid(ctx):
    return os.getppid()
    yield


if __name__ == "__main__":
    with ProcessKernel(homogeneous_cluster(2)) as kernel:
        pid = kernel.spawn(parent_pid)
        kernel.join(pid, timeout=60.0)
        ppid = kernel.result_of(pid)
        cmdline = open(f"/proc/{{ppid}}/cmdline", "rb").read().decode()
        maps = open(f"/proc/{{ppid}}/maps").read()
    print(json.dumps({{"cmdline": cmdline, "numpy": "_multiarray_umath" in maps}}))
"""


class TestForkServer:
    @pytest.mark.skipif(
        not Path("/proc/self/maps").exists()
        or "forkserver" not in multiprocessing.get_all_start_methods(),
        reason="needs /proc and a multiprocessing fork server",
    )
    def test_workers_fork_from_a_server_that_preloaded_numpy(self, tmp_path):
        src = str(Path(repro.__file__).resolve().parents[1])
        script = tmp_path / "driver.py"
        script.write_text(FRESH_DRIVER.format(src=src))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        done = subprocess.run(
            [sys.executable, str(script)], cwd=tmp_path, env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        parent = json.loads(done.stdout.splitlines()[-1])
        assert "multiprocessing.forkserver" in parent["cmdline"]
        assert parent["numpy"], "the fork server did not preload the worker modules"

    def test_worker_sees_the_driver_environment_at_its_spawn(self, monkeypatch):
        with make_kernel() as kernel:  # the fork server is running from here on
            monkeypatch.setenv("PVM_TEST_SPAWN_ENV", "set-after-server-start")
            pid = kernel.spawn(environ_proc, "PVM_TEST_SPAWN_ENV")
            kernel.join(pid, timeout=60.0)
            assert kernel.result_of(pid) == "set-after-server-start"


FRESH_THREADS_RUN = """\
import json, os, sys
sys.path.insert(0, {src!r})

from repro import (
    ParallelSearchParams, TabuSearchParams, homogeneous_cluster, load_benchmark,
    run_parallel_search,
)

if __name__ == "__main__":
    params = ParallelSearchParams(
        num_tsws=2, clws_per_tsw=1, global_iterations=2, sync_mode="homogeneous",
        tabu=TabuSearchParams(local_iterations=3), seed=3,
    )
    result = run_parallel_search(
        load_benchmark("mini64"), params, backend="threads", cluster=homogeneous_cluster(4)
    )
    children = []
    for task in os.listdir("/proc/self/task"):
        try:
            children += open(f"/proc/self/task/{{task}}/children").read().split()
        except FileNotFoundError:  # a thread that ended since the listing
            pass
    print(json.dumps({{"children": children, "improved": result.best_cost < result.initial_cost}}))
"""


class TestThreadKernel:
    """The processes kernel with every spawn local."""

    @pytest.mark.skipif(
        not Path(f"/proc/self/task/{os.getpid()}/children").exists(),
        reason="needs /proc/<pid>/task/<tid>/children",
    )
    def test_threads_run_starts_no_process_and_no_multiprocessing_object(self, tmp_path):
        src = str(Path(repro.__file__).resolve().parents[1])
        script = tmp_path / "threads_run.py"
        script.write_text(FRESH_THREADS_RUN.format(src=src))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        done = subprocess.run(
            [sys.executable, str(script)], cwd=tmp_path, env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        report = json.loads(done.stdout.splitlines()[-1])
        assert report["improved"]
        # no fork server, no resource tracker, no worker: no child at all
        assert report["children"] == []
        assert "resource_tracker" not in done.stderr

    def test_messages_travel_by_reference(self):
        payload = [lambda: None]  # unpicklable: a pickled message would fail

        def child(ctx):
            message = yield ctx.recv(tag="obj")
            return message.payload

        def parent(ctx):
            pid = yield ctx.spawn(child, name="child")
            yield ctx.send(pid, "obj", payload)
            return pid

        kernel = ThreadKernel(homogeneous_cluster(2))
        parent_pid = kernel.spawn(parent, name="parent")
        kernel.join_all(timeout=10.0)
        assert kernel.result_of(kernel.result_of(parent_pid)) is payload

    def test_compute_is_throttled_by_the_machine_slowdown(self):
        slow = ClusterSpec(machines=(MachineSpec("slow", speed_factor=0.25),))

        def busy(ctx):
            start = time.perf_counter()
            while time.perf_counter() - start < 0.02:
                pass
            yield ctx.compute(1.0)
            return time.perf_counter() - start

        kernel = ThreadKernel(slow)
        pid = kernel.spawn(busy)
        kernel.join(pid, timeout=10.0)
        # >= 0.02 s of compute, then slept 3x longer (slowdown 1/0.25 - 1)
        assert kernel.result_of(pid) >= 0.08

    def test_crash_is_announced_to_the_parent(self):
        def parent(ctx):
            yield ctx.spawn(failing_proc, name="crasher")
            return (yield from notice_listener(ctx))

        kernel = ThreadKernel(homogeneous_cluster(2))
        pid = kernel.spawn(parent, name="parent")
        kernel.join(pid, timeout=60.0)
        name, reason = kernel.result_of(pid)
        assert name == "crasher"
        assert "kaput" in reason

    def test_spawn_after_shutdown_rejected(self):
        kernel = ThreadKernel(homogeneous_cluster(2))
        kernel.shutdown()
        with pytest.raises(ProcessError, match="shut down"):
            kernel.spawn(sleeper_proc, 0.0)


class TestQueueMailbox:
    """Filter semantics of the worker-side mailbox (no processes involved)."""

    @staticmethod
    def message(src: int, tag: str, payload=None) -> bytes:
        """A message as it sits in an inbox: pickled."""
        return pickle.dumps(
            Message(
                src=src, dst=9, tag=tag, payload=payload, size_bytes=8,
                send_time=0.0, arrival_time=0.0,
            )
        )

    def test_non_matching_messages_are_buffered_in_order(self):
        inbox: queue_module.Queue = queue_module.Queue()
        mailbox = _QueueMailbox(inbox)
        inbox.put(self.message(1, "other", "first"))
        inbox.put(self.message(2, "wanted", "hit"))
        inbox.put(self.message(1, "other", "second"))
        got = mailbox.get(tag="wanted", src=None, blocking=True, timeout=1.0)
        assert got.payload == "hit"
        # buffered messages are served later, preserving arrival order
        first = mailbox.get(tag="other", src=None, blocking=False, timeout=None)
        second = mailbox.get(tag="other", src=None, blocking=False, timeout=None)
        assert (first.payload, second.payload) == ("first", "second")

    def test_src_filter(self):
        inbox: queue_module.Queue = queue_module.Queue()
        mailbox = _QueueMailbox(inbox)
        inbox.put(self.message(1, "t", "from-1"))
        inbox.put(self.message(2, "t", "from-2"))
        got = mailbox.get(tag="t", src=2, blocking=True, timeout=1.0)
        assert got.payload == "from-2"

    def test_blocking_timeout_returns_none(self):
        mailbox = _QueueMailbox(queue_module.Queue())
        assert mailbox.get(tag="t", src=None, blocking=True, timeout=0.05) is None

    def test_probe_returns_none_when_empty(self):
        mailbox = _QueueMailbox(queue_module.Queue())
        assert mailbox.get(tag=None, src=None, blocking=False, timeout=None) is None
