"""Unit tests for the real-OS-process backend running the same process code.

The process bodies live at module level because the kernel ships them to
the workers by pickled module reference.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.registry import get_domain
from repro.errors import ProcessError
from repro.parallel import ParallelSearchParams
from repro.pvm import ClusterSpec, MachineSpec, ProcessKernel, ThreadKernel, homogeneous_cluster
from repro.pvm.faults import WORKER_DOWN_TAG
from repro.pvm.message import Message
from repro.pvm import process_backend
from repro.pvm.process_backend import _WorkerPort
from repro.session import SearchSession, WorkerPool
from repro.tabu import TabuSearchParams


def socket_buffer_bytes() -> int:
    """``SO_SNDBUF`` of a fresh socket pair: what one write can leave in
    flight before it waits for the reader."""
    left, right = socket.socketpair()
    with left, right:
        return left.getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF)


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


def big_writer_child(ctx, size):
    yield ctx.recv(tag="go")
    yield ctx.send(ctx.parent, "big", b"c" * size)
    got = yield ctx.recv(tag="big")
    return len(got.payload)


def big_writer_parent(ctx, size):
    """Both ends of a link, or of a control pipe when this runs on a kernel
    thread, write ``size`` bytes to each other at the same moment."""
    child = yield ctx.spawn(big_writer_child, size, name="child")
    yield ctx.send(child, "go")
    yield ctx.send(child, "big", b"p" * size)
    got = yield ctx.recv(tag="big")
    return len(got.payload)


def killed_child_parent(ctx, size):
    child = yield ctx.spawn(sleeper_proc, 60.0, name="doomed")
    notice = yield ctx.recv(tag=WORKER_DOWN_TAG)
    for _ in range(3):  # dropped: the child is dead
        yield ctx.send(child, "ping", b"x" * size)
    return notice.payload.name


def short_child(ctx):
    yield ctx.send(ctx.parent, "hi", "short")
    return "done"


def long_child(ctx):
    go = yield ctx.recv(tag="go")
    yield ctx.send(ctx.parent, "reply", go.payload)
    return "done"


def outliving_parent(ctx):
    yield ctx.spawn(short_child, name="short")
    other = yield ctx.spawn(long_child, name="long")
    hi = yield ctx.recv(tag="hi")
    # the short child's link ends during this wait
    nothing = yield ctx.recv_timeout(0.3, tag="never")
    yield ctx.send(other, "go", 7)
    reply = yield ctx.recv(tag="reply")
    notice = yield ctx.probe(tag=WORKER_DOWN_TAG)  # a clean exit is no death
    return hi.payload, nothing, reply.payload, notice


def chatter_child(ctx, rounds):
    """Number ``rounds`` messages to the parent and to the next sibling, and
    check that the previous sibling's and the kernel's arrive in order.  The
    sibling's fill this worker's control pipe before it starts reading."""
    roster = (yield ctx.recv(tag="roster")).payload
    peer = roster[(roster.index(ctx.pid) + 1) % len(roster)]
    for count in range(rounds):
        yield ctx.send(ctx.parent, "n", (count, b""))
        yield ctx.send(peer, "n", (count, bytes(4096)))  # no link: forwarded
    seen = {}
    for _ in range(2 * rounds):  # the previous sibling's and the kernel's posts
        message = yield ctx.recv(tag="n")
        seen.setdefault(message.src, []).append(message.payload[0])
    return sorted(seen.values()) == [list(range(rounds))] * 2


def chatter_parent(ctx, children, rounds):
    roster = []
    for index in range(children):
        roster.append((yield ctx.spawn(chatter_child, rounds, name=f"c{index}")))
    for pid in roster:
        yield ctx.send(pid, "roster", roster)
    seen = {pid: [] for pid in roster}
    for _ in range(children * rounds):
        message = yield ctx.recv(tag="n")
        seen[message.src].append(message.payload[0])
    return all(counts == list(range(rounds)) for counts in seen.values())


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

    def test_hard_death_fails_join_all_fast(self, monkeypatch):
        """A worker that dies without reporting must be detected within the
        death-report grace, and join_all must then abort within the failure
        grace instead of burning the whole deadline."""
        monkeypatch.setattr(process_backend, "FAILURE_GRACE", 0.5)
        with make_kernel() as kernel:
            kernel.spawn(stuck_proc, name="stuck")
            dead_pid = kernel.spawn(hard_dying_proc, name="crasher")
            start = time.monotonic()
            with pytest.raises(ProcessError, match="crasher"):
                kernel.join_all(timeout=60.0)
            assert time.monotonic() - start < 30.0
            with pytest.raises(ProcessError):
                kernel.result_of(dead_pid)

    def test_failure_grace_abort_names_the_processes_still_running(self, monkeypatch):
        """The abort after a failure names every process that did not stop
        (up to eight, by name and pid), as the deadline abort does."""
        monkeypatch.setattr(process_backend, "FAILURE_GRACE", 0.5)
        with make_kernel() as kernel:
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


class TestTransport:
    """Links between parent and child workers, control pipes, and how both
    behave when a peer dies or a write outgrows the socket buffer."""

    def test_both_ends_of_a_link_write_more_than_a_socket_buffer_at_once(self):
        size = 4 * socket_buffer_bytes()
        assert size > socket_buffer_bytes() > 0
        with make_kernel() as kernel:
            parent = kernel.spawn(big_writer_parent, size, name="parent")
            kernel.join_all(timeout=60.0)
            (child,) = kernel.child_pids(parent)
            assert kernel.result_of(parent) == size
            assert kernel.result_of(child) == size

    def test_both_ends_of_a_control_pipe_write_more_than_a_socket_buffer_at_once(self):
        size = 4 * socket_buffer_bytes()
        with make_kernel() as kernel:
            parent = kernel.spawn_local(big_writer_parent, size, name="parent")
            kernel.join_all(timeout=60.0)
            (child,) = kernel.child_pids(parent)
            # the parent runs on a kernel thread: the child has no link, and
            # each side wrote into the child's control pipe
            assert kernel._records[child].process is not None
            assert kernel.result_of(parent) == size
            assert kernel.result_of(child) == size

    def test_a_send_to_a_killed_child_is_dropped_and_the_sender_runs_on(self):
        with make_kernel() as kernel:
            parent = kernel.spawn(killed_child_parent, 2 * socket_buffer_bytes())
            deadline = time.monotonic() + 30.0
            while not kernel.child_pids(parent):
                assert time.monotonic() < deadline
                time.sleep(0.01)
            (child,) = kernel.child_pids(parent)
            while not kernel.terminate_worker(child):
                assert time.monotonic() < deadline
                time.sleep(0.01)
            kernel.join(parent, timeout=30.0)
            # the death reached the parent as a notice, and its sends to the
            # dead child were dropped without an error
            assert kernel.result_of(parent) == "doomed"
            with pytest.raises(ProcessError) as info:
                kernel.result_of(child)
            assert "died without reporting" in str(info.value.__cause__)

    def test_a_child_that_exits_mid_run_leaves_its_parents_receive_working(self):
        with make_kernel() as kernel:
            parent = kernel.spawn(outliving_parent, name="parent")
            kernel.join_all(timeout=60.0)
            assert kernel.result_of(parent) == ("short", None, 7, None)

    def test_every_route_keeps_each_senders_order_under_load(self):
        """More workers than cores: sends up the control pipes to a kernel
        thread, sends forwarded between siblings, and kernel posts from
        another thread into the same pipes, each arriving in send order."""
        children, rounds = 2 * os.cpu_count() + 2, 200
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with make_kernel() as kernel:
                parent = kernel.spawn_local(chatter_parent, children, rounds, name="parent")
                deadline = time.monotonic() + 60.0
                while len(kernel.child_pids(parent)) < children:
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                for count in range(rounds):
                    for child in kernel.child_pids(parent):
                        kernel.post(child, "n", (count, b""))
                kernel.join_all(timeout=60.0)
                assert kernel.result_of(parent) is True
                for child in kernel.child_pids(parent):
                    assert kernel.result_of(child) is True
        finally:
            sys.setswitchinterval(previous)

    def test_a_pool_checkpoint_with_large_state_replies_resumes_bit_identically(self):
        """The harvest's ``STATE_REPLY``s — CLW to TSW down a link, TSW to
        master up a control pipe — each exceed a socket buffer."""
        problem = get_domain("placement").build_problem("c3540", reference_seed=7)
        params = ParallelSearchParams(
            num_tsws=2,
            clws_per_tsw=1,
            global_iterations=2,
            sync_mode="homogeneous",
            tabu=TabuSearchParams(local_iterations=3, pairs_per_step=8, move_depth=2),
            seed=11,
        )
        uninterrupted = SearchSession(problem=problem, params=params).run()
        with WorkerPool(
            2, 1, backend="processes", cluster=homogeneous_cluster(5)
        ) as pool:
            session = SearchSession(problem=problem, params=params, pool=pool)
            session.step(1)
            state = session.checkpoint()
            buffer = socket_buffer_bytes()
            for worker in state.run_state.worker_states:
                assert len(pickle.dumps(worker)) > buffer
                for clw in worker.clw_states:
                    assert len(pickle.dumps(clw)) > buffer
            resumed = SearchSession.restore(state, pool=pool).run()
        assert resumed.best_cost == uninterrupted.best_cost
        assert np.array_equal(resumed.best_solution, uninterrupted.best_solution)
        assert [r.received_costs for r in resumed.global_records] == [
            r.received_costs for r in uninterrupted.global_records
        ]

    @pytest.mark.skipif(
        "forkserver" not in multiprocessing.get_all_start_methods(),
        reason="needs a multiprocessing fork server",
    )
    def test_a_processes_run_makes_no_multiprocessing_queue(self, tmp_path):
        src = str(Path(repro.__file__).resolve().parents[1])
        script = tmp_path / "processes_run.py"
        script.write_text(FRESH_PROCESSES_RUN.format(src=src))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        done = subprocess.run(
            [sys.executable, str(script)], cwd=tmp_path, env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        report = json.loads(done.stdout.splitlines()[-1])
        assert report["improved"] == [True, True]
        assert report["queues"] == []
        assert "QueueFeederThread" not in report["threads"]
        assert "resource_tracker" not in done.stderr


#: A driver script run in a fresh interpreter: a warm pool run and a cold
#: run on the processes backend, counting every ``multiprocessing`` queue
#: the driver makes.
FRESH_PROCESSES_RUN = """\
import json, sys, threading
sys.path.insert(0, {src!r})

import multiprocessing.queues

made = []
for cls in (multiprocessing.queues.Queue, multiprocessing.queues.SimpleQueue):
    def counting(self, *args, _init=cls.__init__, **kwargs):
        made.append(type(self).__name__)
        _init(self, *args, **kwargs)
    cls.__init__ = counting

from repro import (
    ParallelSearchParams, TabuSearchParams, homogeneous_cluster, run_parallel_search,
)
from repro.core.registry import get_domain
from repro.session import SearchSession, WorkerPool

if __name__ == "__main__":
    params = ParallelSearchParams(
        num_tsws=2, clws_per_tsw=1, global_iterations=2, sync_mode="homogeneous",
        tabu=TabuSearchParams(local_iterations=3), seed=3,
    )
    problem = get_domain("placement").build_problem("mini64", reference_seed=7)
    with WorkerPool(2, 1, backend="processes", cluster=homogeneous_cluster(5)) as pool:
        warm = SearchSession(problem=problem, params=params, pool=pool).run()
    cold = run_parallel_search(
        problem, params, backend="processes", cluster=homogeneous_cluster(5)
    )
    print(json.dumps({{
        "queues": made,
        "threads": [thread.name for thread in threading.enumerate()],
        "improved": [r.best_cost < r.initial_cost for r in (warm, cold)],
    }}))
"""


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


class TestWorkerMailbox:
    """Filter semantics of a worker's transport over real socket pairs, in
    one process: the kernel's end of the control pipe and the parent's end
    of the link stand in for the other side."""

    @staticmethod
    def message(src: int, tag: str, payload=None) -> bytes:
        """A message as it crosses a socket: pickled."""
        return pickle.dumps(
            Message(
                src=src, dst=9, tag=tag, payload=payload, size_bytes=8,
                send_time=0.0, arrival_time=0.0,
            )
        )

    @pytest.fixture
    def sockets(self):
        """``(port, kernel_end, parent_end)`` of a worker with pid 9 whose
        parent, pid 1, is a worker OS process."""
        kernel_end, control = multiprocessing.Pipe()
        parent_end, link = multiprocessing.Pipe()
        port = _WorkerPort(1, control, link)
        yield port, kernel_end, parent_end
        kernel_end.close()
        parent_end.close()

    def test_non_matching_messages_are_buffered_in_order(self, sockets):
        port, kernel_end, parent_end = sockets
        parent_end.send_bytes(self.message(1, "other", "first"))
        kernel_end.send_bytes(self.message(2, "wanted", "hit"))
        parent_end.send_bytes(self.message(1, "other", "second"))
        got = port.get(tag="wanted", src=None, blocking=True, timeout=5.0)
        assert got.payload == "hit"
        # buffered messages are served later, preserving arrival order
        first = port.get(tag="other", src=None, blocking=True, timeout=5.0)
        second = port.get(tag="other", src=None, blocking=True, timeout=5.0)
        assert (first.payload, second.payload) == ("first", "second")

    def test_src_filter(self, sockets):
        port, kernel_end, parent_end = sockets
        parent_end.send_bytes(self.message(1, "t", "from-1"))
        kernel_end.send_bytes(self.message(2, "t", "from-2"))
        got = port.get(tag="t", src=2, blocking=True, timeout=5.0)
        assert got.payload == "from-2"
        got = port.get(tag="t", src=1, blocking=False, timeout=None)
        assert got.payload == "from-1"

    def test_link_message_and_kernel_post_arrive_in_one_wait(self, sockets):
        port, kernel_end, parent_end = sockets
        parent_end.send_bytes(self.message(1, "result", "from-child"))
        kernel_end.send_bytes(self.message(0, "cancel"))
        time.sleep(0.05)  # both are in their sockets before the wait
        got = port.get(tag="nothing", src=None, blocking=True, timeout=0.2)
        assert got is None
        assert sorted(m.tag for m in port._buffer) == ["cancel", "result"]

    def test_blocking_timeout_returns_none(self, sockets):
        port, _, _ = sockets
        start = time.monotonic()
        assert port.get(tag="t", src=None, blocking=True, timeout=0.05) is None
        assert time.monotonic() - start >= 0.05

    def test_probe_returns_none_when_empty(self, sockets):
        port, _, _ = sockets
        assert port.get(tag=None, src=None, blocking=False, timeout=None) is None

    def test_a_frame_split_across_reads_is_reassembled(self, sockets):
        port, _, parent_end = sockets
        blob = self.message(1, "big", b"x" * (3 * socket_buffer_bytes()))
        frame = len(blob).to_bytes(4, "big") + blob
        with socket.socket(fileno=os.dup(parent_end.fileno())) as raw:
            raw.sendall(frame[:100])
            assert port.get(tag="big", src=None, blocking=False, timeout=None) is None
            raw.sendall(frame[100:500])
            assert port.get(tag="big", src=None, blocking=True, timeout=0.05) is None
            sender = threading.Thread(target=raw.sendall, args=(frame[500:],))
            sender.start()
            got = port.get(tag="big", src=None, blocking=True, timeout=10.0)
            sender.join()
        assert len(got.payload) == 3 * socket_buffer_bytes()

    def test_a_closed_link_is_dropped(self, sockets):
        port, kernel_end, parent_end = sockets
        parent_end.send_bytes(self.message(1, "last"))
        parent_end.close()
        assert port.get(tag="last", src=None, blocking=True, timeout=5.0).src == 1
        assert port.get(tag=None, src=None, blocking=True, timeout=0.05) is None
        assert port._links == {}
        # a send to the parent now goes to the kernel, which drops it
        port.send(
            Message(
                src=9, dst=1, tag="late", payload=None, size_bytes=0,
                send_time=0.0, arrival_time=0.0,
            )
        )
        kind, dst, _ = pickle.loads(kernel_end.recv_bytes())
        assert (kind, dst) == ("send", 1)

    def test_the_end_of_the_control_pipe_ends_the_worker(self, sockets):
        port, kernel_end, _ = sockets
        kernel_end.close()
        with pytest.raises(ProcessError, match="control pipe"):
            port.get(tag=None, src=None, blocking=True, timeout=5.0)
