"""Unit tests for the real-thread backend running the same process code."""

from __future__ import annotations

import pytest

from repro.errors import ProcessError
from repro.pvm import ThreadKernel, homogeneous_cluster, process_backend


def make_kernel() -> ThreadKernel:
    return ThreadKernel(homogeneous_cluster(4))


class TestThreadKernel:
    def test_send_recv_round_trip(self):
        def child(ctx):
            message = yield ctx.recv(tag="ping")
            yield ctx.send(message.src, "pong", message.payload + 1)
            return "ok"

        def parent(ctx):
            child_pid = yield ctx.spawn(child, name="child")
            yield ctx.send(child_pid, "ping", 1)
            reply = yield ctx.recv(tag="pong")
            return reply.payload

        kernel = make_kernel()
        pid = kernel.spawn(parent, name="parent")
        kernel.join_all(timeout=10.0)
        assert kernel.result_of(pid) == 2

    def test_compute_is_noop_but_allowed(self):
        def proc(ctx):
            yield ctx.compute(1000.0)
            return "done"

        kernel = make_kernel()
        pid = kernel.spawn(proc)
        kernel.join(pid, timeout=10.0)
        assert kernel.result_of(pid) == "done"

    def test_fan_out_fan_in(self):
        def worker(ctx, value):
            yield ctx.compute(1.0)
            yield ctx.send(ctx.parent, "result", value * value)
            return None

        def parent(ctx, count):
            for value in range(count):
                yield ctx.spawn(worker, value)
            total = 0
            for _ in range(count):
                message = yield ctx.recv(tag="result")
                total += message.payload
            return total

        kernel = make_kernel()
        pid = kernel.spawn(parent, 5, name="parent")
        kernel.join_all(timeout=10.0)
        assert kernel.result_of(pid) == sum(v * v for v in range(5))

    def test_probe_and_timeout(self):
        def proc(ctx):
            nothing = yield ctx.probe(tag="never")
            timed_out = yield ctx.recv_timeout(0.05, tag="never")
            return (nothing, timed_out)

        kernel = make_kernel()
        pid = kernel.spawn(proc)
        kernel.join(pid, timeout=10.0)
        assert kernel.result_of(pid) == (None, None)

    def test_process_error_reported_on_result(self):
        def bad(ctx):
            yield ctx.compute(1.0)
            raise RuntimeError("kaput")

        kernel = make_kernel()
        pid = kernel.spawn(bad)
        kernel.join(pid, timeout=10.0)
        with pytest.raises(ProcessError):
            kernel.result_of(pid)

    def test_non_generator_rejected(self):
        def not_a_generator(ctx):
            return 1

        kernel = make_kernel()
        with pytest.raises(ProcessError, match="generator"):
            kernel.spawn(not_a_generator)

    def test_unknown_pid(self):
        kernel = make_kernel()
        with pytest.raises(ProcessError, match="unknown"):
            kernel.result_of(123)

    def test_now_increases(self):
        kernel = make_kernel()
        first = kernel.now
        assert kernel.now >= first >= 0.0

    def test_join_all_includes_workers_spawned_while_joining(self):
        """Regression: join_all used to snapshot the record table once, so a
        worker spawned after the snapshot (the master→TSW→CLW pattern) was
        never joined and could still be running when join_all returned."""
        import time as _time

        def late_child(ctx):
            _time.sleep(0.25)  # real work happens inside the body on this backend
            yield ctx.compute(1.0)
            return "late"

        def parent(ctx):
            _time.sleep(0.2)
            child_pid = yield ctx.spawn(late_child, name="late_child")
            return child_pid

        kernel = make_kernel()
        parent_pid = kernel.spawn(parent, name="parent")
        kernel.join_all(timeout=10.0)
        child_pid = kernel.result_of(parent_pid)
        # must not raise "has not finished": the late child was joined too
        assert kernel.result_of(child_pid) == "late"

    def test_join_all_overall_deadline(self):
        import time as _time

        def sleeper(ctx):
            _time.sleep(30.0)  # real delay; ctx.sleep is a no-op on this backend
            yield ctx.compute(1.0)
            return None

        kernel = make_kernel()
        for _ in range(3):
            kernel.spawn(sleeper)
        start = _time.monotonic()
        with pytest.raises(ProcessError):
            kernel.join_all(timeout=0.3)
        # one overall deadline for the whole join, not 0.3 s per worker
        assert _time.monotonic() - start < 5.0

    def test_join_all_fails_fast_after_a_worker_error(self, monkeypatch):
        """A dead worker usually leaves the survivors blocked on messages that
        will never arrive; join_all must abort after the failure grace instead
        of waiting out the whole deadline."""
        import time as _time

        def failing(ctx):
            yield ctx.compute(1.0)
            raise RuntimeError("kaput")

        def stuck(ctx):
            yield ctx.recv(tag="never-sent")
            return None

        monkeypatch.setattr(process_backend, "FAILURE_GRACE", 0.5)
        kernel = make_kernel()
        kernel.spawn(stuck, name="stuck")
        kernel.spawn(failing, name="failing")
        start = _time.monotonic()
        with pytest.raises(ProcessError, match="failing"):
            kernel.join_all(timeout=60.0)
        assert _time.monotonic() - start < 10.0
