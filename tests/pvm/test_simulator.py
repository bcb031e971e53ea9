"""Unit tests for the discrete-event kernel (virtual time, messaging, faults)."""

from __future__ import annotations

import pytest

from repro.errors import ProcessError, SimulationError
from repro.pvm import (
    ClusterSpec,
    MachineSpec,
    ProcessState,
    SimKernel,
    SpeedClass,
    heterogeneous_cluster,
    homogeneous_cluster,
    simulator,
)


def make_kernel(num_machines: int = 4) -> SimKernel:
    return SimKernel(homogeneous_cluster(num_machines))


class TestCompute:
    def test_compute_advances_virtual_time(self):
        def proc(ctx):
            yield ctx.compute(100.0)
            return (yield ctx.now())

        kernel = make_kernel()
        pid = kernel.spawn(proc, name="p")
        kernel.run()
        expected = kernel.cluster.compute_seconds(0, 100.0)
        assert kernel.result_of(pid) == pytest.approx(expected)

    def test_slow_machine_takes_longer(self):
        def proc(ctx):
            yield ctx.compute(100.0)
            return (yield ctx.now())

        cluster = heterogeneous_cluster(num_high=1, num_medium=0, num_low=1)
        kernel = SimKernel(cluster)
        fast = kernel.spawn(proc, name="fast", machine_index=0)
        slow = kernel.spawn(proc, name="slow", machine_index=1)
        kernel.run()
        assert kernel.result_of(slow) > kernel.result_of(fast)

    def test_sleep_advances_time_without_work(self):
        def proc(ctx):
            yield ctx.sleep(1.5)
            return (yield ctx.now())

        kernel = make_kernel()
        pid = kernel.spawn(proc)
        stats = kernel.run()
        assert kernel.result_of(pid) == pytest.approx(1.5)
        assert stats.total_work_units == 0.0


class TestMessaging:
    def test_send_recv_round_trip(self):
        def child(ctx):
            message = yield ctx.recv(tag="ping")
            yield ctx.send(message.src, "pong", message.payload * 2)
            return "child-done"

        def parent(ctx):
            child_pid = yield ctx.spawn(child, name="child")
            yield ctx.send(child_pid, "ping", 21)
            reply = yield ctx.recv(tag="pong")
            return reply.payload

        kernel = make_kernel()
        pid = kernel.spawn(parent, name="parent")
        kernel.run()
        assert kernel.result_of(pid) == 42

    def test_message_time_includes_latency(self):
        def receiver(ctx):
            message = yield ctx.recv()
            return (yield ctx.now())

        def sender(ctx, dst):
            yield ctx.send(dst, "data", list(range(100)))
            return None

        kernel = make_kernel()
        recv_pid = kernel.spawn(receiver, name="recv")
        kernel.spawn(sender, recv_pid, name="send")
        kernel.run()
        assert kernel.result_of(recv_pid) >= kernel.cluster.message_latency

    def test_tag_filtering_orders_messages(self):
        def receiver(ctx):
            second = yield ctx.recv(tag="b")
            first = yield ctx.recv(tag="a")
            return (first.payload, second.payload)

        def sender(ctx, dst):
            yield ctx.send(dst, "a", "first")
            yield ctx.send(dst, "b", "second")
            return None

        kernel = make_kernel()
        recv_pid = kernel.spawn(receiver, name="recv")
        kernel.spawn(sender, recv_pid, name="send")
        kernel.run()
        assert kernel.result_of(recv_pid) == ("first", "second")

    def test_probe_returns_none_when_empty(self):
        def proc(ctx):
            return (yield ctx.probe(tag="nothing"))

        kernel = make_kernel()
        pid = kernel.spawn(proc)
        kernel.run()
        assert kernel.result_of(pid) is None

    def test_recv_timeout_expires(self):
        def proc(ctx):
            message = yield ctx.recv_timeout(0.5, tag="never")
            return (message, (yield ctx.now()))

        kernel = make_kernel()
        pid = kernel.spawn(proc)
        kernel.run()
        message, now = kernel.result_of(pid)
        assert message is None
        assert now == pytest.approx(0.5)

    def test_recv_timeout_cancelled_by_message(self):
        def receiver(ctx):
            message = yield ctx.recv_timeout(10.0, tag="data")
            return message.payload

        def sender(ctx, dst):
            yield ctx.compute(10.0)
            yield ctx.send(dst, "data", "hello")
            return None

        kernel = make_kernel()
        recv_pid = kernel.spawn(receiver, name="recv")
        kernel.spawn(sender, recv_pid, name="send")
        kernel.run()
        assert kernel.result_of(recv_pid) == "hello"

    def test_stale_timeout_is_counted_but_leaves_the_clock(self):
        def receiver(ctx):
            message = yield ctx.recv_timeout(10.0, tag="data")
            return message.payload

        def sender(ctx, dst):
            yield ctx.send(dst, "data", "hello")

        kernel = make_kernel()
        recv_pid = kernel.spawn(receiver, name="recv")
        kernel.spawn(sender, recv_pid, name="send")
        stats = kernel.run()
        assert kernel.result_of(recv_pid) == "hello"
        # the cancelled 10 s timeout was still popped off the queue...
        assert stats.total_events == 5
        # ...but the clock stops at the last event that woke someone
        assert kernel.now == pytest.approx(stats.virtual_makespan)
        assert kernel.now < 1.0

    def test_send_to_finished_process_is_dropped(self):
        def quick(ctx):
            yield ctx.compute(1.0)
            return "done"

        def late_sender(ctx, dst):
            yield ctx.compute(1000.0)
            yield ctx.send(dst, "late", 1)
            return "sent"

        kernel = make_kernel()
        quick_pid = kernel.spawn(quick, name="quick")
        sender_pid = kernel.spawn(late_sender, quick_pid, name="late")
        kernel.run()
        assert kernel.result_of(sender_pid) == "sent"


class TestSpawnAndPlacement:
    def test_round_robin_machine_assignment(self):
        def child(ctx):
            yield ctx.compute(1.0)
            return ctx.machine_index

        def parent(ctx, count):
            pids = []
            for _ in range(count):
                pids.append((yield ctx.spawn(child)))
            return pids

        kernel = SimKernel(homogeneous_cluster(3))
        pid = kernel.spawn(parent, 5, name="parent", machine_index=0)
        kernel.run()
        children = kernel.result_of(pid)
        machine_indices = [kernel.process_info(c).machine_index for c in children]
        assert len(set(machine_indices)) == 3  # spread over all machines

    def test_spawn_overhead_delays_child_start(self):
        def child(ctx):
            return (yield ctx.now())

        def parent(ctx):
            return (yield ctx.spawn(child, name="child"))

        kernel = make_kernel()
        parent_pid = kernel.spawn(parent, name="parent")
        kernel.run()
        child_pid = kernel.result_of(parent_pid)
        assert kernel.result_of(child_pid) >= kernel.cluster.spawn_overhead


class TestFaults:
    def test_deadlock_detected(self):
        def stuck(ctx):
            yield ctx.recv(tag="never")

        kernel = make_kernel()
        kernel.spawn(stuck, name="stuck")
        with pytest.raises(SimulationError, match="deadlock"):
            kernel.run()

    def test_process_exception_surfaces(self):
        def bad(ctx):
            yield ctx.compute(1.0)
            raise ValueError("boom")

        kernel = make_kernel()
        kernel.spawn(bad, name="bad")
        with pytest.raises(ProcessError, match="boom"):
            kernel.run()

    def test_non_generator_process_rejected(self):
        def not_a_generator(ctx):
            return 42

        kernel = make_kernel()
        with pytest.raises(ProcessError, match="generator"):
            kernel.spawn(not_a_generator)

    def test_yielding_non_syscall_fails(self):
        def bad(ctx):
            yield "not a syscall"

        kernel = make_kernel()
        kernel.spawn(bad, name="bad")
        with pytest.raises(ProcessError, match="expected a Syscall"):
            kernel.run()

    def test_result_of_unknown_pid(self):
        kernel = make_kernel()
        with pytest.raises(ProcessError, match="unknown process"):
            kernel.result_of(99)

    def test_event_budget_guard(self, monkeypatch):
        def ping_pong(ctx, peer_holder):
            while True:
                yield ctx.send(ctx.pid, "self", None)
                yield ctx.recv(tag="self")

        monkeypatch.setattr(simulator, "MAX_EVENTS", 500)
        kernel = SimKernel(homogeneous_cluster(1))
        kernel.spawn(ping_pong, None, name="looper")
        with pytest.raises(SimulationError, match="event budget"):
            kernel.run()


class TestStatsAndDeterminism:
    def scenario(self, kernel: SimKernel) -> float:
        def child(ctx, work):
            yield ctx.compute(work)
            yield ctx.send(ctx.parent, "done", ctx.pid)
            return None

        def parent(ctx):
            for index in range(4):
                yield ctx.spawn(child, 50.0 * (index + 1), name=f"c{index}")
            order = []
            for _ in range(4):
                message = yield ctx.recv(tag="done")
                order.append(message.payload)
            return order

        pid = kernel.spawn(parent, name="parent", machine_index=0)
        kernel.run()
        return kernel.result_of(pid)

    def test_stats_populated(self):
        kernel = make_kernel()
        self.scenario(kernel)
        stats = kernel.stats()
        assert stats.virtual_makespan > 0
        assert stats.total_messages == 4
        assert stats.total_work_units == pytest.approx(50 + 100 + 150 + 200)
        assert stats.num_processes == 5
        assert len(stats.per_machine_busy) == kernel.cluster.num_machines
        assert all(0 <= b <= stats.virtual_makespan for b in stats.per_machine_busy)

    def test_children_finish_in_work_order_on_identical_machines(self):
        kernel = make_kernel(num_machines=8)
        order = self.scenario(kernel)
        # children were given increasing work, so completion order equals spawn order
        assert order == sorted(order)

    def test_identical_runs_are_identical(self):
        order_a = self.scenario(make_kernel())
        order_b = self.scenario(make_kernel())
        assert order_a == order_b

    def test_all_processes_listed(self):
        kernel = make_kernel()
        self.scenario(kernel)
        infos = kernel.all_processes()
        assert len(infos) == 5
        assert all(info.state is ProcessState.FINISHED for info in infos)


class TestDriverSurface:
    """The calls one epoch driver makes on any kernel."""

    def test_outside_spawn_starts_at_now(self):
        def proc(ctx):
            return (yield ctx.now())

        kernel = make_kernel()
        kernel.spawn(lambda ctx: (yield ctx.sleep(2.0)))
        kernel.run()
        pid = kernel.spawn_local(proc, name="late")
        kernel.join_all()
        assert kernel.result_of(pid) == pytest.approx(2.0)

    def test_post_arrives_one_latency_after_now_from_pid_zero(self):
        def proc(ctx):
            message = yield ctx.recv(tag="hello")
            return message.src, message.payload, (yield ctx.now())

        kernel = make_kernel()
        pid = kernel.spawn(proc)
        kernel.run(allow_blocked=True)
        kernel.post(pid, "hello", 7)
        kernel.join(pid)
        assert kernel.result_of(pid) == (0, 7, pytest.approx(kernel.cluster.message_latency))

    def test_join_treats_parked_processes_as_idle(self):
        def parked(ctx):
            yield ctx.recv(tag="never")

        def done(ctx):
            yield ctx.compute(1.0)
            return "ok"

        kernel = make_kernel()
        kernel.spawn(parked, name="parked")
        pid = kernel.spawn(done)
        kernel.join(pid, timeout=1.0)
        assert kernel.result_of(pid) == "ok"
        with pytest.raises(SimulationError, match="deadlock"):
            kernel.join_all()

    def test_worker_dead(self):
        def parked(ctx):
            yield ctx.recv(tag="never")

        kernel = make_kernel()
        pid = kernel.spawn(parked)
        kernel.run(allow_blocked=True)
        assert not kernel.worker_dead(pid)
        kernel.post(pid, "other")
        kernel.run(allow_blocked=True)
        assert not kernel.worker_dead(pid)
        finished = kernel.spawn(lambda ctx: (yield ctx.now()))
        kernel.run(allow_blocked=True)
        assert kernel.worker_dead(finished)
        kernel.shutdown()  # nothing to release
