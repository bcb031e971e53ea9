"""Tests of the shared-memory problem shipment (PR 3).

The multiprocessing backend ships the immutable ``PlacementProblem`` as a
shared-memory handle instead of a pickle; a restored problem must be
indistinguishable from the original, with its hot arrays backed by the shared
block (zero copies).
"""

from __future__ import annotations

import mmap
import pickle
import sys
import threading

import numpy as np
import pytest

from repro.problems.placement import PlacementProblem, restore_shared_problem
from repro.placement import load_benchmark
from repro.placement.cell import Cell, Net
from repro.pvm import homogeneous_cluster
from repro.pvm.process_backend import ProcessKernel
from repro.pvm.shm import (
    SharedArrayPack,
    SharedObjectRef,
    attach_arrays,
    close_attachments,
    dumps,
    export_shared,
    release_shared,
    resolve_shared_ref,
    shared_ref_of,
)


@pytest.fixture(scope="module")
def problem():
    return PlacementProblem.from_netlist(load_benchmark("c532"), reference_seed=0)


def views_shared_memory(array: np.ndarray) -> bool:
    """Whether ``array`` is a zero-copy view of a mapped shared block."""
    base = array
    while isinstance(base, np.ndarray):
        base = base.base
    return isinstance(base, mmap.mmap)


def shm_probe_process(ctx, prob):
    """Worker body (module-level so the kernel can pickle it by reference).

    Returns whether the problem arrived shared-memory backed plus a cost
    computed through it, proving the restored object is fully functional.
    """
    shared_backed = views_shared_memory(prob.netlist.flat_members)
    cost = prob.make_evaluator(prob.random_solution(1)).cost()
    return shared_backed, float(cost)
    yield  # pragma: no cover - makes this a generator function


def shm_message_probe(ctx, prob):
    """Receive the problem in two messages after getting it as a spawn
    argument; report whether it is shared-memory backed and one object."""
    first = (yield ctx.recv(tag="problem")).payload
    second = (yield ctx.recv(tag="problem")).payload
    received = first["problem"]
    return (
        views_shared_memory(received.netlist.flat_members),
        received is second["problem"] is prob,
    )


class TestSharedArrayPack:
    def test_pack_attach_roundtrip(self):
        arrays = {
            "ints": np.arange(17, dtype=np.int64),
            "floats": np.linspace(0.0, 1.0, 33),
            "bytes": np.arange(5, dtype=np.int8),
        }
        pack = SharedArrayPack(arrays)
        try:
            attached, block = attach_arrays(pack.block_name, pack.entries)
            try:
                for name, original in arrays.items():
                    assert np.array_equal(attached[name], original)
                    assert not attached[name].flags.writeable
            finally:
                block.close()
        finally:
            pack.close()
            pack.unlink()

    def test_empty_pack(self):
        pack = SharedArrayPack({})
        try:
            attached, block = attach_arrays(pack.block_name, pack.entries)
            assert attached == {}
            block.close()
        finally:
            pack.close()
            pack.unlink()

    def test_total_bytes_covers_arrays(self):
        arrays = {
            "a": np.arange(1000, dtype=np.int64),
            "b": np.zeros((64, 64), dtype=np.float64),
        }
        pack = SharedArrayPack(arrays)
        try:
            payload = sum(a.nbytes for a in arrays.values())
            assert pack.total_bytes >= payload
            # alignment pad is at most 63 bytes per array
            assert pack.total_bytes <= payload + 64 * len(arrays)
        finally:
            pack.close()
            pack.unlink()


class TestLargeInstanceShipping:
    """Multi-MB problems must ship as one shared block, not per-worker pickles."""

    def test_qap_rand256_ships_shared_with_tiny_ref(self):
        from repro.core.registry import get_domain

        problem = get_domain("qap").build_problem("rand256", reference_seed=0)
        exported = export_shared(problem)
        assert exported is not None
        ref, pack = exported
        try:
            matrices = 2 * 256 * 256 * 8  # flow + distance, float64
            assert pack.total_bytes >= matrices
            assert len(pickle.dumps(ref)) < 4096
        finally:
            pack.close()
            pack.unlink()


class TestSharedProblem:
    def test_ref_is_much_smaller_than_pickle(self, problem):
        exported = export_shared(problem)
        assert exported is not None
        ref, pack = exported
        try:
            assert isinstance(ref, SharedObjectRef)
            assert len(pickle.dumps(ref)) < len(pickle.dumps(problem)) / 4
        finally:
            pack.close()
            pack.unlink()

    def test_restored_problem_is_equivalent(self, problem):
        ref, pack = export_shared(problem)
        try:
            arrays, block = attach_arrays(ref.block_name, ref.entries)
            try:
                restored = restore_shared_problem(arrays, ref.meta)
                assert restored.netlist.stats().as_dict() == problem.netlist.stats().as_dict()
                assert restored.reference == problem.reference
                assert restored.cost_params == problem.cost_params
                # zero-copy: the hot arrays are views into the shared block
                assert restored.netlist.flat_members.base is not None
                assert restored.layout.slot_x.base is not None

                solution = problem.random_solution(3)
                original_eval = problem.make_evaluator(solution)
                restored_eval = restored.make_evaluator(solution)
                assert restored_eval.cost() == original_eval.cost()

                rng = np.random.default_rng(0)
                pairs = rng.integers(0, problem.num_cells, size=(64, 2))
                assert np.array_equal(
                    restored_eval.evaluate_swaps_batch(pairs),
                    original_eval.evaluate_swaps_batch(pairs),
                )
                for cell_a, cell_b in pairs[:8].tolist():
                    assert restored_eval.commit_swap(cell_a, cell_b) == (
                        original_eval.commit_swap(cell_a, cell_b)
                    )
                restored_eval.verify_consistency()
            finally:
                block.close()
        finally:
            pack.close()
            pack.unlink()

    def test_restored_netlist_has_the_original_object_view(self, problem):
        original = problem.netlist
        ref, pack = export_shared(problem)
        try:
            # the names travel in the block, not in the ref
            assert "cell_names" not in ref.meta["netlist"]
            assert original.cell(7).name.encode() not in pickle.dumps(ref)
            arrays, block = attach_arrays(ref.block_name, ref.entries)
            try:
                restored = restore_shared_problem(arrays, ref.meta).netlist
                assert restored.stats() == original.stats()
                assert restored.cells == original.cells
                assert restored.nets == original.nets
                for cell in range(original.num_cells):
                    assert restored.fanin(cell) == original.fanin(cell)
                    assert restored.fanout(cell) == original.fanout(cell)
            finally:
                block.close()
        finally:
            pack.close()
            pack.unlink()

    @pytest.mark.parametrize("circuit", ["c532", "big2k"])
    def test_worker_path_builds_no_cell_or_net_object(self, circuit, monkeypatch):
        """Restore, evaluator, a batch, a commit and an exact delta adopt —
        what a worker does with a shipped problem — build no per-cell or
        per-net object; the object view stays unbuilt."""
        problem = PlacementProblem.from_netlist(load_benchmark(circuit), reference_seed=0)
        solution = problem.random_solution(4)
        built = []
        for cls in (Cell, Net):
            monkeypatch.setattr(
                cls, "__post_init__",
                lambda obj, _check=cls.__post_init__: built.append(type(obj)) or _check(obj),
            )
        ref, pack = export_shared(problem)
        try:
            arrays, block = attach_arrays(ref.block_name, ref.entries)
            try:
                restored = restore_shared_problem(arrays, ref.meta)
                evaluator = restored.make_evaluator(solution)
                pairs = np.random.default_rng(5).integers(0, restored.num_cells, size=(64, 2))
                evaluator.evaluate_swaps_batch(pairs)
                evaluator.commit_swap(*pairs[0].tolist())
                evaluator.apply_swaps(pairs[1:5], exact_timing=True)
                assert built == []
                # the counter sees the object view once something asks for it
                assert len(restored.netlist.cells) == built.count(Cell) == problem.num_cells
            finally:
                block.close()
        finally:
            pack.close()
            pack.unlink()

    def test_process_kernel_exports_once_per_problem(self, problem):
        """Spawning several workers with the same problem shares one block."""
        kernel = ProcessKernel(homogeneous_cluster(2))
        try:
            pids = [
                kernel.spawn(shm_probe_process, problem, name=f"probe{i}")
                for i in range(2)
            ]
            kernel.join_all(timeout=120.0)
            expected = problem.make_evaluator(problem.random_solution(1)).cost()
            for pid in pids:
                shared_backed, cost = kernel.result_of(pid)
                assert shared_backed
                assert cost == pytest.approx(expected, abs=1e-12)
            assert len(kernel._shm_packs) == 1  # one export serves every spawn
        finally:
            kernel.shutdown()


class TestTransport:
    """The processes backend pickles everything through ``shm.dumps``."""

    def test_nested_shared_object_travels_as_its_ref(self, problem):
        ref, pack = export_shared(problem)
        try:
            blob = dumps({"setup": [problem, 3]}, lambda obj: ref if obj is problem else None)
            assert len(blob) < len(pickle.dumps(problem)) / 4
            payload = pickle.loads(blob)  # resolves the ref in this process
            restored = payload["setup"][0]
            assert payload["setup"][1] == 3
            assert views_shared_memory(restored.netlist.flat_members)
            assert shared_ref_of(restored) == ref
            # a resolved object goes back on the wire as its ref again
            assert pickle.loads(dumps([restored]))[0] is restored
            del payload, restored
        finally:
            close_attachments()
            pack.close()
            pack.unlink()

    def test_resolved_once_and_released(self, problem):
        ref, pack = export_shared(problem)
        try:
            first = resolve_shared_ref(ref)
            assert resolve_shared_ref(ref) is first
            expected = problem.make_evaluator(problem.random_solution(2)).cost()
            release_shared(first)
            assert shared_ref_of(first) is None
            # a released object stays usable (its block is still mapped) ...
            assert first.make_evaluator(first.random_solution(2)).cost() == expected
            # ... and the next ref to its block rebuilds afresh
            second = resolve_shared_ref(ref)
            assert second is not first
            assert second.make_evaluator(second.random_solution(2)).cost() == expected
            release_shared(problem)  # never resolved here: a no-op
            assert shared_ref_of(second) == ref
            del first, second
        finally:
            close_attachments()
            pack.close()
            pack.unlink()

    def test_messages_and_spawn_args_share_one_attachment(self, problem):
        kernel = ProcessKernel(homogeneous_cluster(2))
        try:
            pid = kernel.spawn(shm_message_probe, problem, name="probe")
            kernel.post(pid, "problem", {"problem": problem})
            kernel.post(pid, "problem", {"problem": problem})
            kernel.join(pid, timeout=120.0)
            shared_backed, one_object = kernel.result_of(pid)
            assert shared_backed
            assert one_object
            assert len(kernel._shm_packs) == 1
        finally:
            kernel.shutdown()

    def test_concurrent_first_crossings_export_once(self, problem):
        """The master thread and the caller may both be first to send the
        problem; the kernel must still export it exactly once."""
        kernel = ProcessKernel(homogeneous_cluster(2))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            barrier = threading.Barrier(8)
            refs = []

            def cross():
                barrier.wait(timeout=30.0)
                refs.append(kernel._share(problem))

            threads = [threading.Thread(target=cross) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in threads)
            assert len(refs) == 8
            assert len({ref.block_name for ref in refs}) == 1
            assert len(kernel._shm_packs) == 1
        finally:
            sys.setswitchinterval(interval)
            kernel.shutdown()

    def test_plain_pickle_stays_self_contained(self, problem):
        kernel = ProcessKernel(homogeneous_cluster(2))
        try:
            pid = kernel.spawn(shm_probe_process, problem, name="probe")
            kernel.join(pid, timeout=120.0)
            assert len(kernel._shm_packs) == 1  # the problem is exported now
            blob = pickle.dumps(problem)
        finally:
            kernel.shutdown()  # unlinks the block
        restored = pickle.loads(blob)
        assert not views_shared_memory(restored.netlist.flat_members)
        assert restored.netlist.stats().as_dict() == problem.netlist.stats().as_dict()
