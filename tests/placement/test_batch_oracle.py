"""The one-pass placement batch against its frozen oracle, along generated walks.

:meth:`CostEvaluator.evaluate_swaps_batch` gathers a batch's pair context
once (:class:`SwapBatch`), has each objective write its delta row into one
``(3, n)`` block and aggregates the block in one fused step.
:func:`oracles.kernels.batch_reference` is the batch path it replaced, frozen:
each objective converting and gathering its own inputs, then the per-goal
aggregation.  These tests drive evaluators through every path that writes a
cache — ``commit_swap``, ``apply_swaps`` with and without exact timing,
``save_state``/``restore_state`` and ``install_solution`` — and after every
step score a batch of 1, 2, 16, 64 or 256 pairs, with self-pairs and
repeated pairs, both ways: the costs must be equal bit for bit, and
``evaluations`` must rise by the batch's number of distinct pairs (``a !=
b``).  The cases cover dense and CSR incidence, layouts with fewer than
three rows (the area kernel's short top-three list) and the weighted-sum
aggregation.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.kernels import batch_reference
from repro.placement import (
    CostEvaluator,
    CostModelParams,
    Layout,
    LayoutSpec,
    load_benchmark,
    random_placement,
)
from repro.placement.wirelength import WirelengthState

BATCH_SIZES = (1, 2, 16, 64, 256)

#: case id -> (circuit, layout aspect ratio, incidence, aggregation)
CASES = {
    "c532": ("c532", 1.0, "dense", "fuzzy"),
    "c532-csr": ("c532", 1.0, "csr", "fuzzy"),
    "c532-two-rows": ("c532", 0.01, "dense", "fuzzy"),
    "mini64-one-row": ("mini64", 0.02, "dense", "fuzzy"),
    "c532-weighted-sum": ("c532", 1.0, "dense", "weighted_sum"),
}


def _evaluator(case: str, seed: int) -> CostEvaluator:
    circuit, aspect_ratio, incidence, aggregation = CASES[case]
    layout = Layout(load_benchmark(circuit), LayoutSpec(aspect_ratio=aspect_ratio))
    placement = random_placement(layout, seed=seed)
    with pytest.MonkeyPatch.context() as patch:
        if incidence == "csr":
            patch.setattr(WirelengthState, "INCIDENCE_BUDGET", 0)
        evaluator = CostEvaluator(placement, CostModelParams(aggregation=aggregation))
    assert evaluator._wirelength.incidence_mode == incidence
    return evaluator


def _pairs(evaluator: CostEvaluator, rng: np.random.Generator, size: int) -> np.ndarray:
    """Random pairs, a quarter of them on the cached critical path (so the
    timing row moves), plus a self-pair and a repeated pair when drawn."""
    pairs = rng.integers(0, evaluator.num_cells, size=(size, 2))
    path = np.asarray(evaluator._timing.critical_path, dtype=np.int64)
    if path.size:
        pairs[::4, 0] = rng.choice(path, size=pairs[::4].shape[0])
    if rng.random() < 0.5:
        row = rng.integers(size)
        pairs[row, 1] = pairs[row, 0]
    if size > 1 and rng.random() < 0.5:
        pairs[-1] = pairs[0]
    return pairs


def _assert_matches_oracle(evaluator: CostEvaluator, pairs: np.ndarray) -> None:
    before = evaluator.evaluations
    shipped = evaluator.evaluate_swaps_batch(pairs)
    assert evaluator.evaluations - before == int(np.count_nonzero(pairs[:, 0] != pairs[:, 1]))
    assert np.array_equal(shipped, batch_reference(evaluator, pairs))


def _ops(num_cells: int):
    cell = st.integers(0, num_cells - 1)
    return st.lists(
        st.one_of(
            st.tuples(st.just("commit"), cell, cell),
            st.tuples(
                st.just("apply"), st.lists(st.tuples(cell, cell), max_size=6), st.booleans()
            ),
            st.tuples(st.just("save")),
            st.tuples(st.just("restore")),
            st.tuples(st.just("install"), st.integers(0, 10_000)),
        ),
        min_size=1,
        max_size=12,
    )


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_batches_match_the_oracle_after_every_step(case, data):
    evaluator = _evaluator(case, data.draw(st.integers(0, 1000)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    layout = evaluator.placement.layout
    sizes = st.sampled_from(BATCH_SIZES)
    saved = evaluator.save_state()
    _assert_matches_oracle(evaluator, _pairs(evaluator, rng, data.draw(sizes)))
    for op in data.draw(_ops(evaluator.num_cells)):
        if op[0] == "commit":
            evaluator.commit_swap(op[1], op[2])
        elif op[0] == "apply":
            evaluator.apply_swaps(op[1], exact_timing=op[2])
        elif op[0] == "save":
            saved = evaluator.save_state()
        elif op[0] == "restore":
            evaluator.restore_state(saved)
        else:
            evaluator.install_solution(random_placement(layout, seed=op[1]).cell_to_slot)
        _assert_matches_oracle(evaluator, _pairs(evaluator, rng, data.draw(sizes)))


def test_a_restore_to_an_older_snapshot_prices_its_own_path():
    """The timing kernel caches each cell's path position by the identity of
    the path array; a restore brings back an older path, whose positions it
    must use, while the snapshot itself carries no positions."""
    evaluator = _evaluator("c532", seed=5)
    timing = evaluator._timing
    rng = np.random.default_rng(6)
    old_path = timing.critical_path
    snapshot = evaluator.save_state()
    _assert_matches_oracle(evaluator, _pairs(evaluator, rng, 256))
    while timing.critical_path == old_path:
        a, b = (int(x) for x in rng.integers(0, evaluator.num_cells, 2))
        evaluator.commit_swap(a, b)
    _assert_matches_oracle(evaluator, _pairs(evaluator, rng, 256))
    evaluator.restore_state(snapshot)
    assert timing.critical_path == old_path
    for _ in range(3):
        _assert_matches_oracle(evaluator, _pairs(evaluator, rng, 256))
