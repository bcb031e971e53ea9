"""Unit tests of the QAP domain: instances, QAPLIB I/O, the delta kernel."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ReproError
from repro.problems.qap import (
    QAPEvaluator,
    QAPInstance,
    QAPProblem,
    build_qap_problem,
    format_qaplib,
    generate_qap,
    load_qap,
    parse_qaplib,
    read_qaplib,
    write_qaplib,
)


class TestInstance:
    def test_rejects_non_square_flow(self):
        with pytest.raises(ReproError):
            QAPInstance(name="bad", flow=np.zeros((3, 2)), distance=np.zeros((3, 3)))

    def test_rejects_mismatched_distance(self):
        with pytest.raises(ReproError):
            QAPInstance(name="bad", flow=np.zeros((3, 3)), distance=np.zeros((4, 4)))

    def test_cost_of_identity_and_permuted(self):
        flow = np.array([[0.0, 2.0], [3.0, 0.0]])
        distance = np.array([[0.0, 5.0], [7.0, 0.0]])
        instance = QAPInstance(name="two", flow=flow, distance=distance)
        # identity: F[0,1]*D[0,1] + F[1,0]*D[1,0] = 2*5 + 3*7 = 31
        assert instance.cost_of(np.array([0, 1])) == 31.0
        # swapped: 2*7 + 3*5 = 29
        assert instance.cost_of(np.array([1, 0])) == 29.0

    def test_symmetry_detection(self):
        sym = generate_qap(10, seed=0, symmetric=True)
        asym = generate_qap(10, seed=0, symmetric=False)
        assert sym.is_symmetric
        assert not asym.is_symmetric


class TestQaplibFormat:
    def test_roundtrip(self, tmp_path):
        original = generate_qap(12, seed=4, symmetric=False)
        path = tmp_path / "inst.dat"
        write_qaplib(original, path)
        restored = read_qaplib(path)
        assert restored.name == "inst"
        assert np.array_equal(restored.flow, original.flow)
        assert np.array_equal(restored.distance, original.distance)

    def test_parse_is_insensitive_to_line_breaks(self):
        instance = parse_qaplib("2\n0 1\n1 0\n0 3\n3 0", name="a")
        same = parse_qaplib("2 0 1 1 0 0 3 3 0", name="a")
        assert np.array_equal(instance.flow, same.flow)
        assert np.array_equal(instance.distance, same.distance)

    def test_parse_errors(self):
        with pytest.raises(ReproError):
            parse_qaplib("")
        with pytest.raises(ReproError):
            parse_qaplib("2 0 1 1 0 0 3 3")  # one number short
        with pytest.raises(ReproError):
            parse_qaplib("2 0 x 1 0 0 3 3 0")  # non-numeric
        with pytest.raises(ReproError):
            parse_qaplib("1 0 0")  # n too small

    def test_format_preserves_integers(self):
        text = format_qaplib(generate_qap(5, seed=1))
        assert "." not in text  # integer matrices stay integers on disk


class TestGeneratorAndLoader:
    def test_generator_is_deterministic(self):
        first = generate_qap(20, seed=3)
        second = generate_qap(20, seed=3)
        assert np.array_equal(first.flow, second.flow)
        assert np.array_equal(first.distance, second.distance)
        assert not np.array_equal(first.flow, generate_qap(20, seed=4).flow)

    def test_distances_are_a_metric_grid(self):
        instance = generate_qap(9, seed=0)
        distance = instance.distance
        assert np.array_equal(distance, distance.T)
        assert np.all(np.diag(distance) == 0.0)
        # triangle inequality on the Manhattan grid
        for i in range(9):
            for j in range(9):
                assert distance[i, j] <= distance[i, 0] + distance[0, j] + 1e-12

    def test_load_by_name_and_seed(self):
        assert load_qap("rand16").n == 16
        assert load_qap("rand16-s2").name == "rand16-s2"
        assert not np.array_equal(load_qap("rand16").flow, load_qap("rand16-s2").flow)

    def test_load_passthrough_and_file(self, tmp_path):
        instance = generate_qap(8, seed=0)
        assert load_qap(instance) is instance
        path = tmp_path / "x.dat"
        write_qaplib(instance, path)
        assert load_qap(str(path)).n == 8

    def test_load_unknown_spec(self):
        with pytest.raises(ReproError):
            load_qap("nug9000")
        with pytest.raises(ReproError):
            load_qap("missing-file.dat")

    def test_build_qap_problem_rejects_cost_params(self):
        with pytest.raises(ReproError):
            build_qap_problem("rand16", cost_params=object())


@pytest.fixture(params=[True, False], ids=["symmetric", "asymmetric"])
def instance(request):
    return generate_qap(19, seed=7, symmetric=request.param)


@pytest.fixture
def evaluator(instance):
    problem = QAPProblem.from_instance(instance, reference_seed=0)
    return problem.make_evaluator(problem.random_solution(seed=2))


class TestDeltaKernel:
    def test_batch_deltas_match_brute_force(self, instance, evaluator):
        rng = np.random.default_rng(5)
        pairs = rng.integers(0, instance.n, size=(250, 2))
        deltas = evaluator.deltas_for_swaps(pairs[:, 0], pairs[:, 1])
        raw = evaluator.raw_cost()
        for (a, b), delta in zip(pairs.tolist(), deltas):
            mutated = evaluator.snapshot()
            mutated[[a, b]] = mutated[[b, a]]
            assert raw + delta == pytest.approx(instance.cost_of(mutated), abs=1e-9)

    def test_no_drift_over_a_long_committed_walk(self, instance, evaluator):
        rng = np.random.default_rng(6)
        for _ in range(300):
            a, b = (int(x) for x in rng.integers(0, instance.n, 2))
            evaluator.commit_swap(a, b)
        evaluator.verify_consistency()

    def test_empty_batch(self, evaluator):
        assert evaluator.deltas_for_swaps(
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        ).shape == (0,)


class TestEvaluator:
    def test_rejects_bad_assignments(self, instance):
        problem = QAPProblem.from_instance(instance)
        with pytest.raises(ReproError):
            problem.make_evaluator(np.arange(instance.n - 1))
        with pytest.raises(ReproError):
            problem.make_evaluator(np.zeros(instance.n, dtype=np.int64))
        with pytest.raises(ReproError):
            problem.make_evaluator(np.arange(instance.n) + 1)

    def test_reference_normalisation(self, instance):
        problem = QAPProblem.from_instance(instance, reference_seed=0)
        reference_eval = problem.make_evaluator(problem.random_solution(seed=0))
        assert reference_eval.cost() == pytest.approx(1.0)

    def test_objectives_as_dict(self, evaluator):
        objectives = evaluator.objectives()
        assert objectives.as_dict() == {"flow_cost": evaluator.raw_cost()}

    def test_exact_cost_restores_canonical_state(self, evaluator):
        rng = np.random.default_rng(8)
        n = evaluator.num_cells
        for _ in range(40):
            a, b = (int(x) for x in rng.integers(0, n, 2))
            evaluator.commit_swap(a, b)
        exact = evaluator.exact_cost()
        assert exact == pytest.approx(
            evaluator.instance.cost_of(evaluator.snapshot()) / evaluator.reference_cost,
            abs=1e-12,
        )

    def test_diversification_distances_symmetrised(self, instance):
        problem = QAPProblem.from_instance(instance)
        evaluator = problem.make_evaluator(np.arange(instance.n))
        candidates = np.arange(instance.n)
        distances = evaluator.diversification_distances(0, candidates)
        expected = 0.5 * (instance.distance[0, :] + instance.distance[:, 0])
        assert np.allclose(distances, expected)
