"""Distance matrix assembly: determinism, flags, worker equivalence."""

import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lpmgroup
from lpmgroup import (
    DistanceMatrix,
    Measure,
    MatrixParams,
    distance,
    distance_matrix,
)
from genmodels import chain_lpm, random_lpm


class TestDistanceMatrixType:
    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError):
            DistanceMatrix(ids=("a", "a"), values=np.zeros((2, 2)), measure="transition")

    def test_rejects_asymmetry(self):
        # the second matrix is within numpy's default relative tolerance of
        # symmetric; symmetry is exact or the matrix is refused
        for upper, lower in ((0.3, 0.4), (0.5, 0.500004)):
            values = np.array([[0.0, upper], [lower, 0.0]])
            with pytest.raises(ValueError, match="symmetric"):
                DistanceMatrix(ids=("a", "b"), values=values, measure="transition")

    def test_rejects_nonzero_diagonal(self):
        values = np.array([[0.1, 0.3], [0.3, 0.0]])
        with pytest.raises(ValueError):
            DistanceMatrix(ids=("a", "b"), values=values, measure="transition")

    def test_submatrix_keeps_entries(self):
        values = np.array([[0.0, 0.2, 0.4], [0.2, 0.0, 0.6], [0.4, 0.6, 0.0]])
        matrix = DistanceMatrix(ids=("a", "b", "c"), values=values, measure="transition")
        sub = matrix.submatrix(["c", "a"])
        assert sub.entry("c", "a") == matrix.entry("a", "c") == 0.4


class TestMatrixParams:
    @pytest.mark.parametrize("name", ["bound", "lang_cap", "enum_cap", "ged_budget"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_rejects_non_positive(self, name, value):
        with pytest.raises(ValueError, match=name):
            MatrixParams(**{name: value})


class TestDistanceMatrixComputation:
    def test_identical_models_are_all_zero(self):
        models = [chain_lpm("a", ["x", "y"]), chain_lpm("b", ["x", "y"])]
        matrix = distance_matrix(models, Measure.TRANSITION)
        assert np.all(matrix.values == 0.0)

    @pytest.mark.parametrize("measure", list(Measure), ids=str)
    def test_entries_equal_scalar_recomputation(self, measure):
        rng = random.Random(47)
        models = [random_lpm(rng, f"m{k}", max_transitions=4, max_places=3) for k in range(5)]
        params = dict(bound=4, ged_budget=5_000)
        matrix = distance_matrix(models, measure, MatrixParams(**params))
        for i, a in enumerate(models):
            for j, b in enumerate(models):
                if i != j:
                    assert matrix.values[i, j] == distance(measure, a, b, **params)

    def test_rejects_duplicate_model_ids(self):
        models = [chain_lpm("a", ["x"]), chain_lpm("a", ["y"])]
        with pytest.raises(ValueError):
            distance_matrix(models, Measure.TRANSITION)

    def test_rejects_single_model(self):
        with pytest.raises(ValueError):
            distance_matrix([chain_lpm("a", ["x"])], Measure.TRANSITION)

    def test_symmetry_for_random_models_under_every_measure(self):
        rng = random.Random(51)
        models = [random_lpm(rng, f"m{k}", max_transitions=4, max_places=3) for k in range(8)]
        params = MatrixParams(bound=4, ged_budget=50_000)
        for measure in Measure:
            matrix = distance_matrix(models, measure, params)
            assert np.array_equal(matrix.values, matrix.values.T)
            assert matrix.values.min() >= 0.0 and matrix.values.max() <= 1.0

    def test_invariant_under_input_permutation(self):
        rng = random.Random(53)
        models = [random_lpm(rng, f"m{k}", max_transitions=4, max_places=3) for k in range(6)]
        shuffled = models[::-1]
        a = distance_matrix(models, Measure.NODE)
        b = distance_matrix(shuffled, Measure.NODE)
        for x in models:
            for y in models:
                assert a.entry(x.id, y.id) == b.entry(x.id, y.id)

    @pytest.mark.parametrize("measure", list(Measure), ids=str)
    def test_worker_pool_matches_sequential(self, measure):
        rng = random.Random(57)
        models = [random_lpm(rng, f"m{k}", max_transitions=4, max_places=3) for k in range(7)]
        seq = distance_matrix(models, measure, MatrixParams(bound=4, ged_budget=5_000, workers=1))
        par = distance_matrix(models, measure, MatrixParams(bound=4, ged_budget=5_000, workers=3))
        assert np.array_equal(seq.values, par.values)
        assert np.array_equal(seq.approx, par.approx)

    @pytest.mark.parametrize("cpus, expected", [(2, 2), (None, 1)])
    def test_pool_size_is_bounded_by_cpu_count(self, monkeypatch, cpus, expected):
        import concurrent.futures

        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        # distance_matrix imports the pool from concurrent.futures when it needs one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        rng = random.Random(59)
        models = [random_lpm(rng, f"m{k}", max_transitions=4, max_places=3) for k in range(5)]
        seq = distance_matrix(models, Measure.NODE, MatrixParams(workers=1))
        wide = distance_matrix(models, Measure.NODE, MatrixParams(workers=5000))
        assert sizes == [expected]
        assert np.array_equal(seq.values, wide.values)

    def test_node_loads_scipy_in_the_parent_before_the_pool_starts(self):
        # forked workers inherit the parent's modules, so the parent imports
        # scipy for the assignment measures; efg must not load it at all
        script = """
import concurrent.futures
import sys
from lpmgroup import MatrixParams, distance_matrix
from genmodels import chain_lpm

loaded = []

class InProcessPool:
    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        loaded.append("scipy.optimize" in sys.modules)
        return map(fn, items)

concurrent.futures.ProcessPoolExecutor = InProcessPool
models = [chain_lpm("a", ["x", "y"]), chain_lpm("b", ["x", "z"]), chain_lpm("c", ["y"])]
for measure in ("efg", "node"):
    distance_matrix(models, measure, MatrixParams(bound=3, workers=2))
print(loaded)
"""
        src = str(Path(lpmgroup.__file__).resolve().parents[1])
        paths = [src, str(Path(__file__).resolve().parent), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120, check=True
        )
        assert done.stdout.splitlines()[-1] == "[False, True]"

    def test_truncated_language_sets_approx_flag(self):
        models = [chain_lpm("a", ["x", "y", "z"]), chain_lpm("b", ["x", "y"])]
        matrix = distance_matrix(models, Measure.EFG, MatrixParams(bound=3, enum_cap=2))
        assert matrix.approx[0, 1]

    def test_ged_budget_exhaustion_sets_approx_flag(self):
        rng = random.Random(61)
        models = [random_lpm(rng, f"m{k}", max_transitions=8, max_places=6) for k in range(2)]
        matrix = distance_matrix(models, Measure.GED, MatrixParams(ged_budget=3))
        assert matrix.approx[0, 1]
