"""Distance matrix assembly: determinism, flags, worker equivalence, forked pairs."""

import math
import os
import random
import signal
import sys
import time
from functools import lru_cache
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import squareform

import lpmgroup
from lpmgroup import (
    DistanceMatrix,
    Measure,
    MatrixParams,
    distance,
    distance_matrix,
    load_matrix,
    similarity,
)
from lpmgroup.matrix import MEASURES, MeasureSpec, _quantized
from genmodels import chain_lpm, random_lpm, skeleton_copies


@pytest.fixture
def forks(monkeypatch):
    """Pin the usable CPUs to two and record the pid of every ``os.fork``."""
    pids = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    return pids


def _loaded(tmp_path, csv_text: str) -> DistanceMatrix:
    path = tmp_path / "matrix.csv"
    path.write_text(csv_text, encoding="utf-8")
    return load_matrix(path)


class TestDistanceMatrixType:
    """The constructor takes the condensed upper triangle, so it cannot be
    handed an asymmetric square or a nonzero diagonal; ``load_matrix``, where
    a square comes in from a file, refuses those."""

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError):
            DistanceMatrix(("a", "a"), [0.0], "transition")

    def test_rejects_asymmetry(self, tmp_path):
        # the second matrix is within numpy's default relative tolerance of
        # symmetric; symmetry is exact or the matrix is refused. The third
        # has a valid upper triangle: the lower one must still equal it
        for upper, lower in ((0.3, 0.4), (0.5, 0.500004), (0.5, "nan")):
            with pytest.raises(ValueError, match="symmetric"):
                _loaded(tmp_path, f"id,a,b\na,0,{upper}\nb,{lower},0\n")

    def test_rejects_nonzero_diagonal(self, tmp_path):
        for diagonal in ("0.1", "nan", "-1"):
            with pytest.raises(ValueError, match="self-distances must be zero"):
                _loaded(tmp_path, f"id,a,b\na,0,0.3\nb,0.3,{diagonal}\n")

    def test_a_csv_without_its_last_row_is_refused(self, tmp_path):
        # the last row adds no cell above the diagonal, so only a row count sees it missing
        for text in ("id,a,b,c\na,0,0.1,0.2\nb,0.1,0,0.3\n", "id,a,b\na,0,0.1\n"):
            with pytest.raises(ValueError, match=r"expected \d data rows"):
                _loaded(tmp_path, text)
        with pytest.raises(ValueError, match="expected 2 data rows"):
            _loaded(tmp_path, "id,a,b\na,0,0.1\nb,0.1,0\nc,0,0\n")

    @pytest.mark.parametrize("rows, message", [
        # an asymmetric row before a nonzero diagonal
        (["a,0,0.2,0.3", "b,0.25,0,0.4", "c,0.3,0.4,0.1"], "row 'b': distance matrix must be symmetric"),
        # a nonzero diagonal before a distance outside [0, 1] above the diagonal
        (["a,0,0.2,0.3,0.1", "b,0.2,0.1,0.4,0.1", "c,0.3,0.4,0,1.5", "d,0.1,0.1,1.5,0"],
         "row 'b': self-distances must be zero"),
        # a nonzero diagonal before a short row
        (["a,0.5,0.2", "b,0.2"], "row 'a': self-distances must be zero"),
    ])
    def test_a_csv_with_two_faults_reports_the_first_faulty_row(self, tmp_path, rows, message):
        ids = [row.split(",")[0] for row in rows]
        with pytest.raises(ValueError) as caught:
            _loaded(tmp_path, "\n".join([",".join(["id", *ids]), *rows]) + "\n")
        assert str(caught.value).endswith(message)

    def test_unknown_id_raises_key_error(self):
        matrix = DistanceMatrix(("a", "b"), [0.0], "transition")
        assert matrix.index("b") == 1
        with pytest.raises(KeyError, match="unknown model id 'z'"):
            matrix.index("z")

    def test_submatrix_keeps_entries(self):
        matrix = DistanceMatrix(("a", "b", "c"), [0.2, 0.4, 0.6], "transition", [False, True, False])
        sub = matrix.submatrix(["c", "a"])
        assert sub.values[sub.index("c")][sub.index("a")] == matrix.values[matrix.index("a")][matrix.index("c")] == 0.4
        assert sub.approx == ((False, True), (True, False)) and sub.index("a") == 1
        with pytest.raises(ValueError, match="unique"):
            matrix.submatrix(["a", "a"])


@st.composite
def condensed(draw):
    """Ids, distances and flags of n = 0..12 models: tie-heavy distances at
    six decimals, and half-way points of the sixth decimal."""
    n = draw(st.integers(0, 12))
    pairs = n * (n - 1) // 2
    cell = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.integers(0, 2_000_000).map(lambda k: k / 2e6))
    distances = draw(st.lists(cell, min_size=pairs, max_size=pairs))
    flags = draw(st.lists(st.booleans(), min_size=pairs, max_size=pairs))
    return tuple(f"m{i}" for i in range(n)), distances, flags


def _scipy_square(cells, n: int, dtype) -> np.ndarray:
    """scipy's square of a condensed triangle; squareform turns an empty one into a 1 x 1 square."""
    return squareform(np.asarray(cells, dtype=dtype)) if n > 1 else np.zeros((n, n), dtype=dtype)


def _bits(table) -> list[list[str]]:
    return [[float(x).hex() for x in row] for row in table]


def _flags(table) -> list[list[bool]]:
    return [list(row) for row in table]


class TestCondensedConstructor:
    """The constructor against scipy's ``squareform`` and numpy indexing and rounding."""

    @settings(max_examples=300, database=None, derandomize=True, deadline=None)
    @given(drawn=condensed(), data=st.data())
    def test_tables_equal_squareform_and_numpy(self, drawn, data):
        ids, distances, flags = drawn
        n = len(ids)
        matrix = DistanceMatrix(ids, distances, "drawn", flags)
        square, approx = _scipy_square(distances, n, float), _scipy_square(flags, n, bool)
        assert _bits(matrix.values) == _bits(square) and _flags(matrix.approx) == approx.tolist()
        assert all(type(x) is float for row in matrix.values for x in row)
        assert all(type(x) is bool for row in matrix.approx for x in row)
        assert type(matrix.flags) is bytes and list(matrix.flags) == list(map(int, flags))
        assert len(matrix.flags) == n * (n - 1) // 2
        assert matrix.approx is not matrix.approx  # mirrored anew from the flags on each read
        for order in (data.draw(st.permutations(ids)), ids[::-1]):
            idx = [ids.index(i) for i in order]
            sub = matrix.submatrix(order)
            assert sub.ids == tuple(order)
            assert _bits(sub.values) == _bits(square[np.ix_(idx, idx)])
            assert _flags(sub.approx) == approx[np.ix_(idx, idx)].tolist()
            if n > 1:
                assert list(sub.flags) == squareform(approx[np.ix_(idx, idx)]).astype(int).tolist()
        rounded = matrix.rounded()
        assert _bits(rounded.values) == _bits(np.round(square, 6)) and rounded.approx == matrix.approx
        assert rounded.flags == matrix.flags

    @settings(max_examples=100, database=None, derandomize=True, deadline=None)
    @given(drawn=condensed(), data=st.data())
    def test_refuses_wrong_lengths_and_distances_outside_the_unit_interval(self, drawn, data):
        ids, distances, flags = drawn
        for cells, cell_flags in ((distances + [0.5], flags), (distances, flags + [False])):
            with pytest.raises(ValueError, match="one per pair"):
                DistanceMatrix(ids, cells, "drawn", cell_flags)
        if distances:
            with pytest.raises(ValueError, match="one per pair"):
                DistanceMatrix(ids, distances[:-1], "drawn")
            k = data.draw(st.integers(0, len(distances) - 1))
            for bad in (math.nan, -0.1, 1.1, math.inf):
                with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
                    DistanceMatrix(ids, [*distances[:k], bad, *distances[k + 1:]], "drawn", flags)


class TestMatrixParams:
    @pytest.mark.parametrize("name", ["bound", "lang_cap", "enum_cap", "ged_budget", "workers"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_rejects_non_positive(self, name, value):
        with pytest.raises(ValueError, match=name):
            MatrixParams(**{name: value})


class TestDistanceMatrixComputation:
    def test_identical_models_are_all_zero(self):
        models = [chain_lpm("a", ["x", "y"]), chain_lpm("b", ["x", "y"])]
        matrix = distance_matrix(models, Measure.TRANSITION)
        assert np.all(np.asarray(matrix.values) == 0.0)

    @pytest.mark.parametrize("measure", list(Measure), ids=str)
    def test_entries_equal_scalar_recomputation(self, measure):
        rng = random.Random(47)
        models = [random_lpm(rng, f"m{k}", max_transitions=4, max_places=3) for k in range(5)]
        params = dict(bound=4, ged_budget=5_000)
        matrix = distance_matrix(models, measure, MatrixParams(**params))
        for i, a in enumerate(models):
            for j, b in enumerate(models):
                if i != j:
                    assert matrix.values[i][j] == _quantized(distance(measure, a, b, **params))

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
            values = np.asarray(matrix.values)
            assert np.array_equal(values, values.T)
            assert values.min() >= 0.0 and values.max() <= 1.0

    def test_invariant_under_input_permutation(self):
        rng = random.Random(53)
        models = [random_lpm(rng, f"m{k}", max_transitions=4, max_places=3) for k in range(6)]
        shuffled = models[::-1]
        a = distance_matrix(models, Measure.NODE)
        b = distance_matrix(shuffled, Measure.NODE)
        for x in models:
            for y in models:
                assert a.values[a.index(x.id)][a.index(y.id)] == b.values[b.index(x.id)][b.index(y.id)]
                # the matrix holds quantized values: the kernel's raw bits must agree too
                assert similarity(Measure.NODE, x, y).hex() == similarity(Measure.NODE, y, x).hex()

    @pytest.mark.parametrize("measure", list(Measure), ids=str)
    def test_worker_pool_matches_sequential(self, measure, forks):
        rng = random.Random(57)
        models = [random_lpm(rng, f"m{k}", max_transitions=4, max_places=3) for k in range(7)]
        seq = distance_matrix(models, measure, MatrixParams(bound=4, ged_budget=5_000, workers=1))
        par = distance_matrix(models, measure, MatrixParams(bound=4, ged_budget=5_000, workers=3))
        assert len(forks) == 1  # three workers asked for, two usable CPUs
        assert np.array_equal(seq.values, par.values)
        assert np.array_equal(seq.approx, par.approx)
        # the values are already at the CSV precision: rounding changes no bit
        hexes = [[x.hex() for x in row] for row in seq.rounded().values]
        assert [[x.hex() for x in row] for row in seq.values] == hexes
        assert [[x.hex() for x in row] for row in par.values] == hexes

    def test_truncated_language_sets_approx_flag(self):
        models = [chain_lpm("a", ["x", "y", "z"]), chain_lpm("b", ["x", "y"])]
        matrix = distance_matrix(models, Measure.EFG, MatrixParams(bound=3, enum_cap=2))
        assert matrix.approx[0][1]

    def test_ged_budget_exhaustion_sets_approx_flag(self):
        rng = random.Random(61)
        models = [random_lpm(rng, f"m{k}", max_transitions=8, max_places=6) for k in range(2)]
        matrix = distance_matrix(models, Measure.GED, MatrixParams(ged_budget=3))
        assert matrix.approx[0][1]


def _stub_measure(monkeypatch, compare):
    """Make ``node`` compare model ids with ``compare``; models need only an id."""
    spec = MeasureSpec(lambda model, params: (model.id, False), compare, ())
    monkeypatch.setitem(MEASURES, Measure.NODE, spec)
    return [SimpleNamespace(id=f"m{k}") for k in range(300)]


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class _Unpicklable(Exception):
    def __init__(self, detail, code):
        super().__init__(f"{detail} ({code})")


class TestForkedPairs:
    @pytest.mark.parametrize(
        "workers, n_models, expected",
        [(1, 5, 0), (5000, 5, 1), (5000, 2, 0)],
        ids=["one-worker", "more-workers-than-cpus", "one-pair"],
    )
    def test_forks_are_bounded_by_usable_cpus(self, forks, workers, n_models, expected):
        rng = random.Random(59)
        models = [random_lpm(rng, f"m{k}", max_transitions=4, max_places=3) for k in range(n_models)]
        seq = distance_matrix(models, Measure.NODE, MatrixParams(workers=1))
        forks.clear()
        wide = distance_matrix(models, Measure.NODE, MatrixParams(workers=workers))
        assert len(forks) == expected
        assert np.array_equal(seq.values, wide.values)
        _no_child_left()

    @pytest.mark.parametrize(
        "affinity, cpus, expected",
        [({0}, 2, 0), (None, 2, 1), (None, 1, 0), (None, None, 0)],
        ids=["affinity-1-of-2", "no-affinity-2-cpus", "no-affinity-1-cpu", "no-affinity-unknown"],
    )
    def test_forks_follow_the_affinity_mask(self, forks, monkeypatch, affinity, cpus, expected):
        # cpu_count counts the host; the affinity mask, where the OS has
        # one, counts the CPUs this process may run on
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        rng = random.Random(59)
        models = [random_lpm(rng, f"m{k}", max_transitions=4, max_places=3) for k in range(5)]
        distance_matrix(models, Measure.NODE, MatrixParams(workers=5000))
        assert len(forks) == expected

    def test_children_inherit_the_compare_module(self, forks, monkeypatch):
        # the parent loads the GED search before it forks, so no child
        # compiles it again
        loaded_at_fork = []
        counting_fork = os.fork

        def fork():
            loaded_at_fork.append("lpmgroup.ged" in sys.modules)
            return counting_fork()

        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.delitem(sys.modules, "lpmgroup.ged", raising=False)
        monkeypatch.delattr(lpmgroup, "ged", raising=False)
        rng = random.Random(59)
        models = [random_lpm(rng, f"m{k}", max_transitions=4, max_places=3) for k in range(4)]
        distance_matrix(models, Measure.GED, MatrixParams(ged_budget=500, workers=2))
        assert loaded_at_fork == [True] and len(forks) == 1

    def test_without_fork_the_pairs_run_in_process(self, forks, monkeypatch):
        rng = random.Random(59)
        models = [random_lpm(rng, f"m{k}", max_transitions=4, max_places=3) for k in range(5)]
        seq = distance_matrix(models, Measure.NODE, MatrixParams(workers=1))
        monkeypatch.delattr(os, "fork")
        wide = distance_matrix(models, Measure.NODE, MatrixParams(workers=5000))
        assert np.array_equal(seq.values, wide.values)

    @pytest.mark.parametrize(
        "error, raised, message",
        [
            (ValueError("bad pair"), ValueError, "^bad pair$"),
            (_Unpicklable("odd", 3), RuntimeError, r"^_Unpicklable: odd \(3\)$"),
        ],
        ids=["picklable", "unpicklable"],
    )
    def test_a_child_exception_is_raised_in_the_parent(self, forks, monkeypatch, error, raised, message):
        parent = os.getpid()

        def compare(fa, fb, params):
            if os.getpid() != parent:
                raise error
            return 0.5, False

        models = _stub_measure(monkeypatch, compare)
        with pytest.raises(raised, match=message):
            distance_matrix(models, Measure.NODE, MatrixParams(workers=2))
        assert len(forks) == 1
        _no_child_left()

    def test_a_child_killed_by_a_signal_raises(self, forks, monkeypatch):
        parent = os.getpid()

        def compare(fa, fb, params):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return 0.5, False

        models = _stub_measure(monkeypatch, compare)
        with pytest.raises(RuntimeError, match="killed by signal 9"):
            distance_matrix(models, Measure.NODE, MatrixParams(workers=2))
        assert len(forks) == 1
        _no_child_left()

    def test_a_failing_parent_releases_a_child_blocked_on_its_pipe(self, forks, monkeypatch):
        # the child's 22,425 results outgrow the pipe buffer, so it blocks
        # writing them until the parent closes the read end; a parent that
        # reaped before closing would wait forever, which the alarm turns
        # into a failure
        parent = os.getpid()

        def compare(fa, fb, params):
            if os.getpid() == parent:
                time.sleep(0.3)  # long enough for the child to fill the pipe
                raise KeyError("parent side")
            return 0.5, False

        def hung(signum, frame):
            raise TimeoutError("distance_matrix did not return")

        models = _stub_measure(monkeypatch, compare)
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(30)
        try:
            with pytest.raises(KeyError, match="parent side"):
                distance_matrix(models, Measure.NODE, MatrixParams(workers=2))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert len(forks) == 1
        _no_child_left()


@lru_cache(maxsize=1)
def _ged_population(budget=300):
    """27 models, 9 skeletons with two relabeled copies each, and every pair's per-pair ``ged_similarity``."""
    from lpmgroup.ged import ged_similarity

    models = skeleton_copies(random.Random(73), 9, 2, max_transitions=6, max_places=4)
    return models, [ged_similarity(a, b, budget) for a, b in combinations(models, 2)]


class TestGedPairKeys:
    """``distance_matrix`` searches each distinct GED pair key once, and every
    pair keeps the value and flag of its own search."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_every_pair_equals_its_own_search(self, forks, monkeypatch, workers):
        from lpmgroup import ged

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        models, expected = _ged_population()
        searched, key_similarity = [], ged.key_similarity
        monkeypatch.setattr(ged, "key_similarity", lambda key: searched.append(key) or key_similarity(key))
        matrix = distance_matrix(models, Measure.GED, MatrixParams(ged_budget=300, workers=workers))
        cells = combinations(range(len(models)), 2)
        assert [matrix.values[i][j].hex() for i, j in cells] == [_quantized(1.0 - sim).hex() for sim, _ in expected]
        assert matrix.flags == bytes(not exact for _, exact in expected)
        assert len(forks) == workers - 1
        _no_child_left()
        if workers == 1:  # children search their keys in their own memory
            tables = [ged.ged_tables(m) for m in models]
            keys = [ged.search_key(a, b, 300) for a, b in combinations(tables, 2)]
            assert sorted(map(repr, searched)) == sorted(map(repr, set(keys)))
            assert len(searched) < len(keys) // 3  # the planted copies repeat keys
