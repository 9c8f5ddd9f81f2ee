"""Agglomeration, silhouette, sweeps, and representative projection."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpmgroup import (
    ClusteringParams,
    DistanceMatrix,
    RankedModelSet,
    agglomerate,
    check_partition,
    repr_dist,
    repr_rank,
    representatives,
    silhouette,
    sweep,
)
from lpmgroup.clustering import DEFAULT_THRESHOLDS, _merges
from genmodels import chain_lpm, matrix_of, planted_groups, random_matrix, square_matrix
from oracles import (
    numpy_merges,
    numpy_silhouette,
    oracle_complete_linkage,
    oracle_medoid,
    oracle_silhouette,
)


def three_point() -> DistanceMatrix:
    return matrix_of(["m1", "m2", "m3"], {(0, 1): 0.1, (0, 2): 0.9, (1, 2): 0.9})


def four_point() -> DistanceMatrix:
    return matrix_of(
        ["m1", "m2", "m3", "m4"],
        {(0, 1): 0.1, (2, 3): 0.2, (0, 2): 0.8, (0, 3): 0.8, (1, 2): 0.8, (1, 3): 0.8},
    )


def two_pairs() -> DistanceMatrix:
    return matrix_of(
        ["m1", "m2", "m3", "m4"],
        {(0, 1): 0.1, (2, 3): 0.1, (0, 2): 0.9, (0, 3): 0.9, (1, 2): 0.9, (1, 3): 0.9},
    )


class TestAgglomerate:
    def test_three_point_fixture(self):
        clusters, steps = agglomerate(three_point(), ClusteringParams(threshold=0.5))
        assert clusters == (("m1", "m2"), ("m3",))
        assert [s.distance for s in steps] == [0.1]

    def test_four_point_fixture(self):
        clusters, steps = agglomerate(four_point(), ClusteringParams(threshold=0.5))
        assert clusters == (("m1", "m2"), ("m3", "m4"))
        assert [s.distance for s in steps] == [0.1, 0.2]

    def test_four_point_merges_fully_at_high_threshold(self):
        clusters, steps = agglomerate(four_point(), ClusteringParams(threshold=0.9))
        assert clusters == (("m1", "m2", "m3", "m4"),)
        assert [s.distance for s in steps] == [0.1, 0.2, 0.8]

    def test_zero_threshold_keeps_singletons(self):
        clusters, steps = agglomerate(three_point(), ClusteringParams(threshold=0.0))
        assert len(clusters) == 3 and not steps

    def test_threshold_one_merges_everything_below_one(self):
        clusters, _ = agglomerate(three_point(), ClusteringParams(threshold=1.0))
        assert clusters == (("m1", "m2", "m3"),)

    def test_merge_tie_breaks_toward_smallest_pair(self):
        matrix = matrix_of(
            ["a", "b", "c", "d"],
            {(0, 1): 0.1, (2, 3): 0.1, (0, 2): 0.9, (0, 3): 0.9, (1, 2): 0.9, (1, 3): 0.9},
        )
        _, steps = agglomerate(matrix, ClusteringParams(threshold=0.5))
        assert (steps[0].first, steps[0].second) == (0, 1)  # the rows of a and b

    def test_output_is_a_partition_and_merges_monotone(self):
        rng = random.Random(71)
        for _ in range(20):
            matrix = random_matrix(rng, rng.randint(3, 12))
            threshold = rng.random()
            clusters, steps = agglomerate(matrix, ClusteringParams(threshold=threshold))
            check_partition(clusters, matrix.ids)
            distances = [s.distance for s in steps]
            assert distances == sorted(distances)
            assert all(d < threshold for d in distances)

    def test_cluster_count_non_increasing_in_threshold(self):
        rng = random.Random(73)
        for _ in range(20):
            matrix = random_matrix(rng, rng.randint(3, 10))
            counts = [
                len(agglomerate(matrix, ClusteringParams(threshold=round(0.1 * k, 1)))[0])
                for k in range(1, 11)
            ]
            assert counts == sorted(counts, reverse=True)


class TestSilhouette:
    def test_two_pair_fixture_matches_manual_arithmetic(self):
        clusters = (("m1", "m2"), ("m3", "m4"))
        score = silhouette(two_pairs(), clusters)
        assert score == pytest.approx((0.9 - 0.1) / 0.9, abs=1e-12)

    def test_all_singletons_is_undefined(self):
        clusters = tuple((i,) for i in ["m1", "m2", "m3", "m4"])
        assert silhouette(two_pairs(), clusters) is None

    def test_single_cluster_is_undefined(self):
        assert silhouette(two_pairs(), (("m1", "m2", "m3", "m4"),)) is None

    def test_perfect_separation_scores_one(self):
        matrix = matrix_of(
            ["m1", "m2", "m3", "m4"],
            {(0, 1): 0.0, (2, 3): 0.0, (0, 2): 0.8, (0, 3): 0.8, (1, 2): 0.8, (1, 3): 0.8},
        )
        clusters = (("m1", "m2"), ("m3", "m4"))
        assert silhouette(matrix, clusters) == 1.0

    def test_singleton_member_scores_zero(self):
        clusters = (("m1", "m2"), ("m3",))
        score = silhouette(three_point(), clusters)
        # m1, m2: a=0.1, b=0.9 -> 8/9 each; m3 singleton -> 0
        assert score == pytest.approx((2 * (0.8 / 0.9)) / 3, abs=1e-12)

    def test_rejects_non_partition(self):
        with pytest.raises(ValueError):
            silhouette(three_point(), (("m1",),))

    def test_shuffled_members_give_the_sweep_silhouette_bit_for_bit(self):
        rng = random.Random(109)
        for _ in range(40):
            matrix = random_matrix(rng, rng.randint(3, 20))
            for outcome in sweep(matrix).outcomes:
                shuffled = [tuple(rng.sample(cluster, len(cluster))) for cluster in outcome.clusters]
                rng.shuffle(shuffled)
                got = silhouette(matrix, tuple(shuffled))
                assert (got is None and outcome.silhouette is None) or got.hex() == outcome.silhouette.hex()


class TestCheckPartition:
    IDS = ("m1", "m2", "m3")

    def test_accepts_a_partition_in_any_order(self):
        check_partition((("m3", "m1"), ("m2",)), self.IDS)

    @pytest.mark.parametrize(
        "clusters, message",
        [
            ((("m1", "m1"), ("m2", "m3")), "more than once"),
            ((("m1", "m2"), ("m2", "m3")), "more than once"),
            ((("m1", "m2"), ()), "empty cluster"),
            ((("m1", "m2"),), "do not cover"),
            ((("m1", "m2"), ("m3", "m4")), "do not cover"),
        ],
        ids=["repeated-inside", "shared", "empty", "missing", "unknown"],
    )
    def test_rejects(self, clusters, message):
        with pytest.raises(ValueError, match=message):
            check_partition(clusters, self.IDS)
        with pytest.raises(ValueError, match=message):
            silhouette(three_point(), clusters)


class TestSweep:
    def test_default_thresholds(self):
        from lpmgroup import DEFAULT_THRESHOLDS

        assert DEFAULT_THRESHOLDS == (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)

    def test_recovers_planted_clusters(self):
        rng = random.Random(79)
        ids = [f"m{i}" for i in range(12)]
        group = {i: i % 3 for i in range(12)}
        entries = {}
        for i in range(12):
            for j in range(i + 1, 12):
                entries[(i, j)] = round(rng.uniform(0.0, 0.05), 6) if group[i] == group[j] else round(
                    rng.uniform(0.8, 0.9), 6
                )
        result = sweep(matrix_of(ids, entries))
        assert result.best is not None
        assert len(result.best.clusters) == 3

    def test_identical_models_fall_back_to_single_cluster(self):
        matrix = matrix_of(["m1", "m2", "m3"], {})
        result = sweep(matrix)
        assert result.all_degenerate
        assert result.selected.clusters == (("m1", "m2", "m3"),)

    def test_ties_resolve_toward_larger_threshold(self):
        from lpmgroup import DEFAULT_THRESHOLDS

        for thresholds in (DEFAULT_THRESHOLDS, (1.0, 0.5, 0.3, 0.2)):
            result = sweep(two_pairs(), thresholds)
            same = [
                o
                for o in result.outcomes
                if o.silhouette is not None and o.silhouette == result.best.silhouette
            ]
            assert result.best.threshold == max(o.threshold for o in same)

    def test_every_threshold_equals_agglomerate_and_oracle(self):
        from lpmgroup import DEFAULT_THRESHOLDS

        rng = random.Random(101)
        for _ in range(30):
            matrix = random_matrix(rng, rng.randint(2, 15), decimals=1)
            thresholds = DEFAULT_THRESHOLDS + tuple(rng.random() for _ in range(3))
            result = sweep(matrix, thresholds)
            for threshold, outcome in zip(thresholds, result.outcomes):
                clusters, steps = agglomerate(matrix, ClusteringParams(threshold=threshold))
                oracle_clusters, oracle_distances = oracle_complete_linkage(matrix, threshold)
                assert outcome.threshold == threshold
                assert outcome.clusters == clusters == oracle_clusters
                assert [s.distance for s in steps] == oracle_distances


    def test_fine_thresholds_equal_agglomerate_and_silhouette(self):
        # thresholds a thousandth apart, and every entry of the matrix, where
        # a merge at exactly that distance must stay out; shuffled
        rng = random.Random(107)
        matrix = random_matrix(rng, 12)
        thresholds = [round(k * 1e-3, 3) for k in range(1001)] + [x for row in matrix.values for x in row]
        rng.shuffle(thresholds)
        result = sweep(matrix, thresholds)
        for threshold, outcome in zip(thresholds, result.outcomes):
            clusters, _ = agglomerate(matrix, ClusteringParams(threshold=threshold))
            assert outcome == (threshold, clusters, silhouette(matrix, clusters))

    def test_every_silhouette_equals_point_by_point_oracle(self):
        """Bit for bit, not approximately: sweep.json prints silhouettes at
        full precision."""
        rng = random.Random(103)
        for k in range(60):
            drawn = random_matrix(rng, rng.randint(3, 30), decimals=(1, 2, 6)[k % 3])
            ids = list(drawn.ids)
            rng.shuffle(ids)
            matrix = square_matrix(ids, drawn.values, "rnd")
            for outcome in sweep(matrix).outcomes:
                expected = oracle_silhouette(matrix, outcome.clusters)
                assert silhouette(matrix, outcome.clusters) == outcome.silhouette == expected


class TestRepresentatives:
    def rank_fixture(self):
        models = [chain_lpm(f"m{i}", ["a", "b"]) for i in range(1, 10)]
        ranks = {f"m{i}": i for i in range(1, 10)}
        return RankedModelSet(models=tuple(models), ranks=ranks)

    def test_repr_rank_picks_best_rank(self):
        ranked = RankedModelSet(
            models=(chain_lpm("m3", ["a"]), chain_lpm("m9", ["a"])),
            ranks={"m3": 7, "m9": 2},
        )
        assert repr_rank(("m3", "m9"), ranked) == "m9"

    @pytest.mark.parametrize("bad", [True, 0, -1, 1.0, "1"])
    def test_ranks_must_be_positive_ints_and_not_bools(self, bad):
        models = (chain_lpm("m1", ["a"]), chain_lpm("m2", ["a"]))
        with pytest.raises(ValueError, match="positive integers"):
            RankedModelSet(models=models, ranks={"m1": bad, "m2": 2})

    def test_repr_rank_singleton(self):
        ranked = self.rank_fixture()
        assert repr_rank(("m1",), ranked) == "m1"

    def test_repr_rank_equals_scan_minimum(self):
        ranked = self.rank_fixture()
        cluster = ("m5", "m2", "m8", "m3", "m7")
        assert repr_rank(cluster, ranked) == min(cluster, key=ranked.rank)

    def test_repr_dist_singleton(self):
        assert repr_dist(("m1",), three_point()) == "m1"

    def test_repr_dist_hand_fixture(self):
        matrix = matrix_of(["x", "y", "z"], {(0, 1): 0.1, (0, 2): 0.1, (1, 2): 0.5})
        assert repr_dist(("x", "y", "z"), matrix) == "x"

    def test_repr_dist_matches_brute_force_medoid(self):
        rng = random.Random(83)
        for _ in range(20):
            n = rng.randint(2, 10)
            matrix = random_matrix(rng, n)
            cluster = matrix.ids
            assert repr_dist(cluster, matrix) == oracle_medoid(cluster, matrix)

    def test_repr_dist_adds_each_mean_in_sorted_id_order(self):
        # rows run d, c, b, a. In id order a's distances 0.1, 0.2, 0.3 add up to
        # 0.6000000000000001 and b's 0.1, 0.5, 0.0 to 0.6, so b is the medoid.
        # In row order both add up to 0.6, and the tie would go to a.
        matrix = matrix_of(["d", "c", "b", "a"], {(0, 1): 1.0, (0, 3): 0.3, (1, 2): 0.5, (1, 3): 0.2, (2, 3): 0.1})
        ranked = RankedModelSet(models=tuple(chain_lpm(i, ["a"]) for i in "abcd"), ranks={"a": 1, "b": 2, "c": 3, "d": 4})
        for cluster in (tuple("abcd"), tuple("dcba"), tuple("bdac")):
            assert repr_dist(cluster, matrix) == repr_dist(cluster, matrix, ranked) == "b"
            assert oracle_medoid(cluster, matrix) == "b"

    def test_one_representative_per_cluster(self):
        ranked = self.rank_fixture()
        ids = [f"m{i}" for i in range(1, 10)]
        matrix = random_matrix(random.Random(89), 9, ids=ids)
        clusters = (tuple(ids[:3]), tuple(ids[3:5]), tuple(ids[5:]))
        for strategy in ("rank", "dist"):
            reps = representatives(clusters, strategy, ranked, matrix)
            assert len(reps) == len(clusters)
            for rep, cluster in zip(reps, clusters):
                assert rep in cluster

    def test_all_singletons_keep_every_model(self):
        ranked = self.rank_fixture()
        ids = [f"m{i}" for i in range(1, 10)]
        matrix = random_matrix(random.Random(97), 9, ids=ids)
        clusters = tuple((i,) for i in ids)
        assert set(representatives(clusters, "dist", ranked, matrix)) == set(ids)

    def test_planted_fixture_medoids(self):
        from lpmgroup import Measure, distance_matrix, sweep

        ranked = planted_groups(groups=3, copies=6)
        matrix = distance_matrix(ranked.models, Measure.TRANSITION)
        result = sweep(matrix)
        assert result.best is not None and len(result.best.clusters) == 3
        reps = representatives(result.best.clusters, "dist", ranked, matrix)
        assert len(set(reps)) == 3


@st.composite
def drawn_matrices(draw) -> DistanceMatrix:
    """Any floats in [0, 1], or tie-heavy multiples k/q of one step 1/q."""
    n = draw(st.integers(2, 14))
    q = draw(st.sampled_from([None, 2, 3, 4, 10, 1000]))
    cell = st.floats(0.0, 1.0) if q is None else st.integers(0, q).map(lambda k: k / q)
    cells = [draw(cell) for _ in range(n * (n - 1) // 2)]
    return DistanceMatrix(tuple(f"m{i}" for i in range(n)), cells, "drawn")


class TestClusterOrder:
    @settings(max_examples=300, database=None, derandomize=True, deadline=None)
    @given(data=st.data(), threshold=st.sampled_from((0.0,) + DEFAULT_THRESHOLDS))
    def test_clusters_list_rows_in_order_and_equal_the_oracle(self, data, threshold):
        # ids drawn in a shuffled order, so that row order is not name order
        drawn = data.draw(drawn_matrices())
        ids = tuple(data.draw(st.permutations(drawn.ids)))
        matrix = square_matrix(ids, drawn.values, drawn.measure)
        row = dict(zip(ids, range(len(ids))))
        clusters, steps = agglomerate(matrix, ClusteringParams(threshold=threshold))
        assert sweep(matrix, (threshold,)).outcomes[0].clusters == clusters
        assert clusters == oracle_complete_linkage(matrix, threshold)[0]
        rows = [[row[model_id] for model_id in cluster] for cluster in clusters]
        assert all(members == sorted(members) for members in rows)
        assert [members[0] for members in rows] == sorted(members[0] for members in rows)
        assert all(step.first < step.second for step in steps)


class TestNumpyOracle:
    """The pure-Python agglomeration, silhouette and rounding against the
    numpy code they replaced, bit for bit."""

    @settings(max_examples=300, database=None, derandomize=True, deadline=None)
    @given(matrix=drawn_matrices(), below=st.sampled_from(DEFAULT_THRESHOLDS))
    def test_merges_and_silhouettes_equal_numpy(self, matrix, below):
        def bits(steps):
            return [(s.first, s.second, s.distance.hex()) for s in steps]

        assert bits(_merges(matrix, below)) == bits(numpy_merges(matrix, below))
        for outcome in sweep(matrix).outcomes:
            expected = numpy_silhouette(matrix, outcome.clusters)
            got = outcome.silhouette
            assert (got is None and expected is None) or got.hex() == expected.hex()

    @settings(max_examples=300, database=None, derandomize=True, deadline=None)
    @given(
        cells=st.lists(
            st.one_of(st.floats(0.0, 1.0), st.integers(0, 2_000_000).map(lambda k: k / 2e6)),
            min_size=1,
            max_size=20,
        )
    )
    def test_rounded_equals_numpy_round(self, cells):
        # k / 2e6 hits every half-way point of the sixth decimal
        ids = tuple(f"m{i}" for i in range(len(cells) + 1))
        matrix = matrix_of(ids, {(0, k + 1): cell for k, cell in enumerate(cells)}, "drawn")
        want = np.round(np.asarray(matrix.values), 6).tolist()
        got = matrix.rounded().values
        assert [[x.hex() for x in row] for row in got] == [[x.hex() for x in row] for row in want]
