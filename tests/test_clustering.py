"""Agglomeration, silhouette, sweeps, and representative projection."""

import random

import numpy as np
import pytest

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
from genmodels import chain_lpm, planted_groups
from oracles import oracle_medoid


def matrix_of(ids, entries) -> DistanceMatrix:
    n = len(ids)
    values = np.zeros((n, n))
    for (i, j), d in entries.items():
        values[i, j] = values[j, i] = d
    return DistanceMatrix(ids=tuple(ids), values=values, measure="fixture")


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


def random_matrix(rng, n) -> DistanceMatrix:
    values = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            values[i, j] = values[j, i] = round(rng.random(), 6)
    return DistanceMatrix(ids=tuple(f"m{i}" for i in range(n)), values=values, measure="rnd")


class TestAgglomerate:
    def test_three_point_fixture(self):
        clusters, steps = agglomerate(three_point(), ClusteringParams(threshold=0.5))
        assert clusters == (frozenset({"m1", "m2"}), frozenset({"m3"}))
        assert [s.distance for s in steps] == [0.1]

    def test_four_point_fixture(self):
        clusters, steps = agglomerate(four_point(), ClusteringParams(threshold=0.5))
        assert clusters == (frozenset({"m1", "m2"}), frozenset({"m3", "m4"}))
        assert [s.distance for s in steps] == [0.1, 0.2]

    def test_four_point_merges_fully_at_high_threshold(self):
        clusters, steps = agglomerate(four_point(), ClusteringParams(threshold=0.9))
        assert clusters == (frozenset({"m1", "m2", "m3", "m4"}),)
        assert [s.distance for s in steps] == [0.1, 0.2, 0.8]

    def test_zero_threshold_keeps_singletons(self):
        clusters, steps = agglomerate(three_point(), ClusteringParams(threshold=0.0))
        assert len(clusters) == 3 and not steps

    def test_threshold_one_merges_everything_below_one(self):
        clusters, _ = agglomerate(three_point(), ClusteringParams(threshold=1.0))
        assert clusters == (frozenset({"m1", "m2", "m3"}),)

    def test_merge_tie_breaks_toward_smallest_pair(self):
        matrix = matrix_of(
            ["a", "b", "c", "d"],
            {(0, 1): 0.1, (2, 3): 0.1, (0, 2): 0.9, (0, 3): 0.9, (1, 2): 0.9, (1, 3): 0.9},
        )
        _, steps = agglomerate(matrix, ClusteringParams(threshold=0.5))
        assert steps[0].first == frozenset({"a"}) and steps[0].second == frozenset({"b"})

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
        clusters = (frozenset({"m1", "m2"}), frozenset({"m3", "m4"}))
        score = silhouette(two_pairs(), clusters)
        assert score == pytest.approx((0.9 - 0.1) / 0.9, abs=1e-12)

    def test_all_singletons_is_undefined(self):
        clusters = tuple(frozenset({i}) for i in ["m1", "m2", "m3", "m4"])
        assert silhouette(two_pairs(), clusters) is None

    def test_single_cluster_is_undefined(self):
        assert silhouette(two_pairs(), (frozenset({"m1", "m2", "m3", "m4"}),)) is None

    def test_perfect_separation_scores_one(self):
        matrix = matrix_of(
            ["m1", "m2", "m3", "m4"],
            {(0, 1): 0.0, (2, 3): 0.0, (0, 2): 0.8, (0, 3): 0.8, (1, 2): 0.8, (1, 3): 0.8},
        )
        clusters = (frozenset({"m1", "m2"}), frozenset({"m3", "m4"}))
        assert silhouette(matrix, clusters) == 1.0

    def test_singleton_member_scores_zero(self):
        clusters = (frozenset({"m1", "m2"}), frozenset({"m3"}))
        score = silhouette(three_point(), clusters)
        # m1, m2: a=0.1, b=0.9 -> 8/9 each; m3 singleton -> 0
        assert score == pytest.approx((2 * (0.8 / 0.9)) / 3, abs=1e-12)

    def test_rejects_non_partition(self):
        with pytest.raises(ValueError):
            silhouette(three_point(), (frozenset({"m1"}),))


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
        assert result.selected.clusters == (frozenset({"m1", "m2", "m3"}),)

    def test_ties_resolve_toward_larger_threshold(self):
        result = sweep(two_pairs())
        same = [
            o
            for o in result.outcomes
            if o.silhouette is not None and o.silhouette == result.best.silhouette
        ]
        assert result.best.threshold == max(o.threshold for o in same)


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
        assert repr_rank(frozenset({"m3", "m9"}), ranked) == "m9"

    def test_repr_rank_singleton(self):
        ranked = self.rank_fixture()
        assert repr_rank(frozenset({"m1"}), ranked) == "m1"

    def test_repr_rank_equals_scan_minimum(self):
        ranked = self.rank_fixture()
        cluster = frozenset({"m5", "m2", "m8", "m3", "m7"})
        assert repr_rank(cluster, ranked) == min(cluster, key=ranked.rank)

    def test_repr_dist_singleton(self):
        assert repr_dist(frozenset({"m1"}), three_point()) == "m1"

    def test_repr_dist_hand_fixture(self):
        matrix = matrix_of(["x", "y", "z"], {(0, 1): 0.1, (0, 2): 0.1, (1, 2): 0.5})
        assert repr_dist(frozenset({"x", "y", "z"}), matrix) == "x"

    def test_repr_dist_matches_brute_force_medoid(self):
        rng = random.Random(83)
        for _ in range(20):
            n = rng.randint(2, 10)
            matrix = random_matrix(rng, n)
            cluster = frozenset(matrix.ids)
            assert repr_dist(cluster, matrix) == oracle_medoid(cluster, matrix)

    def test_one_representative_per_cluster(self):
        ranked = self.rank_fixture()
        ids = [f"m{i}" for i in range(1, 10)]
        matrix = random_matrix(random.Random(89), 9)
        matrix = DistanceMatrix(ids=tuple(ids), values=matrix.values, measure="rnd")
        clusters = (frozenset(ids[:3]), frozenset(ids[3:5]), frozenset(ids[5:]))
        for strategy in ("rank", "dist"):
            reps = representatives(clusters, strategy, ranked, matrix)
            assert len(reps) == len(clusters)
            for rep, cluster in zip(reps, clusters):
                assert rep in cluster

    def test_all_singletons_keep_every_model(self):
        ranked = self.rank_fixture()
        ids = [f"m{i}" for i in range(1, 10)]
        matrix = DistanceMatrix(
            ids=tuple(ids), values=random_matrix(random.Random(97), 9).values, measure="rnd"
        )
        clusters = tuple(frozenset({i}) for i in ids)
        assert set(representatives(clusters, "dist", ranked, matrix)) == set(ids)

    def test_planted_fixture_medoids(self):
        from lpmgroup import Measure, distance_matrix, sweep

        ranked = planted_groups(groups=3, copies=6)
        matrix = distance_matrix(ranked.models, Measure.TRANSITION)
        result = sweep(matrix)
        assert result.best is not None and len(result.best.clusters) == 3
        reps = representatives(result.best.clusters, "dist", ranked, matrix)
        assert len(set(reps)) == 3
