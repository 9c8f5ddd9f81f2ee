"""Top-n selection, mean pairwise distance, curves, diversity, rank mapping."""

import random

import pytest

from lpmgroup import (
    DEFAULT_DIVERSITY_NS,
    DistanceMatrix,
    Measure,
    RankedModelSet,
    distance_matrix,
    diversity_report,
    map_ranks,
    mean_pairwise_distance,
    reduction_curve,
    top_n,
)
from genmodels import chain_lpm, planted_groups, random_matrix
from oracles import oracle_mean_pairwise


def small_ranked(n=5) -> RankedModelSet:
    models = tuple(chain_lpm(f"m{i}", ["a", "b"]) for i in range(1, n + 1))
    return RankedModelSet(models=models, ranks={f"m{i}": i for i in range(1, n + 1)})


def pipeline_matrix(ranked) -> DistanceMatrix:
    """The transition matrix as the CLI computes it, at the CSV precision."""
    return distance_matrix(ranked.models, Measure.TRANSITION)


class TestTopN:
    def test_clamped_to_set_size(self):
        ranked = small_ranked(3)
        assert top_n(ranked, 5) == ("m1", "m2", "m3")

    def test_single_best(self):
        assert top_n(small_ranked(5), 1) == ("m1",)

    def test_matches_sort_oracle_on_shuffled_input(self):
        rng = random.Random(3)
        ids = [f"m{i}" for i in range(1, 11)]
        rng.shuffle(ids)
        models = tuple(chain_lpm(i, ["a"]) for i in ids)
        ranks = {i: int(i[1:]) for i in ids}
        ranked = RankedModelSet(models=models, ranks=ranks)
        expected = tuple(sorted(ids, key=ranks.get)[:10])
        assert top_n(ranked, 10) == expected

    def test_rejects_non_positive_n(self):
        with pytest.raises(ValueError):
            top_n(small_ranked(), 0)


class TestMeanPairwiseDistance:
    def test_identical_models(self):
        ranked = small_ranked(3)
        matrix = distance_matrix(ranked.models, Measure.TRANSITION)
        assert mean_pairwise_distance([m.id for m in ranked.models], matrix) == 0.0

    def test_single_pair(self):
        matrix = DistanceMatrix(("a", "b"), [0.4], "x")
        assert mean_pairwise_distance(["a", "b"], matrix) == 0.4

    def test_four_models_match_manual_enumeration(self):
        rng = random.Random(7)
        matrix = random_matrix(rng, 4, ids=["a", "b", "c", "d"])
        got = mean_pairwise_distance(["a", "b", "c", "d"], matrix)
        assert got == pytest.approx(oracle_mean_pairwise(["a", "b", "c", "d"], matrix), abs=1e-12)

    def test_permutation_invariant(self):
        rng = random.Random(11)
        matrix = random_matrix(rng, 5, ids=["a", "b", "c", "d", "e"])
        assert mean_pairwise_distance(["a", "b", "c", "d", "e"], matrix) == mean_pairwise_distance(
            ["e", "c", "a", "d", "b"], matrix
        )

    def test_below_two_models_is_undefined(self):
        rng = random.Random(13)
        matrix = random_matrix(rng, 2, ids=["a", "b"])
        assert mean_pairwise_distance(["a"], matrix) is None


class TestReductionCurve:
    def test_identical_models_reduce_to_one(self):
        models = tuple(chain_lpm(f"m{i}", ["a", "b"]) for i in range(1, 7))
        ranked = RankedModelSet(models=models, ranks={f"m{i}": i for i in range(1, 7)})
        curve = reduction_curve(ranked, Measure.TRANSITION, ns=[6], matrix=pipeline_matrix(ranked))
        assert curve.points[0].representative_count == 1
        assert curve.points[0].degenerate

    def test_planted_groups_recovered_at_each_n(self):
        ranked = planted_groups(groups=4, copies=5)
        curve = reduction_curve(ranked, Measure.TRANSITION, ns=[8, 20], matrix=pipeline_matrix(ranked))
        by_n = {p.n: p for p in curve.points}
        # top-8 covers groups 0 and 1; top-20 covers all four
        assert by_n[8].representative_count == 2
        assert by_n[20].representative_count == 4

    def test_count_never_exceeds_n(self):
        ranked = planted_groups(groups=3, copies=4)
        curve = reduction_curve(ranked, Measure.TRANSITION, ns=[1, 2, 5, 12, 100], matrix=pipeline_matrix(ranked))
        for point in curve.points:
            assert point.representative_count <= point.n
            assert point.model_count == min(point.n, len(ranked))

    def test_one_sweep_per_distinct_prefix(self, monkeypatch):
        import lpmgroup.clustering

        ranked = planted_groups(groups=3, copies=4)
        matrix = pipeline_matrix(ranked)
        ns = [5, 10, 20, 50, 100, 500]
        alone = [reduction_curve(ranked, Measure.TRANSITION, ns=[n], matrix=matrix).points[0] for n in ns]
        calls = []
        real_sweep = lpmgroup.clustering.sweep
        monkeypatch.setattr(lpmgroup.clustering, "sweep", lambda *a: calls.append(1) or real_sweep(*a))
        curve = reduction_curve(ranked, Measure.TRANSITION, ns=ns, matrix=matrix)
        assert list(curve.points) == alone
        assert len(calls) == 3  # prefixes of 5, 10 and all 12 models

    def test_matrix_must_cover_the_ranked_set(self):
        ranked = planted_groups(groups=2, copies=2)
        partial = pipeline_matrix(planted_groups(groups=2, copies=1))
        with pytest.raises(ValueError, match="does not cover"):
            reduction_curve(ranked, Measure.TRANSITION, ns=[2], matrix=partial)
        with pytest.raises(ValueError, match="does not cover"):
            diversity_report(ranked, ranked, Measure.TRANSITION, ns=[2], matrix=partial)


class TestDiversityReport:
    def test_identity_representatives_keep_means(self):
        ranked = planted_groups(groups=2, copies=3)
        report = diversity_report(ranked, ranked, Measure.TRANSITION, ns=[4], matrix=pipeline_matrix(ranked))
        entry = report.entries[0]
        assert entry.original_mean == entry.representative_mean

    def test_planted_fixture_increases_diversity(self):
        ranked = planted_groups(groups=3, copies=4, identical_head=2)
        # representatives: one per group, keeping their original ranks
        reps = ["g0c00", "g1c00", "g2c00"]
        report = diversity_report(ranked, ranked.subset(reps), Measure.TRANSITION, ns=[3], matrix=pipeline_matrix(ranked))
        entry = report.entries[0]
        # original top-3 is dominated by group-0 duplicates
        assert entry.representative_mean > entry.original_mean

    def test_default_ns(self):
        assert DEFAULT_DIVERSITY_NS == (5, 10, 50, 100)

    def test_rejects_foreign_representatives(self):
        ranked = small_ranked(4)
        foreign = RankedModelSet(models=(chain_lpm("zz", ["a"]),), ranks={"zz": 1})
        with pytest.raises(ValueError):
            diversity_report(ranked, foreign, Measure.TRANSITION, ns=[2], matrix=pipeline_matrix(ranked))

    def test_clamps_oversized_n(self):
        ranked = planted_groups(groups=2, copies=2)
        report = diversity_report(ranked, ranked, Measure.TRANSITION, ns=[50], matrix=pipeline_matrix(ranked))
        assert report.entries[0].original_count == 4


class TestMapRanks:
    def test_top_representatives(self):
        ranked = small_ranked(5)
        assert map_ranks(["m1", "m2", "m3"], ranked) == [1, 2, 3]

    def test_single_high_rank(self):
        models = tuple(chain_lpm(f"m{i}", ["a"]) for i in (1, 21))
        ranked = RankedModelSet(models=models, ranks={"m1": 1, "m21": 21})
        assert map_ranks(["m21"], ranked) == [21]

    def test_arbitrary_subset_sorted(self):
        ranked = small_ranked(9)
        assert map_ranks(["m7", "m2", "m5"], ranked) == [2, 5, 7]

    def test_rejects_unknown_ids(self):
        with pytest.raises(ValueError):
            map_ranks(["ghost"], small_ranked(3))
