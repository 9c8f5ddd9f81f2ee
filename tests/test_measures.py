"""Similarity measures against hand values and brute-force oracles."""

import random

import pytest

from lpmgroup import (
    SILENT,
    LabeledPetriNet,
    LocalProcessModel,
    Marking,
    Measure,
    distance,
    levenshtein,
    normalized_levenshtein,
    optimal_assignment,
    place_gain,
    sim_node,
    similarity,
)
from genmodels import chain_lpm, random_lpm, xor_lpm
from oracles import oracle_assignment, oracle_levenshtein

EMPTY = Marking()


def labeled(model_id: str, labels: list[str]) -> LocalProcessModel:
    return chain_lpm(model_id, labels)


class TestTransition:
    def test_identical_sets(self):
        assert similarity("transition", labeled("x", ["a", "b", "c"]), labeled("y", ["a", "b", "c"])) == 1.0

    def test_disjoint_sets(self):
        assert similarity("transition", labeled("x", ["a", "b"]), labeled("y", ["c", "d"])) == 0.0

    def test_half_overlap(self):
        assert similarity("transition", labeled("x", ["a", "b"]), labeled("y", ["b", "c"])) == 0.5

    def test_silent_labels_do_not_count(self):
        net = LabeledPetriNet(
            places={"p"}, transitions={"t", "s"},
            arcs=[("t", "p"), ("p", "s")], labels={"t": "a", "s": SILENT},
        )
        only_a = LocalProcessModel(id="sil", net=net, initial=EMPTY, final=EMPTY)
        assert similarity("transition", only_a, labeled("y", ["a"])) == 1.0

    def test_both_empty_label_sets(self):
        net = LabeledPetriNet(
            places={"p"}, transitions={"t"}, arcs=[("t", "p"), ("p", "t")], labels={"t": SILENT}
        )
        silent_only = LocalProcessModel(id="s", net=net, initial=EMPTY, final=EMPTY)
        assert similarity("transition", silent_only, silent_only) == 1.0

    def test_one_exactly_when_label_sets_equal(self):
        rng = random.Random(63)
        for k in range(40):
            a = random_lpm(rng, f"a{k}", max_transitions=5, max_places=4)
            b = random_lpm(rng, f"b{k}", max_transitions=5, max_places=4)
            equal_sets = a.net.activity_labels() == b.net.activity_labels()
            assert (similarity("transition", a, b) == 1.0) == equal_sets


class TestPlaceGain:
    def test_identical_surround(self):
        a = labeled("x", ["a", "b"])
        b = labeled("y", ["a", "b"])
        assert place_gain(a.net, "p0", b.net, "p0") == 1.0

    def test_half_gain(self):
        a = labeled("x", ["a", "b"])
        b = labeled("y", ["a", "c"])
        assert place_gain(a.net, "p0", b.net, "p0") == 0.5

    def test_disjoint_surround(self):
        a = labeled("x", ["a", "b"])
        b = labeled("y", ["c", "d"])
        assert place_gain(a.net, "p0", b.net, "p0") == 0.0

    def test_silent_counts_in_place_surround(self):
        net = LabeledPetriNet(
            places={"p"}, transitions={"t", "s"},
            arcs=[("t", "p"), ("p", "s")], labels={"t": "a", "s": SILENT},
        )
        silent_out = LocalProcessModel(id="s", net=net, initial=EMPTY, final=EMPTY)
        b = labeled("y", ["a", "b"])
        # presets match on {a}; postsets {SILENT} vs {b} are disjoint
        assert place_gain(silent_out.net, "p", b.net, "p0") == 0.5


class TestAssignment:
    def test_identity_optimum(self):
        result = optimal_assignment([[1.0, 0.0], [0.0, 1.0]])
        assert set(result.pairs) == {(0, 0), (1, 1)}
        assert result.total_gain == 2.0

    def test_single_cell(self):
        assert optimal_assignment([[0.5]]).total_gain == 0.5

    def test_rectangular_padding(self):
        result = optimal_assignment([[0.9, 0.1]])
        assert result.total_gain == 0.9
        assert len(result.pairs) == 1

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            optimal_assignment([[1.5]])

    def test_matches_permutation_oracle(self):
        rng = random.Random(21)
        for _ in range(100):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            gains = [[rng.random() for _ in range(cols)] for _ in range(rows)]
            assert optimal_assignment(gains).total_gain == pytest.approx(
                oracle_assignment(gains), abs=1e-12
            )


class TestLevenshtein:
    def test_equal_traces(self):
        assert normalized_levenshtein(("a", "b", "c"), ("a", "b", "c")) == 0.0

    def test_all_insertions(self):
        assert normalized_levenshtein((), ("a",)) == 1.0

    def test_single_substitution(self):
        assert normalized_levenshtein(("a", "b"), ("a", "c")) == 0.5

    def test_both_empty(self):
        assert normalized_levenshtein((), ()) == 0.0

    def test_matches_recursive_oracle(self):
        rng = random.Random(8)
        alphabet = ["a", "b", "c"]
        for _ in range(200):
            t1 = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))
            t2 = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))
            assert levenshtein(t1, t2) == oracle_levenshtein(t1, t2)

    def test_triangle_inequality_on_raw_costs(self):
        rng = random.Random(17)
        alphabet = ["a", "b"]
        for _ in range(100):
            traces = [
                tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 5))) for _ in range(3)
            ]
            x, y, z = traces
            assert levenshtein(x, z) <= levenshtein(x, y) + levenshtein(y, z)


class TestNode:
    def test_identical_model(self):
        a = labeled("x", ["a", "b"])
        assert sim_node(a, a) == 1.0

    def test_hand_evaluated_half(self):
        a = chain_lpm("x", ["a", "b"])
        b = chain_lpm("y", ["a", "c"])
        assert sim_node(a, b) == 0.5

    def test_disjoint_no_places(self):
        na = LabeledPetriNet(places=set(), transitions={"t"}, arcs=[], labels={"t": "a"})
        nb = LabeledPetriNet(places=set(), transitions={"t"}, arcs=[], labels={"t": "b"})
        a = LocalProcessModel(id="x", net=na, initial=EMPTY, final=EMPTY)
        b = LocalProcessModel(id="y", net=nb, initial=EMPTY, final=EMPTY)
        assert sim_node(a, b) == 0.0


class TestEfg:
    def test_identical_model(self):
        a = labeled("x", ["a", "b"])
        assert similarity("efg", a, a, bound=5) == 1.0

    def test_opposite_order(self):
        assert similarity("efg", labeled("x", ["a", "b"]), labeled("y", ["b", "a"]), bound=5) == 0.0

    def test_two_thirds(self):
        choice = xor_lpm("x", "a", ["b", "c"])  # EF = {(a,b), (a,c)}
        chain = labeled("y", ["a", "b"])  # EF = {(a,b)}
        assert similarity("efg", choice, chain, bound=5) == pytest.approx(2 / 3)


class TestFull:
    def test_identical_single_trace_language(self):
        a = labeled("x", ["a", "b"])
        assert similarity("full", a, a, bound=5) == 1.0

    def test_disjoint_languages(self):
        assert similarity("full", labeled("x", ["a", "b"]), labeled("y", ["c", "d"]), bound=5) == 0.0

    def test_two_thirds(self):
        chain = labeled("x", ["a", "b"])
        choice = xor_lpm("y", "a", ["b", "c"])  # language {ab, ac}
        assert similarity("full", chain, choice, bound=5) == pytest.approx(2 / 3)

    def test_one_empty_language(self):
        lpm = chain_lpm("x", ["a", "b"])
        dead = LocalProcessModel(id="d", net=lpm.net, initial=lpm.initial, final=Marking(["p0", "p0"]))
        assert similarity("full", lpm, dead, bound=5) == 0.0


class TestAxiomsAndDistance:
    MEASURES = list(Measure)

    def test_distance_is_one_minus_similarity(self):
        a = labeled("x", ["a", "b"])
        b = labeled("y", ["b", "c"])
        assert distance(Measure.TRANSITION, a, a) == 0.0
        assert distance(Measure.TRANSITION, a, b) == 0.5
        assert distance(Measure.EFG, labeled("x", ["a", "b"]), labeled("y", ["b", "a"]), bound=5) == 1.0

    def test_symmetry_range_and_identity(self):
        rng = random.Random(31)
        models = [random_lpm(rng, f"m{k}", max_transitions=5, max_places=4) for k in range(12)]
        for measure in self.MEASURES:
            kwargs = dict(bound=4, ged_budget=100_000)
            for m in models:
                assert similarity(measure, m, m, **kwargs) == pytest.approx(1.0)
            for _ in range(12):
                a, b = rng.sample(models, 2)
                s_ab = similarity(measure, a, b, **kwargs)
                s_ba = similarity(measure, b, a, **kwargs)
                assert s_ab == s_ba  # bit-exact symmetry
                assert 0.0 <= s_ab <= 1.0
