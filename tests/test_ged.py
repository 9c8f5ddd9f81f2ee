"""Graph edit distance: spec values, oracle equality, budget behavior."""

import random

import pytest

from lpmgroup import (
    LabeledPetriNet,
    LocalProcessModel,
    Marking,
    ged_raw,
    similarity,
)
from genmodels import chain_lpm, random_lpm
from oracles import oracle_ged

EMPTY = Marking()


def single_transition(model_id: str, label: str) -> LocalProcessModel:
    net = LabeledPetriNet(places=set(), transitions={"t"}, arcs=[], labels={"t": label})
    return LocalProcessModel(id=model_id, net=net, initial=EMPTY, final=EMPTY)


class TestGedRaw:
    def test_identity_costs_nothing(self):
        a = chain_lpm("a", ["x", "y", "z"])
        result = ged_raw(a, a)
        assert result.cost == 0.0 and result.exact

    def test_single_substitution_beats_delete_insert(self):
        result = ged_raw(single_transition("a", "a"), single_transition("b", "b"))
        assert result.cost == 1.0 and result.exact

    def test_chain_extension_costs_four(self):
        a = chain_lpm("a", ["a", "b"])
        b = chain_lpm("b", ["a", "b", "c"])
        result = ged_raw(a, b)
        assert result.cost == pytest.approx(4.0) and result.exact

    def test_empty_net_pays_full_insertion(self):
        empty_net = LabeledPetriNet(places=set(), transitions=set(), arcs=[], labels={})
        empty = LocalProcessModel(id="e", net=empty_net, initial=EMPTY, final=EMPTY)
        b = chain_lpm("b", ["a", "b", "c"])
        result = ged_raw(empty, b)
        assert result.cost == float(b.net.size) and result.exact
        assert similarity("ged", empty, b) == 0.0

    def test_matches_exhaustive_mapping_oracle(self):
        rng = random.Random(23)
        for k in range(20):
            a = random_lpm(rng, f"a{k}", max_transitions=3, max_places=3)
            b = random_lpm(rng, f"b{k}", max_transitions=3, max_places=3)
            result = ged_raw(a, b)
            assert result.exact
            assert result.cost == pytest.approx(oracle_ged(a, b), abs=1e-9)

    def test_symmetric_even_when_approximate(self):
        rng = random.Random(29)
        for k in range(10):
            a = random_lpm(rng, f"a{k}", max_transitions=7, max_places=5)
            b = random_lpm(rng, f"b{k}", max_transitions=7, max_places=5)
            lo = ged_raw(a, b, budget=40)
            hi = ged_raw(b, a, budget=40)
            assert lo.cost == hi.cost and lo.exact == hi.exact

    def test_budget_exhaustion_flags_and_bounds(self):
        rng = random.Random(37)
        a = random_lpm(rng, "a", max_transitions=8, max_places=6)
        b = random_lpm(rng, "b", max_transitions=8, max_places=6)
        tight = ged_raw(a, b, budget=5)
        assert not tight.exact
        assert tight.cost <= a.net.size + b.net.size  # never worse than rebuild
        exact = ged_raw(a, b, budget=10_000_000)
        if exact.exact:
            assert exact.cost <= tight.cost + 1e-12

    # (cost, exact) at each of BUDGETS for seed-43 random_lpm pairs
    BUDGETS = (10, 40, 100, 600, 25_000)
    BUDGET_PINS = [
        [(22.0, False), (22.0, False), (22.0, False), (22.0, True), (22.0, True)],
        [(28.75, False), (28.75, False), (28.75, False), (28.75, False), (28.75, False)],
        [(19.0, True), (19.0, True), (19.0, True), (19.0, True), (19.0, True)],
        [(22.0, False), (22.0, False), (21.0, False), (21.0, False), (21.0, True)],
        [(24.0, False), (23.0, False), (23.0, False), (21.0, False), (21.0, True)],
        [(13.0, False), (12.0, False), (11.0, False), (11.0, True), (11.0, True)],
        [(16.4, False), (16.4, False), (16.4, False), (16.4, False), (16.4, True)],
        [(33.0, False), (33.0, False), (33.0, False), (33.0, False), (33.0, False)],
        [(12.0, True), (12.0, True), (12.0, True), (12.0, True), (12.0, True)],
        [(30.0, False), (30.0, False), (28.0, False), (27.0, False), (25.0, True)],
        [(23.75, False), (23.75, False), (23.75, False), (23.5, False), (22.25, False)],
        [(46 / 3, False), (46 / 3, True), (46 / 3, True), (46 / 3, True), (46 / 3, True)],
    ]

    def test_budget_semantics_are_pinned(self):
        """Candidate order, expansion counting and pruning decide where an
        exhausted search stops; pin the result at several budgets."""
        rng = random.Random(43)
        approx_at = dict.fromkeys(self.BUDGETS, 0)
        for k, pins in enumerate(self.BUDGET_PINS):
            a = random_lpm(rng, f"a{k}", max_transitions=8, max_places=6)
            b = random_lpm(rng, f"b{k}", max_transitions=8, max_places=6)
            for budget, (cost, exact) in zip(self.BUDGETS, pins):
                result = ged_raw(a, b, budget=budget)
                assert (result.cost, result.exact) == (pytest.approx(cost, abs=1e-9), exact), (k, budget)
                approx_at[budget] += not result.exact
        assert approx_at[40] > 0 and approx_at[600] > 0


class TestSimGed:
    def test_self_similarity(self):
        a = chain_lpm("a", ["x", "y"])
        assert similarity("ged", a, a) == 1.0

    def test_disjoint_single_transitions(self):
        assert similarity("ged", single_transition("a", "a"), single_transition("b", "b")) == 0.5

    def test_range_is_clamped(self):
        rng = random.Random(41)
        for k in range(10):
            a = random_lpm(rng, f"a{k}", max_transitions=4, max_places=3)
            b = random_lpm(rng, f"b{k}", max_transitions=4, max_places=3)
            assert 0.0 <= similarity("ged", a, b, ged_budget=500) <= 1.0
