"""Graph edit distance: spec values, oracle equality, budget behavior."""

import random
from itertools import combinations, compress

import pytest

from lpmgroup import (
    GedResult,
    LabeledPetriNet,
    LocalProcessModel,
    Marking,
    distance_matrix,
    ged_raw,
    similarity,
)
from lpmgroup.ged import _GedSearch, _pair_input, ged_tables, search_key, searched
from lpmgroup.measures import left_sum
from genmodels import chain_lpm, random_lpm, relabeled, skeleton_copies
from oracles import oracle_ged

EMPTY = Marking()


def single_transition(model_id: str, label: str) -> LocalProcessModel:
    net = LabeledPetriNet(places=set(), transitions={"t"}, arcs=[], labels={"t": label})
    return LocalProcessModel(id=model_id, net=net, initial=EMPTY, final=EMPTY)


class TestGedRaw:
    def test_identity_costs_nothing(self):
        a = chain_lpm("a", ["x", "y", "z"])
        result = ged_raw(a, a)
        assert result.cost == 0.0 and result.exact and result.expansions == 0

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

    # float.hex of the cost and the exact flag at each of HEX_BUDGETS for
    # seed-47 random_lpm pairs: a regrouped sum that moves the last bit of a
    # cost fails here while the 1e-9 pins above still hold
    HEX_BUDGETS = (40, 600, 5000, 25_000)
    HEX_PINS = [
        [("0x1.c000000000000p+3", False), ("0x1.c000000000000p+3", True), ("0x1.c000000000000p+3", True), ("0x1.c000000000000p+3", True)],
        [("0x1.0000000000000p+4", False), ("0x1.e000000000000p+3", True), ("0x1.e000000000000p+3", True), ("0x1.e000000000000p+3", True)],
        [("0x1.caaaaaaaaaaabp+4", False), ("0x1.baaaaaaaaaaabp+4", False), ("0x1.baaaaaaaaaaabp+4", False), ("0x1.baaaaaaaaaaabp+4", False)],
        [("0x1.7000000000000p+4", False), ("0x1.6000000000000p+4", False), ("0x1.5d55555555555p+4", True), ("0x1.5d55555555555p+4", True)],
        [("0x1.0555555555555p+5", False), ("0x1.0155555555555p+5", False), ("0x1.eaaaaaaaaaaaap+4", False), ("0x1.eaaaaaaaaaaaap+4", False)],
        [("0x1.919999999999ap+4", False), ("0x1.919999999999ap+4", False), ("0x1.919999999999ap+4", False), ("0x1.82aaaaaaaaaabp+4", False)],
        [("0x1.2000000000000p+4", False), ("0x1.0000000000000p+4", True), ("0x1.0000000000000p+4", True), ("0x1.0000000000000p+4", True)],
        [("0x1.5aaaaaaaaaaabp+4", False), ("0x1.5aaaaaaaaaaabp+4", False), ("0x1.5aaaaaaaaaaabp+4", True), ("0x1.5aaaaaaaaaaabp+4", True)],
        [("0x1.4000000000000p+3", False), ("0x1.4000000000000p+3", True), ("0x1.4000000000000p+3", True), ("0x1.4000000000000p+3", True)],
        [("0x1.24aaaaaaaaaabp+4", False), ("0x1.24aaaaaaaaaabp+4", False), ("0x1.24aaaaaaaaaabp+4", False), ("0x1.24aaaaaaaaaabp+4", True)],
        [("0x1.2d55555555556p+4", False), ("0x1.1a00000000000p+4", False), ("0x1.1a00000000000p+4", True), ("0x1.1a00000000000p+4", True)],
        [("0x1.1d55555555556p+4", False), ("0x1.1d55555555556p+4", True), ("0x1.1d55555555556p+4", True), ("0x1.1d55555555556p+4", True)],
        [("0x1.d800000000000p+4", False), ("0x1.d800000000000p+4", False), ("0x1.d800000000000p+4", False), ("0x1.c000000000000p+4", False)],
        [("0x1.32aaaaaaaaaabp+4", False), ("0x1.32aaaaaaaaaabp+4", False), ("0x1.32aaaaaaaaaabp+4", False), ("0x1.32aaaaaaaaaabp+4", False)],
        [("0x1.9400000000000p+4", False), ("0x1.8400000000000p+4", False), ("0x1.7aaaaaaaaaaaap+4", True), ("0x1.7aaaaaaaaaaaap+4", True)],
        [("0x1.8333333333333p+4", False), ("0x1.8333333333333p+4", False), ("0x1.8333333333333p+4", False), ("0x1.7000000000000p+4", False)],
        [("0x1.4000000000000p+3", True), ("0x1.4000000000000p+3", True), ("0x1.4000000000000p+3", True), ("0x1.4000000000000p+3", True)],
        [("0x1.c333333333333p+4", False), ("0x1.c333333333333p+4", False), ("0x1.c333333333333p+4", False), ("0x1.c333333333333p+4", False)],
        [("0x1.3000000000000p+3", True), ("0x1.3000000000000p+3", True), ("0x1.3000000000000p+3", True), ("0x1.3000000000000p+3", True)],
        [("0x1.9000000000000p+4", True), ("0x1.9000000000000p+4", True), ("0x1.9000000000000p+4", True), ("0x1.9000000000000p+4", True)],
        [("0x1.d200000000000p+4", False), ("0x1.d200000000000p+4", False), ("0x1.d000000000000p+4", False), ("0x1.c000000000000p+4", False)],
        [("0x1.6000000000000p+4", False), ("0x1.5000000000000p+4", False), ("0x1.5000000000000p+4", True), ("0x1.5000000000000p+4", True)],
        [("0x1.4000000000000p+3", True), ("0x1.4000000000000p+3", True), ("0x1.4000000000000p+3", True), ("0x1.4000000000000p+3", True)],
        [("0x1.1000000000000p+4", False), ("0x1.0000000000000p+4", False), ("0x1.0000000000000p+4", True), ("0x1.0000000000000p+4", True)],
        [("0x1.f000000000000p+4", False), ("0x1.e000000000000p+4", False), ("0x1.e000000000000p+4", False), ("0x1.e000000000000p+4", False)],
        [("0x1.4c00000000000p+4", False), ("0x1.4c00000000000p+4", False), ("0x1.4c00000000000p+4", True), ("0x1.4c00000000000p+4", True)],
        [("0x1.9555555555556p+3", False), ("0x1.7800000000000p+3", True), ("0x1.7800000000000p+3", True), ("0x1.7800000000000p+3", True)],
        [("0x1.daaaaaaaaaaabp+4", False), ("0x1.caaaaaaaaaaabp+4", False), ("0x1.caaaaaaaaaaabp+4", False), ("0x1.baaaaaaaaaaabp+4", False)],
        [("0x1.7155555555556p+4", False), ("0x1.7155555555556p+4", False), ("0x1.7155555555556p+4", True), ("0x1.7155555555556p+4", True)],
        [("0x1.6155555555556p+4", False), ("0x1.6155555555556p+4", False), ("0x1.6155555555556p+4", False), ("0x1.6155555555556p+4", False)],
        [("0x1.ac00000000000p+4", False), ("0x1.9c00000000000p+4", False), ("0x1.9c00000000000p+4", False), ("0x1.9c00000000000p+4", False)],
        [("0x1.0a00000000000p+5", False), ("0x1.0a00000000000p+5", False), ("0x1.0a00000000000p+5", False), ("0x1.0a00000000000p+5", False)],
        [("0x1.9e00000000000p+4", False), ("0x1.9e00000000000p+4", False), ("0x1.8e00000000000p+4", False), ("0x1.8e00000000000p+4", False)],
        [("0x1.a000000000000p+4", False), ("0x1.a000000000000p+4", False), ("0x1.9000000000000p+4", False), ("0x1.9000000000000p+4", True)],
        [("0x1.6c00000000000p+4", False), ("0x1.5c00000000000p+4", False), ("0x1.5c00000000000p+4", False), ("0x1.5c00000000000p+4", False)],
        [("0x1.0800000000000p+4", False), ("0x1.c000000000000p+3", False), ("0x1.c000000000000p+3", True), ("0x1.c000000000000p+3", True)],
        [("0x1.5955555555556p+4", False), ("0x1.5955555555556p+4", False), ("0x1.5955555555556p+4", True), ("0x1.5955555555556p+4", True)],
        [("0x1.32aaaaaaaaaabp+4", False), ("0x1.32aaaaaaaaaabp+4", True), ("0x1.32aaaaaaaaaabp+4", True), ("0x1.32aaaaaaaaaabp+4", True)],
        [("0x1.1c00000000000p+3", False), ("0x1.1c00000000000p+3", True), ("0x1.1c00000000000p+3", True), ("0x1.1c00000000000p+3", True)],
        [("0x1.ee00000000000p+4", False), ("0x1.de00000000000p+4", False), ("0x1.de00000000000p+4", False), ("0x1.de00000000000p+4", False)],
    ]

    def test_costs_are_pinned_bit_for_bit(self):
        rng = random.Random(47)
        for k, pins in enumerate(self.HEX_PINS):
            a = random_lpm(rng, f"a{k}", max_transitions=8, max_places=6)
            b = random_lpm(rng, f"b{k}", max_transitions=8, max_places=6)
            got = []
            for budget in self.HEX_BUDGETS:
                result = ged_raw(a, b, budget=budget)
                got.append((result.cost.hex(), result.exact))
            assert got == pins, k

    # search nodes expanded at each of HEX_BUDGETS for the same seed-47
    # pairs: equal counts at every budget mean the search took the same
    # path, not only that it ended at the same cost
    HEX_EXPANSIONS = [
        (40, 65, 65, 65),
        (40, 110, 110, 110),
        (40, 600, 5000, 25000),
        (40, 600, 1256, 1256),
        (40, 600, 5000, 25000),
        (40, 600, 5000, 25000),
        (40, 161, 161, 161),
        (40, 600, 1487, 1487),
        (40, 83, 83, 83),
        (40, 600, 5000, 20927),
        (40, 600, 4132, 4132),
        (40, 181, 181, 181),
        (40, 600, 5000, 25000),
        (40, 600, 5000, 25000),
        (40, 600, 4250, 4250),
        (40, 600, 5000, 25000),
        (6, 6, 6, 6),
        (40, 600, 5000, 25000),
        (40, 40, 40, 40),
        (13, 13, 13, 13),
        (40, 600, 5000, 25000),
        (40, 600, 1978, 1978),
        (37, 37, 37, 37),
        (40, 600, 602, 602),
        (40, 600, 5000, 25000),
        (40, 600, 1122, 1122),
        (40, 322, 322, 322),
        (40, 600, 5000, 25000),
        (40, 600, 1328, 1328),
        (40, 600, 5000, 25000),
        (40, 600, 5000, 25000),
        (40, 600, 5000, 25000),
        (40, 600, 5000, 25000),
        (40, 600, 5000, 10602),
        (40, 600, 5000, 25000),
        (40, 600, 1496, 1496),
        (40, 600, 2005, 2005),
        (40, 195, 195, 195),
        (40, 173, 173, 173),
        (40, 600, 5000, 25000),
    ]

    def test_search_path_is_pinned(self):
        rng = random.Random(47)
        for k, (pins, expansions) in enumerate(zip(self.HEX_PINS, self.HEX_EXPANSIONS, strict=True)):
            a = random_lpm(rng, f"a{k}", max_transitions=8, max_places=6)
            b = random_lpm(rng, f"b{k}", max_transitions=8, max_places=6)
            got = []
            for budget in self.HEX_BUDGETS:
                result = ged_raw(a, b, budget=budget)
                got.append((result.cost.hex(), result.exact, result.expansions))
            assert got == [(*pin, n) for pin, n in zip(pins, expansions)], k


def new_search(a, b, budget):
    """The search of ``a`` against ``b``, in that orientation, from the two models' tables."""
    return _GedSearch(*_pair_input(ged_tables(a), ged_tables(b), budget))


class _RecordingSearch(_GedSearch):
    """The search of ``a`` against ``b``; records (idx, used, b_left, bound) at every bound memo miss."""

    def __init__(self, a, b, budget):
        self.calls = []
        super().__init__(*_pair_input(ged_tables(a), ged_tables(b), budget))

    def _lower_bound(self, idx, used, b_left):
        bound = super()._lower_bound(idx, used, b_left)
        self.calls.append((idx, used, b_left, bound))
        return bound


class TestSearchState:
    """The search keeps the used B nodes in a bitmask, counts B's unsettled
    arcs from per-node arc bitmasks and memoizes its lower bound per
    (depth, used B nodes); each must equal a recount from scratch."""

    @staticmethod
    def searches(seed, budget):
        """200 seeded pairs, each with a search that records its bounds."""
        rng = random.Random(seed)
        for k in range(200):
            a = random_lpm(rng, f"a{k}", max_transitions=6, max_places=4)
            b = random_lpm(rng, f"b{k}", max_transitions=6, max_places=4)
            yield a, b, _RecordingSearch(a, b, budget)

    @staticmethod
    def arcs_left(b, used):
        """B arcs with an endpoint outside ``used``, by brute force."""
        pos = {v: j for j, v in enumerate(sorted(b.net.places | b.net.transitions))}
        return sum(1 for v, x in b.net.arcs if not (used >> pos[v] & 1 and used >> pos[x] & 1))

    def test_unsettled_arc_count_matches_brute_force_on_every_mask(self):
        """Using j after the nodes ``before`` settles the B arcs between j and
        them: ``arcs[j]`` holds j's arc targets, then its sources shifted up by
        n_b, and the search counts them against ``before`` in both halves."""
        for _, b, search in self.searches(seed=53, budget=1):
            n_b = search.n_b
            left = [self.arcs_left(b, used) for used in range(1 << n_b)]
            for used in range(1, 1 << n_b):
                for j in range(n_b):
                    if used >> j & 1:  # reach used by using j last
                        before = used & ~(1 << j)
                        settled = (search.arcs[j] & (before | before << n_b)).bit_count()
                        assert left[before] - settled == left[used], (b.id, used, j)

    def test_lower_bound_is_its_definition_on_every_mask(self):
        """Per depth and used B nodes, the bound is the larger of two sums taken
        left to right, each padded by the node count gap: every remaining A
        node's least node cost among the unused B nodes, and the unused
        columns' minima below the depth; plus the gap in unsettled arcs."""
        for _, b, search in self.searches(seed=59, budget=1):
            n_a, n_b = search.n_a, search.n_b
            for used in range(1 << n_b):
                unused, b_left = [not used >> j & 1 for j in range(n_b)], self.arcs_left(b, used)
                for idx in range(n_a + 1):
                    ra, rb = n_a - idx, sum(unused)
                    node = float(ra + rb)
                    if ra and rb:
                        row = left_sum(min(compress(costs, unused)) for costs in search.ns[idx:]) + max(rb - ra, 0)
                        node = max(row, left_sum(compress(search.col_min[idx], unused)) + max(ra - rb, 0))
                    bound = node + abs(search.a_edges_rem[idx] - b_left)
                    assert search._lower_bound(idx, used, b_left) == bound, (b.id, idx, used)

    @staticmethod
    def step_terms(search, decided, j):
        """The terms of mapping A's next node to B node j, in the order the
        step adds them: its node cost, then per decided node k the cost of
        its arcs to k, one term per arc direction."""
        i = len(decided)
        terms = [search.ns[i][j]]
        for k, ((a_ik, a_ki), l) in enumerate(zip(search.a_dirs[i], decided)):
            if l == search.n_b:  # k deleted: its arcs to i go with it
                terms.append(a_ik + a_ki)
                continue
            for a_arc, b_arc in ((a_ik, search.b_out[j] >> l & 1), (a_ki, search.b_in[j] >> l & 1)):
                if a_arc and b_arc:
                    terms.append(0.5 * (search.ns[i][j] + search.ns[k][l]))
                elif a_arc or b_arc:
                    terms.append(1.0)
        return terms

    def test_step_costs_add_one_term_at_a_time(self):
        """Every step cost is its terms added left to right, one add each."""
        rng = random.Random(67)
        for n in range(150):
            a = random_lpm(rng, f"a{n}", max_transitions=8, max_places=6)
            b = random_lpm(rng, f"b{n}", max_transitions=8, max_places=6)
            search = new_search(a, b, budget=0)
            for _ in range(10):
                decided, used = [], 0
                for _ in range(rng.randrange(search.n_a)):
                    l = rng.choice([j for j in range(search.n_b) if not used >> j & 1] + [search.n_b])
                    decided.append(l)
                    used |= 1 << l if l < search.n_b else 0
                free = [j for j in range(search.n_b) if not used >> j & 1]
                for step, _, j in search._candidates(decided, free)[:-1]:
                    assert step == left_sum(self.step_terms(search, decided, j)), (a.id, decided, j)

    def test_two_unit_terms_are_two_adds(self):
        """A step the search for test_c1's pair m30/m153 takes: its terms add
        1.0 twice to 1/6, which rounds differently from adding 2.0 once and
        moves that pair's exact cost by one bit."""
        rng = random.Random(1001)
        models = [random_lpm(rng, f"m{k}", max_transitions=8, max_places=6, silent_prob=0.2) for k in range(200)]
        a, b = models[30], models[153]
        search = new_search(a, b, budget=25_000)
        decided = [3, 6, 1]
        terms = self.step_terms(search, decided, 8)
        assert terms == [0.0, 0.16666666666666669, 1.0, 1.0]
        assert terms[1] + 1.0 + 1.0 != terms[1] + 2.0
        assert search._candidates(decided, [8])[0][0] == left_sum(terms)
        assert (search.run().cost.hex(), ged_raw(b, a, 25_000).cost.hex()) == ("0x1.4aaaaaaaaaaabp+4",) * 2

    def test_memoized_bound_equals_a_fresh_recomputation_wherever_visited(self):
        """A memo miss computes the bound from an exact arc count; every bound
        the memo then hands out is the float a fresh search computes."""
        hits = 0
        for a, b, search in self.searches(seed=59, budget=400):
            result = search.run()
            for idx, used, b_left, bound in search.calls:
                assert b_left == self.arcs_left(b, used), (b.id, idx, used)
                assert search.bounds[idx << search.n_b | used] == bound, (b.id, idx, used)
            fresh = new_search(a, b, budget=0)
            for key, bound in search.bounds.items():
                idx, used = key >> search.n_b, key & ((1 << search.n_b) - 1)
                assert fresh._lower_bound(idx, used, self.arcs_left(b, used)) == bound, (b.id, idx, used)
            hits += result.expansions - len(search.calls)
        assert hits > 0

    def test_memo_cap_changes_no_result(self, monkeypatch):
        rng = random.Random(61)
        pairs = [(random_lpm(rng, f"a{k}", max_transitions=8, max_places=6),
                  random_lpm(rng, f"b{k}", max_transitions=8, max_places=6)) for k in range(10)]
        uncapped = [ged_raw(a, b, budget=3000) for a, b in pairs]
        monkeypatch.setattr("lpmgroup.ged._BOUND_MEMO_CAP", 16)
        assert [ged_raw(a, b, budget=3000) for a, b in pairs] == uncapped
        search = new_search(*pairs[0], budget=3000)
        search.run()
        assert len(search.bounds) == 16


def fixed_lpm(model_id, places, arcs):
    """A net of ``arcs`` with ``places``; every other node is a transition labeled ``<model_id>.<id>``."""
    transitions = sorted({n for arc in arcs for n in arc} - set(places))
    labels = {t: f"{model_id}.{t}" for t in transitions}
    net = LabeledPetriNet(places=set(places), transitions=set(transitions), arcs=arcs, labels=labels)
    return LocalProcessModel(id=model_id, net=net, initial=EMPTY, final=EMPTY)


class TestSearchKey:
    """``search_key`` holds everything the search of an oriented pair reads,
    so pairs with equal keys, under any budget, have equal results."""

    # x's places sort before p0, so x is side A against s and t; no label is
    # shared, so both pairs have the same node costs, and s and t differ only
    # in the source of p1
    X = fixed_lpm("x", ["a0", "a1"], [("u0", "a0"), ("a0", "u1"), ("u1", "a1"), ("a1", "u2")])
    S = fixed_lpm("s", ["p0", "p1"], [("t0", "p0"), ("p0", "t1"), ("t1", "p1"), ("p1", "t2")])
    T = fixed_lpm("t", ["p0", "p1"], [("t0", "p0"), ("p0", "t1"), ("t0", "p1"), ("p1", "t2")])

    def test_every_repeated_key_has_the_result_of_a_fresh_search(self):
        rng = random.Random(71)
        models = skeleton_copies(rng, 8, 2, max_transitions=6, max_places=4) + [self.X, self.S, self.T]
        tables = {m.id: ged_tables(m) for m in models}
        results, repeats = {}, 0
        for budget in (40, 300):
            for a, b in combinations(models, 2):
                key = search_key(tables[a.id], tables[b.id], budget)
                if key in results:
                    repeats += 1
                else:
                    results[key] = searched(key)
                assert results[key] == ged_raw(a, b, budget), (a.id, b.id, budget)
        assert repeats >= 500

    def test_b_arc_masks_tell_equal_node_costs_apart(self):
        (ns_s, a_side_s, b_side_s, _), (ns_t, a_side_t, b_side_t, _) = (
            search_key(ged_tables(self.X), ged_tables(b), 600) for b in (self.S, self.T))
        assert (ns_s, a_side_s) == (ns_t, a_side_t) and b_side_s != b_side_t
        assert ged_raw(self.X, self.S) != ged_raw(self.X, self.T)

    def test_the_budget_tells_equal_pairs_apart(self):
        rng = random.Random(37)
        a = random_lpm(rng, "a", max_transitions=8, max_places=6)
        b = random_lpm(rng, "b", max_transitions=8, max_places=6)
        tight, loose = (search_key(ged_tables(a), ged_tables(b), budget) for budget in (5, 600))
        assert tight[:3] == loose[:3] and searched(tight) != searched(loose)

    def test_equal_nets_need_no_search(self):
        a = chain_lpm("a", ["x", "y"])
        assert search_key(ged_tables(a), ged_tables(chain_lpm("b", ["x", "y"])), 600) is None
        assert searched(None) == ged_raw(a, a) == GedResult(0.0, True, 0)

    def test_equal_nets_under_other_markings_need_no_search(self):
        """Only the nets are compared: ``fingerprint[0]``, not the whole fingerprint."""
        a = chain_lpm("a", ["x", "y"])
        for initial, final in ((Marking(["p0"]), EMPTY), (EMPTY, Marking(["p0"]))):
            b = LocalProcessModel(id="b", net=a.net, initial=initial, final=final)
            assert b.fingerprint() != a.fingerprint()
            assert search_key(ged_tables(a), ged_tables(b), 600) is None
            assert ged_raw(a, b) == GedResult(0.0, True, 0)
            matrix = distance_matrix([a, b], "ged")
            assert matrix.values[0][1] == 0.0 and matrix.flags == b"\0"

    def test_sides_are_label_free_and_shared_by_every_key(self):
        """A relabeled copy has its original's sides; against a model that
        shares labels with the original only, the two keys differ in ``ns`` alone."""
        copy = relabeled(self.S, "r")
        s, r = ged_tables(self.S), ged_tables(copy)
        assert (s.a_side, s.b_side) == (r.a_side, r.b_side) and s.b_nodes != r.b_nodes
        # X's skeleton under S's labels: its places sort first, so it is side A against both
        third = ged_tables(fixed_lpm("s", ["a0", "a1"], [("t0", "a0"), ("a0", "t1"), ("t1", "a1"), ("a1", "t2")]))
        key_s, key_r = (search_key(third, b, 600) for b in (s, r))
        assert key_s[0] != key_r[0] and key_s[1:] == key_r[1:]
        assert key_s[1] is key_r[1] is third.a_side and key_s[2] is s.b_side and key_r[2] is r.b_side


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
