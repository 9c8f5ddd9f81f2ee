"""Similarity measures against hand values and brute-force oracles."""

import random

import numpy as np
import pytest

from lpmgroup import (
    SILENT,
    Assignment,
    LabeledPetriNet,
    LocalProcessModel,
    Marking,
    MatrixParams,
    Measure,
    bounded_language,
    dice,
    distance,
    distance_matrix,
    ef_relation,
    levenshtein,
    optimal_assignment,
    similarity,
)
from lpmgroup.ged import _GedSearch, _bordered, _pair_input, ged_tables
from lpmgroup.matrix import _quantized
from lpmgroup.measures import _lsap, context_gain, normalized_levenshtein
from genmodels import chain_lpm, random_lpm, self_loop_star, xor_lpm
from oracles import oracle_assignment, oracle_levenshtein, oracle_node, oracle_node_as_given, oracle_ordered

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
        assert context_gain(a.net.context("p0"), b.net.context("p0")) == 1.0

    def test_half_gain(self):
        a = labeled("x", ["a", "b"])
        b = labeled("y", ["a", "c"])
        assert context_gain(a.net.context("p0"), b.net.context("p0")) == 0.5

    def test_disjoint_surround(self):
        a = labeled("x", ["a", "b"])
        b = labeled("y", ["c", "d"])
        assert context_gain(a.net.context("p0"), b.net.context("p0")) == 0.0

    def test_silent_counts_in_place_surround(self):
        net = LabeledPetriNet(
            places={"p"}, transitions={"t", "s"},
            arcs=[("t", "p"), ("p", "s")], labels={"t": "a", "s": SILENT},
        )
        silent_out = LocalProcessModel(id="s", net=net, initial=EMPTY, final=EMPTY)
        b = labeled("y", ["a", "b"])
        # presets match on {a}; postsets {SILENT} vs {b} are disjoint
        assert context_gain(silent_out.net.context("p"), b.net.context("p0")) == 0.5


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

    CONTRACT_GAINS = [[0.25, 0.5, 0.125], [0.75, 0.125, 0.5]]

    @pytest.mark.parametrize("gains, expected", [
        pytest.param([[0.5], [0.5, 0.25]], ValueError, id="ragged"),
        pytest.param([0.5, 0.25], ValueError, id="one-dimensional"),
        pytest.param([[0.5, float("nan")]], ValueError, id="nan"),
        pytest.param([[float("inf")], [0.5]], ValueError, id="inf"),
        pytest.param([[0.5, -float("inf")]], ValueError, id="minus-inf"),
        pytest.param([], Assignment((), 0.0), id="empty"),
        pytest.param([[]], Assignment((), 0.0), id="one-empty-row"),
        pytest.param([[], []], Assignment((), 0.0), id="two-empty-rows"),
        pytest.param(np.array(CONTRACT_GAINS), CONTRACT_GAINS, id="ndarray-as-list"),
    ])
    def test_input_contract(self, gains, expected):
        if expected is ValueError:
            with pytest.raises(ValueError):
                optimal_assignment(gains)
            return
        if isinstance(expected, list):
            expected = optimal_assignment(expected)
        result = optimal_assignment(gains)
        assert result == expected
        assert type(result.total_gain) is float
        assert all(type(k) is int for pair in result.pairs for k in pair)

    def test_matches_permutation_oracle(self):
        rng = random.Random(21)
        for _ in range(100):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            gains = [[rng.random() for _ in range(cols)] for _ in range(rows)]
            assert optimal_assignment(gains).total_gain == pytest.approx(
                oracle_assignment(gains), abs=1e-12
            )


class TestAssignmentSolver:
    """``node``, ``full`` and ``ged`` share one assignment solver, a port of
    scipy's; scipy, imported only here, is its oracle, ties included."""

    ENTRIES = {
        "small-integer-ties": lambda rng: float(rng.randint(0, 3)),
        "fractions-and-big": lambda rng: rng.choice((0.0, 0.5, 1 / 3, 2 / 3, 1.0, 1e6)),
        "uniform": lambda rng: rng.random(),
    }
    GAINS = {
        "half-integer-ties": lambda rng: rng.choice((0.0, 0.5, 1.0)),
        "thirds-and-quarters": lambda rng: rng.choice((0.0, 0.25, 1 / 3, 0.5, 2 / 3, 0.75, 1.0)),
        "uniform": lambda rng: rng.random(),
    }

    @pytest.mark.parametrize("kind", list(ENTRIES))
    def test_port_returns_scipys_columns(self, kind):
        from scipy.optimize import linear_sum_assignment

        rng = random.Random(f"lsap:{kind}")
        entry = self.ENTRIES[kind]
        for _ in range(1700):
            n = rng.randint(1, 20)
            cost = [[entry(rng) for _ in range(n)] for _ in range(n)]
            assert _lsap(cost)[1] == linear_sum_assignment(np.array(cost))[1].tolist(), cost

    def test_port_returns_scipys_columns_on_bordered_ged_matrices(self):
        from scipy.optimize import linear_sum_assignment

        rng = random.Random(71)
        for k in range(200):
            a = random_lpm(rng, f"a{k}", max_transitions=8, max_places=6)
            b = random_lpm(rng, f"b{k}", max_transitions=8, max_places=6)
            search = _GedSearch(*_pair_input(ged_tables(a), ged_tables(b), budget=1))
            cost = _bordered(search.ns, search.n_b)
            assert len(cost) == search.n_a + search.n_b
            assert _lsap(cost)[1] == linear_sum_assignment(np.array(cost))[1].tolist(), k

    @pytest.mark.parametrize("kind", list(GAINS))
    def test_maximizing_matches_scipy_on_rectangles(self, kind):
        from scipy.optimize import linear_sum_assignment

        rng = random.Random(f"rect:{kind}")
        entry = self.GAINS[kind]
        shapes = set()
        for _ in range(1000):
            rows, cols = rng.randint(1, 14), rng.randint(1, 14)
            shapes.add((rows > cols) - (rows < cols))
            gains = [[entry(rng) for _ in range(cols)] for _ in range(rows)]
            result = optimal_assignment(gains)
            want_rows, want_cols = linear_sum_assignment(np.array(gains), maximize=True)
            want = tuple(zip(want_rows.tolist(), want_cols.tolist()))
            total = 0.0
            for r, c in want:
                total += gains[r][c]
            assert result.pairs == want, gains
            assert result.total_gain.hex() == total.hex(), gains
        assert shapes == {-1, 0, 1}


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


def with_places_renamed(model: LocalProcessModel, prefix: str) -> LocalProcessModel:
    """The model with ``prefix`` put before every place id."""
    net = model.net
    name = {p: prefix + p for p in net.places}
    renamed = LabeledPetriNet(name.values(), net.transitions, [(name.get(u, u), name.get(v, v)) for u, v in net.arcs],
                              net.labels)
    initial, final = ({name[p]: c for p, c in m.counts} for m in (model.initial, model.final))
    return LocalProcessModel(model.id, renamed, Marking(initial), Marking(final))


class TestNode:
    def test_identical_model(self):
        a = labeled("x", ["a", "b"])
        assert similarity("node", a, a) == 1.0

    def test_hand_evaluated_half(self):
        a = chain_lpm("x", ["a", "b"])
        b = chain_lpm("y", ["a", "c"])
        assert similarity("node", a, b) == 0.5

    def test_disjoint_no_places(self):
        na = LabeledPetriNet(places=set(), transitions={"t"}, arcs=[], labels={"t": "a"})
        nb = LabeledPetriNet(places=set(), transitions={"t"}, arcs=[], labels={"t": "b"})
        a = LocalProcessModel(id="x", net=na, initial=EMPTY, final=EMPTY)
        b = LocalProcessModel(id="y", net=nb, initial=EMPTY, final=EMPTY)
        assert similarity("node", a, b) == 0.0

    @staticmethod
    def oracle_pairs():
        """Seeded pairs, after the edge cases: an empty net, placeless nets,
        and equal nets whose orientation falls to their markings."""
        empty = LocalProcessModel("e", LabeledPetriNet(set(), set(), [], {}), EMPTY, EMPTY)
        placeless = [
            LocalProcessModel(f"t{k}", LabeledPetriNet(set(), {"t", "u"}, [], {"t": x, "u": y}), EMPTY, EMPTY)
            for k, (x, y) in enumerate([("a", "b"), ("b", SILENT), (SILENT, SILENT)])
        ]
        rng = random.Random(71)
        pairs = [(empty, empty), (empty, placeless[0]), (placeless[2], placeless[2])]
        pairs += [(empty, m) for m in (chain_lpm("c", ["a", "b"]), random_lpm(rng, "r"))]
        pairs += [(a, b) for a in placeless for b in placeless if a is not b]
        pairs += [(p, random_lpm(rng, f"q{k}")) for k, p in enumerate(placeless)]
        for k in range(6):
            m = random_lpm(rng, f"m{k}")
            first, last = sorted(m.net.places)[0], sorted(m.net.places)[-1]
            for initial, final in ((Marking([first]), EMPTY), (EMPTY, Marking([last])), (Marking([last]), m.final)):
                pairs.append((m, LocalProcessModel(f"m{k}'", m.net, initial, final)))
        # b's places renamed after a's on every other pair: the smaller fingerprint
        # then has more places about half the time, and the gain matrix more rows than columns
        for k in range(300):
            size = (6, 12, 16)[k % 3]
            a, b = random_lpm(rng, f"a{k}", size, size), random_lpm(rng, f"b{k}", size, size)
            pairs.append((a, with_places_renamed(b, "q") if k % 2 else b))
        return pairs

    def test_equals_model_based_oracle_bit_for_bit(self):
        pairs = self.oracle_pairs()
        transposed = swap_moves_bits = 0
        for a, b in pairs:
            want = oracle_node(a, b).hex()
            assert similarity("node", a, b).hex() == similarity("node", b, a).hex() == want, (a.id, b.id)
            first, second = oracle_ordered(a, b)
            transposed += len(first.net.places) > len(second.net.places)
            swap_moves_bits += oracle_node_as_given(a, b) != oracle_node_as_given(b, a)
        # the pairs catch a kernel that orients the pair otherwise, or not at all
        assert len(pairs) >= 300 and transposed >= 50 and swap_moves_bits >= 5, (transposed, swap_moves_bits)
        assert any(a.net == b.net and a.fingerprint() != b.fingerprint() for a, b in pairs)


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

    def test_truncated_star_is_flagged_but_exact(self):
        # At bound 10 the star has ~437k firing-sequence prefixes, past the
        # default cap: its pairs are flagged, yet the distances equal those
        # of the enumeration at a cap that cuts nothing.
        models = [
            self_loop_star(4),
            labeled("c", ["T0", "T1", "T5"]),
            labeled("d", ["T2", "T2", "T1"]),
            xor_lpm("x", "T0", ["T3", "T4"]),
        ]
        dm = distance_matrix(models, "efg", MatrixParams(bound=10))
        approx = np.asarray(dm.approx)
        assert approx[0, 1:].all() and not approx[1:, 1:].any()
        languages = [bounded_language(m, 10, cap=1_000_000) for m in models]
        assert not any(lang.truncated for lang in languages)
        relations = [ef_relation(lang) for lang in languages]
        for i in range(len(models)):
            for j in range(i + 1, len(models)):
                assert dm.values[i][j] == _quantized(1.0 - dice(relations[i], relations[j]))


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


class TestBitExactPins:
    """``float.hex`` of ``node`` and ``full`` similarities on seeded pairs,
    recorded before place contexts were compiled once per net. Any change to
    how the gains are built or summed must keep every bit."""

    NODE_HEX = [
        "0x1.f07c1f07c1f07p-3", "0x1.9e79e79e79e79p-2", "0x0.0p+0", "0x1.2612612612612p-2",
        "0x0.0p+0", "0x1.47ae147ae147bp-5", "0x0.0p+0", "0x0.0p+0",
        "0x1.f49f49f49f49fp-3", "0x1.d555555555555p-2", "0x0.0p+0", "0x1.1000000000000p-1",
        "0x0.0p+0", "0x1.9e79e79e79e79p-2", "0x0.0p+0", "0x1.41d41d41d41d5p-2",
        "0x1.8000000000000p-3", "0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p-1",
        "0x0.0p+0", "0x1.2aaaaaaaaaaabp-2", "0x1.8e38e38e38e38p-2", "0x1.47ae147ae147bp-1",
        "0x0.0p+0", "0x1.0000000000000p-2", "0x1.6aaaaaaaaaaaap-2", "0x1.cf3cf3cf3cf3dp-3",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x1.1c71c71c71c72p-1",
        "0x0.0p+0", "0x0.0p+0", "0x1.9191919191918p-2", "0x0.0p+0",
        "0x1.4000000000000p-2", "0x1.0fd8fd8fd8fd9p-2", "0x1.c71c71c71c71cp-2", "0x0.0p+0",
        "0x0.0p+0", "0x1.097b425ed097bp-2", "0x1.5555555555555p-2", "0x1.bed61bed61bedp-3",
        "0x0.0p+0", "0x1.6f96f96f96f96p-2", "0x1.5a35a35a35a36p-2", "0x1.0000000000000p-2",
        "0x1.d555555555555p-3", "0x1.6c16c16c16c16p-2", "0x0.0p+0", "0x1.0000000000000p-2",
        "0x1.0000000000000p-2", "0x1.745d1745d1746p-3", "0x1.c71c71c71c71cp-2", "0x1.45d1745d1745dp-2",
        "0x0.0p+0", "0x0.0p+0", "0x1.eb851eb851eb8p-3", "0x0.0p+0",
        "0x0.0p+0", "0x1.425ed097b425ep-1", "0x1.aaaaaaaaaaaabp-3", "0x0.0p+0",
        "0x1.9999999999999p-3", "0x0.0p+0", "0x0.0p+0", "0x1.f07c1f07c1f07p-3",
        "0x1.4141414141414p-3", "0x1.5a95a95a95a96p-2", "0x1.4924924924925p-2", "0x1.7a17a17a17a17p-3",
        "0x1.1745d1745d174p-2", "0x1.823ee08fb823ep-2", "0x1.4141414141414p-3", "0x1.097b425ed097bp-2",
        "0x1.6666666666666p-1", "0x1.74d74d74d74d7p-2", "0x0.0p+0", "0x1.5555555555555p-4",
        "0x0.0p+0", "0x1.2f684bda12f68p-5", "0x1.56343eb1a1f59p-1", "0x0.0p+0",
        "0x0.0p+0", "0x1.0d79435e50d79p-2", "0x1.f07c1f07c1f07p-3", "0x1.e4b17e4b17e4bp-2",
        "0x0.0p+0", "0x1.684bda12f684cp-2", "0x1.f81f81f81f820p-2", "0x1.0b60b60b60b61p-1",
        "0x1.7297297297297p-2", "0x1.7373737373737p-2", "0x1.ddddddddddddep-2", "0x1.a5a5a5a5a5a5ap-2",
        "0x0.0p+0", "0x0.0p+0", "0x1.f2df2df2df2dfp-2", "0x0.0p+0",
    ]
    FULL_HEX = [
        "0x1.642c8590b2164p-5", "0x1.c71c71c71c71cp-4", "0x1.2492492492492p-4", "0x0.0p+0",
        "0x1.3333333333333p-4", "0x1.d89d89d89d89ep-4", "0x1.0000000000000p-3", "0x0.0p+0",
        "0x1.0000000000000p-3", "0x1.c30c30c30c30dp-2", "0x0.0p+0", "0x1.1c71c71c71c72p-1",
        "0x1.999999999999ap-4", "0x0.0p+0", "0x1.3b13b13b13b14p-4", "0x1.999999999999ap-3",
        "0x1.999999999999ap-3", "0x0.0p+0", "0x1.0690690690691p-4", "0x1.8618618618619p-3",
        "0x0.0p+0", "0x0.0p+0", "0x1.0690690690691p-3", "0x1.ddddddddddddep-3",
    ]

    @staticmethod
    def node_pairs():
        rng = random.Random(61)
        for k in range(100):
            # every eighth A side has at most two transitions: nets without places
            small = 2 if k % 8 == 0 else 8
            yield (
                random_lpm(rng, f"a{k}", max_transitions=small, max_places=6),
                random_lpm(rng, f"b{k}", max_transitions=8, max_places=6),
            )

    @staticmethod
    def full_pairs():
        # consecutive models with a non-empty language at bound 5
        rng = random.Random(21)
        live = []
        while len(live) < 48:
            model = random_lpm(rng, f"m{len(live)}", max_transitions=8, max_places=6)
            if bounded_language(model, 5).traces - {()}:
                live.append(model)
        return list(zip(live[::2], live[1::2]))

    def test_node_is_pinned_bit_for_bit(self):
        pairs = list(self.node_pairs())
        assert [similarity("node", a, b).hex() for a, b in pairs] == self.NODE_HEX
        nets = [net for a, b in pairs for net in (a.net, b.net)]
        assert any(not net.places for net in nets)
        assert any(
            SILENT in pre | post for net in nets for pre, post in map(net.context, net.places)
        )
        assert any(len(a.net.places) != len(b.net.places) for a, b in pairs)

    def test_full_is_pinned_bit_for_bit(self):
        got = [similarity("full", a, b, bound=5).hex() for a, b in self.full_pairs()]
        assert got == self.FULL_HEX
