"""Net semantics: validation, firing, bounded language, EF relation."""

import random

import pytest

from lpmgroup import (
    SILENT,
    LabeledPetriNet,
    LocalProcessModel,
    Marking,
    NetStructureError,
    bounded_language,
    ef_relation,
    eventually_follows,
    validate_lpm,
)
from lpmgroup.petri import unrestricted_transitions
from genmodels import (
    chain_lpm,
    random_lpm,
    self_loop_star,
    with_isolated_transition,
    without_place_outputs,
)
from oracles import enabled, fire, label_traces, oracle_bfs_sequences, oracle_sequences

EMPTY = Marking()


def simple_chain() -> LocalProcessModel:
    return chain_lpm("simple", ["A", "B"])


def two_parallel_chains() -> LocalProcessModel:
    net = LabeledPetriNet(
        places={"p", "q"},
        transitions={"a", "b", "c", "d"},
        arcs=[("a", "p"), ("p", "b"), ("c", "q"), ("q", "d")],
        labels={t: t.upper() for t in "abcd"},
    )
    return LocalProcessModel(id="two", net=net, initial=EMPTY, final=EMPTY)


class TestNetConstruction:
    def test_rejects_overlapping_namespaces(self):
        with pytest.raises(NetStructureError):
            LabeledPetriNet(places={"x"}, transitions={"x"}, arcs=[], labels={"x": "A"})

    def test_rejects_dangling_arc(self):
        with pytest.raises(NetStructureError):
            LabeledPetriNet(places={"p"}, transitions={"t"}, arcs=[("p", "ghost")], labels={"t": "A"})

    def test_rejects_place_to_place_arc(self):
        with pytest.raises(NetStructureError):
            LabeledPetriNet(places={"p", "q"}, transitions={"t"}, arcs=[("p", "q")], labels={"t": "A"})

    def test_rejects_partial_labeling(self):
        with pytest.raises(NetStructureError):
            LabeledPetriNet(places=set(), transitions={"t"}, arcs=[], labels={})

    def test_silent_is_distinct_from_activities(self):
        assert SILENT != "A" and SILENT not in ("tau", "silent")


class TestValidateLpm:
    def test_minimal_legal_lpm(self):
        lpm = simple_chain()
        assert validate_lpm(lpm.net, EMPTY, EMPTY).ok

    def test_isolated_transition_is_disconnected(self):
        broken = with_isolated_transition(simple_chain())
        report = validate_lpm(broken.net, EMPTY, EMPTY)
        assert not report.ok
        assert any("disconnected" in v for v in report.violations)

    def test_place_without_outgoing_arc(self):
        broken = without_place_outputs(simple_chain(), "p0")
        report = validate_lpm(broken.net, EMPTY, EMPTY)
        assert any("without outgoing arc" in v and "p0" in v for v in report.violations)

    def test_marking_must_reference_existing_places(self):
        lpm = simple_chain()
        report = validate_lpm(lpm.net, Marking(["ghost"]), EMPTY)
        assert any("unknown place" in v for v in report.violations)

    def test_generated_models_pass_and_mutants_fail(self):
        rng = random.Random(42)
        for k in range(50):
            lpm = random_lpm(rng, f"m{k}")
            assert validate_lpm(lpm.net, lpm.initial, lpm.final).ok
            assert not validate_lpm(
                with_isolated_transition(lpm).net, lpm.initial, lpm.final
            ).ok
            place = sorted(lpm.net.places)[0] if lpm.net.places else None
            if place is not None:
                broken = without_place_outputs(lpm, place)
                assert not validate_lpm(broken.net, lpm.initial, lpm.final).ok


class TestFiringRule:
    def test_unrestricted_of_chain(self):
        assert unrestricted_transitions(simple_chain().net) == {"t0"}

    def test_no_unrestricted_when_all_have_presets(self):
        net = LabeledPetriNet(
            places={"p"}, transitions={"t"}, arcs=[("t", "p"), ("p", "t")], labels={"t": "A"}
        )
        assert unrestricted_transitions(net) == frozenset()

    def test_two_source_transitions(self):
        net = two_parallel_chains().net
        assert unrestricted_transitions(net) == {"a", "c"}

    def test_enabled_unrestricted(self):
        net = simple_chain().net
        assert "t0" in enabled(net, EMPTY)

    def test_free_token_blocks_second_injection(self):
        net = simple_chain().net
        assert "t0" not in enabled(net, EMPTY, used_free_places=frozenset({"p0"}))

    def test_standard_firing_rule(self):
        net = simple_chain().net
        assert "t1" in enabled(net, Marking(["p0"]))
        assert "t1" not in enabled(net, EMPTY)

    def test_fire_unrestricted_records_free_places(self):
        net = simple_chain().net
        marking, used = fire(net, EMPTY, "t0")
        assert marking == Marking(["p0"])
        assert used == {"p0"}

    def test_fire_consumes_token(self):
        net = simple_chain().net
        marking, used = fire(net, Marking(["p0"]), "t1")
        assert marking == EMPTY and used == frozenset()

    def test_fire_multiset_semantics(self):
        net = simple_chain().net
        marking, _ = fire(net, Marking(["p0", "p0"]), "t1")
        assert marking == Marking(["p0"])

    def test_fire_disabled_transition_raises(self):
        net = simple_chain().net
        with pytest.raises(ValueError):
            fire(net, EMPTY, "t1")


def _with_silent(lpm: LocalProcessModel) -> bool:
    return SILENT in lpm.net.labels.values()


class TestEnumeration:
    """``bounded_language`` against the label projection of the oracles'
    transition sequences."""

    CAPS = (1, 2, 7, 50, 1000, 100_000)

    def test_chain_completes_at_two_steps(self):
        lang = bounded_language(simple_chain(), 2)
        assert lang.traces == {("A", "B")}
        assert not lang.truncated

    def test_chain_has_nothing_below_two_steps(self):
        assert bounded_language(simple_chain(), 1).traces == frozenset()

    def test_two_parallel_chains_match_oracle(self):
        # Six four-step interleavings plus the two single-chain completions,
        # which also reach the empty final marking.
        lpm = two_parallel_chains()
        expected = oracle_sequences(lpm, 4)
        assert len(expected) == 8
        assert bounded_language(lpm, 4).traces == label_traces(lpm, expected)

    def test_sequences_replay_via_enabled_and_fire(self):
        # the oracle's sequences are firing sequences of the library's rule,
        # and their projection is the language
        rng = random.Random(11)
        for k in range(25):
            lpm = random_lpm(rng, f"m{k}", max_transitions=5, max_places=4)
            sequences, truncated = oracle_bfs_sequences(lpm, 5, 100_000)
            assert not truncated
            for seq in sequences:
                marking, used = lpm.initial, frozenset()
                for t in seq:
                    assert t in enabled(lpm.net, marking, used)
                    marking, used = fire(lpm.net, marking, t, used)
                assert marking == lpm.final
            assert bounded_language(lpm, 5).traces == label_traces(lpm, sequences), lpm.id

    def test_empty_sequence_is_excluded(self):
        lpm = simple_chain()  # initial == final == empty marking
        assert () not in bounded_language(lpm, 3).traces
        # a complete run of silent steps alone is reported, as the empty trace
        net = LabeledPetriNet(
            places={"p"}, transitions={"s", "t"}, arcs=[("s", "p"), ("p", "t")],
            labels={"s": SILENT, "t": SILENT},
        )
        silent = LocalProcessModel(id="silent", net=net, initial=EMPTY, final=EMPTY)
        assert bounded_language(silent, 1).traces == frozenset()
        assert bounded_language(silent, 2).traces == {()}

    def test_truncation_flag_on_tiny_cap(self):
        lpm = two_parallel_chains()
        assert bounded_language(lpm, 4, cap=3).truncated

    def test_cap_boundary_matches_bfs_oracle(self):
        rng = random.Random(7007)
        models = [self_loop_star(loops) for loops in (2, 3, 4)]
        models += [
            random_lpm(rng, f"m{k}", max_transitions=6, max_places=4, silent_prob=0.3)
            for k in range(300)
        ]
        # a final marking naming a place the net lacks is never reached
        stray = models[3]
        models.append(LocalProcessModel("stray", stray.net, stray.initial, Marking(["zz"])))
        assert sum(map(_with_silent, models)) >= 150
        truncated_at = dict.fromkeys(self.CAPS, 0)
        silent_traces = 0
        for lpm in models:
            for bound in range(1, 11):
                expected = None
                for cap in self.CAPS:
                    # an oracle run that was not cut short is the same at every larger cap
                    if expected is None or expected[1]:
                        sequences, truncated = oracle_bfs_sequences(lpm, bound, cap)
                        expected = (label_traces(lpm, sequences), truncated)
                    got = bounded_language(lpm, bound, cap)
                    assert (got.traces, got.truncated) == expected, (lpm.id, bound, cap)
                    truncated_at[cap] += got.truncated
                    silent_traces += () in got.traces
        assert min(truncated_at.values()) >= 3 and silent_traces > 0, (truncated_at, silent_traces)

    def test_matches_generate_and_test_oracle(self):
        rng = random.Random(99)
        models = [
            random_lpm(rng, f"m{k}", max_transitions=5, max_places=4, silent_prob=0.3) for k in range(30)
        ]
        assert sum(map(_with_silent, models)) >= 10
        for lpm in models:
            got = bounded_language(lpm, 5)
            assert not got.truncated
            assert got.traces == label_traces(lpm, oracle_sequences(lpm, 5)), lpm.id


class TestBoundedLanguage:
    def test_silent_transitions_are_projected_away(self):
        net = LabeledPetriNet(
            places={"p", "q"},
            transitions={"a", "t", "b"},
            arcs=[("a", "p"), ("p", "t"), ("t", "q"), ("q", "b")],
            labels={"a": "A", "t": SILENT, "b": "B"},
        )
        lpm = LocalProcessModel(id="s", net=net, initial=EMPTY, final=EMPTY)
        assert bounded_language(lpm, 3).traces == {("A", "B")}

    def test_chain_language(self):
        assert bounded_language(simple_chain(), 5).traces == {("A", "B")}

    def test_unreachable_final_marking_gives_empty_language(self):
        lpm = chain_lpm("u", ["A", "B"])
        unreachable = LocalProcessModel(
            id="u", net=lpm.net, initial=lpm.initial, final=Marking(["p0", "p0"])
        )
        assert bounded_language(unreachable, 4).traces == frozenset()

    def test_language_monotone_in_bound(self):
        rng = random.Random(5)
        for k in range(25):
            lpm = random_lpm(rng, f"m{k}", max_transitions=5, max_places=4)
            small = bounded_language(lpm, 4)
            large = bounded_language(lpm, 5)
            if not small.truncated and not large.truncated:
                assert small.traces <= large.traces


class TestEfRelation:
    def test_single_pair(self):
        lang = bounded_language(simple_chain(), 5)
        assert ef_relation(lang) == {("A", "B")}

    def test_all_index_pairs(self):
        lang = bounded_language(chain_lpm("c3", ["a", "b", "c"]), 5)
        assert ef_relation(lang) == {("a", "b"), ("a", "c"), ("b", "c")}

    def test_empty_language(self):
        from lpmgroup import BoundedLanguage

        assert ef_relation(BoundedLanguage(bound=3, traces=frozenset(), truncated=False)) == frozenset()

    def test_pairs_never_contain_silent(self):
        rng = random.Random(13)
        for k in range(20):
            lpm = random_lpm(rng, f"m{k}", max_transitions=5, max_places=4, silent_prob=0.5)
            pairs = ef_relation(bounded_language(lpm, 5))
            activities = lpm.net.activity_labels()
            for a, b in pairs:
                assert a in activities and b in activities


def _pairs_of(lpm: LocalProcessModel, sequences) -> frozenset:
    labels = lpm.net.labels
    pairs = set()
    for seq in sequences:
        trace = [labels[t] for t in seq if labels[t] != SILENT]
        pairs.update((trace[i], b) for i in range(len(trace)) for b in trace[i + 1 :])
    return frozenset(pairs)


def _ef_population() -> list[LocalProcessModel]:
    """Chains, interleavings, a self-loop star whose bound-10 language
    exceeds 100k prefixes, and seeded random models, some with tokens."""
    rng = random.Random(2024)
    models = [simple_chain(), two_parallel_chains(), self_loop_star(4)]
    models += [
        random_lpm(rng, f"s{k}", max_transitions=6, max_places=4, token_prob=0.3) for k in range(40)
    ]
    models += [
        random_lpm(rng, f"l{k}", max_transitions=8, max_places=6, token_prob=0.3) for k in range(25)
    ]
    # a final marking naming a place the net lacks is never reached
    stray = models[3]
    models.append(LocalProcessModel("stray", stray.net, stray.initial, Marking(["zz"])))
    return models


class TestEventuallyFollows:
    CAPS = (1, 2, 7, 100, 1000, 100_000)

    def test_matches_enumeration_at_every_bound_and_cap(self):
        truncated_cases = untruncated_cases = 0
        for lpm in _ef_population():
            for bound in range(1, 11):
                reference = None
                for cap in self.CAPS:
                    # an enumeration that was not cut short is the same at every larger cap
                    if reference is None or reference.truncated:
                        reference = bounded_language(lpm, bound, cap)
                    pairs, truncated = eventually_follows(lpm, bound, cap)
                    where = (lpm.id, bound, cap)
                    assert truncated == reference.truncated, where
                    if truncated:
                        truncated_cases += 1
                        assert pairs >= ef_relation(reference), where
                    else:
                        untruncated_cases += 1
                        assert pairs == ef_relation(reference), where
        assert truncated_cases > 100 and untruncated_cases > 1000

    def test_flag_is_the_enumerator_flag_at_the_cap_boundary(self):
        # two parallel chains: 2 + 4 + 6 + 6 firing sequences of length 1..4
        lpm = two_parallel_chains()
        for cap, expected in ((17, True), (18, False), (19, False)):
            assert eventually_follows(lpm, 4, cap)[1] is expected
            assert bounded_language(lpm, 4, cap).truncated is expected

    def test_matches_generate_and_test_oracle(self):
        for lpm in _ef_population():
            for bound in range(1, 6):
                pairs, truncated = eventually_follows(lpm, bound, 100_000)
                assert not truncated
                assert pairs == _pairs_of(lpm, oracle_sequences(lpm, bound)), (lpm.id, bound)

    def test_star_is_exact_past_the_cap(self):
        # the relation at bound 10 needs no cap: every loop pairs with
        # itself and every other loop, and follows T0
        lpm = self_loop_star(4)
        pairs, truncated = eventually_follows(lpm, 10)
        assert truncated
        loops = ["T1", "T2", "T3", "T4"]
        expected = {("T0", b) for b in loops + ["T5"]}
        expected |= {(a, b) for a in loops for b in loops + ["T5"]}
        assert pairs == expected

    def test_rejects_bound_below_one(self):
        with pytest.raises(ValueError):
            eventually_follows(simple_chain(), 0)
