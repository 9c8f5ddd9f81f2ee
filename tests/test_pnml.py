"""PNML subset parsing, deterministic writing, round-trips, sidecars."""

import json
import random
import xml.etree.ElementTree as ET

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lpmgroup import (
    SILENT,
    LabeledPetriNet,
    Marking,
    PnmlError,
    parse_pnml,
    parse_pnml_file,
    write_pnml,
)
from genmodels import random_lpm

TWO_TRANSITION_NET = """<?xml version="1.0" encoding="UTF-8"?>
<pnml xmlns="http://www.pnml.org/version-2009/grammar/pnml">
  <net id="net1" type="http://www.pnml.org/version-2009/grammar/ptnet">
    <page id="page1">
      <place id="p1">
        <initialMarking><text>1</text></initialMarking>
      </place>
      <transition id="t1"><name><text>start</text></name></transition>
      <transition id="t2"><name><text>finish</text></name></transition>
      <arc id="a1" source="t1" target="p1"/>
      <arc id="a2" source="p1" target="t2"/>
    </page>
    <finalmarkings>
      <marking><place idref="p1"><text>2</text></place></marking>
    </finalmarkings>
  </net>
</pnml>
"""


class TestParse:
    def test_counts_and_labels(self):
        net, initial, final = parse_pnml(TWO_TRANSITION_NET)
        assert len(net.places) == 1 and len(net.transitions) == 2 and len(net.arcs) == 2
        assert net.label("t1") == "start"
        assert initial == Marking(["p1"])
        assert final == Marking({"p1": 2})

    def test_transition_without_name_is_silent(self):
        doc = TWO_TRANSITION_NET.replace("<name><text>start</text></name>", "")
        net, _, _ = parse_pnml(doc)
        assert net.label("t1") == SILENT

    def test_empty_name_is_silent(self):
        doc = TWO_TRANSITION_NET.replace("<text>start</text>", "<text>  </text>")
        net, _, _ = parse_pnml(doc)
        assert net.label("t1") == SILENT

    def test_malformed_xml(self):
        with pytest.raises(PnmlError, match="malformed"):
            parse_pnml("<pnml><net>")

    @pytest.mark.parametrize("end", ["source", "target"])
    def test_dangling_arc(self, end):
        doc = TWO_TRANSITION_NET.replace(f'{end}="p1"', f'{end}="ghost"')
        with pytest.raises(PnmlError, match="references unknown node 'ghost'"):
            parse_pnml(doc)

    def test_duplicate_id(self):
        doc = TWO_TRANSITION_NET.replace('transition id="t2"', 'transition id="t1"')
        with pytest.raises(PnmlError, match="duplicate"):
            parse_pnml(doc)

    def test_unit_inscription_is_accepted(self):
        doc = TWO_TRANSITION_NET.replace(
            '<arc id="a1" source="t1" target="p1"/>',
            '<arc id="a1" source="t1" target="p1"><inscription><text> 1 </text></inscription></arc>',
        )
        assert parse_pnml(doc) == parse_pnml(TWO_TRANSITION_NET)

    @pytest.mark.parametrize("text", ["<text>2</text>", "<text>0</text>", "<text>x</text>", ""])
    def test_weighted_arc_is_refused(self, text):
        doc = TWO_TRANSITION_NET.replace(
            '<arc id="a2" source="p1" target="t2"/>',
            f'<arc id="a2" source="p1" target="t2"><inscription>{text}</inscription></arc>',
        )
        with pytest.raises(PnmlError, match="arc 'a2' has inscription .*only unit arcs"):
            parse_pnml(doc)

    def test_repeated_arc_is_refused(self):
        doc = TWO_TRANSITION_NET.replace("</page>", '<arc id="a3" source="t1" target="p1"/></page>')
        with pytest.raises(PnmlError, match="arc 'a3' repeats arc 'a1' from 't1' to 'p1'"):
            parse_pnml(doc)

    def test_document_without_net(self):
        with pytest.raises(PnmlError, match="net"):
            parse_pnml("<pnml></pnml>")

    def test_works_without_namespace(self):
        doc = TWO_TRANSITION_NET.replace(' xmlns="http://www.pnml.org/version-2009/grammar/pnml"', "")
        net, _, _ = parse_pnml(doc)
        assert len(net.transitions) == 2


class TestWrite:
    def test_round_trip_generated_models(self):
        rng = random.Random(101)
        for k in range(100):
            lpm = random_lpm(rng, f"m{k}", silent_prob=0.3, token_prob=0.3)
            data = write_pnml(lpm.net, lpm.initial, lpm.final)
            net, initial, final = parse_pnml(data)
            assert net == lpm.net
            assert initial == lpm.initial
            assert final == lpm.final

    def test_deterministic_output(self):
        rng = random.Random(103)
        lpm = random_lpm(rng, "m", token_prob=1.0)
        assert write_pnml(lpm.net, lpm.initial, lpm.final) == write_pnml(
            lpm.net, lpm.initial, lpm.final
        )

    def test_empty_marking_omits_initial_marking_elements(self):
        rng = random.Random(107)
        lpm = random_lpm(rng, "m", token_prob=0.0)
        data = write_pnml(lpm.net, Marking(), Marking())
        assert b"initialMarking" not in data
        assert b"finalmarkings" not in data


class TestSidecar:
    def test_sidecar_final_marking(self, tmp_path):
        doc = TWO_TRANSITION_NET.replace(
            "<finalmarkings>\n      <marking><place idref=\"p1\"><text>2</text></place></marking>\n    </finalmarkings>",
            "",
        )
        path = tmp_path / "model.pnml"
        path.write_text(doc, encoding="utf-8")
        (tmp_path / "model.finalmarking.json").write_text(json.dumps({"p1": 3}), encoding="utf-8")
        _, _, final = parse_pnml_file(path)
        assert final == Marking({"p1": 3})

    def test_inline_block_wins_over_sidecar(self, tmp_path):
        path = tmp_path / "model.pnml"
        path.write_text(TWO_TRANSITION_NET, encoding="utf-8")
        (tmp_path / "model.finalmarking.json").write_text(json.dumps({"p1": 9}), encoding="utf-8")
        _, _, final = parse_pnml_file(path)
        assert final == Marking({"p1": 2})

    def test_missing_both_defaults_to_empty(self, tmp_path):
        doc = TWO_TRANSITION_NET.replace(
            "<finalmarkings>\n      <marking><place idref=\"p1\"><text>2</text></place></marking>\n    </finalmarkings>",
            "",
        )
        path = tmp_path / "model.pnml"
        path.write_text(doc, encoding="utf-8")
        _, _, final = parse_pnml_file(path)
        assert final == Marking()

    def test_sidecar_with_unknown_place(self, tmp_path):
        doc = TWO_TRANSITION_NET.replace(
            "<finalmarkings>\n      <marking><place idref=\"p1\"><text>2</text></place></marking>\n    </finalmarkings>",
            "",
        )
        path = tmp_path / "model.pnml"
        path.write_text(doc, encoding="utf-8")
        (tmp_path / "model.finalmarking.json").write_text(json.dumps({"zz": 1}), encoding="utf-8")
        with pytest.raises(PnmlError, match="zz"):
            parse_pnml_file(path)


class TestInputErrors:
    """Every malformed input surfaces as PnmlError, never a bare ValueError."""

    @pytest.mark.parametrize("count", ["x", "1.5", "-1"])
    def test_bad_final_marking_count(self, count):
        doc = TWO_TRANSITION_NET.replace("<text>2</text>", f"<text>{count}</text>")
        with pytest.raises(PnmlError, match="token count"):
            parse_pnml(doc)

    @pytest.mark.parametrize(
        "content",
        [b"{not json", b'{"p1": -1}', b'{"p1": "x"}', b'{"p1": [1]}', b"5", b"null", b"\xff\xfe"],
    )
    def test_bad_sidecar(self, tmp_path, content):
        path = tmp_path / "model.pnml"
        path.write_text(TWO_TRANSITION_NET.replace("<text>2</text>", "<text>0</text>"), encoding="utf-8")
        (tmp_path / "model.finalmarking.json").write_bytes(content)
        with pytest.raises(PnmlError, match="sidecar"):
            parse_pnml_file(path)

    def test_unreadable_sidecar(self, tmp_path):
        path = tmp_path / "model.pnml"
        path.write_text(TWO_TRANSITION_NET.replace("<text>2</text>", "<text>0</text>"), encoding="utf-8")
        (tmp_path / "model.finalmarking.json").mkdir()
        with pytest.raises(PnmlError, match="sidecar"):
            parse_pnml_file(path)

    def test_unreadable_model_file(self, tmp_path):
        (tmp_path / "model.pnml").mkdir()
        with pytest.raises(PnmlError, match="cannot read"):
            parse_pnml_file(tmp_path / "model.pnml")


# Documents built from the PNML vocabulary, so that most of them get past
# the XML parser and into the net reader.
_TAGS = (
    "pnml", "net", "page", "place", "transition", "arc", "name", "text",
    "initialMarking", "finalmarkings", "marking", "toolspecific",
)
_ATTRS = st.dictionaries(
    st.sampled_from(("id", "idref", "source", "target")),
    st.sampled_from(("p1", "p2", "t1", "t2", "a1", "", " ")),
    max_size=3,
)
_TEXTS = st.one_of(
    st.none(),
    st.sampled_from(("0", "1", " 2 ", "-1", "1e3", "x", "", "٣", "9" * 5000)),
    st.text(st.characters(blacklist_categories=("Cs", "Cc")), max_size=6),
)


def _element(tag, attrs, text, children):
    element = ET.Element(tag, attrs)
    element.text = text
    element.extend(children)
    return element


_TREES = st.recursive(
    st.builds(_element, st.sampled_from(_TAGS), _ATTRS, _TEXTS, st.just([])),
    lambda children: st.builds(
        _element, st.sampled_from(_TAGS), _ATTRS, _TEXTS, st.lists(children, max_size=4)
    ),
    max_leaves=24,
)


_NETS = st.lists(_TREES, max_size=6).map(
    lambda nodes: _element("pnml", {}, None, [_element("net", {"id": "n"}, None, nodes)])
)


def _valid_document(seed: int) -> bytes:
    lpm = random_lpm(random.Random(seed), "m", max_transitions=5, max_places=4, token_prob=0.5)
    return write_pnml(lpm.net, lpm.initial, lpm.final)


@st.composite
def _spliced_documents(draw) -> bytes:
    """A valid document with one byte range replaced by arbitrary bytes."""
    data = _valid_document(draw(st.integers(0, 50)))
    start = draw(st.integers(0, len(data)))
    stop = draw(st.integers(start, min(len(data), start + 40)))
    return data[:start] + draw(st.binary(max_size=12)) + data[stop:]


class TestFuzz:
    @settings(max_examples=300, database=None, derandomize=True, deadline=None)
    @given(
        st.one_of(
            _NETS.map(lambda tree: ET.tostring(tree, encoding="unicode")),
            _TREES.map(ET.tostring),
            _spliced_documents(),
            st.binary(max_size=64),
            st.text(st.characters(blacklist_categories=()), max_size=64),  # surrogates too
            st.sampled_from(("utf-8", "latin-1", "utf-16", "ascii", "no-such-codec", "")).map(
                lambda enc: f'<?xml version="1.0" encoding="{enc}"?><net/>'.encode("ascii")
            ),
        )
    )
    @example('<net><transition id="t\ud800"/></net>')  # a lone surrogate cannot be encoded
    @example(b'<?xml version="1.0" encoding="no-such-codec"?><net/>')
    def test_parse_returns_a_net_or_raises_pnml_error(self, data):
        try:
            net, initial, final = parse_pnml(data)
        except PnmlError:
            return
        assert isinstance(net, LabeledPetriNet)
        assert initial.places() <= net.places and final.places() <= net.places
        assert parse_pnml(write_pnml(net, initial, final)) == (net, initial, final)
