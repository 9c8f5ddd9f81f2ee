"""PNML subset parsing, deterministic writing, round-trips, sidecars."""

import json
import random

import pytest

from lpmgroup import Marking, PnmlError, SILENT, parse_pnml, parse_pnml_file, write_pnml
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

    def test_dangling_arc(self):
        doc = TWO_TRANSITION_NET.replace('target="p1"', 'target="ghost"')
        with pytest.raises(PnmlError, match="ghost"):
            parse_pnml(doc)

    def test_duplicate_id(self):
        doc = TWO_TRANSITION_NET.replace('transition id="t2"', 'transition id="t1"')
        with pytest.raises(PnmlError, match="duplicate"):
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
