"""Manifest loading: ranks, duplicates, missing files, invalid models."""

import json
import random

import pytest

from lpmgroup import ManifestError, load_manifest, write_pnml
from genmodels import chain_lpm, random_lpm, with_isolated_transition


def write_models(tmp_path, models, ranks=None, extra=None):
    entries = []
    for k, lpm in enumerate(models):
        path = tmp_path / f"{lpm.id}.pnml"
        path.write_bytes(write_pnml(lpm.net, lpm.initial, lpm.final))
        entries.append(
            {"id": lpm.id, "path": path.name, "rank": (ranks or {}).get(lpm.id, k + 1)}
        )
    manifest = {"models": entries}
    manifest.update(extra or {})
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    return manifest_path


class TestLoadManifest:
    def test_three_entry_manifest(self, tmp_path):
        models = [chain_lpm(f"m{i}", ["a", "b"]) for i in range(1, 4)]
        loaded = load_manifest(write_models(tmp_path, models))
        assert len(loaded.ranked) == 3
        assert loaded.ranked.ids_by_rank() == ("m1", "m2", "m3")

    def test_duplicate_rank_names_both_entries(self, tmp_path):
        models = [chain_lpm("m1", ["a"]), chain_lpm("m2", ["b"])]
        path = write_models(tmp_path, models, ranks={"m1": 1, "m2": 1})
        with pytest.raises(ManifestError, match="m1.*m2"):
            load_manifest(path)

    def test_duplicate_id(self, tmp_path):
        models = [chain_lpm("m1", ["a"])]
        path = write_models(tmp_path, models)
        data = json.loads(path.read_text(encoding="utf-8"))
        data["models"].append(dict(data["models"][0], rank=2))
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(ManifestError, match="duplicate model id"):
            load_manifest(path)

    def test_missing_model_file(self, tmp_path):
        models = [chain_lpm("m1", ["a"])]
        path = write_models(tmp_path, models)
        (tmp_path / "m1.pnml").unlink()
        with pytest.raises(ManifestError, match="not found"):
            load_manifest(path)

    def test_invalid_model_aborts_by_default(self, tmp_path):
        good = chain_lpm("good", ["a", "b"])
        bad = with_isolated_transition(chain_lpm("bad", ["a", "b"]))
        path = write_models(tmp_path, [good, bad])
        with pytest.raises(ManifestError, match="bad_iso"):
            load_manifest(path)

    def test_skip_invalid_keeps_the_rest(self, tmp_path):
        good = chain_lpm("good", ["a", "b"])
        bad = with_isolated_transition(chain_lpm("bad", ["a", "b"]))
        path = write_models(tmp_path, [good, bad])
        loaded = load_manifest(path, skip_invalid=True)
        assert [m.id for m in loaded.ranked.models] == ["good"]
        assert loaded.skipped[0][0] == "bad_iso"

    def test_manifest_defaults_are_read(self, tmp_path):
        models = [chain_lpm("m1", ["a"])]
        path = write_models(tmp_path, models, extra={"bound": 7, "measure": "efg"})
        loaded = load_manifest(path)
        assert loaded.manifest.bound == 7
        assert loaded.manifest.measure == "efg"

    def test_manifest_of_six_hundred_models(self, tmp_path):
        rng = random.Random(600)
        models = [random_lpm(rng, f"m{k:03d}", max_transitions=6, max_places=4) for k in range(600)]
        path = write_models(tmp_path, models)
        loaded = load_manifest(path)
        assert len(loaded.ranked) == 600


class TestManifestTypes:
    """JSON values that Python would coerce are refused, not reinterpreted:
    ``true`` is not rank or bound 1, and ``null`` is not the id "None"."""

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("rank", True, "rank must be a positive integer"),
            ("rank", 1.0, "rank must be a positive integer"),
            ("id", None, "id must be a non-empty string"),
            ("id", "", "id must be a non-empty string"),
            ("id", 7, "id must be a non-empty string"),
            ("id", "m\ud800", r"id 'm\\ud800' holds a lone surrogate"),
        ],
    )
    def test_bad_entry_field(self, tmp_path, field, value, message):
        path = write_models(tmp_path, [chain_lpm("m1", ["a"]), chain_lpm("m2", ["b"])])
        data = json.loads(path.read_text(encoding="utf-8"))
        data["models"][1][field] = value
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(ManifestError, match=rf"models\[1\] {message}"):
            load_manifest(path)

    @pytest.mark.parametrize("bound", [True, 0, 2.5, "3"])
    def test_bad_bound(self, tmp_path, bound):
        path = write_models(tmp_path, [chain_lpm("m1", ["a"])], extra={"bound": bound})
        with pytest.raises(ManifestError, match="bound must be a positive integer"):
            load_manifest(path)
