"""Tests of the benchmark itself; run from the repository root with
``python3 -m pytest bench/tests -q``. They are not part of the package suite."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_same_bytes_other_seed_other_bytes(name, tmp_path):
    digests = [
        workloads.inputs_digest(workloads.write_inputs(name, seed, tmp_path / f"{k}").parent)
        for k, seed in enumerate((5, 5, 6))
    ]
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_default_seed_matches_pinned_inputs(name, tmp_path):
    pins = json.loads((ROOT / "bench" / "pins.json").read_text(encoding="utf-8"))[name]
    workloads.write_inputs(name, workloads.DEFAULT_SEED, tmp_path)
    assert workloads.inputs_digest(tmp_path) == pins["inputs"]


def _write(path: Path, rows: list[str]) -> Path:
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


def test_clusters_check_accepts_partition_and_flags_corruption(tmp_path):
    ranks = {"a": 1, "b": 2, "c": 3}
    header = "model_id,cluster_id,rank,is_representative"
    good = _write(tmp_path / "good.csv", [header, "a,0,1,true", "b,0,2,false", "c,1,3,true"])
    assert checks.check_clusters(good, ranks) == []
    missing = _write(tmp_path / "missing.csv", [header, "a,0,1,true", "b,0,2,false"])
    assert checks.check_clusters(missing, ranks)
    twice = _write(tmp_path / "twice.csv", [header, "a,0,1,true", "b,0,2,false", "c,1,3,true", "a,1,1,false"])
    assert checks.check_clusters(twice, ranks)
    two_reps = _write(tmp_path / "reps.csv", [header, "a,0,1,true", "b,0,2,true", "c,1,3,true"])
    assert checks.check_clusters(two_reps, ranks)
    wrong_rank = _write(tmp_path / "rank.csv", [header, "a,0,2,true", "b,0,2,false", "c,1,3,true"])
    assert checks.check_clusters(wrong_rank, ranks)


def test_matrix_check_flags_asymmetry_diagonal_and_range(tmp_path):
    ids = ["a", "b"]
    good = _write(tmp_path / "good.csv", ["id,a,b", "a,0.000000,0.250000", "b,0.250000,0.000000"])
    assert checks.check_matrix(good, ids) == []
    asym = _write(tmp_path / "asym.csv", ["id,a,b", "a,0.000000,0.250000", "b,0.260000,0.000000"])
    assert any("asymmetric" in e for e in checks.check_matrix(asym, ids))
    diag = _write(tmp_path / "diag.csv", ["id,a,b", "a,0.100000,0.250000", "b,0.250000,0.000000"])
    assert any("diagonal" in e for e in checks.check_matrix(diag, ids))
    wide = _write(tmp_path / "wide.csv", ["id,a,b", "a,0.000000,1.500000", "b,1.500000,0.000000"])
    assert any("outside" in e for e in checks.check_matrix(wide, ids))
    assert checks.check_matrix(good, ["b", "a"])


def test_sampled_distance_check_flags_a_wrong_entry(tmp_path):
    from lpmgroup import distance

    models = workloads.population("lang-efg", 2)[:3]
    ids = [m.id for m in models]
    values = [[round(distance("efg", a, b), 6) for b in models] for a in models]
    rows = ["id," + ",".join(ids)] + [f"{i}," + ",".join(f"{v:.6f}" for v in row) for i, row in zip(ids, values)]
    good = _write(tmp_path / "good.csv", rows)
    assert checks.check_sampled_distances(good, models, "efg", {}, seed=1, count=6) == []
    values[0][1] = values[1][0] = min(1.0, values[0][1] + 0.01)
    rows = ["id," + ",".join(ids)] + [f"{i}," + ",".join(f"{v:.6f}" for v in row) for i, row in zip(ids, values)]
    bad = _write(tmp_path / "bad.csv", rows)
    assert checks.check_sampled_distances(bad, models, "efg", {}, seed=1, count=20)


def test_benchmark_json_names_match_the_printed_metrics(tmp_path):
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert e2e == run.END_TO_END_UNITS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)

    small = workloads.Workload(
        name="tiny", why="", measure="transition", params={}, workers=1
    )
    models = workloads.population("struct-ged", 3)[:8]
    manifest = tmp_path / "inputs" / "manifest.json"
    (tmp_path / "inputs" / "nets").mkdir(parents=True)
    entries = []
    for rank, model in enumerate(models, start=1):
        path = tmp_path / "inputs" / "nets" / f"{model.id}.pnml"
        path.write_bytes(workloads.write_pnml(model.net, model.initial, model.final))
        entries.append({"id": model.id, "path": f"nets/{model.id}.pnml", "rank": rank})
    manifest.write_text(json.dumps({"models": entries}), encoding="utf-8")
    fake = {c: run.Invocation(c, 0, 1.0, 1.0, 1000) for c in ("validate", "cluster", "cached", "diversity")}
    metrics = tracing.traced_run(small, 3, manifest, tmp_path / "traced", tmp_path / "spans.json", fake)
    layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: u for k, (_, u) in metrics.items()} == layer
    spans = json.loads((tmp_path / "spans.json").read_text(encoding="utf-8"))["spans"]
    assert all(s["end"] >= s["start"] for s in spans)
