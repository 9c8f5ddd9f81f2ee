"""Command-line surface: subcommands, flags, exit codes, pipeline equivalence."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lpmgroup
from lpmgroup import write_pnml
from lpmgroup.cli import main
from genmodels import chain_lpm, planted_groups, with_isolated_transition


def write_manifest(tmp_path, models, extra=None):
    entries = []
    for k, lpm in enumerate(models):
        path = tmp_path / f"{lpm.id}.pnml"
        path.write_bytes(write_pnml(lpm.net, lpm.initial, lpm.final))
        entries.append({"id": lpm.id, "path": path.name, "rank": k + 1})
    manifest = {"models": entries}
    manifest.update(extra or {})
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    return manifest_path


def identical_manifest(tmp_path, count=3):
    return write_manifest(tmp_path, [chain_lpm(f"m{i}", ["a", "b"]) for i in range(1, count + 1)])


def varied_manifest(tmp_path):
    ranked = planted_groups(groups=3, copies=4)
    return write_manifest(tmp_path, list(ranked.models))


class TestValidate:
    def test_all_valid(self, tmp_path, capsys):
        manifest = identical_manifest(tmp_path)
        assert main(["validate", "--manifest", str(manifest)]) == 0
        out = capsys.readouterr().out
        assert "3 valid, 0 invalid" in out

    def test_invalid_model_exits_one(self, tmp_path, capsys):
        bad = with_isolated_transition(chain_lpm("bad", ["a", "b"]))
        manifest = write_manifest(tmp_path, [chain_lpm("good", ["a"]), bad])
        assert main(["validate", "--manifest", str(manifest)]) == 1
        assert "invalid bad_iso" in capsys.readouterr().out

    @pytest.mark.parametrize("sidecar", ["{not json", '{"p0": -1}', '{"p0": "x"}', "5"])
    def test_malformed_sidecar_exits_one(self, tmp_path, capsys, sidecar):
        manifest = write_manifest(tmp_path, [chain_lpm("m1", ["a", "b"])])
        (tmp_path / "m1.finalmarking.json").write_text(sidecar, encoding="utf-8")
        assert main(["validate", "--manifest", str(manifest)]) == 1
        assert "sidecar" in capsys.readouterr().err

    @pytest.mark.parametrize("count", ["two", "-1"])
    def test_malformed_final_marking_exits_one(self, tmp_path, capsys, count):
        manifest = write_manifest(tmp_path, [chain_lpm("m1", ["a", "b"])])
        pnml = tmp_path / "m1.pnml"
        text = pnml.read_text(encoding="utf-8").replace(
            "</net>",
            f'<finalmarkings><marking><place idref="p0"><text>{count}</text></place>'
            "</marking></finalmarkings></net>",
        )
        pnml.write_text(text, encoding="utf-8")
        assert main(["validate", "--manifest", str(manifest)]) == 1
        assert "token count" in capsys.readouterr().err

    def test_missing_manifest_exits_one(self, tmp_path, capsys):
        assert main(["validate", "--manifest", str(tmp_path / "nope.json")]) == 1
        assert "error:" in capsys.readouterr().err


class TestCluster:
    def test_identical_models_form_one_cluster(self, tmp_path, capsys):
        manifest = identical_manifest(tmp_path)
        out = tmp_path / "out"
        assert main(["cluster", "--manifest", str(manifest), "--measure", "transition", "--out", str(out)]) == 0
        sweep = json.loads((out / "sweep.json").read_text(encoding="utf-8"))
        assert sweep["cluster_count"] == 1
        assert len(sweep["representatives"]) == 1
        rows = (out / "clusters.csv").read_text(encoding="utf-8").splitlines()
        assert sum(r.endswith(",true") for r in rows) == 1

    def test_default_thresholds_cover_tenths(self, tmp_path):
        manifest = varied_manifest(tmp_path)
        out = tmp_path / "out"
        main(["cluster", "--manifest", str(manifest), "--measure", "transition", "--out", str(out)])
        sweep = json.loads((out / "sweep.json").read_text(encoding="utf-8"))
        assert [o["threshold"] for o in sweep["thresholds"]] == [
            0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0
        ]

    def test_cached_matrix_equals_one_shot(self, tmp_path):
        manifest = varied_manifest(tmp_path)
        one_shot = tmp_path / "oneshot"
        assert main([
            "cluster", "--manifest", str(manifest), "--measure", "efg", "--bound", "5",
            "--out", str(one_shot),
        ]) == 0

        staged_matrix = tmp_path / "staged_matrix"
        assert main([
            "matrix", "--manifest", str(manifest), "--measure", "efg", "--bound", "5",
            "--out", str(staged_matrix),
        ]) == 0
        staged = tmp_path / "staged"
        assert main([
            "cluster", "--manifest", str(manifest), "--measure", "efg",
            "--matrix", str(staged_matrix / "matrix_efg.csv"), "--out", str(staged),
        ]) == 0

        assert (one_shot / "clusters.csv").read_bytes() == (staged / "clusters.csv").read_bytes()
        assert (one_shot / "sweep.json").read_bytes() == (staged / "sweep.json").read_bytes()
        assert (one_shot / "matrix_efg.csv").read_bytes() == (
            staged_matrix / "matrix_efg.csv"
        ).read_bytes()

    def test_bound_ignored_notice_for_transition(self, tmp_path, capsys):
        manifest = identical_manifest(tmp_path)
        out = tmp_path / "out"
        code = main([
            "cluster", "--manifest", str(manifest), "--measure", "transition",
            "--bound", "5", "--out", str(out),
        ])
        assert code == 0
        assert "no effect" in capsys.readouterr().err

    def test_strict_escalates_degenerate_result(self, tmp_path):
        manifest = identical_manifest(tmp_path)  # all-zero distances: degenerate everywhere
        out = tmp_path / "out"
        code = main([
            "cluster", "--manifest", str(manifest), "--measure", "transition",
            "--strict", "--out", str(out),
        ])
        assert code == 2

    def test_repr_rank_strategy(self, tmp_path):
        manifest = varied_manifest(tmp_path)
        out = tmp_path / "out"
        main([
            "cluster", "--manifest", str(manifest), "--measure", "transition",
            "--repr", "rank", "--out", str(out),
        ])
        sweep = json.loads((out / "sweep.json").read_text(encoding="utf-8"))
        # group-major ranking: each group's first copy has its best rank
        assert sweep["representative_ranks"] == [1, 5, 9]


class TestDiversity:
    def test_reports_written(self, tmp_path):
        manifest = varied_manifest(tmp_path)
        out = tmp_path / "out"
        assert main([
            "diversity", "--manifest", str(manifest), "--measure", "transition",
            "--ns", "3,6", "--curve-ns", "4,12", "--out", str(out),
        ]) == 0
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert [p["n"] for p in report["reduction_curve"]] == [4, 12]
        assert [e["n"] for e in report["diversity"]] == [3, 6]
        assert (out / "clusters.csv").exists()


class TestRender:
    def test_renders_every_model(self, tmp_path):
        manifest = identical_manifest(tmp_path)
        out = tmp_path / "dot"
        assert main(["render", "--manifest", str(manifest), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.glob("*.dot")) == ["m1.dot", "m2.dot", "m3.dot"]

    def test_single_model_filter(self, tmp_path):
        manifest = identical_manifest(tmp_path)
        out = tmp_path / "dot"
        assert main(["render", "--manifest", str(manifest), "--model", "m2", "--out", str(out)]) == 0
        assert [p.name for p in out.glob("*.dot")] == ["m2.dot"]

    def test_unknown_model_exits_one(self, tmp_path):
        manifest = identical_manifest(tmp_path)
        assert main(["render", "--manifest", str(manifest), "--model", "zz", "--out", str(tmp_path / "x")]) == 1


class TestErrors:
    def test_unknown_flag_exits_one(self, tmp_path, capsys):
        manifest = identical_manifest(tmp_path)
        assert main(["validate", "--manifest", str(manifest), "--bogus"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_measure_exits_one(self, tmp_path):
        manifest = identical_manifest(tmp_path)
        assert main(["matrix", "--manifest", str(manifest), "--measure", "nope", "--out", str(tmp_path / "o")]) == 1

    def test_measure_from_manifest_default(self, tmp_path):
        models = [chain_lpm(f"m{i}", ["a", "b"]) for i in range(1, 4)]
        manifest = write_manifest(tmp_path, models, extra={"measure": "transition"})
        out = tmp_path / "out"
        assert main(["matrix", "--manifest", str(manifest), "--out", str(out)]) == 0
        assert (out / "matrix_transition.csv").exists()

    @pytest.mark.parametrize(
        "csv_text",
        [
            None,
            "id,m1,m2\nm2,0,0\nm1,0,0\n",
            "id,m1,m2\nm1,0,0.5\nm2,0.4,0\n",
            "id,m1,m2\nm1,0,x\nm2,x,0\n",
        ],
        ids=["missing", "row-order", "asymmetric", "non-numeric"],
    )
    def test_bad_cached_matrix_exits_one(self, tmp_path, capsys, csv_text):
        manifest = identical_manifest(tmp_path, count=2)
        cached = tmp_path / "cached.csv"
        if csv_text is not None:
            cached.write_text(csv_text, encoding="utf-8")
        code = main([
            "cluster", "--manifest", str(manifest), "--measure", "transition",
            "--matrix", str(cached), "--out", str(tmp_path / "o"),
        ])
        assert code == 1
        assert "cannot load matrix" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "measure, flag, value",
        [
            ("efg", "--bound", "0"),
            ("efg", "--bound", "-3"),
            ("full", "--lang-cap", "0"),
            ("efg", "--enum-cap", "0"),
            ("ged", "--ged-budget", "-1"),
        ],
    )
    def test_non_positive_measure_parameter_exits_one(self, tmp_path, capsys, measure, flag, value):
        manifest = identical_manifest(tmp_path)
        code = main([
            "matrix", "--manifest", str(manifest), "--measure", measure, flag, value,
            "--out", str(tmp_path / "o"),
        ])
        assert code == 1
        assert "must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("measure", ["transition", "node", "efg", "full", "ged"])
    def test_ignored_parameter_notices(self, tmp_path, capsys, measure):
        manifest = identical_manifest(tmp_path)
        assert main([
            "matrix", "--manifest", str(manifest), "--measure", measure, "--bound", "3",
            "--lang-cap", "5", "--enum-cap", "50", "--ged-budget", "100", "--out", str(tmp_path / "o"),
        ]) == 0
        read = {
            "transition": (), "node": (), "efg": ("bound", "enum-cap"),
            "full": ("bound", "lang-cap", "enum-cap"), "ged": ("ged-budget",),
        }[measure]
        expected = [
            f"notice: --{flag} has no effect for measure {measure}; ignored"
            for flag in ("bound", "lang-cap", "enum-cap", "ged-budget")
            if flag not in read
        ]
        assert capsys.readouterr().err.splitlines() == expected

    def test_no_measure_anywhere_exits_one(self, tmp_path, capsys):
        manifest = identical_manifest(tmp_path)
        assert main(["matrix", "--manifest", str(manifest), "--out", str(tmp_path / "o")]) == 1
        assert "no measure" in capsys.readouterr().err


def test_validate_and_efg_cluster_do_not_import_scipy(tmp_path):
    # scipy is loaded only by the measures that solve an assignment (node,
    # full, ged); a module-level import anywhere else would bring its import
    # time back into every command.
    manifest = varied_manifest(tmp_path)
    script = f"""
import sys
from lpmgroup.cli import main
assert main(["validate", "--manifest", {str(manifest)!r}]) == 0
assert main(["cluster", "--manifest", {str(manifest)!r}, "--measure", "efg", "--bound", "4",
             "--out", {str(tmp_path / "out")!r}]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    src = str(Path(lpmgroup.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    assert done.stdout.splitlines()[-1] == "[]"
