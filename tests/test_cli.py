"""Command-line surface: subcommands, flags, exit codes, pipeline equivalence."""

import csv
import hashlib
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lpmgroup
from lpmgroup import LocalProcessModel, Measure, write_pnml
from lpmgroup.cli import main
from genmodels import chain_lpm, planted_groups, random_lpm, self_loop_star, skeleton_copies, with_isolated_transition


def write_manifest(tmp_path, models, extra=None, by_position=False):
    """A manifest of the models, each in a file named by its id, or by its
    position when ``by_position`` is set (for ids that are no file names)."""
    entries = []
    for k, lpm in enumerate(models):
        path = tmp_path / (f"model{k}.pnml" if by_position else f"{lpm.id}.pnml")
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


def _files_outside(root: Path, out: Path) -> list[Path]:
    """Every file under root but not under out."""
    return sorted(p for p in root.rglob("*") if p.is_file() and out not in p.parents)


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

    @pytest.mark.parametrize("end", ["source", "target"])
    def test_dangling_arc_exits_one(self, tmp_path, capsys, end):
        manifest = write_manifest(tmp_path, [chain_lpm("m1", ["a", "b"])])
        pnml = tmp_path / "m1.pnml"
        pnml.write_text(pnml.read_text(encoding="utf-8").replace(f'{end}="p0"', f'{end}="ghost"', 1), encoding="utf-8")
        assert main(["validate", "--manifest", str(manifest)]) == 1
        assert "references unknown node 'ghost'" in capsys.readouterr().err

    @pytest.mark.parametrize("arc, error", [
        ('<arc id="a1" source="t0" target="p0"><inscription><text>2</text></inscription></arc>',
         "arc 'a1' has inscription '2'; only unit arcs are supported"),
        ('<arc id="a1" source="t0" target="p0" /><arc id="a2" source="t0" target="p0" />',
         "arc 'a2' repeats arc 'a1' from 't0' to 'p0'"),
    ])
    def test_arc_the_net_cannot_hold_exits_one(self, tmp_path, capsys, arc, error):
        manifest = write_manifest(tmp_path, [chain_lpm("m1", ["a", "b"])])
        pnml = tmp_path / "m1.pnml"
        text = pnml.read_text(encoding="utf-8")
        assert '<arc id="a1" source="t0" target="p0" />' in text
        pnml.write_text(text.replace('<arc id="a1" source="t0" target="p0" />', arc), encoding="utf-8")
        assert main(["validate", "--manifest", str(manifest)]) == 1
        assert error in capsys.readouterr().err

    def test_first_dangling_arc_named_is_independent_of_the_hash_seed(self, tmp_path):
        manifest = write_manifest(tmp_path, [chain_lpm("m1", ["a", "b", "c"])])
        pnml = tmp_path / "m1.pnml"
        text = pnml.read_text(encoding="utf-8")
        pnml.write_text(text.replace('source="p0"', 'source="ghost0"').replace('target="p1"', 'target="ghost1"'), encoding="utf-8")
        src = str(Path(lpmgroup.__file__).resolve().parents[1])
        errors = set()
        for seed in range(6):
            done = subprocess.run(
                [sys.executable, "-m", "lpmgroup", "validate", "--manifest", str(manifest)],
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": str(seed)},
                capture_output=True, text=True, timeout=60,
            )
            assert done.returncode == 1
            errors.add(done.stderr)
        assert len(errors) == 1 and "references unknown node 'ghost" in errors.pop()

    def test_missing_manifest_exits_one(self, tmp_path, capsys):
        assert main(["validate", "--manifest", str(tmp_path / "nope.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_manifest_naming_a_directory_exits_one(self, tmp_path, capsys):
        assert main(["validate", "--manifest", str(tmp_path)]) == 1
        assert "cannot read manifest" in capsys.readouterr().err

    def test_manifest_that_is_not_utf8_exits_one(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_bytes(b'{"models": []}\xff')
        assert main(["validate", "--manifest", str(manifest)]) == 1
        assert "cannot read manifest" in capsys.readouterr().err


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

    def test_library_matrix_clusters_as_the_cli_does(self, tmp_path):
        # 1 - dice of these label sets is 0.09999999999999998 unquantized, which
        # would merge the pair at threshold 0.1; at the CSV precision it is 0.1
        models = [chain_lpm("j", list("ABCDEFGHIJ")), chain_lpm("k", list("ABCDEFGHIK"))]
        library = lpmgroup.sweep(lpmgroup.distance_matrix(models, Measure.TRANSITION), (0.1,))
        out = tmp_path / "out"
        main([
            "cluster", "--manifest", str(write_manifest(tmp_path, models)), "--measure", "transition",
            "--thresholds", "0.1:0.1:0.1", "--out", str(out),
        ])
        cli = json.loads((out / "sweep.json").read_text(encoding="utf-8"))
        assert len(library.selected.clusters) == cli["cluster_count"] == 2

    def test_default_thresholds_cover_tenths(self, tmp_path):
        manifest = varied_manifest(tmp_path)
        out = tmp_path / "out"
        main(["cluster", "--manifest", str(manifest), "--measure", "transition", "--out", str(out)])
        sweep = json.loads((out / "sweep.json").read_text(encoding="utf-8"))
        assert [o["threshold"] for o in sweep["thresholds"]] == [
            0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0
        ]

    @pytest.mark.parametrize("measure", [m.value for m in Measure])
    def test_cached_matrix_equals_one_shot(self, tmp_path, measure):
        reads = {"efg": ["--bound", "5"], "full": ["--bound", "5"], "ged": ["--ged-budget", "200"]}.get(measure, [])
        manifest = varied_manifest(tmp_path)
        one_shot = tmp_path / "oneshot"
        assert main([
            "cluster", "--manifest", str(manifest), "--measure", measure, *reads, "--out", str(one_shot),
        ]) == 0

        staged_matrix = tmp_path / "staged_matrix"
        assert main([
            "matrix", "--manifest", str(manifest), "--measure", measure, *reads, "--out", str(staged_matrix),
        ]) == 0
        staged = tmp_path / "staged"
        assert main([
            "cluster", "--manifest", str(manifest), "--measure", measure,
            "--matrix", str(staged_matrix / f"matrix_{measure}.csv"), "--out", str(staged),
        ]) == 0

        assert (one_shot / "clusters.csv").read_bytes() == (staged / "clusters.csv").read_bytes()
        assert (one_shot / "sweep.json").read_bytes() == (staged / "sweep.json").read_bytes()
        assert (one_shot / f"matrix_{measure}.csv").read_bytes() == (
            staged_matrix / f"matrix_{measure}.csv"
        ).read_bytes()

    def test_cached_matrix_of_ids_with_line_breaks_equals_one_shot(self, tmp_path):
        # a bare "\r" in an id must be quoted in the matrix and flags files,
        # or csv.reader splits its row and the cached run refuses the matrix
        star = self_loop_star(4)  # over the enumeration cap: its pairs are flagged
        models = [chain_lpm("a\nb", ["a", "b"]), chain_lpm("c\rd", ["a", "c"]),
                  LocalProcessModel('e,"f', star.net, star.initial, star.final)]
        manifest = write_manifest(tmp_path, models, by_position=True)
        common = ["--manifest", str(manifest), "--measure", "efg", "--enum-cap", "50"]
        assert main(["cluster", *common, "--out", str(tmp_path / "oneshot")]) == 0
        assert main(["matrix", *common, "--out", str(tmp_path / "staged")]) == 0
        assert (tmp_path / "staged" / "matrix_efg_approx.csv").exists()
        cached = ["--matrix", str(tmp_path / "staged" / "matrix_efg.csv"), "--out", str(tmp_path / "cached")]
        assert main(["cluster", *common, *cached]) == 0
        for name in ("clusters.csv", "sweep.json"):
            assert (tmp_path / "oneshot" / name).read_bytes() == (tmp_path / "cached" / name).read_bytes()

    @pytest.mark.parametrize("measure", ["transition", "efg"])
    def test_cached_matrix_in_reversed_row_order_equals_one_shot(self, tmp_path, measure):
        # complete linkage breaks distance ties by row, so these models cluster
        # differently in reversed row order unless the cached run puts the
        # matrix in manifest order; the star's efg pairs are flagged, so the
        # flags file is reversed too
        rng = random.Random(3)
        models = [random_lpm(rng, f"m{k}", max_transitions=3, max_places=2) for k in range(12)]
        common = ["--manifest", str(write_manifest(tmp_path, [*models, self_loop_star(4)])),
                  "--measure", measure, "--enum-cap", "50"]
        assert main(["cluster", *common, "--out", str(tmp_path / "oneshot")]) == 0
        def rows(path):  # these ids need no CSV quoting
            return [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()]

        def write(path, rows):
            path.write_text("".join(",".join(row) + "\n" for row in rows), encoding="utf-8")

        square = rows(tmp_path / "oneshot" / f"matrix_{measure}.csv")
        write(tmp_path / "reversed.csv", [["id", *square[0][:0:-1]], *([r[0], *r[:0:-1]] for r in square[:0:-1])])
        flags = tmp_path / "oneshot" / f"matrix_{measure}_approx.csv"
        assert flags.exists() == (measure == "efg")
        if flags.exists():
            header, *pairs = rows(flags)
            write(tmp_path / "reversed_approx.csv", [header, *(pair[::-1] for pair in pairs[::-1])])
        cached = ["--matrix", str(tmp_path / "reversed.csv"), "--out", str(tmp_path / "cached")]
        assert main(["cluster", *common, *cached]) == 0
        for name in ("clusters.csv", "sweep.json"):
            assert (tmp_path / "oneshot" / name).read_bytes() == (tmp_path / "cached" / name).read_bytes()

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

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the curve clusters each prefix in rank order, clusters.csv the whole set in "
                       "manifest order, and complete linkage breaks distance ties by row")
    def test_curve_point_of_every_model_equals_the_exported_clustering(self, tmp_path):
        # 12 seed-3 models: the whole-set curve point gives 7 clusters, clusters.csv 6
        rng = random.Random(3)
        models = [random_lpm(rng, f"m{k}", max_transitions=3, max_places=2) for k in range(12)]
        manifest = write_manifest(tmp_path, models)
        spec = json.loads(manifest.read_text(encoding="utf-8"))
        for k, entry in enumerate(spec["models"]):
            entry["rank"] = 12 - k  # rank order is the reverse of manifest order
        manifest.write_text(json.dumps(spec), encoding="utf-8")
        out = tmp_path / "out"
        argv = ["diversity", "--manifest", str(manifest), "--measure", "transition", "--curve-ns", "12"]
        assert main([*argv, "--out", str(out)]) == 0
        with (out / "clusters.csv").open(newline="", encoding="utf-8") as handle:
            exported = {row["cluster_id"] for row in csv.DictReader(handle)}
        [point] = json.loads((out / "report.json").read_text(encoding="utf-8"))["reduction_curve"]
        assert point["model_count"] == 12
        assert point["representative_count"] == len(exported)


class TestGoldenBytes:
    """The sha256 of every file ``matrix``, ``cluster``, ``cluster --matrix``
    and ``diversity`` write under ``efg`` on one small manifest: planted
    groups plus a star whose language exceeds the enumeration cap, so the
    flags file is written too. A curve point at n = 1 puts empty cells and
    nulls into the reports. Then the files a ``ged`` ``cluster`` writes at
    one and two workers, and the same bytes under other interpreters."""

    DIGESTS = {
        "matrix/matrix_efg.csv": "47cb5eac686745f7e0f07b6a1dd31f90eedaa0f626e9197baa045a50d34c928d",
        "matrix/matrix_efg_approx.csv": "af1f6fd5460b721bc7f4e7573f4827cb4d633ef83d3a6bfaf6c307971e9ba3d3",
        "cluster/matrix_efg.csv": "47cb5eac686745f7e0f07b6a1dd31f90eedaa0f626e9197baa045a50d34c928d",
        "cluster/matrix_efg_approx.csv": "af1f6fd5460b721bc7f4e7573f4827cb4d633ef83d3a6bfaf6c307971e9ba3d3",
        "cluster/clusters.csv": "fafae3565ef11898268f41f2e11fde72885ed787f402e13979171e72669583ca",
        "cluster/sweep.json": "750bb464bf3c2ad5c268064ac449008c648324fde0a35d3ac253c85a18b6e9d4",
        "cached/clusters.csv": "fafae3565ef11898268f41f2e11fde72885ed787f402e13979171e72669583ca",
        "cached/sweep.json": "750bb464bf3c2ad5c268064ac449008c648324fde0a35d3ac253c85a18b6e9d4",
        "diversity/clusters.csv": "fafae3565ef11898268f41f2e11fde72885ed787f402e13979171e72669583ca",
        "diversity/reduction_curve.csv": "722ab68daba0674bbfcd82e6b0909744dab95e2e5384cea204e8a1ffc874d3e2",
        "diversity/diversity.csv": "1b37a62eeec99cae813bf661bae86a1a21f09f7816f3802a089e171a0d94efcc",
        "diversity/report.json": "69fc5bc73cbf234ca84b7a216460a2cd2013e5624e928fd320de5674e8e350ab",
    }

    @staticmethod
    def efg_manifest(tmp_path):
        return write_manifest(tmp_path, [*planted_groups(groups=2, copies=7).models, self_loop_star(4)])

    def test_every_output_file_is_pinned(self, tmp_path):
        common = ["--manifest", str(self.efg_manifest(tmp_path)), "--measure", "efg", "--enum-cap", "50"]
        runs = {
            "matrix": ["matrix"],
            "cluster": ["cluster"],
            "cached": ["cluster", "--matrix", str(tmp_path / "matrix" / "matrix_efg.csv")],
            "diversity": ["diversity", "--ns", "3,6", "--curve-ns", "1,4,15"],
        }
        for name, argv in runs.items():
            assert main([*argv, *common, "--out", str(tmp_path / name)]) == 0
        digests = {
            f"{name}/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
            for name in runs
            for path in sorted((tmp_path / name).iterdir())
        }
        assert digests == self.DIGESTS

    GED_DIGESTS = {
        "matrix_ged.csv": "69f89764835507b342c7ed562e38fd7c2edba815868d8e78128ba33df021dd01",
        "matrix_ged_approx.csv": "83173b25a55bb5089e37fbc0e0811aecd4ebeb8eaf350cb1fc3fc865cdaf0c5e",
        "clusters.csv": "d24f21ab6b077c04d964850bc102b5caa866a164028d4eb3ec6697387ba7aa44",
        "sweep.json": "885768546ab1d2a9ab9a8e2d0930c2a2838f324b09885962c742c44dbc67a3d7",
    }

    @staticmethod
    def ged_manifest(tmp_path):
        """Three random skeletons, each with two relabeled copies: 36 pairs
        with repeated search inputs, 16 of them approximate at budget 600."""
        return write_manifest(tmp_path, skeleton_copies(random.Random(3), 3, 2))

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_ged_cluster_is_pinned(self, tmp_path, workers):
        argv = ["cluster", "--manifest", str(self.ged_manifest(tmp_path)), "--measure", "ged", "--ged-budget", "600"]
        assert main([*argv, "--workers", workers, "--out", str(tmp_path / "out")]) == 0
        digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in (tmp_path / "out").iterdir()}
        assert digests == self.GED_DIGESTS

    @staticmethod
    def other_interpreters() -> dict[str, str]:
        """Every CPython >= 3.10 other than this one that starts, found on
        PATH or beside ``sys.executable`` in a pyenv-style ``versions``
        directory: its version by its resolved ``sys.executable``."""
        names = ["python3", *(f"python3.{minor}" for minor in range(10, 20))]
        candidates = [Path(d) / name for d in os.environ.get("PATH", "").split(os.pathsep) if d for name in names]
        versions = Path(sys.executable).parents[2]
        if versions.name == "versions":
            candidates += sorted(versions.glob("*/bin/python3"))
        probe = "import sys; print(sys.implementation.name, sys.version_info >= (3, 10), sys.version.split()[0], sys.executable)"
        found, own = {}, os.path.realpath(sys.executable)
        for path in dict.fromkeys(c for c in candidates if c.is_file() and os.access(c, os.X_OK)):
            try:
                done = subprocess.run([str(path), "-c", probe], capture_output=True, text=True, timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                continue
            fields = done.stdout.split(maxsplit=3) if done.returncode == 0 else []
            if fields[:2] == ["cpython", "True"] and os.path.realpath(fields[3].strip()) != own:
                found.setdefault(os.path.realpath(fields[3].strip()), fields[2])
        return found

    def test_every_interpreter_writes_the_same_bytes(self, tmp_path):
        """``cluster`` and ``diversity`` on the efg manifest above, and the ged
        ``cluster``, write the same bytes under every CPython found as in this
        one: float sums that must not follow ``sum``'s rounding (Python 3.12
        changed it) go through ``measures.left_sum``."""
        interpreters = self.other_interpreters()
        if not interpreters:
            pytest.skip("no other CPython >= 3.10 found")
        efg = ["--manifest", str(self.efg_manifest(tmp_path)), "--measure", "efg", "--enum-cap", "50"]
        (tmp_path / "ged").mkdir()
        runs = {
            "cluster": ["cluster", *efg],
            "diversity": ["diversity", *efg, "--ns", "3,6", "--curve-ns", "1,4,15"],
            "ged": ["cluster", "--manifest", str(self.ged_manifest(tmp_path / "ged")), "--measure", "ged",
                    "--ged-budget", "600"],
        }

        def digests(out: Path) -> dict[str, str]:
            return {f"{name}/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
                    for name in runs for path in sorted((out / name).iterdir())}

        for name, argv in runs.items():
            assert main([*argv, "--out", str(tmp_path / "here" / name)]) == 0
        want = digests(tmp_path / "here")
        env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
        for k, (exe, version) in enumerate(sorted(interpreters.items())):
            out = tmp_path / f"other{k}"
            for name, argv in runs.items():
                done = subprocess.run([exe, "-m", "lpmgroup.cli", *argv, "--out", str(out / name)],
                                      env=env, capture_output=True, text=True, timeout=300)
                assert done.returncode == 0, (version, exe, done.stderr)
            assert digests(out) == want, (version, exe)


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

    @pytest.mark.parametrize("model_id", ["../escape", "x/y", "x" * 300, "a\0b"], ids=["parent", "slash", "long", "nul"])
    def test_an_id_that_is_no_file_name_exits_one(self, tmp_path, capsys, model_id):
        manifest = write_manifest(tmp_path, [chain_lpm("m1", ["a"]), chain_lpm(model_id, ["b"])], by_position=True)
        out = tmp_path / "work" / "out"
        before = _files_outside(tmp_path, out)
        assert main(["render", "--manifest", str(manifest), "--out", str(out)]) == 1
        assert repr(model_id) in capsys.readouterr().err
        assert _files_outside(tmp_path, out) == before


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
        "csv_text, flags_text",
        [
            (None, None),
            ("id,m1,m2\nm2,0,0\nm1,0,0\n", None),
            ("id,m1,m2\nm1,0,0.5\nm2,0.4,0\n", None),
            ("id,m1,m2\nm1,0,0.500000\nm2,0.500004,0\n", None),
            ("id,m1,m2\nm1,0,x\nm2,x,0\n", None),
            ("id,m1,m2\nm1,0,0\nm2,0,0\n", "id_a,id_b\nm1,m9\n"),
            ("id,m1,m2\nm1,0,0\nm2,0,0\n", "id_a,id_b\nm1\n"),
        ],
        ids=["missing", "row-order", "asymmetric", "near-symmetric", "non-numeric", "flags-unknown-id", "flags-malformed"],
    )
    def test_bad_cached_matrix_exits_one(self, tmp_path, capsys, csv_text, flags_text):
        manifest = identical_manifest(tmp_path, count=2)
        cached = tmp_path / "cached.csv"
        if csv_text is not None:
            cached.write_text(csv_text, encoding="utf-8")
        if flags_text is not None:
            (tmp_path / "cached_approx.csv").write_text(flags_text, encoding="utf-8")
        code = main([
            "cluster", "--manifest", str(manifest), "--measure", "transition",
            "--matrix", str(cached), "--out", str(tmp_path / "o"),
        ])
        assert code == 1
        assert "cannot load matrix" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "csv_text, message",
        [
            ("id,m1,m2\nm1,0,0.5\nm2,0.5\n", "row 'm2' holds 1 of 2 distances"),
            ("id,m1,m2\nm1,0,nan\nm2,nan,0\n", "distances must lie in [0, 1]"),
            ("id,m1,m2\nm1,0,inf\nm2,inf,0\n", "distances must lie in [0, 1]"),
            ("id,m1,m2\nm1,0,abc\nm2,abc,0\n", "cached.csv: row 'm1': could not convert string to float: 'abc'"),
            ("id,m1,m2\nm1,0,0.5\nm2,nan,0\n", "distance matrix must be symmetric"),
            ("id,m1,m2\nm1,0,0.5\nm2,0.5,0.1\n", "self-distances must be zero"),
        ],
        ids=["short-row", "nan", "inf", "non-numeric", "nan-below-diagonal", "nonzero-diagonal"],
    )
    def test_cached_matrix_error_names_the_fault(self, tmp_path, capsys, csv_text, message):
        manifest = identical_manifest(tmp_path, count=2)
        cached = tmp_path / "cached.csv"
        cached.write_text(csv_text, encoding="utf-8")
        code = main([
            "cluster", "--manifest", str(manifest), "--measure", "transition",
            "--matrix", str(cached), "--out", str(tmp_path / "o"),
        ])
        assert code == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "measure, flag, value",
        [
            ("efg", "--bound", "0"),
            ("efg", "--bound", "-3"),
            ("full", "--lang-cap", "0"),
            ("efg", "--enum-cap", "0"),
            ("ged", "--ged-budget", "-1"),
            ("transition", "--workers", "0"),
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

    @pytest.mark.parametrize(
        "flags, code, message",
        [
            (["--workers", "0"], 1, "must be at least 1"),
            (["--workers", "0", "--bound", "0", "--ged-budget", "-5"], 1, "must be at least 1"),
            (["--lang-cap", "0"], 1, "must be at least 1"),
            (["--bound", "3", "--ged-budget", "100"], 0, "notice: --ged-budget has no effect for measure efg; ignored"),
        ],
        ids=["workers", "three-bad", "lang-cap", "notice"],
    )
    def test_cached_matrix_checks_the_matrix_flags_as_a_fresh_run_does(self, tmp_path, capsys, flags, code, message):
        manifest = identical_manifest(tmp_path)
        assert main(["matrix", "--manifest", str(manifest), "--measure", "efg", "--out", str(tmp_path / "m")]) == 0
        capsys.readouterr()
        runs = []
        for cached in ([], ["--matrix", str(tmp_path / "m" / "matrix_efg.csv")]):
            argv = ["cluster", "--manifest", str(manifest), "--measure", "efg", *flags, *cached]
            runs.append((main([*argv, "--out", str(tmp_path / "o")]), capsys.readouterr().err))
        assert runs[0] == runs[1]
        assert runs[0][0] == code and message in runs[0][1]

    @pytest.mark.parametrize(
        "top, entry, field",
        [({"bound": True}, {}, "bound"), ({}, {"rank": True}, "rank"), ({}, {"id": None}, "id")],
        ids=["bound-true", "rank-true", "id-null"],
    )
    def test_mistyped_manifest_value_exits_one(self, tmp_path, capsys, top, entry, field):
        manifest = identical_manifest(tmp_path)
        data = json.loads(manifest.read_text(encoding="utf-8"))
        data.update(top)
        data["models"][0].update(entry)
        manifest.write_text(json.dumps(data), encoding="utf-8")
        assert main(["validate", "--manifest", str(manifest)]) == 1
        assert f"{field} must be a" in capsys.readouterr().err

    def test_no_measure_anywhere_exits_one(self, tmp_path, capsys):
        manifest = identical_manifest(tmp_path)
        assert main(["matrix", "--manifest", str(manifest), "--out", str(tmp_path / "o")]) == 1
        assert "no measure" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["matrix", "cluster", "diversity", "render"])
    def test_out_naming_a_file_exits_one(self, tmp_path, capsys, command):
        manifest = identical_manifest(tmp_path)
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        measure = [] if command == "render" else ["--measure", "transition"]
        assert main([command, "--manifest", str(manifest), *measure, "--out", str(taken)]) == 1
        assert "cannot create output directory" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["0:1:inf", "0:1:nan", "0:1:1e-7", "0:1:1e-12"])
    @pytest.mark.parametrize("command", ["cluster", "diversity"])
    def test_unusable_threshold_step_exits_one_quickly(self, tmp_path, capsys, command, spec):
        # a step below the matrix precision cannot separate quantized distances
        manifest = identical_manifest(tmp_path)
        start = time.perf_counter()
        code = main([
            command, "--manifest", str(manifest), "--measure", "transition",
            "--thresholds", spec, "--out", str(tmp_path / "o"),
        ])
        assert code == 1
        assert time.perf_counter() - start < 2.0
        assert "threshold step" in capsys.readouterr().err

    def test_threshold_step_at_matrix_precision_is_accepted(self, tmp_path):
        manifest = identical_manifest(tmp_path)
        out = tmp_path / "o"
        assert main([
            "cluster", "--manifest", str(manifest), "--measure", "transition",
            "--thresholds", "0.5:0.500002:1e-6", "--out", str(out),
        ]) == 0
        sweep = json.loads((out / "sweep.json").read_text(encoding="utf-8"))
        assert [o["threshold"] for o in sweep["thresholds"]] == [0.5, 0.500001, 0.500002]


@pytest.fixture(scope="module")
def fuzz_root(tmp_path_factory):
    """Manifests, a cached matrix and a plain file for the CLI fuzz test."""
    root = tmp_path_factory.mktemp("fuzz")
    for name, models in {
        "good": [chain_lpm("m1", ["a", "b"]), chain_lpm("m2", ["a", "c"]), chain_lpm("m3", ["d"])],
        "one": [chain_lpm("m1", ["a"])],
        "mixed": [chain_lpm("m1", ["a"]), with_isolated_transition(chain_lpm("m2", ["b"]))],
    }.items():
        (root / name).mkdir()
        write_manifest(root / name, models)
    (root / "not-utf8.json").write_bytes(b'{"models": []}\xff')
    (root / "bad.json").write_text("{not json", encoding="utf-8")
    (root / "file").write_text("", encoding="utf-8")
    argv = ["matrix", "--manifest", str(root / "good" / "manifest.json"), "--measure", "transition"]
    assert main([*argv, "--out", str(root / "cached")]) == 0
    return root


_FUZZ_PATHS = {  # under the fuzz root; the first one is usable
    "--manifest": [
        "good/manifest.json", "one/manifest.json", "mixed/manifest.json", "not-utf8.json", "bad.json", ".",
        "missing.json",
    ],
    "--matrix": ["cached/matrix_transition.csv", "bad.json", "not-utf8.json", ".", "missing.csv"],
    "--out": ["out", "file", "file/sub"],
}
_FUZZ_VALUES = {
    "--measure": [m.value for m in Measure] + ["nope"],
    "--bound": ["3", "0", "-1", "x"],
    "--lang-cap": ["5", "0"],
    "--enum-cap": ["50", "0"],
    "--ged-budget": ["100", "0"],
    "--workers": ["1", "0", "-2", "x"],
    "--thresholds": [
        "0.1:1.0:0.1", "0:0:0.1", "0:1:inf", "0:1:nan", "0:1:1e-7", "0:1:1e-12", "1:0:0.1", "0:1:-0.1",
        "0:1", "a:b:c",
    ],
    "--ns": ["2", "1,3", "0", "", "x"],
    "--curve-ns": ["2", "1,3", "0", ""],
    "--repr": ["rank", "dist", "best"],
    "--model": ["m1", "zz"],
}
_MEASURE_FLAGS = ["--bound", "--lang-cap", "--enum-cap", "--ged-budget", "--workers"]
_FUZZ_FLAGS = {  # the optional flags each command takes
    "validate": [],
    "matrix": _MEASURE_FLAGS,
    "cluster": _MEASURE_FLAGS + ["--matrix", "--thresholds", "--repr"],
    "diversity": _MEASURE_FLAGS + ["--thresholds", "--repr", "--ns", "--curve-ns"],
    "render": ["--model"],
}


@st.composite
def _cli_argv(draw, root):
    """Mostly well-formed command lines, so that most draws get past argument parsing."""

    def path(flag):
        choices = _FUZZ_PATHS[flag]
        return str(root / draw(st.just(choices[0]) | st.sampled_from(choices)))

    def value(flag):
        drawn = draw(st.sampled_from(_FUZZ_VALUES[flag] + [None]))
        return draw(st.text(max_size=4)) if drawn is None else drawn

    command = draw(st.sampled_from(sorted(_FUZZ_FLAGS)))
    argv = [command, "--manifest", path("--manifest")]
    if command != "validate":
        argv += ["--out", path("--out")]
    if _FUZZ_FLAGS[command][:1] == ["--bound"]:
        argv += ["--measure", value("--measure")]
    own = draw(st.lists(st.sampled_from(_FUZZ_FLAGS[command]), unique=True)) if _FUZZ_FLAGS[command] else []
    foreign = draw(st.lists(st.sampled_from(sorted(_FUZZ_PATHS) + sorted(_FUZZ_VALUES)), max_size=1))
    for flag in own + foreign:
        argv += [flag, path(flag) if flag in _FUZZ_PATHS else value(flag)]
    return argv + draw(st.lists(st.sampled_from(["--skip-invalid", "--strict"]), unique=True))


@settings(max_examples=200, database=None, derandomize=True, deadline=None)
@given(data=st.data())
def test_cli_returns_an_exit_code_and_never_raises(fuzz_root, data):
    argv = data.draw(_cli_argv(fuzz_root))
    assert main(argv) in (0, 1, 2)


# pieces of hostile model ids: path separators, dot names, CSV specials, line
# breaks, NUL, a lone surrogate (JSON admits it), and runs that make an id
# longer than a 255-byte file name
_ID_PARTS = ["m", "/", "\\", "..", ".", ",", '"', "\n", "\r", "\0", " ", "\ud800", "x" * 130]


@settings(max_examples=40, database=None, derandomize=True, deadline=None)
@given(ids=st.lists(st.lists(st.sampled_from(_ID_PARTS), min_size=1, max_size=3).map("".join),
                    min_size=2, max_size=4, unique=True))
def test_cli_survives_hostile_model_ids(ids):
    # every command on a manifest of random ids: an exit code, never an
    # exception, and no file written outside the command's own --out
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        manifest = write_manifest(root, [chain_lpm(i, ["a", "b", "c"][: k % 3 + 1]) for k, i in enumerate(ids)],
                                  by_position=True)
        cached = root / "matrix" / "matrix_transition.csv"
        runs = {
            "validate": ["validate"],
            "render": ["render"],
            "matrix": ["matrix", "--measure", "transition"],
            "cluster": ["cluster", "--measure", "transition"],
            "cached": ["cluster", "--measure", "transition", "--matrix", str(cached)],
            "diversity": ["diversity", "--measure", "transition"],
        }
        for name, (command, *flags) in runs.items():
            out = root / name
            argv = [command, "--manifest", str(manifest), *flags] + (["--out", str(out)] if name != "validate" else [])
            before = _files_outside(root, out)
            assert main(argv) in (0, 1, 2), argv
            assert _files_outside(root, out) == before, argv


def test_validate_efg_and_ged_commands_do_not_import_scipy(tmp_path):
    # No command imports scipy or numpy: both are blocked, and every command
    # runs under every measure, sequentially and with two processes. No
    # command loads concurrent.futures, multiprocessing or dataclasses; a
    # module-level import anywhere would bring its import time back into
    # every command.
    # Forks are counted with two usable CPUs: validate, render, --workers 1
    # and a cached matrix never fork, every other --workers 2 call forks
    # once. Only the ged measure loads the GED search module.
    manifest = varied_manifest(tmp_path)
    script = f"""
import os
import sys
sys.modules["scipy"] = None  # any import of scipy or numpy now raises ImportError
sys.modules["numpy"] = None
from lpmgroup.cli import main

def loaded(*names):
    return sorted(m for m, module in sys.modules.items()
                  if module is not None and any(m == n or m.startswith(n + ".") for n in names))

forks = []
real_fork = os.fork

def counting_fork():
    pid = real_fork()
    if pid:
        forks.append(pid)
    return pid

os.fork = counting_fork
os.sched_getaffinity = lambda pid: {{0, 1}}
os.cpu_count = lambda: 2

def run(command, *flags, out=None):
    argv = [command, "--manifest", {str(manifest)!r}, *flags]
    if out is not None:
        argv += ["--out", {str(tmp_path)!r} + "/" + out]
    assert main(argv) == 0, argv

def run_all(workers, measures=("transition", "node", "efg", "full", "ged")):
    reads = {{"efg": ["--bound", "4"], "full": ["--bound", "4"], "ged": ["--ged-budget", "500"]}}
    for measure in measures:
        for command in ("matrix", "cluster", "diversity"):
            run(command, "--measure", measure, *reads.get(measure, []), "--workers", workers,
                out=f"{{measure}}-{{workers}}-{{command}}")
        cached = {str(tmp_path)!r} + f"/{{measure}}-{{workers}}-matrix/matrix_{{measure}}.csv"
        run("cluster", "--measure", measure, "--matrix", cached, "--workers", workers,
            out=f"{{measure}}-{{workers}}-cached")

unwanted_names = ("numpy", "scipy", "concurrent.futures", "multiprocessing", "dataclasses", "lpmgroup.ged")
run("validate")
unwanted = [loaded(*unwanted_names)]
run("render", out="render")
unwanted.append(loaded(*unwanted_names))
run_all("1", ("transition", "node", "efg", "full"))
unwanted.append(loaded(*unwanted_names))
run_all("1", ("ged",))
unwanted.append(loaded(*unwanted_names[:-1]))
assert forks == []
run_all("2")
assert len(forks) == 15
unwanted.append(loaded(*unwanted_names[:-1]))
assert loaded("lpmgroup.ged") == ["lpmgroup.ged"]
print(unwanted)
"""
    src = str(Path(lpmgroup.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300, check=True
    )
    assert done.stdout.splitlines()[-1] == "[[], [], [], [], []]"


def test_package_exports_resolve_on_first_use():
    for name in lpmgroup.__all__:
        getattr(lpmgroup, name)
    assert set(lpmgroup.__all__) <= set(dir(lpmgroup))
    assert lpmgroup.RankedModelSet is lpmgroup.clustering.RankedModelSet
    with pytest.raises(AttributeError):
        lpmgroup.no_such_name


SRC = Path(lpmgroup.__file__).resolve().parents[1]


def _script_entry() -> list[str]:
    """What the installed ``lpmgroup`` script runs: the ``[project.scripts]``
    entry of pyproject.toml, called as pip's generated wrapper calls it."""
    text = (SRC.parent / "pyproject.toml").read_text(encoding="utf-8")
    module, name = re.search(r'^lpmgroup = "([\w.]+):(\w+)"$', text, re.M).groups()
    return ["-c", f"import sys; from {module} import {name}; sys.exit({name}())"]


ENTRY_POINTS = {"package": ["-m", "lpmgroup"], "module": ["-m", "lpmgroup.cli"], "script": _script_entry()}
# how a command ended before the entry function: sys.exit(main()) and interpreter teardown
SYS_EXIT_MAIN = ["-c", "import sys; from lpmgroup.cli import main; sys.exit(main())"]


def _spawn(args, **kwargs) -> tuple[int, str, str, int]:
    """Exit code, stdout and stderr text (None where not piped) and pid of ``python <args>``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    env.pop("PYTHONUNBUFFERED", None)  # stdout keeps what a command prints until it is flushed
    with subprocess.Popen([sys.executable, *args], env=env, text=True, **kwargs) as proc:
        out, err = proc.communicate(timeout=120)
    return proc.returncode, out, err, proc.pid


class TestEntryPoints:
    """``python -m lpmgroup``, ``python -m lpmgroup.cli`` and the ``lpmgroup``
    script end through ``cli.entry``: the exit code, text and files of
    ``main`` in-process, and no interpreter teardown."""

    @staticmethod
    def commands(tmp_path) -> dict[int, list[str]]:
        """A command per exit code; ``OUT`` stands for the output directory."""
        (tmp_path / "varied").mkdir()
        (tmp_path / "identical").mkdir()
        varied, identical = varied_manifest(tmp_path / "varied"), identical_manifest(tmp_path / "identical")
        return {
            0: ["cluster", "--manifest", str(varied), "--measure", "ged", "--ged-budget", "200", "--workers", "2",
                "--out", "OUT"],
            1: ["cluster", "--manifest", str(tmp_path / "nope.json"), "--measure", "transition", "--out", "OUT"],
            2: ["cluster", "--manifest", str(identical), "--measure", "transition", "--strict", "--out", "OUT"],
        }

    @staticmethod
    def outputs(out: Path) -> dict[str, bytes]:
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else {}

    def test_each_entry_ends_as_main_returns(self, tmp_path, capsys):
        for code, argv in self.commands(tmp_path).items():
            at_home = tmp_path / f"main-{code}"
            assert main([str(at_home) if a == "OUT" else a for a in argv]) == code
            text = capsys.readouterr()
            for name, entry in ENTRY_POINTS.items():
                out = tmp_path / f"{name}-{code}"
                *ended, pid = _spawn([*entry, *(str(out) if a == "OUT" else a for a in argv)],
                                     stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True)
                assert ended == [code, text.out, text.err], name
                assert self.outputs(out) == self.outputs(at_home), name
                with pytest.raises(ProcessLookupError):  # no pair worker outlives the command
                    os.killpg(pid, 0)
        assert self.outputs(tmp_path / "main-0")  # the exit-0 command wrote its files

    @pytest.mark.parametrize("stdout", ["closed", "unread pipe"])
    def test_a_failing_flush_ends_as_sys_exit_does(self, tmp_path, stdout):
        # validate's lines wait in the stdout buffer, so the entry's flush is
        # the first write to fail
        manifest = varied_manifest(tmp_path)
        for argv in (["validate", "--manifest", str(manifest)], ["validate", "--manifest", str(tmp_path / "nope")]):
            ends = []
            for entry in [*ENTRY_POINTS.values(), SYS_EXIT_MAIN]:
                if stdout == "closed":
                    code, _, err, _ = _spawn([*entry, *argv], stderr=subprocess.PIPE, preexec_fn=lambda: os.close(1))
                else:
                    read_end, write_end = os.pipe()
                    os.close(read_end)
                    try:
                        code, _, err, _ = _spawn([*entry, *argv], stdout=write_end, stderr=subprocess.PIPE)
                    finally:
                        os.close(write_end)
                ends.append((code, err))
            assert ends == [ends[-1]] * len(ends), argv
