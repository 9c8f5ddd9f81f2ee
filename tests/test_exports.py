"""CSV/JSON/DOT exports: formats, round-trips, determinism."""

import csv
import hashlib
import io
import json
import random

import numpy as np

from lpmgroup import (
    CurvePoint,
    DistanceMatrix,
    Measure,
    RankedModelSet,
    distance_matrix,
    diversity_report,
    export_clusters,
    export_dot,
    export_matrix,
    export_reports,
    load_matrix,
    ReductionCurve,
    reduction_curve,
    representatives,
    sweep,
)
from genmodels import chain_lpm, planted_groups, random_lpm, square_matrix


class TestMatrixExport:
    def test_zero_matrix_layout(self, tmp_path):
        matrix = DistanceMatrix(("a", "b"), [0.0], "transition")
        path = tmp_path / "matrix.csv"
        export_matrix(matrix, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "id,a,b"
        assert lines[1] == "a,0.000000,0.000000"
        assert len(lines) == 3

    def test_rows_match_per_cell_formatting_byte_for_byte(self, tmp_path):
        """Half-way values k/2e6 round in the last printed digit, and ids with
        commas, quotes or line breaks need csv quoting; the row-at-a-time
        writer must give the bytes of formatting every cell on its own, with
        a lone carriage return quoted like a newline, so that ``csv.reader``
        reads every id back."""
        rng = random.Random(71)
        ids = ("plain", "with,comma", 'with"quote', '"both",', "line\nbreak", "cr\rid", "", "m7", "m8", "m9")
        n = len(ids)
        values = [[0.0] * n for _ in range(n)]
        half_way = []  # odd k
        for i in range(n):
            for j in range(i + 1, n):
                k = rng.randrange(1, 2_000_000, 2)
                values[i][j] = values[j][i] = rng.choice([k / 2e6, rng.random(), 1.0])
                if values[i][j] == k / 2e6:
                    half_way.append(k)
        matrix = square_matrix(ids, values, "rnd")

        def line(cells):  # csv's quoting with "\r" as a line break too, and a "\n" line end
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\r\n").writerow(cells)
            return buf.getvalue()[:-2] + "\n"

        expected = line(["id", *ids]) + "".join(
            line([model_id, *(f"{v:.6f}" for v in row)]) for model_id, row in zip(ids, values)
        )
        export_matrix(matrix, tmp_path / "matrix.csv")
        assert (tmp_path / "matrix.csv").read_bytes() == expected.encode("utf-8")
        rows = list(csv.reader(io.StringIO(expected, newline="")))
        assert rows[0] == ["id", *ids] and [row[0] for row in rows[1:]] == list(ids)
        # the half-way cells round both down and up
        assert {round(float(f"{k / 2e6:.6f}") * 2e6) - k for k in half_way} == {-1, 1}

    def test_export_load_export_is_byte_identical(self, tmp_path):
        rng = random.Random(5)
        models = [random_lpm(rng, f"m{k}", max_transitions=4, max_places=3) for k in range(6)]
        approx_bearing = DistanceMatrix(("c", "a", "b"), [0.25, 0.5, 0.125], "efg", [False, True, False])
        for k, matrix in enumerate((distance_matrix(models, Measure.NODE), approx_bearing)):
            first = tmp_path / f"one{k}.csv"
            export_matrix(matrix, first)
            loaded = load_matrix(first, measure=matrix.measure)
            assert np.array_equal(loaded.approx, matrix.approx)
            again = tmp_path / f"two{k}.csv"
            export_matrix(loaded, again)
            assert first.read_bytes() == again.read_bytes()
            flags, flags_again = tmp_path / f"one{k}_approx.csv", tmp_path / f"two{k}_approx.csv"
            assert flags.exists() == flags_again.exists() == np.asarray(matrix.approx).any()
            if flags.exists():
                assert flags.read_bytes() == flags_again.read_bytes()

    def test_approx_flags_written_separately(self, tmp_path):
        matrix = DistanceMatrix(("a", "b"), [0.5], "efg", [True])
        path = tmp_path / "matrix.csv"
        export_matrix(matrix, path)
        flags = tmp_path / "matrix_approx.csv"
        assert flags.exists()
        assert flags.read_text(encoding="utf-8").splitlines()[1] == "a,b"

    def test_reexport_without_approx_pairs_removes_stale_flags(self, tmp_path):
        path = tmp_path / "matrix.csv"
        export_matrix(DistanceMatrix(("a", "b"), [0.5], "efg", [True]), path)
        export_matrix(DistanceMatrix(("a", "b"), [0.5], "efg"), path)
        assert not (tmp_path / "matrix_approx.csv").exists()


class TestClusterExport:
    def test_row_count_and_flags(self, tmp_path):
        ids = [f"m{i}" for i in range(1, 16)]
        models = tuple(chain_lpm(i, ["a"]) for i in ids)
        ranked = RankedModelSet(models=models, ranks={i: int(i[1:]) for i in ids})
        clusters = (tuple(ids[:5]), tuple(ids[5:10]), tuple(ids[10:]))
        reps = ("m1", "m6", "m11")
        path = tmp_path / "clusters.csv"
        export_clusters(clusters, reps, ranked, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 16  # header + 15 models
        assert sum(line.endswith(",true") for line in lines[1:]) == 3

    def test_partition_survives_reload(self, tmp_path):
        import csv

        from lpmgroup import check_partition

        ids = [f"m{i}" for i in range(1, 7)]
        models = tuple(chain_lpm(i, ["a"]) for i in ids)
        ranked = RankedModelSet(models=models, ranks={i: int(i[1:]) for i in ids})
        clusters = (tuple(ids[:2]), tuple(ids[2:]))
        path = tmp_path / "clusters.csv"
        export_clusters(clusters, ("m1", "m3"), ranked, path)
        with path.open(newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        regrouped: dict[str, list[str]] = {}
        for row in rows:
            regrouped.setdefault(row["cluster_id"], []).append(row["model_id"])
        check_partition(tuple(map(tuple, regrouped.values())), ids)
        assert tuple(map(tuple, regrouped.values())) == clusters


class TestReportExport:
    def test_writes_curve_diversity_and_json(self, tmp_path):
        ranked = planted_groups(groups=2, copies=3)
        matrix = distance_matrix(ranked.models, Measure.TRANSITION)
        curve = reduction_curve(ranked, Measure.TRANSITION, ns=[2, 6], matrix=matrix)
        result = sweep(matrix)
        reps = representatives(result.selected.clusters, "dist", ranked, matrix)
        report = diversity_report(ranked, ranked.subset(reps), Measure.TRANSITION, ns=[2], matrix=matrix)
        export_reports(curve, report, tmp_path)
        assert (tmp_path / "reduction_curve.csv").exists()
        assert (tmp_path / "diversity.csv").exists()
        assert (tmp_path / "report.json").exists()
        header = (tmp_path / "reduction_curve.csv").read_text(encoding="utf-8").splitlines()[0]
        assert header.split(",")[:4] == ["measure", "n", "model_count", "representative_count"]

    def test_report_bytes_are_pinned(self, tmp_path):
        # n = 1 has no threshold or silhouette; an int threshold still gets
        # six decimals; an empty diversity report still writes its header
        curve = ReductionCurve(
            measure="efg",
            points=(
                CurvePoint(n=1, model_count=1, representative_count=1, threshold=None,
                           silhouette=None, degenerate=True),
                CurvePoint(n=3, model_count=3, representative_count=2, threshold=1,
                           silhouette=2 / 3, degenerate=False),
            ),
        )
        ranked = planted_groups(groups=1, copies=2)
        matrix = distance_matrix(ranked.models, Measure.EFG)
        report = diversity_report(ranked, ranked, Measure.EFG, ns=(), matrix=matrix)
        export_reports(curve, report, tmp_path)
        assert (tmp_path / "reduction_curve.csv").read_text(encoding="utf-8") == (
            "measure,n,model_count,representative_count,threshold,silhouette,degenerate\n"
            "efg,1,1,1,,,true\n"
            "efg,3,3,2,1.000000,0.666667,false\n"
        )
        assert (tmp_path / "diversity.csv").read_text(encoding="utf-8") == (
            "measure,n,original_count,representative_count,original_mean,representative_mean\n"
        )
        assert json.loads((tmp_path / "report.json").read_text(encoding="utf-8")) == {
            "measure": "efg",
            "reduction_curve": [
                {"n": 1, "model_count": 1, "representative_count": 1, "threshold": None,
                 "silhouette": None, "degenerate": True},
                {"n": 3, "model_count": 3, "representative_count": 2, "threshold": 1,
                 "silhouette": 2 / 3, "degenerate": False},
            ],
            "diversity": [],
        }
        # the digest also pins the layout and "threshold": 1 (not 1.0)
        digest = hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest()
        assert digest == "e7c46efe5cd3aef656e3a210d8827aeab04f3dfd1d91cdd7fb3c1ba85495df7c"


class TestDotExport:
    def test_counts_nodes_and_edges(self):
        lpm = chain_lpm("m", ["a", "b"])
        dot = export_dot(lpm)
        assert dot.count("shape=circle") == 1
        assert dot.count("shape=box") == 2
        assert dot.count("->") == 2

    def test_silent_transition_is_filled_and_unlabeled(self):
        from lpmgroup import LabeledPetriNet, LocalProcessModel, Marking, SILENT

        net = LabeledPetriNet(
            places={"p"}, transitions={"t", "s"},
            arcs=[("t", "p"), ("p", "s")], labels={"t": "a", "s": SILENT},
        )
        lpm = LocalProcessModel(id="m", net=net, initial=Marking(), final=Marking())
        dot = export_dot(lpm)
        assert 'label="", style=filled, fillcolor=black' in dot

    def test_deterministic_across_runs(self, tmp_path):
        rng = random.Random(7)
        lpm = random_lpm(rng, "m")
        assert export_dot(lpm) == export_dot(lpm)
        path = tmp_path / "m.dot"
        export_dot(lpm, path)
        assert path.read_text(encoding="utf-8") == export_dot(lpm)
