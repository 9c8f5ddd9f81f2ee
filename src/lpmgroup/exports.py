"""Deterministic file exports: matrices, clusters, reports, and DOT graphs.

Matrix values are written as 6-decimal fixed point; re-exporting a loaded
matrix reproduces the file byte for byte. All writers emit rows in a fixed
order so repeated runs diff clean.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Sequence

import numpy as np

from .analysis import DiversityReport, ReductionCurve
from .clustering import ClusterSet, RankedModelSet
from .matrix import DistanceMatrix
from .petri import SILENT, LocalProcessModel

MATRIX_DECIMALS = 6


def matrix_to_csv(matrix: DistanceMatrix) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", *matrix.ids])
    for i, model_id in enumerate(matrix.ids):
        writer.writerow(
            [model_id, *(f"{matrix.values[i, j]:.{MATRIX_DECIMALS}f}" for j in range(len(matrix)))]
        )
    return buf.getvalue()


def _flags_path(path: Path) -> Path:
    return Path(str(path.with_suffix("")) + "_approx.csv")


def export_matrix(matrix: DistanceMatrix, path: Path | str) -> None:
    """Write the distance CSV; approximate pairs go to a sibling flags file,
    which is removed when no pair is approximate."""
    path = Path(path)
    path.write_text(matrix_to_csv(matrix), encoding="utf-8")
    flags = _flags_path(path)
    if not matrix.approx.any():
        flags.unlink(missing_ok=True)
        return
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id_a", "id_b"])
    for i in range(len(matrix)):
        for j in range(i + 1, len(matrix)):
            if matrix.approx[i, j]:
                writer.writerow([matrix.ids[i], matrix.ids[j]])
    flags.write_text(buf.getvalue(), encoding="utf-8")


def load_matrix(path: Path | str, measure: str = "loaded") -> DistanceMatrix:
    """Read a matrix CSV produced by export_matrix, with its approximation
    flags when the sibling flags file exists."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    if not rows or rows[0][:1] != ["id"]:
        raise ValueError(f"{path} is not a distance matrix CSV")
    ids = tuple(rows[0][1:])
    values = np.zeros((len(ids), len(ids)))
    if len(rows) != len(ids) + 1:
        raise ValueError(f"{path}: expected {len(ids)} data rows")
    for i, row in enumerate(rows[1:]):
        if row[0] != ids[i]:
            raise ValueError(f"{path}: row order does not match the header")
        values[i, :] = [float(cell) for cell in row[1:]]
    approx = np.zeros((len(ids), len(ids)), dtype=bool)
    flags = _flags_path(path)
    if flags.exists():
        with flags.open(newline="", encoding="utf-8") as handle:
            flag_rows = list(csv.reader(handle))
        if flag_rows[:1] != [["id_a", "id_b"]]:
            raise ValueError(f"{flags} is not an approximation flags CSV")
        index = {model_id: k for k, model_id in enumerate(ids)}
        for row in flag_rows[1:]:
            if len(row) != 2 or row[0] == row[1] or not set(row) <= index.keys():
                raise ValueError(f"{flags}: bad flag row {row!r}")
            i, j = index[row[0]], index[row[1]]
            approx[i, j] = approx[j, i] = True
    return DistanceMatrix(ids=ids, values=values, measure=measure, approx=approx)


def export_clusters(
    clusters: ClusterSet,
    representatives: Sequence[str],
    ranked: RankedModelSet,
    path: Path | str,
) -> None:
    """One CSV row per model: its cluster, rank, and representative flag."""
    rep_set = set(representatives)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["model_id", "cluster_id", "rank", "is_representative"])
    for cluster_id, cluster in enumerate(clusters):
        for model_id in sorted(cluster, key=lambda i: ranked.rank(i)):
            writer.writerow(
                [
                    model_id,
                    cluster_id,
                    ranked.rank(model_id),
                    "true" if model_id in rep_set else "false",
                ]
            )
    Path(path).write_text(buf.getvalue(), encoding="utf-8")


def _float_cell(value: float | None) -> str:
    return "" if value is None else f"{value:.{MATRIX_DECIMALS}f}"


def export_reports(
    curve: ReductionCurve,
    diversity: DiversityReport,
    out_dir: Path | str,
) -> None:
    """Write reduction_curve.csv, diversity.csv, and a combined report.json."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["measure", "n", "model_count", "representative_count", "threshold", "silhouette", "degenerate"])
    for p in curve.points:
        writer.writerow(
            [
                curve.measure,
                p.n,
                p.model_count,
                p.representative_count,
                _float_cell(p.threshold),
                _float_cell(p.silhouette),
                "true" if p.degenerate else "false",
            ]
        )
    (out_dir / "reduction_curve.csv").write_text(buf.getvalue(), encoding="utf-8")

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["measure", "n", "original_count", "representative_count", "original_mean", "representative_mean"])
    for e in diversity.entries:
        writer.writerow(
            [
                diversity.measure,
                e.n,
                e.original_count,
                e.representative_count,
                _float_cell(e.original_mean),
                _float_cell(e.representative_mean),
            ]
        )
    (out_dir / "diversity.csv").write_text(buf.getvalue(), encoding="utf-8")

    payload = {
        "measure": curve.measure,
        "reduction_curve": [
            {
                "n": p.n,
                "model_count": p.model_count,
                "representative_count": p.representative_count,
                "threshold": p.threshold,
                "silhouette": p.silhouette,
                "degenerate": p.degenerate,
            }
            for p in curve.points
        ],
        "diversity": [
            {
                "n": e.n,
                "original_count": e.original_count,
                "representative_count": e.representative_count,
                "original_mean": e.original_mean,
                "representative_mean": e.representative_mean,
            }
            for e in diversity.entries
        ],
    }
    (out_dir / "report.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(lpm: LocalProcessModel, path: Path | str | None = None) -> str:
    """Render the model: circles for places, boxes for transitions (silent
    ones filled black and unlabeled), directed arcs, sorted node order."""
    net = lpm.net
    lines = [f"digraph {_quote(lpm.id)} {{", "  rankdir=LR;"]
    for pid in sorted(net.places):
        lines.append(f"  {_quote('p_' + pid)} [shape=circle, label={_quote(pid)}];")
    for tid in sorted(net.transitions):
        label = net.label(tid)
        if label == SILENT:
            lines.append(
                f"  {_quote('t_' + tid)} [shape=box, label=\"\", style=filled, fillcolor=black];"
            )
        else:
            lines.append(f"  {_quote('t_' + tid)} [shape=box, label={_quote(label)}];")
    for src, dst in sorted(net.arcs):
        src_name = ("p_" if src in net.places else "t_") + src
        dst_name = ("p_" if dst in net.places else "t_") + dst
        lines.append(f"  {_quote(src_name)} -> {_quote(dst_name)};")
    lines.append("}")
    text = "\n".join(lines) + "\n"
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text
