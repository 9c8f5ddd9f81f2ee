"""Every file the pipeline writes: matrices, clusters, the sweep, reports, DOT graphs.

Matrix values are written as 6-decimal fixed point; re-exporting a loaded
matrix reproduces the file byte for byte. All writers emit rows in a fixed
order so repeated runs diff clean.
"""

from __future__ import annotations

import json
from itertools import chain, combinations, compress
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from .analysis import CurvePoint, DiversityEntry, DiversityReport, ReductionCurve, map_ranks
from .petri import SILENT, LocalProcessModel

# the clustering and matrix layers are imported where the matrix files are
# read: render needs neither of them.
if TYPE_CHECKING:
    from .clustering import ClusterSet, SweepResult
    from .manifest import RankedModelSet
    from .matrix import DistanceMatrix

MATRIX_DECIMALS = 6  # the CSV precision; distance_matrix quantizes to it
_CSV_SPECIAL = frozenset(',"\r\n')  # characters that make a CSV field quoted


def _fixed(value: float) -> str:
    return f"{value:.{MATRIX_DECIMALS}f}"


def _flag(value: bool) -> str:
    return "true" if value else "false"


def _field(value: object) -> str:
    """One CSV field, quoted as ``csv.writer`` quotes it, and also when it holds
    a lone carriage return: ``csv.writer`` with a newline line end leaves that
    bare, and ``csv.reader`` then splits the row at it."""
    text = str(value)
    return '"' + text.replace('"', '""') + '"' if _CSV_SPECIAL.intersection(text) else text


def _csv(header: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    return "".join(",".join(map(_field, row)) + "\n" for row in chain([header], rows))


def _write(path: Path | str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def _write_json(path: Path | str, payload: dict) -> None:
    _write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _flags_path(path: Path) -> Path:
    return Path(str(path.with_suffix("")) + "_approx.csv")


def export_matrix(matrix: DistanceMatrix, path: Path | str) -> None:
    """Write the distance CSV row by row, each row's values in one ``%`` call (the
    digits of ``f"{value:.6f}"`` per cell); approximate pairs go to a sibling
    flags file, which is removed when no pair is approximate."""
    path, ids = Path(path), matrix.ids
    row_format = f",%.{MATRIX_DECIMALS}f" * len(ids) + "\n"
    with path.open("w", encoding="utf-8") as handle:
        handle.write(_csv(["id", *ids], ()))
        handle.writelines(_field(model_id) + row_format % row for model_id, row in zip(ids, matrix.values))
    flags = _flags_path(path)
    pairs = [[ids[i], ids[j]] for i, j in compress(combinations(range(len(ids)), 2), matrix.flags)]
    if not pairs:
        flags.unlink(missing_ok=True)
        return
    _write(flags, _csv(["id_a", "id_b"], pairs))


def load_matrix(path: Path | str, measure: str = "loaded") -> DistanceMatrix:
    """Read a matrix CSV produced by export_matrix, each row checked as it comes in: exactly
    symmetric with a zero diagonal. Its approximation flags come from the sibling flags file, if any."""
    import csv

    from .matrix import DistanceMatrix, _offsets

    path = Path(path)
    upper: list[float] = []  # combinations(range(n), 2) order
    with path.open(newline="", encoding="utf-8") as handle:
        rows = csv.reader(handle)  # one row at a time: the square is never held
        header = next(rows, [])
        if header[:1] != ["id"]:
            raise ValueError(f"{path} is not a distance matrix CSV")
        ids = tuple(header[1:])
        n, at, read = len(ids), _offsets(len(ids)), 0
        for i, (model_id, row) in enumerate(zip(ids, rows)):
            if row[:1] != [model_id]:
                raise ValueError(f"{path}: row order does not match the header")
            if len(row) != n + 1:
                raise ValueError(f"{path}: row {model_id!r} holds {len(row) - 1} of {n} distances")
            try:
                cells = list(map(float, row[1:]))
            except ValueError as exc:
                raise ValueError(f"{path}: row {model_id!r}: {exc}") from None
            above = [upper[start + i] for start in at[:i]]  # column i of the rows read so far
            fault = ("distances must lie in [0, 1]" if not all(0.0 <= x <= 1.0 for x in cells[i + 1:])
                     else "self-distances must be zero" if cells[i] != 0.0
                     else "distance matrix must be symmetric" if cells[:i] != above else None)
            if fault:
                raise ValueError(f"{path}: row {model_id!r}: {fault}")
            upper.extend(cells[i + 1:])
            read += 1
        if read != n or next(rows, None) is not None:
            raise ValueError(f"{path}: expected {n} data rows")
    flagged = bytearray(len(upper))  # one byte per pair, as DistanceMatrix.flags
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
            i, j = sorted(map(index.get, row))
            flagged[at[i] + j] = 1
    return DistanceMatrix(ids, upper, measure, flagged)


def export_clusters(
    clusters: ClusterSet,
    representatives: Sequence[str],
    ranked: RankedModelSet,
    path: Path | str,
) -> None:
    """One CSV row per model: its cluster, rank, and representative flag."""
    rep_set = set(representatives)
    rows = (
        [model_id, cluster_id, ranked.rank(model_id), _flag(model_id in rep_set)]
        for cluster_id, cluster in enumerate(clusters)
        for model_id in sorted(cluster, key=ranked.rank)
    )
    _write(path, _csv(["model_id", "cluster_id", "rank", "is_representative"], rows))


def export_sweep(
    result: SweepResult, representatives: Sequence[str], ranked: RankedModelSet,
    measure: str, strategy: str, path: Path | str,
) -> None:
    """sweep.json: the selected clustering, its representatives, and every threshold's outcome."""
    selected = result.selected
    _write_json(path, {
        "measure": measure,
        "representative_strategy": strategy,
        "selected_threshold": selected.threshold,
        "selected_silhouette": selected.silhouette,
        "cluster_count": len(selected.clusters),
        "all_degenerate": result.all_degenerate,
        "representatives": sorted(representatives),
        "representative_ranks": map_ranks(representatives, ranked),
        "thresholds": [
            {"threshold": o.threshold, "cluster_count": len(o.clusters), "silhouette": o.silhouette}
            for o in result.outcomes
        ],
    })


def _cell(value: object, decimal: bool) -> object:
    if value is None:
        return ""
    if isinstance(value, bool):
        return _flag(value)
    return _fixed(value) if decimal else value


def _rows_csv(measure: str, cls: type, items: Sequence[object]) -> str:
    """One row per item of the ``NamedTuple`` class ``cls``, ``measure`` first.
    Fields typed float get six decimals whatever the value's type (an int
    threshold prints 1.000000), bools print true/false, and None prints an
    empty cell."""
    columns = [(name, "float" in str(kind)) for name, kind in cls.__annotations__.items()]
    rows = ([measure, *(_cell(getattr(item, n), decimal) for n, decimal in columns)] for item in items)
    return _csv(["measure", *(name for name, _ in columns)], rows)


def export_reports(
    curve: ReductionCurve,
    diversity: DiversityReport,
    out_dir: Path | str,
) -> None:
    """Write reduction_curve.csv, diversity.csv, and a combined report.json."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write(out_dir / "reduction_curve.csv", _rows_csv(curve.measure, CurvePoint, curve.points))
    _write(out_dir / "diversity.csv", _rows_csv(diversity.measure, DiversityEntry, diversity.entries))
    _write_json(out_dir / "report.json", {
        "measure": curve.measure,
        "reduction_curve": [p._asdict() for p in curve.points],
        "diversity": [e._asdict() for e in diversity.entries],
    })


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
        _write(path, text)
    return text
