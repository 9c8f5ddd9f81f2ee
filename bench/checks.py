"""Output checks for one pipeline run; each returns a list of error strings.

The checks read the files the CLI wrote and never time anything. An empty
list means the output passed.
"""

from __future__ import annotations

import csv
import hashlib
import random
from pathlib import Path


def _rows(path: Path) -> list[list[str]]:
    with path.open(newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


def check_clusters(path: Path, ranks: dict[str, int]) -> list[str]:
    """clusters.csv partitions the manifest ids, one representative per cluster."""
    if not path.exists():
        return [f"{path.name} missing"]
    rows = _rows(path)
    if not rows or rows[0] != ["model_id", "cluster_id", "rank", "is_representative"]:
        return [f"{path.name}: bad header {rows[:1]}"]
    errors = []
    seen: set[str] = set()
    reps: dict[str, int] = {}
    for row in rows[1:]:
        if len(row) != 4:
            errors.append(f"{path.name}: malformed row {row}")
            continue
        model_id, cluster_id, rank, is_rep = row
        if model_id in seen:
            errors.append(f"{path.name}: {model_id} listed twice")
        seen.add(model_id)
        if model_id not in ranks:
            errors.append(f"{path.name}: unknown id {model_id}")
        elif rank != str(ranks[model_id]):
            errors.append(f"{path.name}: {model_id} has rank {rank}, manifest says {ranks[model_id]}")
        if is_rep not in ("true", "false"):
            errors.append(f"{path.name}: bad representative flag {is_rep!r}")
        reps.setdefault(cluster_id, 0)
        reps[cluster_id] += is_rep == "true"
    missing = set(ranks) - seen
    if missing:
        errors.append(f"{path.name}: {len(missing)} manifest ids missing, e.g. {sorted(missing)[:3]}")
    bad = sorted(c for c, n in reps.items() if n != 1)
    if bad:
        errors.append(f"{path.name}: clusters {bad[:5]} do not have exactly one representative")
    return errors


def read_matrix(path: Path) -> tuple[list[str], list[list[float]]]:
    rows = _rows(path)
    ids = rows[0][1:]
    return ids, [[float(cell) for cell in row[1:]] for row in rows[1:]]


def check_matrix(path: Path, ids: list[str]) -> list[str]:
    """The matrix CSV covers the manifest ids, is symmetric, has a zero
    diagonal and values in [0, 1]."""
    if not path.exists():
        return [f"{path.name} missing"]
    header, values = read_matrix(path)
    if header != ids:
        return [f"{path.name}: ids do not match the manifest order"]
    if len(values) != len(ids) or any(len(row) != len(ids) for row in values):
        return [f"{path.name}: not a square {len(ids)}x{len(ids)} matrix"]
    errors = []
    n = len(ids)
    for i in range(n):
        if values[i][i] != 0.0:
            errors.append(f"{path.name}: diagonal entry {ids[i]} is {values[i][i]}")
        for j in range(i + 1, n):
            v = values[i][j]
            if v != values[j][i]:
                errors.append(f"{path.name}: asymmetric at ({ids[i]}, {ids[j]})")
            if not 0.0 <= v <= 1.0:
                errors.append(f"{path.name}: value {v} at ({ids[i]}, {ids[j]}) outside [0, 1]")
        if len(errors) > 10:
            break
    return errors


def check_same_bytes(expected: Path, actual: Path) -> list[str]:
    if not actual.exists():
        return [f"{actual} missing"]
    if expected.read_bytes() != actual.read_bytes():
        return [f"{actual.parent.name}/{actual.name} differs from {expected.parent.name}/{expected.name}"]
    return []


def check_sampled_distances(path: Path, models, measure: str, params: dict, seed: int, count: int = 20) -> list[str]:
    """Seeded matrix entries equal the scalar lpmgroup.distance to 1e-6."""
    from lpmgroup import distance

    ids, values = read_matrix(path)
    by_id = {m.id: m for m in models}
    rng = random.Random(f"sample:{seed}")
    errors = []
    for _ in range(count):
        i, j = rng.sample(range(len(ids)), 2)
        expected = distance(measure, by_id[ids[i]], by_id[ids[j]], **params)
        if abs(values[i][j] - expected) > 1e-6:
            errors.append(f"matrix ({ids[i]}, {ids[j]}) = {values[i][j]}, distance() = {expected}")
    return errors


def approx_pairs(matrix_path: Path) -> int:
    """Rows of the matrix_<m>_approx.csv flags file beside the matrix."""
    flags = Path(str(matrix_path.with_suffix("")) + "_approx.csv")
    if not flags.exists():
        return 0
    return len(_rows(flags)) - 1


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()
