"""Reduction and diversity analytics over a ranked model set.

For a sequence of top-n prefixes of the ranking, the reduction curve counts
how many cluster representatives survive the sweep-selected clustering of
each prefix. The diversity report compares the mean pairwise distance of
the n best-ranked originals against the n best-ranked representatives.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .manifest import RankedModelSet
from .measures import Measure, left_sum

if TYPE_CHECKING:  # matrix only types arguments here; clustering is imported where it is used
    from .matrix import DistanceMatrix

DEFAULT_CURVE_NS: tuple[int, ...] = (5, 10, 20, 50, 100, 500)
DEFAULT_DIVERSITY_NS: tuple[int, ...] = (5, 10, 50, 100)


def top_n(ranked: RankedModelSet, n: int) -> tuple[str, ...]:
    """The ids of the min(n, total) best-ranked models, best first."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return ranked.ids_by_rank()[:n]


def mean_pairwise_distance(ids: Sequence[str], matrix: DistanceMatrix) -> float | None:
    """Mean of the C(n, 2) distinct pair distances; None below two models."""
    if len(ids) < 2:
        return None
    rows = sorted(map(matrix.index, ids))
    return left_sum(matrix.values[a][b] for a, b in combinations(rows, 2)) / comb(len(rows), 2)


class CurvePoint(NamedTuple):
    n: int
    model_count: int
    representative_count: int
    threshold: float | None
    silhouette: float | None
    degenerate: bool


class ReductionCurve(NamedTuple):
    measure: str
    points: tuple[CurvePoint, ...]


class DiversityEntry(NamedTuple):
    n: int
    original_count: int
    representative_count: int
    original_mean: float | None
    representative_mean: float | None


class DiversityReport(NamedTuple):
    measure: str
    entries: tuple[DiversityEntry, ...]


def _full_matrix(ranked: RankedModelSet, matrix: DistanceMatrix) -> DistanceMatrix:
    """``matrix`` itself, once it is known to hold a row for every ranked model."""
    missing = set(m.id for m in ranked.models) - set(matrix.ids)
    if missing:
        raise ValueError(f"matrix does not cover models {sorted(missing)}")
    return matrix


def reduction_curve(
    ranked: RankedModelSet,
    measure: Measure | str,
    thresholds: Sequence[float] | None = None,
    ns: Sequence[int] = DEFAULT_CURVE_NS,
    *,
    matrix: DistanceMatrix,
) -> ReductionCurve:
    """Representative counts from re-clustering each top-n prefix.

    ``matrix`` covers the ranked set; each prefix is clustered on its slice of it.
    ``thresholds`` defaults to ``DEFAULT_THRESHOLDS``.
    """
    from .clustering import DEFAULT_THRESHOLDS, sweep

    if not ns:
        raise ValueError("ns must be non-empty")
    thresholds = DEFAULT_THRESHOLDS if thresholds is None else thresholds
    measure = Measure(measure)
    full = _full_matrix(ranked, matrix)
    points = []
    sweeps = {}  # by prefix length: prefixes are nested by rank, so one length is one set
    for n in ns:
        prefix = top_n(ranked, n)
        if len(prefix) < 2:  # nothing to cluster: each model represents itself
            count, threshold, score, degenerate = len(prefix), None, None, True
        else:
            if len(prefix) not in sweeps:
                sweeps[len(prefix)] = sweep(full.submatrix(prefix), thresholds)
            result = sweeps[len(prefix)]
            selected = result.selected
            count, threshold, score = len(selected.clusters), selected.threshold, selected.silhouette
            degenerate = result.all_degenerate
        points.append(CurvePoint(n, len(prefix), count, threshold, score, degenerate))
    return ReductionCurve(measure=measure.value, points=tuple(points))


def diversity_report(
    ranked: RankedModelSet,
    repr_ranked: RankedModelSet,
    measure: Measure | str,
    ns: Sequence[int] = DEFAULT_DIVERSITY_NS,
    *,
    matrix: DistanceMatrix,
) -> DiversityReport:
    """Mean pairwise distance of original vs representative top-n sets.

    ``matrix`` covers ``ranked``; ``repr_ranked`` must be a subset of it with
    inherited ranks. n values larger than a set are clamped to its size.
    """
    measure = Measure(measure)
    ranked_ids = set(m.id for m in ranked.models)
    for m in repr_ranked.models:
        if m.id not in ranked_ids:
            raise ValueError(f"representative {m.id!r} is not part of the ranked set")
        if repr_ranked.rank(m.id) != ranked.rank(m.id):
            raise ValueError(f"representative {m.id!r} does not keep its original rank")
    full = _full_matrix(ranked, matrix)
    entries = []
    for n in ns:
        originals, reprs = top_n(ranked, n), top_n(repr_ranked, n)
        means = (mean_pairwise_distance(originals, full), mean_pairwise_distance(reprs, full))
        entries.append(DiversityEntry(n, len(originals), len(reprs), *means))
    return DiversityReport(measure=measure.value, entries=tuple(entries))


def map_ranks(representatives: Sequence[str], ranked: RankedModelSet) -> list[int]:
    """Original ranks of the representatives, ascending."""
    unknown = set(representatives) - set(ranked.ranks)
    if unknown:
        raise ValueError(f"unknown representatives: {sorted(unknown)}")
    return sorted(ranked.rank(i) for i in set(representatives))
