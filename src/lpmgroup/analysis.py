"""Reduction and diversity analytics over a ranked model set.

For a sequence of top-n prefixes of the ranking, the reduction curve counts
how many cluster representatives survive the sweep-selected clustering of
each prefix. The diversity report compares the mean pairwise distance of
the n best-ranked originals against the n best-ranked representatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .manifest import RankedModelSet
from .measures import Measure
from .petri import LocalProcessModel

if TYPE_CHECKING:  # clustering and matrix load numpy: imported where they are used
    from .matrix import DistanceMatrix

DEFAULT_CURVE_NS: tuple[int, ...] = (5, 10, 20, 50, 100, 500)
DEFAULT_DIVERSITY_NS: tuple[int, ...] = (5, 10, 50, 100)


def top_n(ranked: RankedModelSet, n: int) -> tuple[LocalProcessModel, ...]:
    """The min(n, total) best-ranked models, best first."""
    if n < 1:
        raise ValueError("n must be >= 1")
    ids = ranked.ids_by_rank()[:n]
    return tuple(ranked.model(i) for i in ids)


def mean_pairwise_distance(
    models: Sequence[LocalProcessModel | str], matrix: DistanceMatrix
) -> float | None:
    """Mean of the C(n, 2) distinct pair distances; None below two models."""
    ids = [m if isinstance(m, str) else m.id for m in models]
    if len(ids) < 2:
        return None
    rows = sorted(matrix.index(i) for i in ids)
    total = 0.0
    count = 0
    for a in range(len(rows)):
        for b in range(a + 1, len(rows)):
            total += float(matrix.values[rows[a], rows[b]])
            count += 1
    return total / count


@dataclass(frozen=True)
class CurvePoint:
    n: int
    model_count: int
    representative_count: int
    threshold: float | None
    silhouette: float | None
    degenerate: bool


@dataclass(frozen=True)
class ReductionCurve:
    measure: str
    points: tuple[CurvePoint, ...]


@dataclass(frozen=True)
class DiversityEntry:
    n: int
    original_count: int
    representative_count: int
    original_mean: float | None
    representative_mean: float | None


@dataclass(frozen=True)
class DiversityReport:
    measure: str
    entries: tuple[DiversityEntry, ...]


def _full_matrix(
    ranked: RankedModelSet,
    measure: Measure,
    matrix: DistanceMatrix | None,
) -> DistanceMatrix:
    if matrix is not None:
        missing = set(m.id for m in ranked.models) - set(matrix.ids)
        if missing:
            raise ValueError(f"matrix does not cover models {sorted(missing)}")
        return matrix
    from .matrix import distance_matrix

    return distance_matrix(ranked.models, measure)


def reduction_curve(
    ranked: RankedModelSet,
    measure: Measure | str,
    thresholds: Sequence[float] | None = None,
    ns: Sequence[int] = DEFAULT_CURVE_NS,
    matrix: DistanceMatrix | None = None,
) -> ReductionCurve:
    """Representative counts from re-clustering each top-n prefix.

    Each prefix is clustered on its own (sliced) distance matrix; a
    precomputed matrix covering the ranked set short-circuits the pairwise
    computation, which otherwise runs with the default ``MatrixParams``.
    ``thresholds`` defaults to ``DEFAULT_THRESHOLDS``.
    """
    from .clustering import DEFAULT_THRESHOLDS, sweep

    if not ns:
        raise ValueError("ns must be non-empty")
    thresholds = DEFAULT_THRESHOLDS if thresholds is None else thresholds
    measure = Measure(measure)
    full = _full_matrix(ranked, measure, matrix)
    points = []
    for n in ns:
        prefix = [m.id for m in top_n(ranked, n)]
        if len(prefix) < 2:
            points.append(
                CurvePoint(
                    n=n,
                    model_count=len(prefix),
                    representative_count=len(prefix),
                    threshold=None,
                    silhouette=None,
                    degenerate=True,
                )
            )
            continue
        result = sweep(full.submatrix(prefix), thresholds)
        selected = result.selected
        points.append(
            CurvePoint(
                n=n,
                model_count=len(prefix),
                representative_count=len(selected.clusters),
                threshold=selected.threshold,
                silhouette=selected.silhouette,
                degenerate=result.all_degenerate,
            )
        )
    return ReductionCurve(measure=measure.value, points=tuple(points))


def diversity_report(
    ranked: RankedModelSet,
    repr_ranked: RankedModelSet,
    measure: Measure | str,
    ns: Sequence[int] = DEFAULT_DIVERSITY_NS,
    matrix: DistanceMatrix | None = None,
) -> DiversityReport:
    """Mean pairwise distance of original vs representative top-n sets.

    ``repr_ranked`` must be a subset of ``ranked`` with inherited ranks;
    n values larger than a set are clamped to its size.
    """
    measure = Measure(measure)
    ranked_ids = set(m.id for m in ranked.models)
    for m in repr_ranked.models:
        if m.id not in ranked_ids:
            raise ValueError(f"representative {m.id!r} is not part of the ranked set")
        if repr_ranked.rank(m.id) != ranked.rank(m.id):
            raise ValueError(f"representative {m.id!r} does not keep its original rank")
    full = _full_matrix(ranked, measure, matrix)
    entries = []
    for n in ns:
        originals = top_n(ranked, n)
        reprs = top_n(repr_ranked, n)
        entries.append(
            DiversityEntry(
                n=n,
                original_count=len(originals),
                representative_count=len(reprs),
                original_mean=mean_pairwise_distance(originals, full),
                representative_mean=mean_pairwise_distance(reprs, full),
            )
        )
    return DiversityReport(measure=measure.value, entries=tuple(entries))


def map_ranks(representatives: Sequence[str], ranked: RankedModelSet) -> list[int]:
    """Original ranks of the representatives, ascending."""
    unknown = set(representatives) - set(ranked.ranks)
    if unknown:
        raise ValueError(f"unknown representatives: {sorted(unknown)}")
    return sorted(ranked.rank(i) for i in set(representatives))
