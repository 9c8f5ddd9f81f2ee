"""Complete-linkage agglomeration, silhouette sweeps, and representatives.

The greedy merge order never depends on the threshold, so a sweep builds
one merge sequence and cuts it at every threshold t: clusters merge while
their complete-linkage distance (maximum pairwise member distance) stays
strictly below t. A merge step names the matrix rows of the two clusters'
first members, smaller row first; merge ties go to the lexicographically
smallest pair of rows. A cluster is a tuple of model ids in matrix order,
and a partition lists its clusters by first member, so clusters, reprs and
pickles follow the matrix alone. Silhouette ties go to the larger
threshold, whatever the input order. One representative is projected out
of every cluster, either the best ranked member or the medoid.
"""

from __future__ import annotations

import math
from itertools import takewhile
from operator import add
from typing import Iterable, NamedTuple, Sequence

from .manifest import RankedModelSet
from .matrix import DistanceMatrix
from .measures import left_sum
from .petri import Frozen

DEFAULT_THRESHOLDS: tuple[float, ...] = tuple(round(0.1 * k, 1) for k in range(1, 11))

ClusterSet = tuple[tuple[str, ...], ...]
RowGroups = tuple[tuple[int, ...], ...]  # a partition as matrix rows


class ClusteringParams(Frozen):
    __slots__ = ("threshold",)
    threshold: float

    def __init__(self, threshold: float):
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must lie in [0, 1]")
        self._set(threshold=threshold)


class MergeStep(NamedTuple):
    """The rows of the two merged clusters' first members, first < second."""
    first: int
    second: int
    distance: float


Dendrogram = tuple[MergeStep, ...]


def check_partition(clusters: ClusterSet, ids: Sequence[str]) -> None:
    """Raise unless the clusters are non-empty, disjoint, and cover the ids
    with no member repeated."""
    if not all(clusters):
        raise ValueError("empty cluster")
    members = [model_id for cluster in clusters for model_id in cluster]
    if len(set(members)) != len(members):
        raise ValueError("a model appears more than once in the clusters")
    if set(members) != set(ids):
        raise ValueError("clusters do not cover the model set exactly")


def _row_minimum(row: list[float], k: int) -> tuple[float, int, int]:
    """(the row's minimum, the row, the first column that holds it)."""
    smallest = min(row)
    return smallest, k, row.index(smallest)


def _merges(matrix: DistanceMatrix, below: float) -> Dendrogram:
    """Merge closest clusters while the complete-linkage distance < below.

    Each live row caches its minimum and the first column holding it. The
    smallest cached triple is the first minimum of the whole matrix in
    row-major order, the lexicographically smallest (i, j); as the matrix
    stays symmetric with an inf diagonal, i < j. Complete-linkage distances
    only grow, so after merging j into i only row i, the rows whose cached
    column was j and those whose entry in column i grew past their cached
    minimum can have a new minimum; every other cache, ties included, still
    holds.
    """
    n = len(matrix)
    if n < 2:
        raise ValueError("clustering needs at least two models")
    inf = math.inf
    dist = [list(row) for row in matrix.values]
    for k, row in enumerate(dist):
        row[k] = inf
    best = [_row_minimum(row, k) for k, row in enumerate(dist)]
    live = list(range(n))
    steps: list[MergeStep] = []
    for _ in range(n - 1):
        smallest, i, j = min(best)
        if not smallest < below:
            break
        steps.append(MergeStep(i, j, smallest))
        merged = [x if x >= y else y for x, y in zip(dist[i], dist[j])]
        merged[i] = merged[j] = inf
        dist[i] = merged
        live.remove(j)
        best[j] = (inf, j, j)
        for k in live:
            row = dist[k]
            row[i], row[j] = merged[k], inf
            cached, _, col = best[k]
            if k == i or col == j or (col == i and merged[k] > cached):
                best[k] = _row_minimum(row, k)
    return tuple(steps)


def _clusters(n: int, steps: Iterable[MergeStep]) -> RowGroups:
    """Replay merges over n rows: groups in row order, ordered by first row.

    A step points its second row at its first, which is smaller, so walking
    the rows upward finds every pointer's target already resolved to its
    group's first row.
    """
    first = list(range(n))
    for step in steps:
        first[step.second] = step.first
    groups: dict[int, list[int]] = {}
    for k in range(n):
        first[k] = first[first[k]]
        groups.setdefault(first[k], []).append(k)
    return tuple(map(tuple, groups.values()))


def _named(ids: Sequence[str], groups: RowGroups) -> ClusterSet:
    return tuple(tuple(map(ids.__getitem__, group)) for group in groups)


def agglomerate(
    matrix: DistanceMatrix, params: ClusteringParams
) -> tuple[ClusterSet, Dendrogram]:
    """Merge closest clusters while the complete-linkage distance < threshold."""
    steps = _merges(matrix, params.threshold)
    return _named(matrix.ids, _clusters(len(matrix), steps)), steps


def silhouette(matrix: DistanceMatrix, clusters: ClusterSet) -> float | None:
    """Mean silhouette width of a partition of the matrix ids; None when undefined (one cluster, or one per id)."""
    check_partition(clusters, matrix.ids)
    return _silhouettes(matrix, (tuple(tuple(sorted(map(matrix.index, c))) for c in clusters),))[0]


def _member_sums(rows: Sequence[Sequence[float]], group: tuple[int, ...]) -> Sequence[float]:
    """The group's rows added elementwise, left to right in member order."""
    total = rows[group[0]]
    for q in group[1:]:
        total = list(map(add, total, rows[q]))
    return total


def _silhouettes(matrix: DistanceMatrix, partitions: Sequence[RowGroups]) -> list[float | None]:
    """``silhouette`` of each partition of the rows, in row order, which the
    caller has checked or built.

    Per cluster, the distances from every point to its members are added
    left to right in member order. The matrix is symmetric, so they are the
    elementwise sums of the members' rows; p's own zero distance changes
    nothing. A cluster kept from one partition to the next, as most
    clusters of a threshold sweep are, keeps its sums.
    """
    n = len(matrix)
    rows = list(matrix.values)
    sums: dict[tuple[int, ...], Sequence[float]] = {}
    widths: list[float | None] = []
    for groups in partitions:
        k = len(groups)
        if k <= 1 or k >= n:
            widths.append(None)
            continue
        own = [0] * n
        for g, group in enumerate(groups):
            for p in group:
                own[p] = g
        sums = {group: sums[group] if group in sums else _member_sums(rows, group) for group in groups}
        totals = list(sums.values())
        # means[g][p], with inf where g is p's own cluster
        means = []
        for group, total in zip(groups, totals):
            size = len(group)
            mean = [x / size for x in total] if size > 1 else list(total)
            for p in group:
                mean[p] = math.inf
            means.append(mean)
        scores = []
        for p, b in enumerate(map(min, *means)):
            size = len(groups[own[p]])
            a = totals[own[p]][p] / max(size - 1.0, 1.0)
            top = max(a, b)
            scores.append(0.0 if size == 1 or top == 0.0 else (b - a) / top)
        widths.append(left_sum(scores) / n)
    return widths


class ThresholdOutcome(NamedTuple):
    threshold: float
    clusters: ClusterSet
    silhouette: float | None


class SweepResult(NamedTuple):
    outcomes: tuple[ThresholdOutcome, ...]
    best: ThresholdOutcome | None

    @property
    def all_degenerate(self) -> bool:
        return self.best is None

    @property
    def selected(self) -> ThresholdOutcome:
        """The best outcome, or the largest-threshold one if every
        clustering was degenerate (the caller is told via all_degenerate)."""
        if self.best is not None:
            return self.best
        return self.outcomes[-1]


def sweep(
    matrix: DistanceMatrix,
    thresholds: Sequence[float] = DEFAULT_THRESHOLDS,
) -> SweepResult:
    """Cluster at every threshold and pick the silhouette-best clustering.

    Ties are resolved toward the larger threshold (fewer clusters).
    """
    if not thresholds:
        raise ValueError("thresholds must be non-empty")
    steps = _merges(matrix, max(ClusteringParams(threshold=t).threshold for t in thresholds))
    partitions = [_clusters(len(matrix), takewhile(lambda s: s.distance < t, steps)) for t in thresholds]
    named = [_named(matrix.ids, groups) for groups in partitions]
    outcomes = list(map(ThresholdOutcome, thresholds, named, _silhouettes(matrix, partitions)))
    scored = [o for o in outcomes if o.silhouette is not None]
    best = max(scored, key=lambda o: (o.silhouette, o.threshold), default=None)
    return SweepResult(outcomes=tuple(outcomes), best=best)


def repr_rank(cluster: Sequence[str], ranked: RankedModelSet) -> str:
    """The best-ranked (numerically smallest rank) member."""
    if not cluster:
        raise ValueError("empty cluster")
    return min(cluster, key=lambda i: ranked.rank(i))


def repr_dist(
    cluster: Sequence[str],
    matrix: DistanceMatrix,
    ranked: RankedModelSet | None = None,
) -> str:
    """The medoid: member with minimal mean distance to the other members.

    Ties prefer the better-ranked member when ranks are available, and the
    smallest id otherwise.
    """
    if not cluster:
        raise ValueError("empty cluster")
    ids = sorted(cluster)
    if len(ids) == 1:
        return ids[0]
    rows = list(map(matrix.index, ids))  # each mean adds its terms in sorted-id order, not row order
    means = {i: left_sum(matrix.values[r][c] for c in rows if c != r) / (len(ids) - 1) for i, r in zip(ids, rows)}
    if ranked is not None:
        return min(ids, key=lambda i: (means[i], ranked.rank(i), i))
    return min(ids, key=lambda i: (means[i], i))


def representatives(
    clusters: ClusterSet,
    strategy: str,
    ranked: RankedModelSet,
    matrix: DistanceMatrix,
) -> tuple[str, ...]:
    """One representative per cluster, in cluster order."""
    if strategy == "rank":
        return tuple(repr_rank(c, ranked) for c in clusters)
    if strategy == "dist":
        return tuple(repr_dist(c, matrix, ranked) for c in clusters)
    raise ValueError(f"unknown representative strategy {strategy!r}")
