"""Complete-linkage agglomeration, silhouette sweeps, and representatives.

The greedy merge order never depends on the threshold, so a sweep builds
one merge sequence and cuts it at every threshold t: clusters merge while
their complete-linkage distance (maximum pairwise member distance) stays
strictly below t. Merge ties go to the lexicographically smallest pair of
cluster indices; silhouette ties go to the larger threshold, whatever the
input order. One representative is projected out of every cluster, either
the best ranked member or the medoid.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import takewhile
from typing import Iterable, Mapping, Sequence

import numpy as np

from .matrix import DistanceMatrix
from .petri import LocalProcessModel

DEFAULT_THRESHOLDS: tuple[float, ...] = tuple(round(0.1 * k, 1) for k in range(1, 11))

ClusterSet = tuple[frozenset[str], ...]


@dataclass(frozen=True)
class ClusteringParams:
    threshold: float

    def __post_init__(self):
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must lie in [0, 1]")


@dataclass(frozen=True)
class MergeStep:
    first: frozenset[str]
    second: frozenset[str]
    distance: float


Dendrogram = tuple[MergeStep, ...]


@dataclass(frozen=True)
class RankedModelSet:
    """Models with a total, injective rank map (1 = best)."""

    models: tuple[LocalProcessModel, ...]
    ranks: Mapping[str, int]

    def __init__(self, models: Iterable[LocalProcessModel], ranks: Mapping[str, int]):
        models = tuple(models)
        ranks = dict(ranks)
        ids = [m.id for m in models]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate model ids")
        if set(ranks) != set(ids):
            raise ValueError("ranks must cover exactly the model ids")
        values = list(ranks.values())
        if any(type(r) is not int or r < 1 for r in values):  # not isinstance: True is an int
            raise ValueError("ranks must be positive integers")
        if len(set(values)) != len(values):
            raise ValueError("ranks must be unique")
        object.__setattr__(self, "models", models)
        object.__setattr__(self, "ranks", ranks)

    def __len__(self) -> int:
        return len(self.models)

    def model(self, model_id: str) -> LocalProcessModel:
        for m in self.models:
            if m.id == model_id:
                return m
        raise KeyError(f"unknown model id {model_id!r}")

    def rank(self, model_id: str) -> int:
        return self.ranks[model_id]

    def ids_by_rank(self) -> tuple[str, ...]:
        return tuple(sorted(self.ranks, key=self.ranks.get))

    def subset(self, ids: Iterable[str]) -> "RankedModelSet":
        """Sub-set keeping the original ranks of the surviving members."""
        wanted = set(ids)
        unknown = wanted - set(self.ranks)
        if unknown:
            raise KeyError(f"unknown model ids: {sorted(unknown)}")
        return RankedModelSet(
            models=tuple(m for m in self.models if m.id in wanted),
            ranks={i: r for i, r in self.ranks.items() if i in wanted},
        )


def check_partition(clusters: ClusterSet, ids: Sequence[str]) -> None:
    """Raise unless the clusters are non-empty, disjoint, and cover the ids."""
    seen: set[str] = set()
    for cluster in clusters:
        if not cluster:
            raise ValueError("empty cluster")
        if cluster & seen:
            raise ValueError(f"overlapping clusters: {sorted(cluster & seen)}")
        seen |= cluster
    if seen != set(ids):
        raise ValueError("clusters do not cover the model set exactly")


def _merges(matrix: DistanceMatrix, below: float) -> Dendrogram:
    """Merge closest clusters while the complete-linkage distance < below."""
    n = len(matrix)
    if n < 2:
        raise ValueError("clustering needs at least two models")
    dist = matrix.values.astype(float)
    np.fill_diagonal(dist, np.inf)
    members = [frozenset((model_id,)) for model_id in matrix.ids]
    steps: list[MergeStep] = []
    for _ in range(n - 1):
        # dist stays symmetric with an inf diagonal, so the first row-major
        # minimum is the lexicographically smallest (i, j), and i < j.
        i, j = divmod(int(dist.argmin()), n)
        smallest = float(dist[i, j])
        if not smallest < below:
            break
        steps.append(MergeStep(first=members[i], second=members[j], distance=smallest))
        merged_row = np.maximum(dist[i, :], dist[j, :])
        dist[i, :] = merged_row
        dist[:, i] = merged_row
        dist[i, i] = np.inf
        dist[j, :] = np.inf
        dist[:, j] = np.inf
        members[i] |= members[j]
    return tuple(steps)


def _clusters(matrix: DistanceMatrix, steps: Iterable[MergeStep]) -> ClusterSet:
    """Replay merges; clusters are ordered by their first member in matrix order."""
    cluster_of = {model_id: frozenset((model_id,)) for model_id in matrix.ids}
    for step in steps:
        merged = step.first | step.second
        cluster_of.update(dict.fromkeys(merged, merged))
    return tuple(dict.fromkeys(cluster_of.values()))


def agglomerate(
    matrix: DistanceMatrix, params: ClusteringParams
) -> tuple[ClusterSet, Dendrogram]:
    """Merge closest clusters while the complete-linkage distance < threshold."""
    steps = _merges(matrix, params.threshold)
    return _clusters(matrix, steps), steps


def silhouette(matrix: DistanceMatrix, clusters: ClusterSet) -> float | None:
    """Mean silhouette width; None when it is undefined (one cluster, or
    as many clusters as points)."""
    check_partition(clusters, matrix.ids)
    n = len(matrix)
    k = len(clusters)
    if k <= 1 or k >= n:
        return None
    groups = [sorted(matrix.index(i) for i in cluster) for cluster in clusters]
    own = np.empty(n, dtype=int)
    for g, group in enumerate(groups):
        own[group] = g
    points = np.arange(n)
    # sums[g, p]: distances from p to cluster g, added left to right in index
    # order (cumsum, unlike sum, never reorders); p's own zero changes nothing
    sums = np.array([matrix.values[:, group].cumsum(axis=1)[:, -1] for group in groups])
    sizes = np.array([len(group) for group in groups], dtype=float)
    own_size = sizes[own]
    a = sums[own, points] / np.maximum(own_size - 1.0, 1.0)
    means = sums / sizes[:, None]
    means[own, points] = np.inf
    b = means.min(axis=0)
    top = np.maximum(a, b)
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = np.where((own_size == 1.0) | (top == 0.0), 0.0, (b - a) / top)
    return sum(scores.tolist()) / n


@dataclass(frozen=True)
class ThresholdOutcome:
    threshold: float
    clusters: ClusterSet
    silhouette: float | None


@dataclass(frozen=True)
class SweepResult:
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
    outcomes = []
    for threshold in thresholds:
        clusters = _clusters(matrix, takewhile(lambda s: s.distance < threshold, steps))
        outcomes.append(ThresholdOutcome(threshold, clusters, silhouette(matrix, clusters)))
    scored = [o for o in outcomes if o.silhouette is not None]
    best = max(scored, key=lambda o: (o.silhouette, o.threshold), default=None)
    return SweepResult(outcomes=tuple(outcomes), best=best)


def repr_rank(cluster: frozenset[str], ranked: RankedModelSet) -> str:
    """The best-ranked (numerically smallest rank) member."""
    if not cluster:
        raise ValueError("empty cluster")
    return min(cluster, key=lambda i: ranked.rank(i))


def repr_dist(
    cluster: frozenset[str],
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
    means = {}
    for i in ids:
        row = matrix.index(i)
        means[i] = sum(matrix.values[row, matrix.index(j)] for j in ids if j != i) / (len(ids) - 1)
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
