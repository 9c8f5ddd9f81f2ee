"""Brute-force reference implementations, independent of the library code.

These recompute the combinatorial kernels from their definitions: plain
generate-and-test firing-sequence enumeration, a marking-object
breadth-first enumeration that models the prefix cap (``label_traces``
projects either onto the traces of ``bounded_language``), permutation
search for the assignment problem, the textbook recursive edit distance, an
exhaustive node-mapping minimum for the graph edit distance, complete
linkage that recomputes every cluster-pair distance at every merge, and a
point-by-point silhouette.

``enabled`` and ``fire`` are not independent: they step the library's
compiled firing rule one ``Marking`` at a time, so tests can replay a
sequence transition by transition.

``numpy_merges`` and ``numpy_silhouette`` are the library's former numpy
agglomeration and silhouette, kept as the reference the pure-Python ones
must equal bit for bit.

Float totals are explicit left-to-right folds (``_left_sum``): from Python
3.12 on, ``sum`` compensates float rounding, and the library's totals do not.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache, reduce
from itertools import combinations, permutations
from operator import add

import numpy as np

from lpmgroup import SILENT, Marking, MergeStep
from lpmgroup.petri import _FiringRule


def _left_sum(values) -> float:
    return reduce(add, values, 0.0)


def _marking_of(marking) -> dict[str, int]:
    return {p: c for p, c in marking.counts if c > 0}


def oracle_sequences(lpm, bound: int) -> set[tuple[str, ...]]:
    """All non-empty transition sequences of length <= bound that replay from
    the initial to the final marking and whose unrestricted firings feed
    pairwise-disjoint place sets."""
    net = lpm.net
    transitions = sorted(net.transitions)
    pre = {t: sorted(net.preset(t)) for t in transitions}
    post = {t: sorted(net.postset(t)) for t in transitions}
    free = {t for t in transitions if not pre[t]}
    final = _marking_of(lpm.final)
    found: set[tuple[str, ...]] = set()

    def valid_free_use(seq: tuple[str, ...]) -> bool:
        for i in range(len(seq)):
            for j in range(i + 1, len(seq)):
                if seq[i] in free and seq[j] in free:
                    if set(post[seq[i]]) & set(post[seq[j]]):
                        return False
        return True

    def extend(seq: tuple[str, ...], marking: dict[str, int]) -> None:
        if len(seq) >= bound:
            return
        for t in transitions:
            if any(marking.get(p, 0) < 1 for p in pre[t]):
                continue
            new = dict(marking)
            for p in pre[t]:
                new[p] -= 1
            for p in post[t]:
                new[p] = new.get(p, 0) + 1
            new = {p: c for p, c in new.items() if c > 0}
            new_seq = seq + (t,)
            if new == final and valid_free_use(new_seq):
                found.add(new_seq)
            extend(new_seq, new)

    extend((), _marking_of(lpm.initial))
    return found


def _covers(marking, places) -> bool:
    return all(marking.get(p) >= 1 for p in places)


def _consume_produce(marking, consume, produce):
    counts = dict(marking.counts)
    for p in consume:
        counts[p] = counts.get(p, 0) - 1
        if counts[p] < 0:
            raise ValueError(f"cannot consume token from empty place {p!r}")
    for p in produce:
        counts[p] = counts.get(p, 0) + 1
    return Marking(counts)


def oracle_bfs_sequences(lpm, bound: int, cap: int) -> tuple[frozenset[tuple[str, ...]], bool]:
    """Breadth-first enumeration on ``Marking`` objects, cut after ``cap``
    explored prefixes: the reference for which sequences a truncated
    enumeration still reports. Returns (sequences, truncated)."""
    net = lpm.net
    order = sorted(net.transitions)
    free = frozenset(t for t in order if not net.preset(t))
    pre = {t: net.preset(t) for t in order}
    post = {t: net.postset(t) for t in order}
    complete: set[tuple[str, ...]] = set()
    truncated = False
    explored = 0
    frontier = deque([(lpm.initial, frozenset(), ())])
    while frontier and not truncated:
        marking, used, seq = frontier.popleft()
        if len(seq) >= bound:
            continue
        for t in order:
            if not _covers(marking, pre[t]):
                continue
            if t in free and post[t] & used:
                continue
            if explored >= cap:
                truncated = True
                break
            explored += 1
            new_marking = _consume_produce(marking, pre[t], post[t])
            new_used = used | post[t] if t in free else used
            new_seq = seq + (t,)
            if new_marking == lpm.final:
                complete.add(new_seq)
            frontier.append((new_marking, new_used, new_seq))
    return frozenset(complete), truncated


def label_traces(lpm, sequences) -> frozenset[tuple[str, ...]]:
    """The transition sequences' label traces, silent labels dropped."""
    labels = lpm.net.labels
    return frozenset(tuple(labels[t] for t in seq if labels[t] != SILENT) for seq in sequences)


def enabled(net, marking, used_free_places=frozenset()) -> frozenset[str]:
    """Transitions that may fire in ``marking``, by the library's compiled
    firing rule: the preset is marked, and an unrestricted transition is
    blocked once any of its postset places received a free token earlier in
    the run (``used_free_places``)."""
    rule = _FiringRule(net, marking.places() | used_free_places)
    ready = rule.enabled(rule.encode(marking), rule.mask(used_free_places))
    return frozenset(rule.transitions[k] for k in ready)


def fire(net, marking, transition, used_free_places=frozenset()):
    """Fire an enabled transition by the library's compiled firing rule;
    returns the new marking and free-place set. Firing a transition that is
    not enabled raises ``ValueError``."""
    rule = _FiringRule(net, marking.places() | used_free_places)
    counts, used = rule.encode(marking), rule.mask(used_free_places)
    ready = [rule.transitions[k] for k in rule.enabled(counts, used)]
    if transition not in ready:
        raise ValueError(f"transition {transition!r} is not enabled in {marking!r}")
    new_counts, new_used = rule.fire(counts, used, rule.transitions.index(transition))
    new_marking = Marking(dict(zip(rule.places, new_counts)))
    return new_marking, frozenset(p for i, p in enumerate(rule.places) if new_used >> i & 1)


def oracle_assignment(gains) -> float:
    """Maximum total gain over all one-to-one row/column matchings."""
    rows = [list(row) for row in gains]
    if not rows or not rows[0]:
        return 0.0
    if len(rows) > len(rows[0]):
        rows = [list(col) for col in zip(*rows)]
    n, m = len(rows), len(rows[0])
    best = 0.0
    for perm in permutations(range(m), n):
        best = max(best, sum(rows[i][perm[i]] for i in range(n)))
    return best


def oracle_levenshtein(a, b) -> int:
    """Textbook recursive definition with memoization."""
    a, b = tuple(a), tuple(b)

    @lru_cache(maxsize=None)
    def rec(i: int, j: int) -> int:
        if i == 0:
            return j
        if j == 0:
            return i
        return min(
            rec(i - 1, j) + 1,
            rec(i, j - 1) + 1,
            rec(i - 1, j - 1) + (a[i - 1] != b[j - 1]),
        )

    return rec(len(a), len(b))


def _oracle_dice(x: frozenset, y: frozenset) -> float:
    if not x and not y:
        return 1.0
    return 2.0 * len(x & y) / (len(x) + len(y))


def _oracle_node_cost(model_a, u: str, model_b, v: str) -> float:
    net_a, net_b = model_a.net, model_b.net
    u_place = u in net_a.places
    v_place = v in net_b.places
    if u_place != v_place:
        return 1.0
    if not u_place:
        return 0.0 if net_a.labels[u] == net_b.labels[v] else 1.0
    gain = 0.5 * _oracle_dice(
        frozenset(net_a.labels[t] for t in net_a.preset(u)),
        frozenset(net_b.labels[t] for t in net_b.preset(v)),
    ) + 0.5 * _oracle_dice(
        frozenset(net_a.labels[t] for t in net_a.postset(u)),
        frozenset(net_b.labels[t] for t in net_b.postset(v)),
    )
    return 1.0 - gain


def oracle_ged(model_a, model_b) -> float:
    """Exhaustive minimum cost over all injective node mappings."""
    net_a, net_b = model_a.net, model_b.net
    nodes_a = sorted(net_a.places | net_a.transitions)
    nodes_b = sorted(net_b.places | net_b.transitions)
    arcs_a, arcs_b = net_a.arcs, net_b.arcs
    best = float("inf")
    for k in range(min(len(nodes_a), len(nodes_b)) + 1):
        for chosen in combinations(nodes_a, k):
            for image in permutations(nodes_b, k):
                mapping = dict(zip(chosen, image))
                cost = float(len(nodes_a) - k + len(nodes_b) - k)
                for u, v in mapping.items():
                    cost += _oracle_node_cost(model_a, u, model_b, v)
                for u, w in arcs_a:
                    v, x = mapping.get(u), mapping.get(w)
                    if v is not None and x is not None and (v, x) in arcs_b:
                        cost += 0.5 * (
                            _oracle_node_cost(model_a, u, model_b, v)
                            + _oracle_node_cost(model_a, w, model_b, x)
                        )
                    else:
                        cost += 1.0
                inverse = {v: u for u, v in mapping.items()}
                for v, x in arcs_b:
                    u, w = inverse.get(v), inverse.get(x)
                    if u is not None and w is not None and (u, w) in arcs_a:
                        continue
                    cost += 1.0
                best = min(best, cost)
    return best


def oracle_medoid(cluster_ids, matrix) -> str:
    """Cluster member with minimal mean distance to the others."""
    ids = sorted(cluster_ids)
    if len(ids) == 1:
        return ids[0]
    best_id, best_mean = None, float("inf")
    for i in ids:
        mean = _left_sum(matrix.values[matrix.index(i)][matrix.index(j)] for j in ids if j != i) / (len(ids) - 1)
        if mean < best_mean:
            best_id, best_mean = i, mean
    return best_id


def oracle_mean_pairwise(ids, matrix) -> float:
    ids = list(ids)
    pairs = [(a, b) for k, a in enumerate(ids) for b in ids[k + 1 :]]
    return sum(matrix.values[matrix.index(a)][matrix.index(b)] for a, b in pairs) / len(pairs)


def oracle_complete_linkage(matrix, threshold: float):
    """Clusters (tuples of ids in row order, ordered by smallest member
    index) and merge distances.

    Each step recomputes every cluster-pair distance as the maximum over the
    original member distances and merges the pair with the smallest
    (distance, min index of A, min index of B) while that distance is below
    the threshold.
    """
    clusters = [[k] for k in range(len(matrix))]
    distances = []
    while len(clusters) > 1:
        candidates = [
            (max(matrix.values[a][b] for a in first for b in second), min(first), min(second))
            for first, second in combinations(sorted(clusters, key=min), 2)
        ]
        distance, lo, hi = min(candidates)
        if not distance < threshold:
            break
        first = next(c for c in clusters if min(c) == lo)
        second = next(c for c in clusters if min(c) == hi)
        clusters.remove(second)
        first.extend(second)
        distances.append(float(distance))
    ordered = sorted(clusters, key=min)
    return tuple(tuple(matrix.ids[k] for k in sorted(c)) for c in ordered), distances


def oracle_silhouette(matrix, clusters) -> float | None:
    """Mean silhouette width, one point at a time: a is the mean distance to
    the rest of the own cluster, b the smallest mean distance to another
    cluster, each sum taken over member indices in ascending order."""
    n = len(matrix)
    if len(clusters) <= 1 or len(clusters) >= n:
        return None
    index_groups = [sorted(matrix.index(i) for i in cluster) for cluster in clusters]
    of_point = {p: g for g, group in enumerate(index_groups) for p in group}
    values = matrix.values
    scores = []
    for p in range(n):
        own = index_groups[of_point[p]]
        if len(own) == 1:
            scores.append(0.0)
            continue
        a = _left_sum(values[p][q] for q in own if q != p) / (len(own) - 1)
        b = min(
            _left_sum(values[p][q] for q in group) / len(group)
            for g, group in enumerate(index_groups)
            if g != of_point[p]
        )
        top = max(a, b)
        scores.append(0.0 if top == 0.0 else (b - a) / top)
    return _left_sum(scores) / n


def numpy_merges(matrix, below: float) -> tuple[MergeStep, ...]:
    """Complete-linkage merges while the distance < below, on a numpy
    matrix: the first row-major argmin, then np.maximum of the two rows."""
    n = len(matrix)
    dist = np.array(matrix.values, dtype=float)
    np.fill_diagonal(dist, np.inf)
    steps = []
    for _ in range(n - 1):
        i, j = divmod(int(dist.argmin()), n)
        smallest = float(dist[i, j])
        if not smallest < below:
            break
        steps.append(MergeStep(first=i, second=j, distance=smallest))
        merged_row = np.maximum(dist[i, :], dist[j, :])
        dist[i, :] = merged_row
        dist[:, i] = merged_row
        dist[i, i] = np.inf
        dist[j, :] = np.inf
        dist[:, j] = np.inf
    return tuple(steps)


def numpy_silhouette(matrix, clusters) -> float | None:
    """Mean silhouette width with numpy: per-cluster distance sums by cumsum
    in member index order, then vectorized a, b and scores."""
    n = len(matrix)
    k = len(clusters)
    if k <= 1 or k >= n:
        return None
    values = np.array(matrix.values, dtype=float)
    groups = [sorted(matrix.index(i) for i in cluster) for cluster in clusters]
    own = np.empty(n, dtype=int)
    for g, group in enumerate(groups):
        own[group] = g
    points = np.arange(n)
    sums = np.array([values[:, group].cumsum(axis=1)[:, -1] for group in groups])
    sizes = np.array([len(group) for group in groups], dtype=float)
    own_size = sizes[own]
    a = sums[own, points] / np.maximum(own_size - 1.0, 1.0)
    means = sums / sizes[:, None]
    means[own, points] = np.inf
    b = means.min(axis=0)
    top = np.maximum(a, b)
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = np.where((own_size == 1.0) | (top == 0.0), 0.0, (b - a) / top)
    return _left_sum(scores.tolist()) / n
