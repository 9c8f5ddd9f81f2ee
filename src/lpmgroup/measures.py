"""Kernels of the five process-model similarity measures.

All measures map a model pair into [0, 1] and are symmetric; distances are
one minus the similarity. Dice-style overlaps of two empty sets score 1
(identically empty behavior), of one empty set 0. A kernel compares two
per-model features and never sees a model: the featurizers, which kernel
serves which measure, and ``similarity``/``distance`` are in ``matrix.py``
(its ``MEASURES`` table).

``node`` matches places and ``full`` matches traces by a maximum-gain
assignment (``optimal_assignment``), and ``ged`` seeds its search with a
minimum-cost one. All three run one solver, ``_lsap``: a pure-Python port
of the shortest augmenting path solver behind scipy's
``linear_sum_assignment`` (Crouse 2016), which returns scipy's assignment
bit for bit. The module needs only the standard library.
"""

from __future__ import annotations

from enum import Enum
from functools import reduce
from operator import add
from typing import AbstractSet, Iterable, NamedTuple, Sequence

from .petri import BoundedLanguage, Trace

DEFAULT_LANG_CAP = 1000
DEFAULT_GED_BUDGET = 1_000_000


class Measure(str, Enum):
    TRANSITION = "transition"
    NODE = "node"
    EFG = "efg"
    FULL = "full"
    GED = "ged"

    def __str__(self) -> str:  # argparse/CSV friendliness
        return self.value


def dice(a: AbstractSet, b: AbstractSet) -> float:
    """Set overlap 2|a & b| / (|a| + |b|); both empty -> 1."""
    if not a and not b:
        return 1.0
    return 2.0 * len(a & b) / (len(a) + len(b))


def levenshtein(t1: Sequence[str], t2: Sequence[str]) -> int:
    """Unit-cost edit distance between two label sequences."""
    if len(t1) < len(t2):
        t1, t2 = t2, t1
    prev = list(range(len(t2) + 1))
    for i, x in enumerate(t1, start=1):
        cur = [i]
        for j, y in enumerate(t2, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y)))
        prev = cur
    return prev[-1]


def left_sum(values: Iterable[float]) -> float:
    """Add floats strictly left to right, as ``sum`` did up to Python 3.11.

    From 3.12 on, ``sum`` compensates float rounding (Neumaier summation), so
    its last bit depends on the interpreter. Every float total that reaches
    an output or decides a comparison is taken with this fold instead.
    """
    return reduce(add, values, 0.0)


def normalized_levenshtein(t1: Sequence[str], t2: Sequence[str]) -> float:
    """Edit distance divided by the longer length; two empty traces -> 0."""
    longest = max(len(t1), len(t2))
    if longest == 0:
        return 0.0
    return levenshtein(t1, t2) / longest


class Assignment(NamedTuple):
    """A one-to-one row/column matching with maximal total gain."""

    pairs: tuple[tuple[int, int], ...]
    total_gain: float


def optimal_assignment(gains: Sequence[Sequence[float]]) -> Assignment:
    """Maximum-gain assignment of rows to columns (rectangular allowed).

    Any nested sequence of numbers is accepted, a numpy array included.

    Unmatched rows or columns of the larger side contribute zero gain,
    matching the zero-padded square formulation. The pairs come in row
    order, and the total adds their gains up in that order.
    """
    try:
        matrix = [list(map(float, row)) for row in gains]
    except TypeError:
        raise ValueError("gain matrix must be two-dimensional") from None
    if len({len(row) for row in matrix}) > 1:
        raise ValueError("gain matrix rows must have equal lengths")
    if not matrix or not matrix[0]:
        return Assignment((), 0.0)
    if not all(0.0 <= g <= 1.0 for row in matrix for g in row):  # NaN fails too
        raise ValueError("gain matrix entries must lie in [0, 1]")
    pairs = tuple(zip(*_lsap([[-g for g in row] for row in matrix])))
    return Assignment(pairs, left_sum(matrix[r][c] for r, c in pairs))


def _lsap(cost: list[list[float]]) -> tuple[list[int], list[int]]:
    """Rows, ascending, and their columns in a minimum-cost assignment of a
    non-empty matrix.

    A port of scipy's ``rectangular_lsap`` (shortest augmenting paths with
    dual updates, Crouse 2016) that keeps its loop order: the remaining
    columns listed in reverse, ties going to a column no row holds yet, the
    same dual updates and the same augmenting swap. A matrix with fewer
    columns than rows is solved transposed and its pairs are put back in
    row order, as scipy does. It adds, subtracts and compares floats in
    scipy's order, so it returns scipy's assignment, ties included.
    """
    nr, nc = len(cost), len(cost[0])
    transpose = nc < nr
    if transpose:
        cost = [list(col) for col in zip(*cost)]
        nr, nc = nc, nr
    inf = float("inf")
    u, v = [0.0] * nr, [0.0] * nc
    path, col4row, row4col = [-1] * nc, [-1] * nr, [-1] * nc
    for cur_row in range(nr):
        # shortest augmenting path from cur_row to a free column (the sink)
        remaining = list(range(nc - 1, -1, -1))
        num_remaining = nc
        on_path_row, on_path_col = [False] * nr, [False] * nc
        shortest = [inf] * nc
        min_val, i, sink = 0.0, cur_row, -1
        while sink == -1:
            index, lowest = -1, inf
            on_path_row[i] = True
            row, u_i = cost[i], u[i]
            for it in range(num_remaining):
                j = remaining[it]
                r = min_val + row[j] - u_i - v[j]
                s = shortest[j]
                if r < s:
                    path[j] = i
                    shortest[j] = s = r
                if s < lowest or (s == lowest and row4col[j] == -1):
                    lowest = s
                    index = it
            min_val = lowest
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            on_path_col[j] = True
            num_remaining -= 1
            remaining[index] = remaining[num_remaining]
        u[cur_row] += min_val
        for i in range(nr):
            if on_path_row[i] and i != cur_row:
                u[i] += min_val - shortest[col4row[i]]
        for j in range(nc):
            if on_path_col[j]:
                v[j] -= min_val - shortest[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break
    if transpose:
        # col4row holds the row of each original column: list them by row
        cols = sorted(range(nr), key=col4row.__getitem__)
        return [col4row[j] for j in cols], cols
    return list(range(nr)), col4row


def context_gain(a: tuple[frozenset[str], frozenset[str]], b: tuple[frozenset[str], frozenset[str]]) -> float:
    """Matching gain of two place contexts, (preset labels, postset labels):
    the mean of the preset- and the postset-label overlap.

    The label sets keep silent labels; a silent transition is part of a
    place's structural context even though it is not an activity.
    """
    return 0.5 * dice(a[0], b[0]) + 0.5 * dice(a[1], b[1])


def _node_from_places(fa: tuple, fb: tuple) -> float:
    """Transition label overlap combined with an optimal place matching.

    A feature is (fingerprint, activity labels, place contexts in sorted
    place order). The pair is oriented by fingerprint, the first kept on a
    tie, so the float result is bit-identical under swap.
    """
    (_, labels_a, places_a), (_, labels_b, places_b) = (fa, fb) if fa[0] <= fb[0] else (fb, fa)
    denom = len(labels_a) + len(labels_b) + len(places_a) + len(places_b)
    if denom == 0:
        return 1.0
    g_places = optimal_assignment([[context_gain(c1, c2) for c2 in places_b] for c1 in places_a]).total_gain
    return (2.0 * len(labels_a & labels_b) + 2.0 * g_places) / denom


def capped_traces(language: BoundedLanguage, lang_cap: int = DEFAULT_LANG_CAP) -> tuple[tuple[Trace, ...], bool]:
    """Deterministic (length, lexicographic) trace selection up to the cap."""
    traces = sorted(language.traces, key=lambda t: (len(t), t))
    capped = len(traces) > lang_cap
    return tuple(traces[:lang_cap]), capped


def _full_from_traces(traces_a: Sequence[Trace], traces_b: Sequence[Trace]) -> float:
    if not traces_a and not traces_b:
        return 1.0
    if not traces_a or not traces_b:
        return 0.0
    if (len(traces_b), tuple(traces_b)) < (len(traces_a), tuple(traces_a)):
        traces_a, traces_b = traces_b, traces_a
    g_traces = optimal_assignment(
        [[1.0 - normalized_levenshtein(t1, t2) for t2 in traces_b] for t1 in traces_a]
    ).total_gain
    return 2.0 * g_traces / (len(traces_a) + len(traces_b))
