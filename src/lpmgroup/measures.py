"""Kernels of the five process-model similarity measures.

All measures map a model pair into [0, 1] and are symmetric; distances are
one minus the similarity. Dice-style overlaps of two empty sets score 1
(identically empty behavior), of one empty set 0. Which kernel serves which
measure, and on which per-model features, is the ``MEASURES`` table in
``matrix.py``; ``similarity`` and ``distance`` live there too.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import AbstractSet, Sequence

import numpy as np

from .petri import BoundedLanguage, LabeledPetriNet, LocalProcessModel, Trace

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


def normalized_levenshtein(t1: Sequence[str], t2: Sequence[str]) -> float:
    """Edit distance divided by the longer length; two empty traces -> 0."""
    longest = max(len(t1), len(t2))
    if longest == 0:
        return 0.0
    return levenshtein(t1, t2) / longest


@dataclass(frozen=True)
class Assignment:
    """A one-to-one row/column matching with maximal total gain."""

    pairs: tuple[tuple[int, int], ...]
    total_gain: float


def optimal_assignment(gains: np.ndarray | Sequence[Sequence[float]]) -> Assignment:
    """Maximum-gain assignment of rows to columns (rectangular allowed).

    Unmatched rows or columns of the larger side contribute zero gain,
    matching the zero-padded square formulation.
    """
    matrix = np.asarray(gains, dtype=float)
    if matrix.size == 0:
        return Assignment((), 0.0)
    if matrix.ndim != 2:
        raise ValueError("gain matrix must be two-dimensional")
    if not np.all(np.isfinite(matrix)):
        raise ValueError("gain matrix entries must be finite")
    if matrix.min() < 0.0 or matrix.max() > 1.0:
        raise ValueError("gain matrix entries must lie in [0, 1]")
    # Imported here, not at module level: scipy takes longer to import than
    # the rest of the package, and only node and full call this (ged seeds
    # its search with the pure-Python port in ged.py).
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(matrix, maximize=True)
    order = np.argsort(rows)
    pairs = tuple((int(rows[k]), int(cols[k])) for k in order)
    total = float(sum(matrix[r, c] for r, c in pairs))
    return Assignment(pairs, total)


def _ordered(a: LocalProcessModel, b: LocalProcessModel) -> tuple[LocalProcessModel, LocalProcessModel]:
    """Canonical orientation so float results are bit-identical under swap."""
    return (a, b) if a.fingerprint() <= b.fingerprint() else (b, a)


def place_gain(net_a: LabeledPetriNet, p1: str, net_b: LabeledPetriNet, p2: str) -> float:
    """Matching gain of two places: mean of preset- and postset-label overlap.

    The surrounding label sets keep silent labels; a silent transition is
    part of a place's structural context even though it is not an activity.
    """
    (pre_a, post_a), (pre_b, post_b) = net_a.context(p1), net_b.context(p2)
    return 0.5 * dice(pre_a, pre_b) + 0.5 * dice(post_a, post_b)


def sim_node(a: LocalProcessModel, b: LocalProcessModel) -> float:
    """Transition label overlap combined with an optimal place matching."""
    a, b = _ordered(a, b)
    labels_a = a.net.activity_labels()
    labels_b = b.net.activity_labels()
    denom = len(labels_a) + len(labels_b) + len(a.net.places) + len(b.net.places)
    if denom == 0:
        return 1.0
    places_b = sorted(b.net.places)
    g_places = optimal_assignment(
        [[place_gain(a.net, p1, b.net, p2) for p2 in places_b] for p1 in sorted(a.net.places)]
    ).total_gain
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
