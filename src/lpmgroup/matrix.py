"""Pairwise distance matrices over a model set, one measure at a time.

``MEASURES`` is the one dispatch over the five measures: per measure, a
``featurize`` step run once per model, a ``compare`` step run per pair, and
the ``MatrixParams`` fields the two read. ``similarity``/``distance`` (one
pair), ``distance_matrix`` (all pairs, optionally on a process pool) and
the CLI's parameter notices all read this table. Matrices are identical
regardless of worker count or scheduling.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .ged import ged_similarity
from .measures import (
    DEFAULT_GED_BUDGET,
    DEFAULT_LANG_CAP,
    Measure,
    _full_from_traces,
    capped_traces,
    dice,
    sim_node,
)
from .petri import (
    DEFAULT_BOUND,
    DEFAULT_ENUM_CAP,
    LocalProcessModel,
    bounded_language,
    eventually_follows,
)

MATRIX_DECIMALS = 6  # the CSV precision; matrices are rounded to it before clustering


@dataclass(frozen=True)
class MatrixParams:
    """Knobs shared by the language- and search-based measures."""

    bound: int = DEFAULT_BOUND
    lang_cap: int = DEFAULT_LANG_CAP
    enum_cap: int = DEFAULT_ENUM_CAP
    ged_budget: int = DEFAULT_GED_BUDGET
    workers: int = 1

    def __post_init__(self):
        for name in ("bound", "lang_cap", "enum_cap", "ged_budget"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Symmetric pairwise distances in [0, 1] with per-pair approximation flags."""

    ids: tuple[str, ...]
    values: np.ndarray
    measure: str
    approx: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "ids", tuple(self.ids))
        object.__setattr__(self, "values", values)
        if self.approx is None:
            object.__setattr__(self, "approx", np.zeros(values.shape, dtype=bool))
        else:
            object.__setattr__(self, "approx", np.asarray(self.approx, dtype=bool))
        n = len(self.ids)
        if len(set(self.ids)) != n:
            raise ValueError("model ids must be unique")
        if values.shape != (n, n) or self.approx.shape != (n, n):
            raise ValueError("matrix shape does not match the id list")
        if not np.array_equal(values, values.T):
            raise ValueError("distance matrix must be symmetric")
        if np.any(np.diag(values) != 0.0):
            raise ValueError("self-distances must be zero")
        if values.min() < 0.0 or values.max() > 1.0:
            raise ValueError("distances must lie in [0, 1]")
        self.values.setflags(write=False)
        self.approx.setflags(write=False)

    def __len__(self) -> int:
        return len(self.ids)

    def index(self, model_id: str) -> int:
        try:
            return self.ids.index(model_id)
        except ValueError:
            raise KeyError(f"unknown model id {model_id!r}") from None

    def entry(self, id_a: str, id_b: str) -> float:
        return float(self.values[self.index(id_a), self.index(id_b)])

    def submatrix(self, ids: Sequence[str]) -> "DistanceMatrix":
        idx = [self.index(i) for i in ids]
        return DistanceMatrix(
            ids=tuple(ids),
            values=self.values[np.ix_(idx, idx)].copy(),
            measure=self.measure,
            approx=self.approx[np.ix_(idx, idx)].copy(),
        )

    def rounded(self) -> "DistanceMatrix":
        """Quantized copy, matching the CSV export precision."""
        return DistanceMatrix(
            ids=self.ids,
            values=np.round(self.values, MATRIX_DECIMALS),
            measure=self.measure,
            approx=self.approx.copy(),
        )


@dataclass(frozen=True)
class MeasureSpec:
    """How one measure turns models into features and feature pairs into a similarity.

    Both steps also return an approximation flag; a pair is approximate when
    either feature or the comparison is.
    """

    featurize: Callable[[LocalProcessModel, MatrixParams], tuple[object, bool]]
    compare: Callable[[object, object, MatrixParams], tuple[float, bool]]
    reads: tuple[str, ...]  # the MatrixParams fields the measure depends on


def _model(model: LocalProcessModel, params: MatrixParams) -> tuple[object, bool]:
    return model, False


def _labels(model: LocalProcessModel, params: MatrixParams) -> tuple[object, bool]:
    return model.net.activity_labels(), False


def _ef(model: LocalProcessModel, params: MatrixParams) -> tuple[object, bool]:
    """The EF relation on the layered state graph, exact up to the bound.

    ``enum_cap`` only sets the flag: it marks the models whose bounded
    language the enumerator would have cut short.
    """
    return eventually_follows(model, params.bound, params.enum_cap)


def _traces(model: LocalProcessModel, params: MatrixParams) -> tuple[object, bool]:
    lang = bounded_language(model, params.bound, params.enum_cap)
    traces, capped = capped_traces(lang, params.lang_cap)
    return traces, lang.truncated or capped


def _exact(kernel: Callable[[object, object], float]):
    return lambda fa, fb, params: (kernel(fa, fb), False)


def _ged(fa: LocalProcessModel, fb: LocalProcessModel, params: MatrixParams) -> tuple[float, bool]:
    sim, exact = ged_similarity(fa, fb, params.ged_budget)
    return sim, not exact


MEASURES: dict[Measure, MeasureSpec] = {
    Measure.TRANSITION: MeasureSpec(_labels, _exact(dice), ()),
    Measure.NODE: MeasureSpec(_model, _exact(sim_node), ()),
    Measure.EFG: MeasureSpec(_ef, _exact(dice), ("bound", "enum_cap")),
    Measure.FULL: MeasureSpec(_traces, _exact(_full_from_traces), ("bound", "lang_cap", "enum_cap")),
    Measure.GED: MeasureSpec(_model, _ged, ("ged_budget",)),
}


def similarity(
    measure: Measure | str,
    a: LocalProcessModel,
    b: LocalProcessModel,
    **params,
) -> float:
    """Similarity of one model pair under the named measure; ``params`` are
    ``MatrixParams`` fields."""
    spec = MEASURES[Measure(measure)]
    params = MatrixParams(**params)
    fa, _ = spec.featurize(a, params)
    fb, _ = spec.featurize(b, params)
    return spec.compare(fa, fb, params)[0]


def distance(
    measure: Measure | str,
    a: LocalProcessModel,
    b: LocalProcessModel,
    **params,
) -> float:
    """The inverse of the similarity: 1 - sim."""
    return 1.0 - similarity(measure, a, b, **params)


def _pairs_chunk(args) -> list[tuple[int, int, float, bool]]:
    measure_value, features, params, pairs = args
    compare = MEASURES[Measure(measure_value)].compare
    out = []
    for i, j in pairs:
        (fa, approx_a), (fb, approx_b) = features[i], features[j]
        sim, approx = compare(fa, fb, params)
        out.append((i, j, 1.0 - sim, approx_a or approx_b or approx))
    return out


def distance_matrix(
    models: Sequence[LocalProcessModel],
    measure: Measure | str,
    params: MatrixParams | None = None,
) -> DistanceMatrix:
    """All pairwise distances under one measure; needs >= 2 uniquely-id'd models."""
    measure = Measure(measure)
    params = params or MatrixParams()
    if len(models) < 2:
        raise ValueError("a distance matrix needs at least two models")
    ids = tuple(m.id for m in models)
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate model ids in the input set")
    featurize = MEASURES[measure].featurize
    features = [featurize(m, params) for m in models]
    pairs = [(i, j) for i in range(len(models)) for j in range(i + 1, len(models))]
    if params.workers > 1 and len(pairs) > 1:
        chunk_count = min(len(pairs), params.workers * 4)
        chunks = [
            (measure.value, features, params, pairs[k::chunk_count]) for k in range(chunk_count)
        ]
        results: list[tuple[int, int, float, bool]] = []
        if measure in (Measure.NODE, Measure.FULL):
            # their pair kernels solve assignments: import scipy once here,
            # so forked workers inherit it instead of each importing it
            import scipy.optimize  # noqa: F401
        # imported only here: sequential runs never load the process pool
        from concurrent.futures import ProcessPoolExecutor

        # under fork the pool starts every worker at the first submit
        with ProcessPoolExecutor(max_workers=min(params.workers, os.cpu_count() or 1)) as pool:
            for part in pool.map(_pairs_chunk, chunks):
                results.extend(part)
    else:
        results = _pairs_chunk((measure.value, features, params, pairs))
    n = len(models)
    values = np.zeros((n, n))
    approx = np.zeros((n, n), dtype=bool)
    for i, j, value, flag in results:
        values[i, j] = values[j, i] = value
        approx[i, j] = approx[j, i] = flag
    return DistanceMatrix(ids=ids, values=values, measure=measure.value, approx=approx)
