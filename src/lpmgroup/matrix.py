"""Pairwise distance matrices over a model set, one measure at a time.

``MEASURES`` is the one dispatch over the five measures: per measure, a
``featurize`` step run once per model, a ``compare`` step run per pair, and
the ``MatrixParams`` fields the two read. ``similarity``/``distance`` (one
pair, raw), ``distance_matrix`` (all pairs, at the CSV precision) and the
CLI's parameter notices all read this table. A ``DistanceMatrix`` mirrors its
condensed distances and keeps its flags condensed; ``exports.load_matrix`` checks a CSV.

``distance_matrix`` splits the pairs by stride over ``workers`` processes,
the calling one included, at most one per CPU this process may run on. A
measure whose spec has a ``key`` step (``ged``) gets every pair's key
first; the distinct keys are split instead, each solved once, and every pair
takes the result of its key. The extra processes are forked children: they
inherit the features and the modules featurizing loaded (``lpmgroup.ged``
for ``ged``), compute their stride and send the results back over a pipe
with ``marshal``, which keeps every float bit-exact. Where ``os.fork``
does not exist, the pairs run in the calling process. A child holds only
the forking thread, so a caller that runs other threads keeps ``workers``
at 1.
Matrices are identical regardless of worker count or scheduling.
"""

from __future__ import annotations

import marshal
import os
from functools import partial, reduce
from itertools import chain, combinations, islice
from operator import add
from typing import Callable, Hashable, Iterable, NamedTuple, Sequence

from .exports import MATRIX_DECIMALS
from .measures import (
    DEFAULT_GED_BUDGET,
    DEFAULT_LANG_CAP,
    Measure,
    _full_from_traces,
    _node_from_places,
    capped_traces,
    dice,
)
from .petri import (
    DEFAULT_BOUND,
    DEFAULT_ENUM_CAP,
    Frozen,
    LocalProcessModel,
    bounded_language,
    eventually_follows,
)

_SCALE = 10.0**MATRIX_DECIMALS


def _quantized(x: float) -> float:
    """``x`` at the CSV precision: scaled by 1e6, rounded half to even and divided back, as ``numpy.round(x, 6)``."""
    return round(x * _SCALE) / _SCALE


class MatrixParams(Frozen):
    """Knobs shared by the language- and search-based measures."""

    __slots__ = ("bound", "lang_cap", "enum_cap", "ged_budget", "workers")
    bound: int
    lang_cap: int
    enum_cap: int
    ged_budget: int
    workers: int

    def __init__(self, bound: int = DEFAULT_BOUND, lang_cap: int = DEFAULT_LANG_CAP, enum_cap: int = DEFAULT_ENUM_CAP,
                 ged_budget: int = DEFAULT_GED_BUDGET, workers: int = 1):
        self._set(bound=bound, lang_cap=lang_cap, enum_cap=enum_cap, ged_budget=ged_budget, workers=workers)
        for name in self.__slots__:
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")


class Table(tuple):
    """An immutable row-major table: a tuple of row tuples.

    ``t[i]`` is one row and ``t[i][j]`` one entry; iteration yields the rows.
    ``numpy.asarray`` turns it into an array.
    """

    __slots__ = ()

    def sum(self):
        """All entries added row by row, left to right; a bool table counts its trues."""
        return reduce(add, chain.from_iterable(self), 0)


def _mirrored(cells: Iterable, n: int, zero) -> Iterable[tuple]:
    """Rows of the symmetric ``n`` x ``n`` table with ``zero`` on the diagonal and, row by row, ``cells`` above it."""
    columns, cells = [[] for _ in range(n)], iter(cells)  # column j collects the cells (k, j) with k < j
    for i, left in enumerate(columns):
        right = tuple(islice(cells, n - 1 - i))
        for column, cell in zip(columns[i + 1:], right):
            column.append(cell)
        yield (*left, zero, *right)


def _upper(table: Table, rows: Sequence[int]) -> list:
    return [table[i][j] for i, j in combinations(rows, 2)]


def _offsets(n: int) -> list[int]:  # offsets[i] + j is the place of rows i < j in combinations(range(n), 2)
    return [i * (2 * n - i - 3) // 2 - 1 for i in range(n)]


class DistanceMatrix(Frozen):
    """Pairwise distances in [0, 1] with per-pair approximation flags.

    The constructor takes one distance (and flag) per pair of rows i < j in
    ``combinations(range(n), 2)`` order, as scipy's ``squareform``; ``values`` mirrors
    it into a square ``Table`` and ``flags`` keeps one byte, 0 or 1, per pair. Matrices compare by identity.
    """

    __slots__ = ("ids", "values", "measure", "flags", "_rows")
    __eq__ = object.__eq__
    __hash__ = object.__hash__
    ids: tuple[str, ...]
    values: Table
    measure: str
    flags: bytes
    _rows: dict[str, int]  # id -> row

    def __init__(self, ids: Sequence[str], distances: Iterable[float], measure: str,
                 flags: Iterable[bool] | None = None):
        ids = tuple(ids)
        n = len(ids)
        if len(set(ids)) != n:
            raise ValueError("model ids must be unique")
        distances = tuple(map(float, distances))
        flags = bytes(len(distances)) if flags is None else bytes(map(bool, flags))
        if len(distances) != n * (n - 1) // 2 or len(flags) != len(distances):
            raise ValueError(f"{n} ids need {n * (n - 1) // 2} distances and flags, one per pair")
        if not all(0.0 <= x <= 1.0 for x in distances):
            raise ValueError("distances must lie in [0, 1]")
        self._set(ids=ids, values=Table(_mirrored(distances, n, 0.0)), measure=measure, flags=flags,
                  _rows={m: k for k, m in enumerate(ids)})

    @property
    def approx(self) -> Table:  # the flags as a square bool Table, mirrored anew on each read
        return Table(_mirrored(map(bool, self.flags), len(self), False))

    def __len__(self) -> int:
        return len(self.ids)

    def index(self, model_id: str) -> int:
        try:
            return self._rows[model_id]
        except KeyError:
            raise KeyError(f"unknown model id {model_id!r}") from None

    def submatrix(self, ids: Sequence[str]) -> "DistanceMatrix":
        """The rows and columns of ``ids``, in that order."""
        rows, at, flags = [self.index(i) for i in ids], _offsets(len(self)), self.flags
        return DistanceMatrix(ids, _upper(self.values, rows), self.measure,
                              [flags[at[i] + j] if i < j else flags[at[j] + i] for i, j in combinations(rows, 2)])

    def rounded(self) -> "DistanceMatrix":
        """Copy at the CSV precision, for hand-built matrices: ``distance_matrix`` gives that precision already."""
        return DistanceMatrix(self.ids, map(_quantized, _upper(self.values, range(len(self)))), self.measure, self.flags)


class MeasureSpec(NamedTuple):
    """How one measure turns models into features and feature pairs into a similarity.

    Both steps also return an approximation flag; a pair is approximate when
    either feature or the comparison is. ``featurize`` runs before any fork,
    so the children inherit the modules it imports.
    """

    featurize: Callable[[LocalProcessModel, MatrixParams], tuple[object, bool]]
    compare: Callable[[object, object, MatrixParams], tuple[float, bool]]
    reads: tuple[str, ...]  # the MatrixParams fields the measure depends on
    # Optional split of compare into key(fa, fb, params), a hashable holding
    # all the comparison reads, and solve(key) -> (similarity, approx):
    # distance_matrix computes every pair's key before it forks and solves
    # each distinct key once.
    key: Callable[[object, object, MatrixParams], Hashable] | None = None
    solve: Callable[[Hashable], tuple[float, bool]] | None = None


def _labels(model: LocalProcessModel, params: MatrixParams) -> tuple[object, bool]:
    return model.net.activity_labels(), False


def _node(model: LocalProcessModel, params: MatrixParams) -> tuple[object, bool]:
    """The fingerprint, which orients a pair, the activity labels and the place contexts in sorted place order."""
    net = model.net
    return (model.fingerprint(), net.activity_labels(), tuple(map(net.context, sorted(net.places)))), False


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


# lpmgroup.ged is imported only here: no other measure compiles the search
def _ged_tables(model: LocalProcessModel, params: MatrixParams) -> tuple[object, bool]:
    from .ged import ged_tables

    return ged_tables(model), False


def _ged_key(fa, fb, params: MatrixParams) -> Hashable:
    from .ged import search_key

    return search_key(fa, fb, params.ged_budget)


def _ged_solve(key: Hashable) -> tuple[float, bool]:
    from .ged import key_similarity

    sim, exact = key_similarity(key)
    return sim, not exact


def _ged(fa, fb, params: MatrixParams) -> tuple[float, bool]:
    return _ged_solve(_ged_key(fa, fb, params))


MEASURES: dict[Measure, MeasureSpec] = {
    Measure.TRANSITION: MeasureSpec(_labels, _exact(dice), ()),
    Measure.NODE: MeasureSpec(_node, _exact(_node_from_places), ()),
    Measure.EFG: MeasureSpec(_ef, _exact(dice), ("bound", "enum_cap")),
    Measure.FULL: MeasureSpec(_traces, _exact(_full_from_traces), ("bound", "lang_cap", "enum_cap")),
    Measure.GED: MeasureSpec(_ged_tables, _ged, ("ged_budget",), key=_ged_key, solve=_ged_solve),
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


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _stride(compare, features, params: MatrixParams, k: int, procs: int) -> tuple[list[float], list[bool]]:
    """Distances and flags of every ``procs``-th pair of the row-major upper triangle, from the ``k``-th on."""
    values, flags = [], []
    for i, j in islice(combinations(range(len(features)), 2), k, None, procs):
        (fa, approx_a), (fb, approx_b) = features[i], features[j]
        sim, approx = compare(fa, fb, params)
        values.append(_quantized(1.0 - sim))
        flags.append(approx_a or approx_b or approx)
    return values, flags


def _solved(solve, keys: Sequence[Hashable], k: int, procs: int) -> tuple[list[float], list[bool]]:
    """Distances and flags of every ``procs``-th pair key, from the ``k``-th on."""
    values, flags = [], []
    for key in islice(keys, k, None, procs):
        sim, approx = solve(key)
        values.append(_quantized(1.0 - sim))
        flags.append(approx)
    return values, flags


def _child(stride, k: int, procs: int, write_end: int, inherited: list[int]) -> None:
    """Body of a forked child: compute ``stride(k, procs)``, send it, never return.

    ``inherited`` are the read ends the child got by the fork, its own and
    the earlier children's; closing them leaves the parent as the only reader.
    """
    code = 1
    try:
        for fd in inherited:
            os.close(fd)
        try:
            message = marshal.dumps((True, stride(k, procs)))
        except BaseException as exc:
            import pickle

            try:
                error = pickle.dumps(exc)
                pickle.loads(error)  # an exception that does not round-trip is sent as text
            except Exception:
                error = pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))
            message = marshal.dumps((False, error))
        with open(write_end, "wb") as pipe:
            pipe.write(message)
        code = 0
    finally:
        # never unwind into the caller's stack or flush its inherited stdio
        os._exit(code)


def _received(pid: int, read_end: int) -> tuple[list[float], list[bool]]:
    """Read one child's stride to the end of its pipe, reap the child and unpack."""
    try:
        with open(read_end, "rb") as pipe:
            message = pipe.read()
    finally:
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code < 0:
        raise RuntimeError(f"pair worker {pid} was killed by signal {-code}")
    if code:
        raise RuntimeError(f"pair worker {pid} exited with status {code}")
    ok, payload = marshal.loads(message)
    if not ok:
        import pickle

        raise pickle.loads(payload)
    return payload


def _condensed(stride, count: int, workers: int) -> tuple[list[float], bytearray]:
    """Distances and one flag byte of ``count`` items in order; ``stride(k, procs)`` gives every
    ``procs``-th from the ``k``-th on, and runs in a fork for k > 0.

    On any failure the parent first closes the read ends it still holds, so
    that a child blocked on a full pipe gets EPIPE, then reaps every child
    and raises; no partial result is returned.
    """
    procs = min(workers, _usable_cpus(), count) if hasattr(os, "fork") else 1
    distances, flags = [0.0] * count, bytearray(count)
    children: list[tuple[int, int]] = []  # (pid, read end), not yet reaped
    try:
        for k in range(1, procs):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:
                _child(stride, k, procs, write_end, [read_end, *(fd for _, fd in children)])
            os.close(write_end)
            children.append((pid, read_end))
        distances[::procs], flags[::procs] = stride(0, procs)
        for k in range(1, procs):
            distances[k::procs], flags[k::procs] = _received(*children.pop(0))
        return distances, flags
    finally:
        for _, read_end in children:
            os.close(read_end)
        for pid, _ in children:
            os.waitpid(pid, 0)


def _keyed(spec: MeasureSpec, features, params: MatrixParams) -> tuple[list[float], bytearray]:
    """Distances and flags of every pair, each distinct pair key solved once on the strides."""
    slots: dict[Hashable, int] = {}  # distinct key -> its place in solving order
    at = [slots.setdefault(spec.key(fa, fb, params), len(slots)) for (fa, _), (fb, _) in combinations(features, 2)]
    values, flags = _condensed(partial(_solved, spec.solve, list(slots)), len(slots), params.workers)
    approx = (approx_a or approx_b for (_, approx_a), (_, approx_b) in combinations(features, 2))
    return [values[k] for k in at], bytearray(flags[k] or flag for k, flag in zip(at, approx))


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
    spec = MEASURES[measure]
    features = [spec.featurize(m, params) for m in models]
    if spec.key is None:
        stride = partial(_stride, spec.compare, features, params)
        distances, flags = _condensed(stride, len(ids) * (len(ids) - 1) // 2, params.workers)
    else:
        distances, flags = _keyed(spec, features, params)
    return DistanceMatrix(ids, distances, measure.value, flags)
