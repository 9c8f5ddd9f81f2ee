"""Float totals do not depend on how the interpreter's ``sum`` rounds.

From Python 3.12 on, ``sum`` compensates float rounding (Neumaier
summation). The GED lower bound decides which branches the search prunes,
and silhouettes and medoid means reach the outputs, so each is a plain
left-to-right fold: replacing ``sum`` by a compensated one moves no bit.
"""

import builtins
import math
import random

from lpmgroup import DistanceMatrix, repr_dist, sweep
from lpmgroup.measures import _ordered
from genmodels import random_lpm, random_matrix

_plain_sum = builtins.sum


def neumaier_sum(iterable, /, start=0):
    """``sum`` with Neumaier compensation whenever a float takes part."""
    items = [start, *iterable]
    if not all(type(x) in (bool, int, float) for x in items) or float not in map(type, items):
        return _plain_sum(items[1:], start)
    total = compensation = 0.0
    for x in map(float, items):
        t = total + x
        compensation += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + compensation if compensation and math.isfinite(compensation) else total


def test_neumaier_sum_compensates():
    assert neumaier_sum([0.1] * 10) == 1.0 != _plain_sum([0.1] * 10)
    assert neumaier_sum([1, 2, 3]) == 6 and neumaier_sum([[1]], []) == [1]


def test_compensated_sum_moves_no_pinned_bit(monkeypatch):
    from test_ged import TestGedRaw, _RecordingSearch

    matrix = random_matrix(random.Random(5), 40)
    # a's distances add up to 0.6000000000000001 left to right and to 0.6
    # compensated, b's to 0.6 either way: b is the medoid, a only on a tie
    medoid_fixture = DistanceMatrix(("a", "b", "c", "d"), [0.1, 0.2, 0.3, 0.5, 0.0, 1.0], "fixture")

    def ged_bounds():
        """Every lower bound the searches compute: on the pinned GED pairs,
        and on four larger pairs whose row-minimum sums round differently."""
        for seed, count, transitions, places, budget in (
            (47, len(TestGedRaw.HEX_PINS), 8, 6, max(TestGedRaw.HEX_BUDGETS)),
            (1, 4, 10, 8, 2000),
        ):
            rng = random.Random(seed)
            for k in range(count):
                a = random_lpm(rng, f"a{k}", max_transitions=transitions, max_places=places)
                b = random_lpm(rng, f"b{k}", max_transitions=transitions, max_places=places)
                search = _RecordingSearch(*_ordered(a, b), budget)
                search.run()
                yield [call[3].hex() for call in search.calls]

    def outputs():
        silhouettes = [o.silhouette.hex() for o in sweep(matrix).outcomes if o.silhouette is not None]
        return silhouettes, repr_dist(tuple("abcd"), medoid_fixture), list(ged_bounds())

    plain = outputs()
    assert plain[1] == "b"
    monkeypatch.setattr(builtins, "sum", neumaier_sum)
    assert outputs() == plain
    TestGedRaw().test_search_path_is_pinned()
