"""Seeded generators for valid local process models, planted fixtures and
fixture distance matrices."""

from __future__ import annotations

import random
from itertools import combinations

from lpmgroup import DistanceMatrix, LabeledPetriNet, LocalProcessModel, Marking, RankedModelSet, SILENT

ACTIVITIES = ["A", "B", "C", "D", "E", "F", "G", "H"]


def chain_lpm(model_id: str, labels: list[str]) -> LocalProcessModel:
    """Linear chain t0 -> p0 -> t1 -> ... with empty initial/final markings."""
    transitions = {f"t{i}": labels[i] for i in range(len(labels))}
    places = {f"p{i}" for i in range(len(labels) - 1)}
    arcs = []
    for i in range(len(labels) - 1):
        arcs.append((f"t{i}", f"p{i}"))
        arcs.append((f"p{i}", f"t{i+1}"))
    net = LabeledPetriNet(places=places, transitions=set(transitions), arcs=arcs, labels=transitions)
    return LocalProcessModel(id=model_id, net=net, initial=Marking(), final=Marking())


def xor_lpm(model_id: str, first: str, branches: list[str]) -> LocalProcessModel:
    """One starting transition feeding a place with several consumers."""
    transitions = {"t0": first}
    arcs = [("t0", "p0")]
    for i, label in enumerate(branches, start=1):
        transitions[f"t{i}"] = label
        arcs.append(("p0", f"t{i}"))
    net = LabeledPetriNet(places={"p0"}, transitions=set(transitions), arcs=arcs, labels=transitions)
    return LocalProcessModel(id=model_id, net=net, initial=Marking(), final=Marking())


def _components(nodes: set[str], arcs: list[tuple[str, str]]) -> list[set[str]]:
    parent = {n: n for n in nodes}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in arcs:
        parent[find(a)] = find(b)
    groups: dict[str, set[str]] = {}
    for n in nodes:
        groups.setdefault(find(n), set()).add(n)
    return sorted(groups.values(), key=lambda g: min(g))


def random_lpm(
    rng: random.Random,
    model_id: str,
    max_transitions: int = 8,
    max_places: int = 6,
    silent_prob: float = 0.15,
    token_prob: float = 0.1,
) -> LocalProcessModel:
    """A valid LPM by construction: every place gets in/out arcs, and
    leftover components are stitched together with extra arcs."""
    n_t = rng.randint(1, max_transitions)
    n_p = rng.randint(0, max_places) if n_t == 1 else rng.randint(1, max_places)
    transitions = [f"t{i}" for i in range(n_t)]
    places = [f"p{i}" for i in range(n_p)]
    arcs: set[tuple[str, str]] = set()
    for p in places:
        arcs.add((rng.choice(transitions), p))
        arcs.add((p, rng.choice(transitions)))
        if rng.random() < 0.3:
            arcs.add((rng.choice(transitions), p))
        if rng.random() < 0.3:
            arcs.add((p, rng.choice(transitions)))
    nodes = set(transitions) | set(places)
    while True:
        comps = _components(nodes, sorted(arcs))
        if len(comps) == 1:
            break
        with_place = next(c for c in comps if any(n.startswith("p") for n in c))
        other = next(c for c in comps if c is not with_place)
        place = rng.choice(sorted(n for n in with_place if n.startswith("p")))
        transition = rng.choice(sorted(n for n in other if n.startswith("t")))
        arcs.add((transition, place) if rng.random() < 0.5 else (place, transition))
    labels = {
        t: (SILENT if rng.random() < silent_prob else rng.choice(ACTIVITIES)) for t in transitions
    }
    net = LabeledPetriNet(places=set(places), transitions=set(transitions), arcs=arcs, labels=labels)
    initial = Marking()
    final = Marking()
    if places and rng.random() < token_prob:
        initial = Marking([rng.choice(places) for _ in range(rng.randint(1, 2))])
    if places and rng.random() < token_prob:
        final = Marking([rng.choice(places) for _ in range(rng.randint(1, 2))])
    return LocalProcessModel(id=model_id, net=net, initial=initial, final=final)


def self_loop_star(loops: int) -> LocalProcessModel:
    """t0 -> p0 -> exit, with ``loops`` self-loop transitions on p0: the
    language grows exponentially in the bound."""
    ts = ["t0"] + [f"t{k + 1}" for k in range(loops + 1)]
    arcs = [("t0", "p0"), ("p0", ts[-1])]
    for t in ts[1:-1]:
        arcs += [("p0", t), (t, "p0")]
    net = LabeledPetriNet(places={"p0"}, transitions=ts, arcs=arcs, labels={t: t.upper() for t in ts})
    return LocalProcessModel(id=f"star{loops}", net=net, initial=Marking(), final=Marking())


def with_isolated_transition(lpm: LocalProcessModel) -> LocalProcessModel:
    net = lpm.net
    labels = dict(net.labels)
    labels["t_iso"] = "Z"
    broken = LabeledPetriNet(
        places=net.places,
        transitions=net.transitions | {"t_iso"},
        arcs=net.arcs,
        labels=labels,
    )
    return LocalProcessModel(id=lpm.id + "_iso", net=broken, initial=lpm.initial, final=lpm.final)


def without_place_outputs(lpm: LocalProcessModel, place: str) -> LocalProcessModel:
    net = lpm.net
    broken = LabeledPetriNet(
        places=net.places,
        transitions=net.transitions,
        arcs=[(a, b) for a, b in net.arcs if a != place],
        labels=net.labels,
    )
    return LocalProcessModel(id=lpm.id + "_noout", net=broken, initial=lpm.initial, final=lpm.final)


def planted_groups(
    groups: int = 5,
    copies: int = 20,
    labels_per_group: int = 9,
    identical_head: int = 5,
) -> RankedModelSet:
    """Planted clusters under the transition measure.

    Group ``g`` uses its own disjoint label alphabet, so between-group
    distances are 1.0. The first ``identical_head`` copies of each group
    are identical full chains (distance 0); the rest drop one label each
    (within-group distance at most 0.125). Ranks run group-major, so the
    top ranks are duplicates of group 0.
    """
    models = []
    ranks = {}
    rank = 1
    for g in range(groups):
        alphabet = [f"g{g}x{i}" for i in range(labels_per_group)]
        for j in range(copies):
            if j < identical_head:
                labels = list(alphabet)
            else:
                drop = j % labels_per_group
                labels = [l for i, l in enumerate(alphabet) if i != drop]
            model_id = f"g{g}c{j:02d}"
            models.append(chain_lpm(model_id, labels))
            ranks[model_id] = rank
            rank += 1
    return RankedModelSet(models=tuple(models), ranks=ranks)


def random_matrix(rng: random.Random, n: int, decimals: int = 6, ids=None) -> DistanceMatrix:
    """``n`` models (ids ``m0``, ``m1``, ... unless given) at distances
    ``round(rng.random(), decimals)``, drawn pair by pair in row-major
    upper-triangle order."""
    ids = tuple(f"m{i}" for i in range(n)) if ids is None else ids
    return DistanceMatrix(ids, [round(rng.random(), decimals) for _ in range(n * (n - 1) // 2)], "rnd")


def matrix_of(ids, entries: dict[tuple[int, int], float], measure: str = "fixture") -> DistanceMatrix:
    """The matrix whose distance at rows ``(i, j)``, ``i < j``, is ``entries[i, j]``, and 0 where not given."""
    return DistanceMatrix(ids, [entries.get(pair, 0.0) for pair in combinations(range(len(ids)), 2)], measure)


def square_matrix(ids, square, measure: str = "fixture", approx=None) -> DistanceMatrix:
    """The matrix of a square fixture (nested sequences or a numpy array),
    condensed by scipy's ``squareform``, which refuses a square that is not
    exactly symmetric with a zero diagonal."""
    import numpy as np
    from scipy.spatial.distance import squareform

    def condensed(table, dtype):
        return squareform(np.asarray(table, dtype=dtype), force="tovector").tolist()

    return DistanceMatrix(ids, condensed(square, float), measure, None if approx is None else condensed(approx, bool))
