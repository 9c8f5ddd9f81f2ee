"""Labeled Petri nets, local process model checks, and bounded behavior.

A local process model (LPM) is a small accepting labeled Petri net: one
weakly connected component in which every place has at least one incoming
and one outgoing arc. Its behavior is the set of valid complete firing
sequences: transition sequences that lead from the initial to the final
marking while no place receives more than one token from transitions with
an empty preset ("unrestricted" transitions).

Bounded behavior comes two ways from one compiled firing rule:
``bounded_language`` lists the label traces of those sequences
breadth-first up to a prefix cap, and ``eventually_follows`` derives the
eventually-follows relation from the state graph layered by depth, exact
up to the bound without listing any trace.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations
from operator import add
from typing import Iterable, Mapping, NamedTuple

# Label of silent transitions. Activity names are non-empty strings, so the
# empty string can never collide with a real activity.
SILENT = ""

DEFAULT_BOUND = 10
DEFAULT_ENUM_CAP = 100_000

Trace = tuple[str, ...]
EFRelation = frozenset[tuple[str, str]]


class NetStructureError(ValueError):
    """The arc/label structure violates the labeled-Petri-net invariants."""


class Frozen:
    """Base of the records whose constructor converts or checks its arguments.

    ``__init__`` sets the ``__slots__`` fields once, through ``_set``; assigning
    to one later raises ``AttributeError``. Fields without a leading underscore
    make the repr and, unless a subclass compares by identity, equality and
    the hash, as a frozen dataclass's do."""

    __slots__ = ()

    def _set(self, **fields: object) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __setstate__(self, state: tuple[None, dict]) -> None:  # copy and pickle restore the slots here
        self._set(**state[1])

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__ if name[0] != "_")

    def __eq__(self, other: object) -> bool:
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = (f"{name}={getattr(self, name)!r}" for name in self.__slots__ if name[0] != "_")
        return f"{type(self).__qualname__}({', '.join(fields)})"


class LabeledPetriNet(Frozen):
    """Places, transitions, directed place<->transition arcs, and labels.

    ``labels`` must be total on transitions; silent transitions carry
    ``SILENT``. Duplicate labels are allowed. Nets compare by content.
    """

    __slots__ = ("places", "transitions", "arcs", "labels", "_pre", "_post", "_key", "_context", "_activities")
    places: frozenset[str]
    transitions: frozenset[str]
    arcs: frozenset[tuple[str, str]]
    labels: Mapping[str, str]

    def __init__(
        self,
        places: Iterable[str],
        transitions: Iterable[str],
        arcs: Iterable[tuple[str, str]],
        labels: Mapping[str, str],
    ):
        self._set(places=frozenset(places), transitions=frozenset(transitions),
                  arcs=frozenset((str(a), str(b)) for a, b in arcs), labels=dict(labels))
        self._check()
        pre: dict[str, set[str]] = {n: set() for n in self.places | self.transitions}
        post: dict[str, set[str]] = {n: set() for n in self.places | self.transitions}
        for src, dst in self.arcs:
            post[src].add(dst)
            pre[dst].add(src)
        named = self.labels.__getitem__
        self._set(
            _pre={n: frozenset(s) for n, s in pre.items()},
            _post={n: frozenset(s) for n, s in post.items()},
            _key=tuple(tuple(sorted(part)) for part in (self.places, self.transitions, self.arcs, self.labels.items())),
            _context={p: (frozenset(map(named, pre[p])), frozenset(map(named, post[p]))) for p in self.places},
            _activities=frozenset(self.labels.values()) - {SILENT},
        )

    def _check(self) -> None:
        overlap = self.places & self.transitions
        if overlap:
            raise NetStructureError(f"place and transition ids overlap: {sorted(overlap)}")
        for src, dst in sorted(self.arcs):  # the first bad arc found must not follow the hash seed
            for node in (src, dst):
                if node not in self.places and node not in self.transitions:
                    raise NetStructureError(f"arc ({src}, {dst}) references unknown node {node!r}")
            if (src in self.places) == (dst in self.places):
                raise NetStructureError(f"arc ({src}, {dst}) does not connect a place and a transition")
        missing = self.transitions - set(self.labels)
        if missing:
            raise NetStructureError(f"transitions without a label: {sorted(missing)}")
        extra = set(self.labels) - self.transitions
        if extra:
            raise NetStructureError(f"labels for unknown transitions: {sorted(extra)}")

    def preset(self, node: str) -> frozenset[str]:
        return self._pre[node]  # type: ignore[attr-defined]

    def postset(self, node: str) -> frozenset[str]:
        return self._post[node]  # type: ignore[attr-defined]

    def label(self, transition: str) -> str:
        return self.labels[transition]

    def activity_labels(self) -> frozenset[str]:
        """Non-silent labels carried by the transitions."""
        return self._activities  # type: ignore[attr-defined]

    def context(self, place: str) -> tuple[frozenset[str], frozenset[str]]:
        """Labels (silent included) of the transitions feeding ``place`` and
        of those consuming from it, compiled once with the net."""
        return self._context[place]  # type: ignore[attr-defined]

    @property
    def size(self) -> int:
        return len(self.places) + len(self.transitions) + len(self.arcs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabeledPetriNet):
            return NotImplemented
        return self._key == other._key  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._key)  # type: ignore[attr-defined]

    def __repr__(self) -> str:
        return (
            f"LabeledPetriNet(|P|={len(self.places)}, |T|={len(self.transitions)}, "
            f"|F|={len(self.arcs)})"
        )


class Marking(Frozen):
    """Immutable multiset of places; the state of a net. Markings compare by their counts."""

    __slots__ = ("counts",)
    counts: tuple[tuple[str, int], ...]

    def __init__(self, tokens: Iterable[str] | Mapping[str, int] = ()):
        if isinstance(tokens, Mapping):
            items = {p: int(c) for p, c in tokens.items() if int(c) != 0}
        else:
            items = {}
            for p in tokens:
                items[p] = items.get(p, 0) + 1
        if any(c < 0 for c in items.values()):
            raise ValueError("token counts must be non-negative")
        self._set(counts=tuple(sorted(items.items())))

    def get(self, place: str) -> int:
        for p, c in self.counts:
            if p == place:
                return c
        return 0

    def places(self) -> frozenset[str]:
        return frozenset(p for p, _ in self.counts)

    def __bool__(self) -> bool:
        return bool(self.counts)

    def __repr__(self) -> str:
        inner = ", ".join(f"{p}:{c}" for p, c in self.counts)
        return f"Marking({{{inner}}})"


class LocalProcessModel(Frozen):
    """An accepting labeled Petri net with a stable identifier.

    Construction does not enforce the LPM well-formedness rules; run
    ``validate_lpm`` to obtain a violation report.
    """

    __slots__ = ("id", "net", "initial", "final")
    __eq__ = object.__eq__  # models compare by identity
    __hash__ = object.__hash__
    id: str
    net: LabeledPetriNet
    initial: Marking
    final: Marking

    def __init__(self, id: str, net: LabeledPetriNet, initial: Marking, final: Marking):
        self._set(id=id, net=net, initial=initial, final=final)

    def fingerprint(self) -> tuple:
        """Content key, used for canonical ordering of model pairs; models compare by identity."""
        return (self.net._key, self.initial.counts, self.final.counts)  # type: ignore[attr-defined]


class ValidationReport(NamedTuple):
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_lpm(net: LabeledPetriNet, initial: Marking, final: Marking) -> ValidationReport:
    """Check the LPM well-formedness rules; violations are data, not errors.

    Rules: the net is one weakly connected component, every place has at
    least one incoming and one outgoing arc, and both markings reference
    existing places.
    """
    violations: list[str] = []
    nodes = net.places | net.transitions
    if nodes:
        seen = set()
        queue = deque([min(nodes)])
        seen.add(min(nodes))
        while queue:
            node = queue.popleft()
            for nxt in net.preset(node) | net.postset(node):
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        unreached = nodes - seen
        if unreached:
            violations.append(f"disconnected: {sorted(unreached)} not connected to {min(nodes)!r}")
    for place in sorted(net.places):
        if not net.preset(place):
            violations.append(f"place without incoming arc: {place!r}")
        if not net.postset(place):
            violations.append(f"place without outgoing arc: {place!r}")
    for name, marking in (("initial", initial), ("final", final)):
        for place in sorted(marking.places() - net.places):
            violations.append(f"{name} marking references unknown place: {place!r}")
    return ValidationReport(tuple(violations))


def unrestricted_transitions(net: LabeledPetriNet) -> frozenset[str]:
    """Transitions with an empty preset; they may inject tokens."""
    return frozenset(t for t in net.transitions if not net.preset(t))


class _FiringRule:
    """The firing rule of one net, compiled to integer state.

    A marking is a tuple of token counts indexed like ``places`` (sorted
    place ids); the places already fed by unrestricted transitions are a
    bitmask over the same index. Transitions are indexed in sorted id order.
    ``extra_places`` widens the index to places that a marking names but the
    net lacks; their counts never change.
    """

    def __init__(self, net: LabeledPetriNet, extra_places: Iterable[str] = ()):
        self.places = tuple(sorted(net.places | frozenset(extra_places)))
        self.transitions = tuple(sorted(net.transitions))
        index = {p: i for i, p in enumerate(self.places)}
        free = unrestricted_transitions(net)
        self._pre = tuple(tuple(index[p] for p in net.preset(t)) for t in self.transitions)
        deltas = []
        for t in self.transitions:
            delta = [0] * len(self.places)
            for p in net.preset(t):
                delta[index[p]] -= 1
            for p in net.postset(t):
                delta[index[p]] += 1
            deltas.append(tuple(delta))
        self._delta = tuple(deltas)
        self._free_mask = tuple(
            self.mask(net.postset(t)) if t in free else 0 for t in self.transitions
        )

    def mask(self, places: Iterable[str]) -> int:
        places = frozenset(places)
        return sum(1 << i for i, p in enumerate(self.places) if p in places)

    def encode(self, marking: Marking) -> tuple[int, ...]:
        counts = dict(marking.counts)
        return tuple(counts.get(p, 0) for p in self.places)

    def enabled(self, counts: tuple[int, ...], used: int) -> list[int]:
        """Indices of the transitions that may fire, in sorted id order: the
        preset is marked and, for an unrestricted transition, no postset
        place is in ``used``, since every place accepts at most one free
        token per run."""
        get = counts.__getitem__
        free_mask = self._free_mask
        return [
            k for k, pre in enumerate(self._pre) if all(map(get, pre)) and not free_mask[k] & used
        ]

    def fire(self, counts: tuple[int, ...], used: int, k: int) -> tuple[tuple[int, ...], int]:
        """Successor state after firing the enabled transition ``k``."""
        return tuple(map(add, counts, self._delta[k])), used | self._free_mask[k]


class BoundedLanguage(NamedTuple):
    """Silent-free label traces of the valid complete firing sequences."""

    bound: int
    traces: frozenset[Trace]
    truncated: bool


def bounded_language(
    lpm: LocalProcessModel,
    bound: int = DEFAULT_BOUND,
    cap: int = DEFAULT_ENUM_CAP,
) -> BoundedLanguage:
    """Label traces of the valid complete firing sequences with at most ``bound`` steps.

    Breadth-first over run prefixes; each prefix carries its marking, the
    places already fed by unrestricted transitions, its step count and its
    label trace, which a silent step leaves as it was. The empty run is
    never reported, but a complete run of silent steps alone yields the
    empty trace. When more than ``cap`` prefixes would be explored the
    search is cut short and flagged truncated.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    rule = _FiringRule(lpm.net, lpm.initial.places() | lpm.final.places())
    enabled_in, fire_in = rule.enabled, rule.fire
    labels = lpm.net.labels
    step = [() if labels[t] == SILENT else (labels[t],) for t in rule.transitions]
    final = rule.encode(lpm.final)
    traces: set[Trace] = set()
    truncated = False
    explored = 0
    frontier = deque([(rule.encode(lpm.initial), 0, 0, ())])  # (marking, used mask, steps, trace)
    while frontier and not truncated:
        counts, used, steps, trace = frontier.popleft()
        if steps >= bound:
            continue
        for k in enabled_in(counts, used):
            if explored >= cap:
                truncated = True
                break
            explored += 1
            new_counts, new_used = fire_in(counts, used, k)
            new_trace = trace + step[k]
            if new_counts == final:
                traces.add(new_trace)
            frontier.append((new_counts, new_used, steps + 1, new_trace))
    return BoundedLanguage(bound=bound, traces=frozenset(traces), truncated=truncated)


def ef_relation(language: BoundedLanguage) -> EFRelation:
    """Ordered label pairs (a, b) with a strictly before b in some trace."""
    pairs: set[tuple[str, str]] = set()
    for trace in language.traces:
        pairs.update(combinations(trace, 2))
    return frozenset(pairs)


def eventually_follows(
    lpm: LocalProcessModel,
    bound: int = DEFAULT_BOUND,
    cap: int = DEFAULT_ENUM_CAP,
) -> tuple[EFRelation, bool]:
    """The EF relation of the bounded language, without listing sequences.

    Works on the state graph of the firing rule, layered by depth
    0..``bound``; a state is a marking plus the places already fed by
    unrestricted transitions, so what may fire next depends on the state
    alone. A forward pass gives every layered state the labels seen on some
    path to it and its number of paths; a backward pass finds the live
    states, from which some path reaches the final marking at a depth in
    1..``bound``. Every
    non-silent step into a live state pairs each label seen before it with
    its own label, so the relation is that of ``bounded_language`` with no
    cap. The flag equals ``bounded_language``'s: more than ``cap`` firing
    sequences of length 1..``bound`` exist. Path counts saturate at
    ``cap + 1``.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    rule = _FiringRule(lpm.net, lpm.initial.places() | lpm.final.places())
    enabled_in, fire_in = rule.enabled, rule.fire
    names = sorted(lpm.net.activity_labels())
    slot = {name: i for i, name in enumerate(names)}
    label = [slot.get(lpm.net.labels[t], -1) for t in rule.transitions]  # -1: silent
    bit = [1 << i if i >= 0 else 0 for i in label]
    limit = cap + 1
    prefixes = 0
    # layer: state -> (mask of labels seen on some path to it, path count)
    layer = {(rule.encode(lpm.initial), 0): (0, 1)}
    steps = []  # per depth, the edges (state, its label mask, transition, successor)
    for _ in range(bound):
        edges = []
        reached: dict = {}
        for state, (seen, paths) in layer.items():
            for k in enabled_in(*state):
                succ = fire_in(*state, k)
                edges.append((state, seen, k, succ))
                if succ in reached:
                    old_seen, old_paths = reached[succ]
                    reached[succ] = (old_seen | seen | bit[k], min(old_paths + paths, limit))
                else:
                    reached[succ] = (seen | bit[k], paths)
                prefixes = min(prefixes + paths, limit)
        steps.append(edges)
        layer = reached
    final = rule.encode(lpm.final)
    before = [0] * len(names)  # per label, the mask of labels that precede it
    live: set = set()  # live states of the layer the current edges lead into
    for edges in reversed(steps):
        live_here = set()
        for state, seen, k, succ in edges:
            if succ[0] == final or succ in live:
                live_here.add(state)
                if label[k] >= 0:
                    before[label[k]] |= seen
        live = live_here
    pairs = frozenset(
        (names[a], names[b])
        for b, mask in enumerate(before)
        for a in range(len(names))
        if mask >> a & 1
    )
    return pairs, prefixes > cap
