"""Exact graph edit distance between two models, with a search budget.

Depth-first branch and bound over node mappings. Costs: substituting nodes
of different type (place vs transition) or differently labeled transitions
costs 1, equally labeled transitions 0, and a place pair costs one minus
its matching gain. Node and edge insertions/deletions cost 1; substituting
an edge costs the average of its endpoints' substitution costs.

The search is exact while the expansion budget lasts; once exhausted it
returns the best mapping found so far, flagged approximate. The result
counts the search nodes expanded and is independent of argument order: the
pair is canonically oriented first.

Each model's tables are built once (``ged_tables``): its nodes (a label,
or a place's context) in ``(-degree, id)`` order for the side A of a pair
and in id order for the side B, and two label-free sides, one tuple each
that all the model's keys share. The A side holds each A node's arc
directions to every earlier node, the delete costs and the A arcs left per
depth; the B side holds per B node the masks of the nodes with an arc into
and out of it, the two as one arc mask, and the arc count. A pair builds
only its node-cost table ``ns``; ``search_key`` returns everything the
search of an oriented pair reads: ``ns``, A's side, B's side and the
budget. Equal keys give equal results, so ``matrix.distance_matrix``
searches each distinct key once.

``_GedSearch`` compiles only what the pair determines: per A node its
(node cost, B node bit) pairs in ascending order; the column minima of the
node costs below each search depth; a step-cost context per A node i,
earlier A node k and B node l of k, (i -> k, k -> i, bit of l, node cost of
k to l), with one more entry for a deleted k; and the incumbent.
The search is one loop over a stack of frames, one per decided depth: the
rest of that node's sorted steps (step cost, B node; B node n_b deletes),
its prefix cost, the B nodes it leaves free, the used B nodes as one
bitmask and the count of B arcs not between two used nodes. A step's used
nodes and arc count are worked out when it is expanded. Nets are
bipartite, so that count, and with it the lower bound, depends on the depth
and the used B nodes alone: the bound is memoized on that key, up to a
fixed number of entries per pair, and a cached bound is the very float a
recomputation gives. A step that decides A's last node completes a mapping,
which is settled from the B nodes and arcs it still has to insert. One
routine builds the steps, for the search and the seeded incumbent alike.

The incumbent comes from a node-cost-optimal assignment, solved by
``measures._lsap``: the package's one assignment solver, which ``node`` and
``full`` reach through ``optimal_assignment``.
"""

from __future__ import annotations

from operator import getitem
from typing import NamedTuple

from .measures import DEFAULT_GED_BUDGET, _lsap, context_gain
from .petri import LocalProcessModel

# bound memo entries kept per pair, whatever the expansion budget
_BOUND_MEMO_CAP = 1 << 16


class GedResult(NamedTuple):
    cost: float
    exact: bool
    expansions: int = 0  # search nodes expanded; 0 for the identity shortcut


class GedTables(NamedTuple):
    """One model's GED tables; a node is its label, or its context if a place."""

    fingerprint: tuple  # orients a pair, as in the node kernel; [0] is the net's own key
    a_nodes: tuple  # the nodes in (-degree, id) order
    a_side: tuple  # (a_dirs, delete_cost, a_edges_rem) of _GedSearch
    b_nodes: tuple  # the nodes in id order
    b_side: tuple  # (b_in, b_out, arcs, n_arcs_b) of _GedSearch


def ged_tables(model: LocalProcessModel) -> GedTables:
    net = model.net
    nodes = sorted(net.places | net.transitions)
    node = {n: net.context(n) if n in net.places else net.label(n) for n in nodes}
    degree = {n: len(net.preset(n)) + len(net.postset(n)) for n in nodes}
    order = sorted(nodes, key=lambda n: (-degree[n], n))
    pos_a = {u: i for i, u in enumerate(order)}
    pos_b = {v: j for j, v in enumerate(nodes)}
    arcs_a = {(pos_a[u], pos_a[w]) for u, w in net.arcs}
    # per A node i: (i -> k, k -> i) for every earlier node k
    a_dirs = tuple(tuple(((i, k) in arcs_a, (k, i) in arcs_a) for k in range(i)) for i in range(len(order)))
    arcs_to_earlier = [sum(ik + ki for ik, ki in dirs) for dirs in a_dirs]
    # per B node j: the bitmasks of the nodes l with l -> j and with j -> l
    n_b = len(nodes)
    b_in, b_out = [0] * n_b, [0] * n_b
    for v, x in net.arcs:
        b_in[pos_b[x]] |= 1 << pos_b[v]
        b_out[pos_b[v]] |= 1 << pos_b[x]
    return GedTables(
        fingerprint=model.fingerprint(),
        a_nodes=tuple(node[u] for u in order),
        # deleting A node i also deletes its arcs to the earlier nodes; per
        # depth idx, the A arcs still unaccounted once the first idx nodes are decided
        a_side=(a_dirs, tuple(1.0 + arcs for arcs in arcs_to_earlier),
                tuple(sum(arcs_to_earlier[idx:]) for idx in range(len(order) + 1))),
        b_nodes=tuple(node[v] for v in nodes),
        # arcs: per B node j, its arc targets, then its arc sources shifted up by n_b;
        # here and in _GedSearch.bits, column n_b is the delete step, which uses no B node
        b_side=(tuple(b_in), tuple(b_out), tuple(out_j | in_j << n_b for out_j, in_j in zip(b_out, b_in)) + (0,),
                len(net.arcs)),
    )


def _node_costs(a_nodes: tuple, b_nodes: tuple) -> tuple[tuple[float, ...], ...]:
    """``ns``: per A node, its cost against each B node. A label never equals a context."""
    rows = []
    for u in a_nodes:
        if type(u) is str:
            rows.append(tuple(0.0 if u == v else 1.0 for v in b_nodes))
        else:  # a place's context
            rows.append(tuple(1.0 if type(v) is str else 1.0 - context_gain(u, v) for v in b_nodes))
    return tuple(rows)


def _pair_input(a: GedTables, b: GedTables, budget: int) -> tuple:
    """The search input of ``a`` against ``b``, in that orientation."""
    return _node_costs(a.a_nodes, b.b_nodes), a.a_side, b.b_side, budget


def search_key(a: GedTables, b: GedTables, budget: int) -> tuple | None:
    """Everything the search of the oriented pair reads, or None when the nets are equal."""
    if b.fingerprint < a.fingerprint:
        a, b = b, a
    return None if a.fingerprint[0] == b.fingerprint[0] else _pair_input(a, b, budget)


class _GedSearch:
    def __init__(self, ns: tuple, a_side: tuple, b_side: tuple, budget: int):
        self.ns, self.budget = ns, budget
        self.a_dirs, self.delete_cost, self.a_edges_rem = a_side
        self.b_in, self.b_out, self.arcs, self.n_arcs_b = b_side
        self.n_a, self.n_b = n_a, n_b = len(self.a_dirs), len(self.b_in)
        # step-cost context of A node i against earlier node k mapped to B node
        # l, ctx[i][k][l] = (a_ik, a_ki, 1 << l, ns[k][l]); column n_b: k deleted
        self.ctx = [[[(ik, ki, 1 << l, ns_kl) for l, ns_kl in enumerate(ns_k)] + [(ik, ki, 0, 0.0)]
                     for (ik, ki), ns_k in zip(dirs, ns)] for dirs in self.a_dirs]
        # per depth idx: the minimum of each node-cost column over rows idx..
        self.col_min = [list(map(min, zip(*ns[idx:]))) for idx in range(n_a)]
        self.bits = [1 << j for j in range(n_b)] + [0]
        # per A node: (node cost, bit of the B node), ascending
        self.row_costs = [sorted(zip(ns_i, self.bits)) for ns_i in ns]
        self.bounds: dict[int, float] = {}  # _lower_bound by (idx << n_b) | used
        # fallback: delete everything in A, insert everything in B; a
        # node-cost-optimal assignment (edges ignored) is usually far tighter
        self.size = n_a + self.a_edges_rem[0] + n_b + self.n_arcs_b
        self.best_cost = float(self.size)
        if n_a and n_b:
            cols = _lsap(_bordered(ns, n_b))[1][:n_a]
            self.best_cost = min(self.best_cost, self._score([min(c, n_b) for c in cols]))

    def _score(self, mapping: list[int]) -> float:
        """Cost of a complete mapping (n_b for a deleted node), added up by the search's steps."""
        n_b, arcs = self.n_b, self.arcs
        cost, used, b_left = 0.0, 0, self.n_arcs_b
        for i, j in enumerate(mapping):
            cost += self._candidates(mapping[:i], [j] if j < n_b else [])[0][0]
            b_left -= (arcs[j] & (used | used << n_b)).bit_count()
            used |= self.bits[j]
        return cost + (n_b - used.bit_count()) + b_left

    def _lower_bound(self, idx: int, used: int, b_left: int) -> float:
        """Bound on the cost to come after A's first idx nodes, kept in ``bounds``.

        Its sums add left to right, as ``measures.left_sum`` does: the least
        cost of each remaining A node among the unused B nodes (the first
        unused node in its ``row_costs``), and the column minima of the
        unused B nodes.
        """
        unused = ((1 << self.n_b) - 1) & ~used
        ra, rb = self.n_a - idx, unused.bit_count()
        if ra and rb:
            row = col = 0.0
            for costs in self.row_costs[idx:]:
                for cost, bit in costs:
                    if bit & unused:
                        row += cost
                        break
            for cost, bit in zip(self.col_min[idx], self.bits):
                if bit & unused:
                    col += cost
            row += rb - ra if rb > ra else 0
            col += ra - rb if ra > rb else 0
            node_bound = row if row > col else col
        else:
            node_bound = float(ra + rb)
        bound = node_bound + abs(self.a_edges_rem[idx] - b_left)
        if len(self.bounds) < _BOUND_MEMO_CAP:
            self.bounds[idx << self.n_b | used] = bound
        return bound

    def _candidates(self, decided: list[int], js: list[int]) -> list[tuple]:
        """The steps deciding A's next node i: mapping it to each B node j in
        js, then deleting it (j = n_b), as (step cost, j). A step costs i's
        node cost, then the arcs between i and each decided node k, in k
        order; ``bit_l`` is 0 when k is deleted."""
        i = len(decided)
        ns_i, b_out, b_in = self.ns[i], self.b_out, self.b_in
        ctx = list(map(getitem, self.ctx[i], decided))
        steps = []
        for j in js:
            ns_ij = cost = ns_i[j]
            out_j, in_j = b_out[j], b_in[j]
            for a_ik, a_ki, bit_l, ns_kl in ctx:
                if not bit_l:
                    cost += a_ik + a_ki
                    continue
                if a_ik:
                    cost += 0.5 * (ns_ij + ns_kl) if out_j & bit_l else 1.0
                elif out_j & bit_l:
                    cost += 1.0
                if a_ki:
                    cost += 0.5 * (ns_ij + ns_kl) if in_j & bit_l else 1.0
                elif in_j & bit_l:
                    cost += 1.0
            steps.append((cost, j))
        steps.append((self.delete_cost[i], self.n_b))
        return steps

    def run(self) -> GedResult:
        """Depth first, steps by step cost, then B id order (the delete, n_b, last)."""
        n_a, n_b, budget, bounds = self.n_a, self.n_b, self.budget, self.bounds
        arcs, bits = self.arcs, self.bits
        candidates, lower_bound = self._candidates, self._lower_bound
        best, expansions = self.best_cost, 0
        decided: list[int] = []
        free = list(range(n_b))  # the unused B nodes
        # with no A node the fallback is the only mapping
        stack = [(iter(sorted(candidates(decided, free))), 0.0, free, 0, self.n_arcs_b)] if n_a else []
        while stack:
            rest, cost, free, used, b_left = stack[-1]
            idx = len(stack)  # A nodes decided after the step
            used2 = used | used << n_b  # used under both halves of arcs[j]
            for step, j in rest:
                if expansions >= budget:
                    return GedResult(cost=best, exact=False, expansions=expansions)
                expansions += 1
                new_cost = cost + step
                new_used = used | bits[j]
                if idx == n_a:  # a complete mapping: B's unused nodes and unsettled arcs are inserted
                    to_insert = n_b - new_used.bit_count()
                    new_left = b_left - (arcs[j] & used2).bit_count()
                    if new_cost + (to_insert + new_left) < best:
                        best = min(best, new_cost + to_insert + new_left)
                    continue
                bound = bounds.get(idx << n_b | new_used)
                if bound is None or new_cost + bound < best:
                    # using j settles B's arcs between j and the used nodes
                    new_left = b_left - (arcs[j] & used2).bit_count()
                    if bound is None:
                        bound = lower_bound(idx, new_used, new_left)
                    if new_cost + bound < best:
                        decided.append(j)
                        if j < n_b:
                            free = free.copy()
                            free.remove(j)
                        stack.append((iter(sorted(candidates(decided, free))), new_cost, free, new_used, new_left))
                        break
            else:  # every step tried: back to the parent frame
                stack.pop()
                del decided[-1:]
        return GedResult(cost=best, exact=True, expansions=expansions)


def _bordered(ns: tuple, n_b: int) -> list[list[float]]:
    """The square assignment matrix over node costs ``ns`` (n_a x n_b): A's
    rows then n_b insertion rows, B's columns then n_a deletion columns.
    Deleting or inserting costs 1 on its diagonal and 1e6 off it; pairing an
    insertion with a deletion costs 0."""
    n_a = len(ns)
    big = [[1e6] * (n_a + n_b) for _ in range(n_a + n_b)]
    for i in range(n_a):
        big[i][:n_b] = ns[i]
        big[i][n_b + i] = 1.0
    for j in range(n_b):
        big[n_a + j][j] = 1.0
        big[n_a + j][n_b:] = [0.0] * n_a
    return big


def key_similarity(key: tuple | None) -> tuple[float, bool]:
    """Similarity 1 - cost/(size(a)+size(b)) of a ``search_key`` and exactness; no clamp: the cost starts at size(a)+size(b), only falls."""
    if key is None:
        return 1.0, True
    search = _GedSearch(*key)
    result = search.run()
    return 1.0 - result.cost / search.size, result.exact


def ged_raw(a: LocalProcessModel, b: LocalProcessModel, budget: int = DEFAULT_GED_BUDGET) -> GedResult:
    """Minimal edit cost between two models (exact flag tells if proven)."""
    key = search_key(ged_tables(a), ged_tables(b), budget)
    return GedResult(cost=0.0, exact=True) if key is None else _GedSearch(*key).run()  # identity mapping is free


def ged_similarity(a: LocalProcessModel, b: LocalProcessModel, budget: int = DEFAULT_GED_BUDGET) -> tuple[float, bool]:
    """Similarity 1 - cost/(size(a)+size(b)) and exactness of one pair."""
    return key_similarity(search_key(ged_tables(a), ged_tables(b), budget))
