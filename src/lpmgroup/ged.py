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

A pair is compiled once to integer indices and lookup tables: the
node-cost table, per B node the bitmasks of its arc targets and sources,
the cost of deleting each A node, the column minima of the node costs below
each search depth, and a step-cost context per A node i, earlier A node k
and B node l of k, (i -> k, k -> i, bit of l, node cost of k to l), with one
more entry for a deleted k. The search is one loop over a stack of frames,
one per decided depth: the rest of that node's sorted candidates, its
prefix cost and the B nodes it leaves free. Each candidate carries its step
cost, the used B nodes as one bitmask and the count of B arcs not between
two used nodes. Nets are bipartite, so that count, and with it the lower
bound, depends on the depth and the used B nodes alone: the bound is
memoized on that key, up to a fixed number of entries per pair; the loop
reads the memo and computes a bound only on a miss, and a cached bound is
the very float a recomputation gives. One routine builds the candidates,
for the search and the seeded incumbent alike.

The incumbent comes from a node-cost-optimal assignment, solved by
``measures._lsap``: the package's one assignment solver, which ``node`` and
``full`` reach through ``optimal_assignment``.
"""

from __future__ import annotations

from itertools import compress, repeat
from operator import getitem
from typing import NamedTuple

from .measures import DEFAULT_GED_BUDGET, _lsap, _ordered, left_sum, place_gain
from .petri import LocalProcessModel

# bound memo entries kept per pair, whatever the expansion budget
_BOUND_MEMO_CAP = 1 << 16


class GedResult(NamedTuple):
    cost: float
    exact: bool
    expansions: int = 0  # search nodes expanded; 0 for the identity shortcut


class _GedSearch:
    def __init__(self, a: LocalProcessModel, b: LocalProcessModel, budget: int):
        self.budget = budget
        net_a, net_b = a.net, b.net
        degree_a = {n: len(net_a.preset(n)) + len(net_a.postset(n)) for n in net_a.places | net_a.transitions}
        order_a = sorted(net_a.places | net_a.transitions, key=lambda n: (-degree_a[n], n))
        nodes_b = sorted(net_b.places | net_b.transitions)
        self.n_a, self.n_b = len(order_a), len(nodes_b)

        def node_cost(u: str, v: str) -> float:
            u_is_place = u in net_a.places
            if u_is_place != (v in net_b.places):
                return 1.0
            if u_is_place:
                return 1.0 - place_gain(net_a, u, net_b, v)
            return 0.0 if net_a.label(u) == net_b.label(v) else 1.0

        self.ns = [[node_cost(u, v) for v in nodes_b] for u in order_a]
        pos_a = {u: i for i, u in enumerate(order_a)}
        pos_b = {v: j for j, v in enumerate(nodes_b)}
        arcs_a = {(pos_a[u], pos_a[w]) for u, w in net_a.arcs}
        self.n_arcs_b = len(net_b.arcs)
        # per A node i: (i -> k, k -> i) for every earlier node k
        self.a_dirs = [[((i, k) in arcs_a, (k, i) in arcs_a) for k in range(i)] for i in range(self.n_a)]
        # per B node j: the bitmasks of the nodes l with j -> l and with l -> j
        self.b_out, self.b_in = [0] * self.n_b, [0] * self.n_b
        for v, x in net_b.arcs:
            self.b_out[pos_b[v]] |= 1 << pos_b[x]
            self.b_in[pos_b[x]] |= 1 << pos_b[v]
        # deleting A node i also deletes its arcs to the earlier nodes
        self.delete_cost = [1.0 + sum(ik + ki for ik, ki in dirs) for dirs in self.a_dirs]
        # step-cost context of A node i against earlier node k mapped to B node
        # l, ctx[i][k][l] = (a_ik, a_ki, 1 << l, ns[k][l]); column n_b: k deleted
        self.ctx = [[[(ik, ki, 1 << l, ns_kl) for l, ns_kl in enumerate(ns_k)] + [(ik, ki, 0, 0.0)]
                     for (ik, ki), ns_k in zip(dirs, self.ns)] for dirs in self.a_dirs]
        # per depth idx: the minimum of each node-cost column over rows idx..
        self.col_min = [list(map(min, zip(*self.ns[idx:]))) for idx in range(self.n_a)]
        # A-edges still unaccounted once the first idx nodes are decided
        self.a_edges_rem = [sum(1 for i, k in arcs_a if max(i, k) >= idx) for idx in range(self.n_a + 1)]
        self.bits = [1 << j for j in range(self.n_b)]
        self.bounds: dict[int, float] = {}  # _lower_bound by (idx << n_b) | used
        # fallback: delete everything in A, insert everything in B; a
        # node-cost-optimal assignment (edges ignored) is usually far tighter
        self.best_cost = float(net_a.size + net_b.size)
        if self.n_a and self.n_b:
            cols = _lsap(_bordered(self.ns, self.n_b))[1][: self.n_a]
            self.best_cost = min(self.best_cost, self._score([min(c, self.n_b) for c in cols]))

    def _score(self, mapping: list[int]) -> float:
        """Cost of a complete mapping (n_b for a deleted node), added up by the search's steps."""
        decided: list[int] = []
        cost, used, b_left = 0.0, 0, self.n_arcs_b
        for j in mapping:
            step, _, _, used, b_left = self._candidates(decided, used, b_left, [j] if j < self.n_b else [])[0]
            cost += step
            decided.append(j)
        return self._total(cost, used, b_left)

    def _total(self, cost: float, used: int, b_left: int) -> float:
        """A complete mapping's cost: its steps, then B's inserted nodes and arcs."""
        return cost + (self.n_b - used.bit_count()) + b_left

    def _lower_bound(self, idx: int, used: int, b_left: int) -> float:
        """Bound on the cost to come after A's first idx nodes, kept in ``bounds``."""
        unused = [not used & bit for bit in self.bits]
        ra, rb = self.n_a - idx, self.n_b - used.bit_count()
        if ra and rb:
            row = left_sum(map(min, map(compress, self.ns[idx:], repeat(unused)))) + (rb - ra if rb > ra else 0)
            col = left_sum(compress(self.col_min[idx], unused)) + (ra - rb if ra > rb else 0)
            node_bound = row if row > col else col
        else:
            node_bound = float(ra + rb)
        bound = node_bound + abs(self.a_edges_rem[idx] - b_left)
        if len(self.bounds) < _BOUND_MEMO_CAP:
            self.bounds[idx << self.n_b | used] = bound
        return bound

    def _candidates(self, decided: list[int], used: int, b_left: int, js: list[int]) -> list[tuple]:
        """The steps deciding A's next node i: mapping it to each B node j in
        js, then deleting it, as (step cost, 0 | 1 for delete, j, used, b_left)
        after the step. A step costs i's node cost, then the arcs between i and
        each decided node k, in k order; ``bit_l`` is 0 when k is deleted."""
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
            # using j settles B's arcs between j and the used nodes
            steps.append((cost, 0, j, used | 1 << j, b_left - (out_j & used).bit_count() - (in_j & used).bit_count()))
        steps.append((self.delete_cost[i], 1, self.n_b, used, b_left))
        return steps

    def run(self) -> GedResult:
        """Depth first, candidates by step cost, then map before delete, then B id order."""
        n_a, n_b, budget, bounds = self.n_a, self.n_b, self.budget, self.bounds
        candidates, lower_bound, total = self._candidates, self._lower_bound, self._total
        best, expansions, exhausted = self.best_cost, 0, False
        decided: list[int] = []
        free = list(range(n_b))
        # with no A node the fallback is the only mapping
        stack = [(iter(sorted(candidates(decided, 0, self.n_arcs_b, free))), 0.0, free)] if n_a else []
        while stack:
            rest, cost, free = stack[-1]
            idx = len(stack)  # A nodes decided after the step
            for step, _, j, used, b_left in rest:
                if expansions >= budget:
                    exhausted = True
                    stack.clear()
                    break
                expansions += 1
                new_cost = cost + step
                bound = bounds.get(idx << n_b | used)
                if bound is None:
                    bound = lower_bound(idx, used, b_left)
                if new_cost + bound < best:
                    if idx == n_a:
                        best = min(best, total(new_cost, used, b_left))
                        continue
                    decided.append(j)
                    if j < n_b:
                        free = free.copy()
                        free.remove(j)
                    stack.append((iter(sorted(candidates(decided, used, b_left, free))), new_cost, free))
                    break
            else:  # every candidate tried: back to the parent frame
                stack.pop()
                del decided[-1:]
        return GedResult(cost=best, exact=not exhausted, expansions=expansions)


def _bordered(ns: list[list[float]], n_b: int) -> list[list[float]]:
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


def ged_raw(a: LocalProcessModel, b: LocalProcessModel, budget: int = DEFAULT_GED_BUDGET) -> GedResult:
    """Minimal edit cost between two models (exact flag tells if proven)."""
    a, b = _ordered(a, b)
    if a.net == b.net:
        return GedResult(cost=0.0, exact=True)  # identity mapping is free
    return _GedSearch(a, b, budget).run()


def ged_similarity(a: LocalProcessModel, b: LocalProcessModel, budget: int = DEFAULT_GED_BUDGET) -> tuple[float, bool]:
    """Similarity 1 - cost/(size(a)+size(b)) and exactness; no clamp: the cost starts at size(a)+size(b), only falls."""
    size_sum = a.net.size + b.net.size
    if size_sum == 0:
        return 1.0, True
    result = ged_raw(a, b, budget)
    return 1.0 - result.cost / size_sum, result.exact
