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
node-cost table, the arc directions between every two A nodes, per B node
the bitmasks of its arc targets and sources, the cost of deleting each A
node and the column minima of the node costs below each search depth. The
search state is the decided prefix, its cost, the used B nodes as one
bitmask and the count of B arcs not between two used nodes. Nets are
bipartite, so that count, and with it the lower bound, depends on the depth
and the used B nodes alone: the bound is memoized on that key, up to a
fixed number of entries per pair, and a cached bound is the very float a
recomputation gives. One routine gives the step costs of deciding A's next
node, for the search's candidates and the seeded incumbent alike.

The incumbent comes from a node-cost-optimal assignment, solved by
``measures._lsap``: the package's one assignment solver, which ``node`` and
``full`` reach through ``optimal_assignment``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat

from .measures import DEFAULT_GED_BUDGET, _lsap, _ordered, left_sum, place_gain
from .petri import LocalProcessModel

# bound memo entries kept per pair, whatever the expansion budget
_BOUND_MEMO_CAP = 1 << 16


@dataclass(frozen=True)
class GedResult:
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
        # per depth idx: the minimum of each node-cost column over rows idx..
        self.col_min = [list(map(min, zip(*self.ns[idx:]))) for idx in range(self.n_a)]
        # A-edges still unaccounted once the first idx nodes are decided
        self.a_edges_rem = [sum(1 for i, k in arcs_a if max(i, k) >= idx) for idx in range(self.n_a + 1)]
        self.bounds: dict[int, float] = {}  # _lower_bound by (idx << n_b) | used
        self.expansions = 0
        self.exhausted = False
        # fallback: delete everything in A, insert everything in B
        self.best_cost = float(net_a.size + net_b.size)
        self._seed_greedy_incumbent()

    def _seed_greedy_incumbent(self) -> None:
        """Start from a node-cost-optimal assignment (edges ignored); it is
        usually a far tighter upper bound than rebuilding everything."""
        if self.n_a == 0 or self.n_b == 0:
            return
        _, cols = _lsap(_bordered(self.ns, self.n_b))
        mapping = [c if c < self.n_b else None for c in cols[: self.n_a]]
        self.best_cost = min(self.best_cost, self._score(mapping))

    def _score(self, mapping: list[int | None]) -> float:
        """Cost of a complete mapping, added up by the steps the search takes."""
        decided: list[int | None] = []
        cost, used, b_left = 0.0, 0, self.n_arcs_b
        for j in mapping:
            if j is None:
                cost += self.delete_cost[len(decided)]
            else:
                cost += self._step_costs(decided, [j])[0]
                used, b_left = used | 1 << j, b_left - self._arcs_to_used(j, used)
            decided.append(j)
        return self._total(cost, used, b_left)

    def _total(self, cost: float, used: int, b_left: int) -> float:
        """A complete mapping's cost: its steps, then B's inserted nodes and arcs."""
        return cost + (self.n_b - used.bit_count()) + b_left

    def _arcs_to_used(self, j: int, used: int) -> int:
        """B arcs between node j and the used B nodes: those using j settles."""
        return (self.b_out[j] & used).bit_count() + (self.b_in[j] & used).bit_count()

    def _lower_bound(self, idx: int, used: int, b_left: int) -> float:
        """Bound on the cost to come after A's first idx nodes, memoized on (idx, used)."""
        key = idx << self.n_b | used
        bound = self.bounds.get(key)
        if bound is not None:
            return bound
        unused = [not used >> j & 1 for j in range(self.n_b)]
        rows = self.ns[idx:]
        ra, rb = len(rows), unused.count(True)
        if ra and rb:
            row = left_sum(map(min, map(compress, rows, repeat(unused)))) + max(0, rb - ra)
            col = left_sum(compress(self.col_min[idx], unused)) + max(0, ra - rb)
            node_bound = max(row, col)
        else:
            node_bound = float(ra + rb)
        bound = node_bound + abs(self.a_edges_rem[idx] - b_left)
        if len(self.bounds) < _BOUND_MEMO_CAP:
            self.bounds[key] = bound
        return bound

    def _step_costs(self, decided: list[int | None], js: list[int]) -> list[float]:
        """Cost of mapping the next A node i to each B node j in js: its node
        cost, then the arcs between i and each decided node k, in k order;
        ``bit_l`` is the bit of k's B node l, 0 when k is deleted."""
        i = len(decided)
        ns_i = self.ns[i]
        ctx = [(a_ik, a_ki, 0, 0.0) if l is None else (a_ik, a_ki, 1 << l, ns_k[l])
               for (a_ik, a_ki), ns_k, l in zip(self.a_dirs[i], self.ns, decided)]
        costs = []
        for j in js:
            ns_ij = cost = ns_i[j]
            out_j, in_j = self.b_out[j], self.b_in[j]
            for a_ik, a_ki, bit_l, ns_kl in ctx:
                if not bit_l:
                    cost += a_ik + a_ki
                    continue
                b_jl, b_lj = out_j & bit_l, in_j & bit_l
                if a_ik and b_jl:
                    cost += 0.5 * (ns_ij + ns_kl)
                elif a_ik or b_jl:
                    cost += 1.0
                if a_ki and b_lj:
                    cost += 0.5 * (ns_ij + ns_kl)
                elif a_ki or b_lj:
                    cost += 1.0
            costs.append(cost)
        return costs

    def run(self) -> GedResult:
        self._dfs([], 0.0, 0, self.n_arcs_b)
        return GedResult(cost=self.best_cost, exact=not self.exhausted, expansions=self.expansions)

    def _dfs(self, decided: list[int | None], cost: float, used: int, b_left: int) -> None:
        idx = len(decided)
        if idx == self.n_a:
            self.best_cost = min(self.best_cost, self._total(cost, used, b_left))
            return
        # step cost, then map before delete, then B id order
        free = [j for j in range(self.n_b) if not used >> j & 1]
        candidates = [*zip(self._step_costs(decided, free), repeat(0), free), (self.delete_cost[idx], 1, None)]
        candidates.sort()
        for step_cost, _, j in candidates:
            if self.expansions >= self.budget:
                self.exhausted = True
                return
            self.expansions += 1
            new_cost = cost + step_cost
            if j is None:
                new_used, new_left = used, b_left
            else:
                new_used, new_left = used | 1 << j, b_left - self._arcs_to_used(j, used)
            if new_cost + self._lower_bound(idx + 1, new_used, new_left) < self.best_cost:
                decided.append(j)
                self._dfs(decided, new_cost, new_used, new_left)
                decided.pop()
                if self.exhausted:
                    return


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
    """Similarity 1 - cost/(size(a)+size(b)), clamped to [0, 1], plus exactness."""
    size_sum = a.net.size + b.net.size
    if size_sum == 0:
        return 1.0, True
    result = ged_raw(a, b, budget)
    return min(1.0, max(0.0, 1.0 - result.cost / size_sum)), result.exact
