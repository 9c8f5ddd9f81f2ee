"""Exact graph edit distance between two models, with a search budget.

Depth-first branch and bound over node mappings. Costs: substituting nodes
of different type (place vs transition) or differently labeled transitions
costs 1, equally labeled transitions 0, and a place pair costs one minus
its matching gain. Node and edge insertions/deletions cost 1; substituting
an edge costs the average of its endpoints' substitution costs.

The search is exact while the expansion budget lasts; once exhausted it
returns the best mapping found so far, flagged approximate. The result is
independent of argument order: the pair is canonically oriented first.

A pair is compiled once to integer indices, one node-cost table and arcs
as index pairs. One routine scores the search's leaves and the seeded
incumbent alike: the step costs of deciding A's nodes in order, plus B's
unused nodes and unsettled arcs. Costs equal those of the former rescoring
from node ids to 1e-9, with the same exact flags.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

import numpy as np

from .measures import DEFAULT_GED_BUDGET, _ordered, place_gain
from .petri import LocalProcessModel


@dataclass(frozen=True)
class GedResult:
    cost: float
    exact: bool


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
        self.arcs_a = {(pos_a[u], pos_a[w]) for u, w in net_a.arcs}
        self.arcs_b = {(pos_b[v], pos_b[x]) for v, x in net_b.arcs}
        # A-edges still unaccounted once the first idx nodes are decided
        self.a_edges_rem = [sum(1 for i, k in self.arcs_a if max(i, k) >= idx) for idx in range(self.n_a + 1)]
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
        from scipy.optimize import linear_sum_assignment  # deferred, see optimal_assignment

        n_a, n_b = self.n_a, self.n_b
        big = np.full((n_a + n_b, n_a + n_b), 1e6)
        big[:n_a, :n_b] = self.ns
        big[n_a:, n_b:] = 0.0
        big[range(n_a), range(n_b, n_b + n_a)] = 1.0  # delete
        big[range(n_a, n_a + n_b), range(n_b)] = 1.0  # insert
        rows, cols = linear_sum_assignment(big)
        mapping: list[int | None] = [None] * n_a
        for r, c in zip(rows, cols):
            if r < n_a and c < n_b:
                mapping[r] = int(c)
        self.best_cost = min(self.best_cost, self._score(mapping))

    def _score(self, mapping: list[int | None]) -> float:
        """Cost of a complete mapping, added up by the steps the search takes."""
        decided: list[int | None] = []
        unused = [True] * self.n_b
        cost, b_edges_rem = 0.0, len(self.arcs_b)
        for j in mapping:
            cost += self._decide_cost(j, decided)
            if j is not None:
                b_edges_rem -= self._settled(j, unused)
                unused[j] = False
            decided.append(j)
        return self._total(cost, unused, b_edges_rem)

    @staticmethod
    def _total(cost: float, unused: list[bool], b_edges_rem: int) -> float:
        """A complete mapping's cost: its steps, then B's inserted nodes and arcs."""
        return cost + unused.count(True) + b_edges_rem

    def _settled(self, j: int, unused: list[bool]) -> int:
        """B arcs between node j and the B nodes already used."""
        arcs_b = self.arcs_b
        return sum(((j, l) in arcs_b) + ((l, j) in arcs_b) for l, free in enumerate(unused) if not free)

    def _lower_bound(self, idx: int, unused: list[bool], b_edges_rem: int) -> float:
        rows = self.ns[idx:]
        ra, rb = len(rows), unused.count(True)
        if ra and rb:
            row = sum(min(compress(r, unused)) for r in rows) + max(0, rb - ra)
            col = sum(compress(map(min, zip(*rows)), unused)) + max(0, ra - rb)
            node_bound = max(row, col)
        else:
            node_bound = float(ra + rb)
        return node_bound + abs(self.a_edges_rem[idx] - b_edges_rem)

    def _decide_cost(self, j: int | None, decided: list[int | None]) -> float:
        """Cost of mapping the next A node to B node j (None: deleting it)."""
        i = len(decided)
        arcs_a, arcs_b, ns = self.arcs_a, self.arcs_b, self.ns
        if j is None:
            return 1.0 + sum(((i, k) in arcs_a) + ((k, i) in arcs_a) for k in range(i))
        ns_ij = ns[i][j]
        cost = ns_ij
        for k, l in enumerate(decided):
            a_ik = (i, k) in arcs_a
            a_ki = (k, i) in arcs_a
            if l is None:
                cost += a_ik + a_ki
                continue
            b_jl = (j, l) in arcs_b
            b_lj = (l, j) in arcs_b
            if a_ik and b_jl:
                cost += 0.5 * (ns_ij + ns[k][l])
            elif a_ik or b_jl:
                cost += 1.0
            if a_ki and b_lj:
                cost += 0.5 * (ns_ij + ns[k][l])
            elif a_ki or b_lj:
                cost += 1.0
        return cost

    def run(self) -> GedResult:
        self._dfs([], 0.0, [True] * self.n_b, len(self.arcs_b))
        return GedResult(cost=self.best_cost, exact=not self.exhausted)

    def _dfs(self, decided: list[int | None], cost: float, unused: list[bool], b_edges_rem: int) -> None:
        if self.exhausted:
            return
        idx = len(decided)
        if idx == self.n_a:
            self.best_cost = min(self.best_cost, self._total(cost, unused, b_edges_rem))
            return
        # step cost, then map before delete, then B id order
        candidates = [(self._decide_cost(j, decided), 0, j) for j, free in enumerate(unused) if free]
        candidates.append((self._decide_cost(None, decided), 1, None))
        candidates.sort()
        for step_cost, _, j in candidates:
            if self.expansions >= self.budget:
                self.exhausted = True
                return
            self.expansions += 1
            new_cost = cost + step_cost
            if j is None:
                if new_cost + self._lower_bound(idx + 1, unused, b_edges_rem) >= self.best_cost:
                    continue
                decided.append(None)
                self._dfs(decided, new_cost, unused, b_edges_rem)
                decided.pop()
            else:
                new_rem = b_edges_rem - self._settled(j, unused)
                unused[j] = False
                if new_cost + self._lower_bound(idx + 1, unused, new_rem) < self.best_cost:
                    decided.append(j)
                    self._dfs(decided, new_cost, unused, new_rem)
                    decided.pop()
                unused[j] = True
            if self.exhausted:
                return


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
