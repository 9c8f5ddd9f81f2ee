"""Exact graph edit distance between two models, with a search budget.

Depth-first branch and bound over node mappings. Costs: substituting nodes
of different type (place vs transition) or differently labeled transitions
costs 1, equally labeled transitions 0, and a place pair costs one minus
its matching gain. Node and edge insertions/deletions cost 1; substituting
an edge costs the average of its endpoints' substitution costs.

The search is exact while the expansion budget lasts; once exhausted it
returns the best mapping found so far, flagged approximate. The result is
independent of argument order: the pair is canonically oriented first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import DEFAULT_GED_BUDGET, _ordered, place_gain
from .petri import LocalProcessModel


@dataclass(frozen=True)
class GedResult:
    cost: float
    exact: bool


def _node_cost(model_a: LocalProcessModel, u: str, model_b: LocalProcessModel, v: str) -> float:
    u_is_place = u in model_a.net.places
    v_is_place = v in model_b.net.places
    if u_is_place != v_is_place:
        return 1.0
    if u_is_place:
        return 1.0 - place_gain(model_a.net, u, model_b.net, v)
    return 0.0 if model_a.net.label(u) == model_b.net.label(v) else 1.0


def _mapping_cost(a: LocalProcessModel, b: LocalProcessModel, mapping: dict[str, str | None]) -> float:
    """Cost of a complete mapping, summed in one canonical order."""
    arcs_a = a.net.arcs
    arcs_b = b.net.arcs
    image = {v for v in mapping.values() if v is not None}
    cost = 0.0
    for u in sorted(mapping):
        v = mapping[u]
        cost += 1.0 if v is None else _node_cost(a, u, b, v)
    cost += float(len((a.net.places | a.net.transitions) - set(mapping)))  # unmapped A: deleted
    cost += float(len((b.net.places | b.net.transitions) - image))  # unhit B: inserted
    for u, w in sorted(arcs_a):
        v, x = mapping.get(u), mapping.get(w)
        if v is not None and x is not None and (v, x) in arcs_b:
            cost += 0.5 * (_node_cost(a, u, b, v) + _node_cost(a, w, b, x))
        else:
            cost += 1.0
    for v, x in sorted(arcs_b):
        pre_v = [u for u, img in mapping.items() if img == v]
        pre_x = [u for u, img in mapping.items() if img == x]
        if pre_v and pre_x and (pre_v[0], pre_x[0]) in arcs_a:
            continue  # substituted, already counted from the A side
        cost += 1.0
    return cost


class _GedSearch:
    def __init__(self, a: LocalProcessModel, b: LocalProcessModel, budget: int):
        self.a = a
        self.b = b
        self.budget = budget
        self.arcs_a = a.net.arcs
        self.arcs_b = b.net.arcs
        net_a, net_b = a.net, b.net
        degree_a = {n: len(net_a.preset(n)) + len(net_a.postset(n)) for n in net_a.places | net_a.transitions}
        self.order_a = sorted(net_a.places | net_a.transitions, key=lambda n: (-degree_a[n], n))
        self.nodes_b = sorted(net_b.places | net_b.transitions)
        self.n_a = len(self.order_a)
        self.n_b = len(self.nodes_b)
        self.ns = np.zeros((self.n_a, self.n_b))
        for i, u in enumerate(self.order_a):
            for j, v in enumerate(self.nodes_b):
                self.ns[i, j] = _node_cost(a, u, b, v)
        pos = {u: i for i, u in enumerate(self.order_a)}
        # A-edges still unaccounted once the first idx nodes are decided
        self.a_edges_rem = [0] * (self.n_a + 1)
        for idx in range(self.n_a + 1):
            self.a_edges_rem[idx] = sum(1 for u, w in self.arcs_a if max(pos[u], pos[w]) >= idx)
        self.b_index = {v: j for j, v in enumerate(self.nodes_b)}
        self.expansions = 0
        self.exhausted = False
        # fallback: delete everything in A, insert everything in B
        self.best_mapping: dict[str, str | None] = {u: None for u in self.order_a}
        self.best_cost = float(net_a.size + net_b.size)
        self._seed_greedy_incumbent()

    def _seed_greedy_incumbent(self) -> None:
        """Start from a node-cost-optimal assignment (edges ignored); it is
        usually a far tighter upper bound than rebuilding everything."""
        if self.n_a == 0 or self.n_b == 0:
            return
        from scipy.optimize import linear_sum_assignment  # deferred, see optimal_assignment

        size = self.n_a + self.n_b
        big = np.full((size, size), 1e6)
        big[: self.n_a, : self.n_b] = self.ns
        big[self.n_a :, self.n_b :] = 0.0
        for i in range(self.n_a):
            big[i, self.n_b + i] = 1.0  # delete
        for j in range(self.n_b):
            big[self.n_a + j, j] = 1.0  # insert
        rows, cols = linear_sum_assignment(big)
        mapping: dict[str, str | None] = {u: None for u in self.order_a}
        for r, c in zip(rows, cols):
            if r < self.n_a and c < self.n_b:
                mapping[self.order_a[r]] = self.nodes_b[c]
        cost = _mapping_cost(self.a, self.b, mapping)
        if cost < self.best_cost:
            self.best_cost = cost
            self.best_mapping = mapping

    def _lower_bound(self, idx: int, unused_mask: np.ndarray, b_edges_rem: int) -> float:
        ra = self.n_a - idx
        rb = int(unused_mask.sum())
        if ra and rb:
            sub = self.ns[idx:, unused_mask]
            row = float(sub.min(axis=1).sum()) + max(0, rb - ra)
            col = float(sub.min(axis=0).sum()) + max(0, ra - rb)
            node_bound = max(row, col)
        else:
            node_bound = float(ra + rb)
        return node_bound + abs(self.a_edges_rem[idx] - b_edges_rem)

    def _decide_cost(self, u: str, v: str | None, decided: list[tuple[str, str | None]]) -> float:
        arcs_a, arcs_b = self.arcs_a, self.arcs_b
        if v is None:
            return 1.0 + sum(((u, w) in arcs_a) + ((w, u) in arcs_a) for w, _ in decided)
        ns_uv = self.ns[len(decided), self.b_index[v]]
        cost = ns_uv
        for depth, (w, x) in enumerate(decided):
            a_uw = (u, w) in arcs_a
            a_wu = (w, u) in arcs_a
            if x is None:
                cost += a_uw + a_wu
                continue
            ns_wx = self.ns[depth, self.b_index[x]]
            if a_uw and (v, x) in arcs_b:
                cost += 0.5 * (ns_uv + ns_wx)
            elif a_uw or (v, x) in arcs_b:
                cost += 1.0
            if a_wu and (x, v) in arcs_b:
                cost += 0.5 * (ns_uv + ns_wx)
            elif a_wu or (x, v) in arcs_b:
                cost += 1.0
        return cost

    def run(self) -> GedResult:
        unused = np.ones(self.n_b, dtype=bool)
        b_edges_rem = len(self.arcs_b)
        self._dfs(0, [], 0.0, unused, b_edges_rem)
        cost = _mapping_cost(self.a, self.b, self.best_mapping)
        return GedResult(cost=cost, exact=not self.exhausted)

    def _dfs(
        self,
        idx: int,
        decided: list[tuple[str, str | None]],
        cost: float,
        unused: np.ndarray,
        b_edges_rem: int,
    ) -> None:
        if self.exhausted:
            return
        if idx == self.n_a:
            total = cost + float(unused.sum()) + b_edges_rem
            if total < self.best_cost:
                self.best_cost = total
                self.best_mapping = dict(decided)
            return
        u = self.order_a[idx]
        used_before = {x for _, x in decided if x is not None}
        candidates: list[tuple[float, int, str | None]] = []
        for v in self.nodes_b:
            if unused[self.b_index[v]]:
                candidates.append((self._decide_cost(u, v, decided), 0, v))
        candidates.append((self._decide_cost(u, None, decided), 1, None))
        candidates.sort(key=lambda c: (c[0], c[1], c[2] or ""))
        for step_cost, _, v in candidates:
            if self.expansions >= self.budget:
                self.exhausted = True
                return
            self.expansions += 1
            new_cost = cost + step_cost
            if v is None:
                if new_cost + self._lower_bound(idx + 1, unused, b_edges_rem) >= self.best_cost:
                    continue
                decided.append((u, None))
                self._dfs(idx + 1, decided, new_cost, unused, b_edges_rem)
                decided.pop()
            else:
                j = self.b_index[v]
                newly_settled = sum(
                    ((v, x) in self.arcs_b) + ((x, v) in self.arcs_b) for x in used_before
                )
                unused[j] = False
                new_rem = b_edges_rem - newly_settled
                if new_cost + self._lower_bound(idx + 1, unused, new_rem) < self.best_cost:
                    decided.append((u, v))
                    self._dfs(idx + 1, decided, new_cost, unused, new_rem)
                    decided.pop()
                unused[j] = True
            if self.exhausted:
                return


def ged_raw(
    a: LocalProcessModel,
    b: LocalProcessModel,
    budget: int = DEFAULT_GED_BUDGET,
) -> GedResult:
    """Minimal edit cost between two models (exact flag tells if proven)."""
    a, b = _ordered(a, b)
    if a.net == b.net:
        return GedResult(cost=0.0, exact=True)  # identity mapping is free
    return _GedSearch(a, b, budget).run()


def ged_similarity(
    a: LocalProcessModel,
    b: LocalProcessModel,
    budget: int = DEFAULT_GED_BUDGET,
) -> tuple[float, bool]:
    """Similarity 1 - cost/(size(a)+size(b)), clamped to [0, 1], plus exactness."""
    size_sum = a.net.size + b.net.size
    if size_sum == 0:
        return 1.0, True
    result = ged_raw(a, b, budget)
    return min(1.0, max(0.0, 1.0 - result.cost / size_sum)), result.exact
