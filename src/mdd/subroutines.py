"""Greedy deletion subroutines used by the approximation algorithms:
degree-cap deletion (every remaining vertex v keeps degree <= f(v)),
dominating set, and dissociation deletion (remaining max degree <= 1).

All three are deterministic: ties are broken by lowest vertex id, and
gain/weight ratios are compared by integer cross-multiplication.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import InfeasibleError, PreconditionError
from .graph import Graph

#: Cap sentinel: the vertex carries no degree constraint at all.
EXEMPT = None


@dataclass(frozen=True)
class FDepProblem:
    """Degree-cap deletion problem.

    cap[v] is an integer bound on the degree v may keep, or EXEMPT.  A
    negative cap means v cannot remain at all (such caps arise from the
    branch subproblems of the subset-enumeration algorithm).  weights[v] is
    a positive integer, or UNDELETABLE for vertices that must survive.
    """

    graph: Graph
    cap: tuple
    weights: tuple

    def __post_init__(self):
        n = self.graph.n
        if len(self.cap) != n or len(self.weights) != n:
            raise PreconditionError("cap/weights length must equal vertex count")
        for c in self.cap:
            if c is not EXEMPT and not isinstance(c, int):
                raise PreconditionError("caps must be integers or EXEMPT")

    @classmethod
    def uniform(cls, graph: Graph, f: int, weights=None) -> "FDepProblem":
        if weights is None:
            weights = tuple(1 for _ in range(graph.n))
        return cls(graph, tuple(f for _ in range(graph.n)), tuple(weights))


def f_dependent_delete(prob: FDepProblem) -> frozenset:
    """Greedy degree-cap deletion.

    Repeatedly deletes the deletable vertex u with the best ratio
    gain(u) / weight(u), where gain(u) = excess(u) + |N(u) & over|, excess
    is the degree above the cap and `over` is the set of remaining vertices
    with positive excess.  Deleting u lowers the excess of each neighbor in
    `over` by exactly 1.  Raises InfeasibleError when violations remain but
    no deletable vertex can reduce them (every violated vertex is
    undeletable with only undeletable remaining neighbors).
    """
    g = prob.graph
    cap = prob.cap
    deg = [g.degree(v) for v in range(g.n)]
    deleted = set()
    while True:
        excess = {v: deg[v] - cap[v] for v in range(g.n)
                  if v not in deleted and cap[v] is not EXEMPT
                  and deg[v] > cap[v]}
        if not excess:
            break
        over = set(excess)
        best = None
        best_gain, best_w = 0, 1
        for u in range(g.n):
            w = prob.weights[u]
            if u in deleted or w == math.inf:
                continue
            gain = excess.get(u, 0) + len(g.adj[u] & over)
            if gain * best_w > best_gain * w:
                best, best_gain, best_w = u, gain, w
        if best is None:
            raise InfeasibleError(
                "degree caps violated but every helpful vertex is undeletable")
        deleted.add(best)
        for v in g.adj[best]:
            deg[v] -= 1
    return frozenset(deleted)


def check_degree_caps(prob: FDepProblem, deleted: Iterable[int]) -> bool:
    """Re-verify a candidate against the caps from scratch."""
    deleted = set(deleted)
    remaining = set(range(prob.graph.n)) - deleted
    for v in remaining:
        c = prob.cap[v]
        if c is EXEMPT:
            continue
        if len(prob.graph.adj[v] & remaining) > c:
            return False
    return True


def dominating_set_approx(g: Graph, forbidden: Iterable[int] = (),
                          weights: Optional[tuple] = None) -> frozenset:
    """Greedy weighted dominating set avoiding `forbidden` vertices.

    Picks the allowed vertex covering the most still-undominated vertices
    per unit weight.  Vertices that are forbidden, or carry infinite weight,
    are never selected but still need to be dominated.
    """
    forbidden = set(forbidden)
    if weights is None:
        weights = tuple(1 for _ in range(g.n))
    allowed = [v for v in range(g.n)
               if v not in forbidden and weights[v] != math.inf]
    allowed_set = set(allowed)
    for v in range(g.n):
        if not (g.closed_neighborhood(v) & allowed_set):
            raise InfeasibleError(
                f"vertex {v} cannot be dominated: closed neighborhood forbidden")
    uncovered = set(range(g.n))
    chosen = set()
    while uncovered:
        best = None
        best_covered, best_w = 0, 1
        for u in allowed:
            covered = len(g.closed_neighborhood(u) & uncovered)
            if covered * best_w > best_covered * weights[u]:
                best, best_covered, best_w = u, covered, weights[u]
        assert best is not None  # the precheck above guarantees progress
        chosen.add(best)
        uncovered -= g.closed_neighborhood(best)
    return frozenset(chosen)


def is_dominating(g: Graph, vertices: Iterable[int]) -> bool:
    vertices = set(vertices)
    covered = set()
    for v in vertices:
        covered |= g.closed_neighborhood(v)
    return len(covered) == g.n


def dissociation_delete(g: Graph, weights: Optional[tuple] = None) -> frozenset:
    """Greedy deletion until the remaining graph has maximum degree 1."""
    return f_dependent_delete(FDepProblem.uniform(g, 1, weights))
