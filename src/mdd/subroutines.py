"""Greedy deletion subroutines used by the approximation algorithms:
degree-cap deletion (every remaining vertex v keeps degree <= f(v)),
dominating set, and dissociation deletion (remaining max degree <= 1).

All three pick with one deterministic rule, `_best_ratio`: gain/weight
ratios are compared by integer cross-multiplication, and ties go to the
lowest vertex id.  An UNDELETABLE weight is the one way to keep a vertex
from being picked.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import InfeasibleError, PreconditionError
from .graph import Graph, UNDELETABLE, is_valid_weight


def _check_weight(w):
    if not is_valid_weight(w):
        raise PreconditionError(
            f"weight {w!r} is neither a positive integer nor UNDELETABLE")


def _vertex_ids(g: Graph, removed) -> frozenset:
    removed = frozenset(removed)
    if not all(isinstance(v, int) and 0 <= v < g.n for v in removed):
        raise PreconditionError("removed vertices must be vertex ids")
    return removed


def _best_ratio(candidates, score, weights):
    """The pick rule of both greedies: the first candidate u with the largest
    positive score[u] / weights[u], or None if no score is positive."""
    best = None
    best_score, best_w = 0, 1
    for u in candidates:
        if score[u] * best_w > best_score * weights[u]:
            best, best_score, best_w = u, score[u], weights[u]
    return best


@dataclass(frozen=True)
class FDepProblem:
    """Degree-cap deletion problem.

    cap[v] is an integer bound on the degree v may keep; a cap of d(v) or
    more never binds.  A negative cap means v cannot remain at all (such
    caps arise from the branch subproblems of the subset-enumeration
    algorithm).  weights[v] is a positive integer, or UNDELETABLE for
    vertices that must survive.  Every vertex's cap and weight are checked,
    also those of vertices a call to f_dependent_delete removes.
    """

    graph: Graph
    cap: tuple
    weights: tuple

    def __post_init__(self):
        if len(self.cap) != self.graph.n or len(self.weights) != self.graph.n:
            raise PreconditionError("cap/weights length must equal vertex count")
        for c, w in zip(self.cap, self.weights):
            if not isinstance(c, int):
                raise PreconditionError("caps must be integers")
            _check_weight(w)

    @classmethod
    def uniform(cls, graph: Graph, f: int, weights=None) -> "FDepProblem":
        if weights is None:
            weights = tuple(1 for _ in range(graph.n))
        return cls(graph, tuple(f for _ in range(graph.n)), tuple(weights))


def f_dependent_delete(prob: FDepProblem, removed: Iterable[int] = ()) -> frozenset:
    """Greedy degree-cap deletion on G - removed, in the original ids.

    Repeatedly deletes the deletable vertex u with the best ratio
    gain(u) / weight(u), where gain(u) = excess(u) + |N(u) & over|, excess
    is the degree above the cap and `over` is the set of remaining vertices
    with positive excess.  Deleting u lowers the excess of each neighbor in
    `over` by exactly 1.  Raises InfeasibleError when violations remain but
    no deletable vertex can reduce them (every violated vertex is
    undeletable with only undeletable remaining neighbors).

    Excesses and gains are computed once on the whole graph in O(n + m).
    The `removed` vertices are then deleted by the same update as a pick,
    which touches only the deleted vertex, its neighbors and the neighbors
    of those that leave `over`; they are never picked and never returned.
    Each pick is one O(n) scan in ascending id.
    """
    g = prob.graph
    cap, weights, adj = prob.cap, prob.weights, g.adj
    removed = _vertex_ids(g, removed)
    excess = [max(0, len(adj[v]) - cap[v]) for v in range(g.n)]
    gain = excess[:]
    over = 0
    for v in range(g.n):
        if excess[v]:
            over += 1
            for u in adj[v]:
                gain[u] += 1

    def delete(u):
        # A deleted vertex's gain only falls from 0 on, so it never wins.
        nonlocal over
        gain[u] = 0
        leaving = [u] if excess[u] else []
        excess[u] = 0
        for v in adj[u]:
            if excess[v]:
                excess[v] -= 1
                gain[v] -= 1
                if not excess[v]:
                    leaving.append(v)
        over -= len(leaving)
        for v in leaving:
            for w in adj[v]:
                gain[w] -= 1

    for u in removed:
        delete(u)
    candidates = [u for u in range(g.n)
                  if u not in removed and weights[u] != UNDELETABLE]
    deleted = []
    while over:
        best = _best_ratio(candidates, gain, weights)
        if best is None:
            raise InfeasibleError(
                "degree caps violated but every helpful vertex is undeletable")
        deleted.append(best)
        delete(best)
    return frozenset(deleted)


def check_degree_caps(prob: FDepProblem, deleted: Iterable[int]) -> bool:
    """Re-verify a candidate against the caps from scratch: every vertex
    outside `deleted` keeps at most its cap."""
    remaining = set(range(prob.graph.n)) - set(deleted)
    return all(len(prob.graph.adj[v] & remaining) <= prob.cap[v]
               for v in remaining)


def dominating_set_approx(g: Graph, weights: Optional[tuple] = None,
                          removed: Iterable[int] = ()) -> frozenset:
    """Greedy weighted dominating set of G - removed, in the original ids.

    Picks the vertex covering the most still-undominated vertices per unit
    weight.  UNDELETABLE vertices are never picked but still need to be
    dominated.  covers[u] counts the undominated vertices of N[u] and drops
    as vertices get dominated, so each pick is one scan over the pickable
    vertices.  The `removed` vertices are marked dominated up front, by the
    same update as a pick; they are never picked and need no dominator.
    """
    if weights is None:
        weights = tuple(1 for _ in range(g.n))
    if len(weights) != g.n:
        raise PreconditionError("weights length must equal vertex count")
    for w in weights:
        _check_weight(w)
    removed = _vertex_ids(g, removed)
    allowed = [v for v in range(g.n)
               if v not in removed and weights[v] != UNDELETABLE]
    allowed_set = set(allowed)
    closed = [g.closed_neighborhood(v) for v in range(g.n)]
    for v in range(g.n):
        if v not in removed and not (closed[v] & allowed_set):
            raise InfeasibleError(
                f"vertex {v} cannot be dominated: closed neighborhood forbidden")
    covers = [len(c) for c in closed]
    dominated = [False] * g.n
    left = g.n

    def dominate(v):
        nonlocal left
        if not dominated[v]:
            dominated[v] = True
            left -= 1
            for u in closed[v]:
                covers[u] -= 1

    for v in removed:
        dominate(v)
    chosen = set()
    # The precheck guarantees progress: an undominated vertex has an
    # allowed vertex in its closed neighborhood, which covers at least it.
    while left:
        best = _best_ratio(allowed, covers, weights)
        chosen.add(best)
        for v in closed[best]:
            dominate(v)
    return frozenset(chosen)


def is_dominating(g: Graph, vertices: Iterable[int]) -> bool:
    vertices = set(vertices)
    covered = set()
    for v in vertices:
        covered |= g.closed_neighborhood(v)
    return len(covered) == g.n


def dissociation_delete(g: Graph, weights: Optional[tuple] = None,
                        removed: Iterable[int] = ()) -> frozenset:
    """Greedy deletion until G - removed has maximum degree 1, as
    f_dependent_delete with every cap 1."""
    return f_dependent_delete(FDepProblem.uniform(g, 1, weights), removed)
