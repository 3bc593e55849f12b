"""Greedy deletion subroutines used by the approximation algorithms.

There is one greedy, degree-cap deletion (`f_dependent_delete`: every
remaining vertex v keeps degree <= cap[v]), and three cap rules on it: the
caps given, every cap 1 (`dissociation_delete`: remaining max degree <= 1),
and every cap one below the degree on G - removed (`dominating_set_approx`:
a vertex meets that cap exactly when it or a neighbor is deleted).  The
greedy picks by one deterministic rule: the best gain/weight ratio, compared
exactly in integers, and ties go to the lowest vertex id.  An
UNDELETABLE weight is the one way to keep a vertex from being picked.
Given a budget, the greedy returns None as soon as its set must weigh more;
two branch loops pass one, the log n loop and the cubic final-degree-2
branches.
The greedy refuses in one place: when no deletable vertex can lower an
excess but some vertex is still over its cap, it raises InfeasibleError
naming the least such vertex.  Two private steps answer from a problem
without running the greedy: `_returns` is the exact predictor of that
refusal on G - removed, which the log n loop counts its feasible branches
with, and `_outweighs`, asked only where `_returns` holds, says whether
every set meeting the caps there outweighs a budget (a fractional-knapsack
lower bound).  Each reads views of the problem that are built on first
read and kept, so a problem builds only the views that something reads.
"""
from __future__ import annotations

import bisect
import functools
import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import InfeasibleError, InputError
from .graph import Graph, UNDELETABLE, _ids, is_int, is_valid_weight


@dataclass(frozen=True)
class FDepProblem:
    """Degree-cap deletion problem.

    cap[v] is an integer bound on the degree v may keep; a cap of d(v) or
    more never binds.  A negative cap means v cannot remain at all (such
    caps arise from the branch subproblems of the subset-enumeration
    algorithm).  weights[v] is a positive integer, or UNDELETABLE for
    vertices that must survive.  FDepProblem(...) checks every vertex's cap
    and weight, also those of vertices a call to f_dependent_delete
    removes; only _unchecked_problem, for callers that build caps and
    weights themselves, skips the checks.

    The problem keeps scale[u] = lcm // w[u] (0 for UNDELETABLE u), where
    lcm is the lcm of the deletable weights (_scale), and three views
    derived from it; each view is built on first read and kept, and no
    call mutates it.  _start is the greedy's start state on the whole
    graph, built in O(n + m): excesses, gains, the total excess, the scale,
    and a heap holding the int key -gain[u] * scale[u] * n + u for every
    deletable u with positive gain.  Since 0 <= u < n, the id decides only
    between equal products, so the key orders exactly as the pair
    (-gain[u] * scale[u], u) would, and key % n gives u back.  _crowded
    holds each UNDELETABLE v with more UNDELETABLE neighbors than cap[v],
    with that surplus (_returns reads it).  _sums holds the total start
    excess E0 and the integer prefix sums of the start gains and of the
    weights of the vertices of the heap, in heap order (gain/weight
    descending, ties to the lowest id), each from 0 (_outweighs reads it).
    None is a field, so eq, hash and repr see only graph, cap and weights.
    """

    graph: Graph
    cap: tuple
    weights: tuple

    def __post_init__(self):
        if len(self.cap) != self.graph.n or len(self.weights) != self.graph.n:
            raise InputError("cap/weights length must equal vertex count")
        for c, w in zip(self.cap, self.weights):
            if not is_int(c):
                raise InputError("caps must be integers")
            if not is_valid_weight(w):
                raise InputError(f"weight {w!r} is neither a positive "
                                 "integer nor UNDELETABLE")
        object.__setattr__(self, "_scale", _scale(self.weights))

    @functools.cached_property
    def _start(self):
        adj, n = self.graph.adj, self.graph.n
        excess = [d - c if d > c else 0
                  for d, c in zip(map(len, adj), self.cap)]
        gain = excess[:]
        for v, e in enumerate(excess):
            if e:
                for u in adj[v]:
                    gain[u] += 1
        # u's key -gain[u] * scale[u] * n + u orders as the pair
        # (-gain[u] * scale[u], u) does, since 0 <= u < n: no two keys tie,
        # and key % n is u.  Sorted, so a valid heap and the knapsack order
        # at once.
        scale = self._scale
        heap = [u - g * s * n for u, (g, s) in enumerate(zip(gain, scale))
                if s and g > 0]
        heap.sort()
        return excess, gain, sum(excess), scale, heap

    @functools.cached_property
    def _crowded(self):
        adj, cap = self.graph.adj, self.cap
        undeletable = frozenset(v for v, s in enumerate(self._scale) if not s)
        inner = ((v, len(adj[v] & undeletable)) for v in undeletable)
        return tuple((v, d - cap[v]) for v, d in inner if d > cap[v])

    @functools.cached_property
    def _sums(self):
        _, gain, total, _, heap = self._start
        n = self.graph.n
        order = [key % n for key in heap]
        return (total,
                list(itertools.accumulate((gain[u] for u in order), initial=0)),
                list(itertools.accumulate((self.weights[u] for u in order),
                                          initial=0)))

    @classmethod
    def uniform(cls, graph: Graph, f: int, weights=None) -> "FDepProblem":
        """Every cap f; unit weights unless `weights` is given."""
        cap = (f,) * graph.n
        if weights is not None:
            return cls(graph, cap, tuple(weights))
        if not is_int(f):
            raise InputError("caps must be integers")
        return _unchecked_problem(graph, cap, (1,) * graph.n, [1] * graph.n)


def _scale(weights: tuple) -> list:
    """lcm // w for each weight w, 0 for UNDELETABLE, where lcm is the lcm
    of the deletable weights: the greedy orders gain/weight by
    gain * scale, exactly, in integers."""
    lcm = math.lcm(*(w for w in weights if w != UNDELETABLE))
    return [0 if w == UNDELETABLE else lcm // w for w in weights]


def _unchecked_problem(graph: Graph, cap: tuple, weights: tuple,
                       scale) -> FDepProblem:
    """FDepProblem(graph, cap, weights) without its checks, keeping `scale`,
    which must be _scale(weights); its views are built on first read, as
    for a checked problem.  Unchecked: `cap` must be a tuple of n ints and
    `weights` a tuple of n valid weights.  Only callers that build these
    themselves may use it: the log n loop, whose weights are those Instance
    checked with N[p] UNDELETABLE and whose caps it computes, and, without
    weights given, FDepProblem.uniform (a checked int cap) and
    dominating_set_approx (caps from the graph's degrees), whose weights
    are all 1 and so is the scale.
    """
    prob = object.__new__(FDepProblem)
    object.__setattr__(prob, "graph", graph)
    object.__setattr__(prob, "cap", cap)
    object.__setattr__(prob, "weights", weights)
    object.__setattr__(prob, "_scale", scale)
    return prob


def f_dependent_delete(prob: FDepProblem, removed: Iterable[int] = (), *,
                       budget: Optional[int] = None) -> Optional[frozenset]:
    """Greedy degree-cap deletion on G - removed, in the original ids.

    Repeatedly deletes the deletable vertex u with the best ratio
    gain(u) / weight(u), where gain(u) = excess(u) + |N(u) & over|, excess
    is the degree above the cap and `over` is the set of remaining vertices
    with positive excess.  Deleting u lowers the excess of each neighbor in
    `over` by exactly 1.  This is the greedy layer's one refusal: when
    vertices remain over their caps but no deletable vertex can lower an
    excess, it raises InfeasibleError naming the least vertex still over
    its cap (an undeletable one whose remaining neighbors are all
    undeletable; _returns predicts this exactly).

    Each call copies the problem's start state (see FDepProblem: built on
    first read and kept), then deletes the `removed` vertices in the same
    loop and by the same update as its picks, which touches only the
    deleted vertex, its neighbors and the neighbors of those that leave
    `over`; they are never picked and never returned.  The loop ends when
    the total excess reaches 0.
    Each pick pops the heap.  Its key -gain * (lcm // weight) * n + id is
    one int that orders gain/weight exactly, ties on the lowest id: the id
    is below n, so it decides only between equal products, and key % n
    gives it back.  Gains only fall, so an entry can only overstate its
    vertex: a top entry that still equals its vertex's key is the best
    pick, and a stale one is pushed back with the current key while that
    gain is positive and dropped otherwise (a deleted vertex's gain is 0 or
    below, so it never comes back).

    With an integer `budget`, the call returns None in place of a set that
    weighs more than `budget` (and may return None where it would raise
    InfeasibleError), and stops as soon as it can tell.  Before each pick
    u, let spent be the weight deleted so far and left the total excess
    still to clear, which each deletion lowers by exactly its current
    gain.  No later pick has a better gain/weight than u, so the set weighs
    at least spent + left * w_u / g_u, and the call stops when
    spent * g_u + left * w_u > budget * g_u.  The last pick clears all of
    left, so there the bound is the set's weight: the test is exact, in
    integers, with no division.
    """
    g = prob.graph
    adj = g.adj
    removed = _ids(g.n, removed, "removed vertex")
    if not (budget is None or is_int(budget)):
        raise InputError("budget must be an integer")
    excess, gain, left, scale, heap = prob._start
    excess, gain, heap = excess[:], gain[:], heap[:]
    n = g.n
    if budget is not None:
        if budget < 0:
            return None
        weights = prob.weights
        spent = 0
    pending = list(removed)
    deleted = []
    # left is the total excess still to clear; each deletion lowers it by
    # exactly the deleted vertex's current gain.
    while left:
        if pending:
            u = pending.pop()
        else:
            while heap:
                key = heap[0]
                u = key % n
                g_u = gain[u]
                if g_u <= 0:
                    heapq.heappop(heap)
                    continue
                current = u - g_u * scale[u] * n
                if current == key:
                    break
                heapq.heapreplace(heap, current)
            else:
                stuck = min(v for v, e in enumerate(excess) if e)
                raise InfeasibleError(
                    f"vertex {stuck} stays over its cap: every vertex that "
                    "could bring it under is undeletable")
            if budget is not None:
                w_u = weights[u]
                if spent * g_u + left * w_u > budget * g_u:
                    return None
                spent += w_u
            heapq.heappop(heap)
            deleted.append(u)
        left -= gain[u]
        gain[u] = 0
        if excess[u]:
            excess[u] = 0
            for w in adj[u]:
                gain[w] -= 1
        for v in adj[u]:
            if excess[v]:
                excess[v] -= 1
                gain[v] -= 1
                if not excess[v]:
                    for w in adj[v]:
                        gain[w] -= 1
    return frozenset(deleted)


def _returns(prob: FDepProblem, removed: Iterable[int]) -> bool:
    """True exactly when f_dependent_delete(prob, removed) returns, False
    when it raises InfeasibleError.

    Unchecked: `removed` must hold distinct vertex ids of prob.graph, in
    any iterable (the log n loop passes the K tuples of
    combinations(sorted(L))).

    Let U be the UNDELETABLE vertices outside `removed`.  The call returns
    exactly when every v in U has at most cap[v] neighbors in U.  If some
    v has more, no deletion helps it.  If none has, every remaining vertex
    over its cap gives the greedy a pick: a deletable one has positive gain
    itself, and one in U has a remaining deletable neighbor, whose gain is
    positive.  Gains only fall, so a vertex with positive gain still has a
    live heap entry.  Removing vertices only lowers degrees in U, so only
    the vertices of the problem's _crowded view are checked, against the
    UNDELETABLE members of `removed` (the zeros of the scale): O(|removed|)
    plus their neighbors.  It reads neither the start state nor the heap.
    """
    adj, scale = prob.graph.adj, prob._scale
    gone = {u for u in removed if not scale[u]}
    return all(v in gone or len(adj[v] & gone) >= surplus
               for v, surplus in prob._crowded)


def _outweighs(prob: FDepProblem, removed: Iterable[int],
               budget: int) -> bool:
    """True when every set of deletable vertices that meets the caps on
    G - removed weighs more than `budget`.

    Unchecked: `removed` must hold distinct vertex ids of prob.graph, in
    any iterable, `budget` must be an integer (the log n loop passes the
    best weight so far less the finite w(K)), and _returns(prob, removed)
    must hold: callers ask it first.

    Deleting a vertex lowers the total excess by exactly its current gain,
    and gains only fall.  So at least left = E0 - (the start gains of
    `removed`) of excess remains after `removed`, and a set S that clears
    it has start gains summing to at least left.  The lightest such S,
    with vertices taken fractionally, is the fractional knapsack (Dantzig,
    1957): take the vertices in start-heap order until their gains reach
    left, and the last one, i, only in part.  With pg and pw the gain and
    weight sums before i (the problem's _sums view), S weighs at least
    pw + (left - pg) * w_i / g_i; the test compares that bound with
    `budget` in integers, with no division, after one bisect on the gain
    sums.  Listing `removed` among the vertices only lowers the bound.
    Where _returns holds, the greedy's own set clears left, so the start
    gains always reach it and the bisect lands inside the sums.
    O(|removed| + log n) once the views are built.
    """
    if budget < 0:
        return True
    gain = prob._start[1]
    total, gain_sums, weight_sums = prob._sums
    left = total - sum(gain[u] for u in removed)
    if left <= 0:
        return False
    i = bisect.bisect_left(gain_sums, left)
    pg, pw = gain_sums[i - 1], weight_sums[i - 1]
    g_i, w_i = gain_sums[i] - pg, weight_sums[i] - pw
    return pw * g_i + (left - pg) * w_i > budget * g_i


def dominating_set_approx(g: Graph, weights: Optional[tuple] = None,
                          removed: Iterable[int] = ()) -> frozenset:
    """Greedy weighted dominating set of G - removed, in the original ids.

    This is f_dependent_delete with cap[v] = |N(v) - removed| - 1: v meets
    its cap once v or a neighbor is deleted, so the excess of v is 1 while v
    is undominated, and the gain of u counts the undominated vertices of
    N[u].  UNDELETABLE vertices are never picked but still need to be
    dominated; the greedy raises InfeasibleError naming the least vertex
    whose closed neighborhood outside `removed` holds no pickable vertex
    (these are exactly the vertices left undominated once nothing can be
    picked).  The `removed` vertices are never picked and need no
    dominator.
    """
    removed = _ids(g.n, removed, "removed vertex")
    adj = g.adj
    cap = [len(a) - 1 for a in adj]
    for u in removed:
        for v in adj[u]:
            cap[v] -= 1
    if weights is None:
        # Every vertex outside `removed` may dominate itself: no check.
        return f_dependent_delete(
            _unchecked_problem(g, tuple(cap), (1,) * g.n, [1] * g.n), removed)
    return f_dependent_delete(FDepProblem(g, tuple(cap), tuple(weights)),
                              removed)


def is_dominating(g: Graph, vertices: Iterable[int]) -> bool:
    vertices = _ids(g.n, vertices, "dominating vertex")
    return len(vertices | g.neighborhood_of_set(vertices)) == g.n


def dissociation_delete(g: Graph, weights: Optional[tuple] = None,
                        removed: Iterable[int] = ()) -> frozenset:
    """Greedy deletion until G - removed has maximum degree 1, as
    f_dependent_delete with every cap 1."""
    return f_dependent_delete(FDepProblem.uniform(g, 1, weights), removed)
