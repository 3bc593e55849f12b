"""Undirected simple graphs and the feasibility semantics of degree-deletion
instances.

A deletion set S is feasible for (G, p, Min) when p is the *unique* minimum
degree vertex of G[V \\ S], and symmetrically for Max.  Uniqueness is strict:
a tie is infeasible.  If p is the only remaining vertex the set is feasible
for both objectives (vacuous uniqueness).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence, Union

from .errors import InputError, PreconditionError

#: Weight sentinel marking a vertex that may never enter a deletion set.
#: Kept as a true infinity (not a "large number") so that summed weights of a
#: candidate containing a forbidden vertex are detectably infinite.
UNDELETABLE = math.inf


class Objective(Enum):
    MIN = "min"
    MAX = "max"


class Graph:
    """Immutable undirected simple graph on vertices 0..n-1.

    Adjacency is stored both as frozensets (for set algebra) and as bitmasks
    (for fast degree counting during subset enumeration).
    """

    __slots__ = ("n", "adj", "masks", "labels")

    def __init__(self, n: int, edges: Iterable[tuple] = (),
                 labels: Optional[Sequence[str]] = None):
        if n < 0:
            raise InputError("vertex count must be non-negative")
        adj = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise InputError(f"self-loop at vertex {u}")
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self.adj = tuple(frozenset(s) for s in adj)
        self.masks = tuple(sum(1 << u for u in s) for s in self.adj)
        if labels is not None and len(labels) != n:
            raise InputError("labels length must equal vertex count")
        self.labels = tuple(labels) if labels is not None else None

    # -- basic queries ----------------------------------------------------

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def neighbors(self, v: int) -> frozenset:
        return self.adj[v]

    def closed_neighborhood(self, v: int) -> frozenset:
        return self.adj[v] | {v}

    def neighborhood_of_set(self, vs: Iterable[int]) -> frozenset:
        out = set()
        for v in vs:
            out |= self.adj[v]
        return frozenset(out)

    def edges(self):
        return [(u, v) for u in range(self.n) for v in sorted(self.adj[u]) if u < v]

    @property
    def num_edges(self) -> int:
        return sum(len(s) for s in self.adj) // 2

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def regular_degree(self) -> Optional[int]:
        """Degree k if the graph is k-regular, else None."""
        if self.n == 0:
            return None
        k = len(self.adj[0])
        if all(len(s) == k for s in self.adj):
            return k
        return None

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for u in self.adj[v]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return len(seen) == self.n

    def two_coloring(self) -> Optional[list]:
        """A proper 2-coloring (list of 0/1), or None if not bipartite."""
        color = [None] * self.n
        for root in range(self.n):
            if color[root] is not None:
                continue
            color[root] = 0
            stack = [root]
            while stack:
                v = stack.pop()
                for u in self.adj[v]:
                    if color[u] is None:
                        color[u] = 1 - color[v]
                        stack.append(u)
                    elif color[u] == color[v]:
                        return None
        return color

    def is_bipartite(self) -> bool:
        return self.two_coloring() is not None

    # -- transforms -------------------------------------------------------

    def complement(self) -> "Graph":
        edges = [(u, v) for u in range(self.n) for v in range(u + 1, self.n)
                 if v not in self.adj[u]]
        return Graph(self.n, edges, labels=self.labels)

    def induced_subgraph(self, keep: Iterable[int]):
        """Subgraph induced on `keep`, plus the remap table.

        Returns (subgraph, remap) where remap[new_id] = original id.  The
        kept vertices are renumbered in increasing original-id order.
        """
        keep = sorted(set(keep))
        for v in keep:
            if not 0 <= v < self.n:
                raise InputError(f"vertex {v} out of range for n={self.n}")
        index = {v: i for i, v in enumerate(keep)}
        edges = [(index[u], index[v]) for u in keep for v in self.adj[u]
                 if u < v and v in index]
        labels = None
        if self.labels is not None:
            labels = [self.labels[v] for v in keep]
        return Graph(len(keep), edges, labels=labels), tuple(keep)

    def disjoint_union(self, other: "Graph") -> "Graph":
        shift = self.n
        edges = self.edges() + [(u + shift, v + shift) for u, v in other.edges()]
        return Graph(self.n + other.n, edges)

    # -- constructors -----------------------------------------------------

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return cls(n, [(u, v) for u in range(n) for v in range(u + 1, n)])

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        if n < 3:
            raise InputError("cycle needs at least 3 vertices")
        return cls(n, [(i, (i + 1) % n) for i in range(n)])

    @classmethod
    def path(cls, n: int) -> "Graph":
        return cls(n, [(i, i + 1) for i in range(n - 1)])

    @classmethod
    def star(cls, leaves: int) -> "Graph":
        """Star K_{1,leaves}; the center is vertex 0."""
        return cls(leaves + 1, [(0, i) for i in range(1, leaves + 1)])

    @classmethod
    def complete_bipartite(cls, a: int, b: int) -> "Graph":
        return cls(a + b, [(u, a + v) for u in range(a) for v in range(b)])

    @classmethod
    def petersen(cls) -> "Graph":
        outer = [(i, (i + 1) % 5) for i in range(5)]
        spokes = [(i, i + 5) for i in range(5)]
        inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        return cls(10, outer + spokes + inner)

    # -- dunder -----------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Graph):
            return self.n == other.n and self.adj == other.adj
        return NotImplemented

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.num_edges})"


def _normalize_weights(graph: Graph, weights) -> tuple:
    if weights is None:
        return tuple(1 for _ in range(graph.n))
    weights = tuple(weights)
    if len(weights) != graph.n:
        raise InputError("weights length must equal vertex count")
    return weights


@dataclass(frozen=True)
class Instance:
    """A degree-deletion problem: graph, protected vertex, weights, objective.

    The weight of p itself is irrelevant (p is never deletable).  Weights are
    positive integers or UNDELETABLE.
    """

    graph: Graph
    p: int
    weights: tuple = None
    objective: Objective = Objective.MIN

    def __post_init__(self):
        if not 0 <= self.p < self.graph.n:
            raise InputError(f"distinguished vertex {self.p} out of range")
        object.__setattr__(self, "weights",
                           _normalize_weights(self.graph, self.weights))
        for v, w in enumerate(self.weights):
            if v == self.p:
                continue
            if w is UNDELETABLE or w == math.inf:
                continue
            if not isinstance(w, int) or w < 1:
                raise InputError(f"weight of vertex {v} must be a positive "
                                 f"integer or the undeletable sentinel")

    def weight(self, v: int):
        return self.weights[v]

    def weight_of(self, vertices: Iterable[int]):
        return sum(self.weights[v] for v in vertices)

    @property
    def unit_weights(self) -> bool:
        return all(w == 1 for v, w in enumerate(self.weights) if v != self.p)

    def with_objective(self, objective: Objective) -> "Instance":
        return Instance(self.graph, self.p, self.weights, objective)


@dataclass(frozen=True)
class DeletionSet:
    """A candidate solution: vertices to delete and their total weight."""

    vertices: frozenset
    total_weight: Union[int, float]

    @classmethod
    def of(cls, inst: Instance, vertices: Iterable[int]) -> "DeletionSet":
        vertices = frozenset(vertices)
        if inst.p in vertices:
            raise PreconditionError("deletion set may not contain p")
        return cls(vertices, inst.weight_of(vertices))

    @property
    def size(self) -> int:
        return len(self.vertices)

    def sorted_vertices(self) -> list:
        return sorted(self.vertices)


def _solution_vertices(solution) -> frozenset:
    if isinstance(solution, DeletionSet):
        return solution.vertices
    return frozenset(solution)


def is_feasible(inst: Instance, solution) -> bool:
    """True iff p is the unique extreme-degree vertex of G[V \\ S]."""
    s = _solution_vertices(solution)
    if inst.p in s:
        raise PreconditionError("deletion set may not contain p")
    g = inst.graph
    remaining = g.full_mask
    for v in s:
        if not 0 <= v < g.n:
            raise InputError(f"vertex {v} out of range")
        remaining &= ~(1 << v)
    return feasible_mask(g, inst.p, remaining, inst.objective is Objective.MIN)


def feasible_mask(g: Graph, p: int, remaining: int, want_min: bool) -> bool:
    """Feasibility kernel: is p the unique extreme-degree vertex of the
    subgraph induced on the bitmask `remaining` (which must contain p)?

    Unvalidated, for enumeration hot loops; `is_feasible` checks its input
    and then calls this."""
    dp = (g.masks[p] & remaining).bit_count()
    rest = remaining & ~(1 << p)
    while rest:
        low = rest & -rest
        v = low.bit_length() - 1
        rest ^= low
        dv = (g.masks[v] & remaining).bit_count()
        if want_min:
            if dv <= dp:
                return False
        else:
            if dv >= dp:
                return False
    return True


class NeighborhoodCase(Enum):
    """Which fast-path lemma applies around p for a Max instance."""

    DISJOINT_D = "disjoint-d"   # N[high-degree region] misses N[p] entirely
    DISJOINT_Y = "disjoint-y"   # no high-degree vertex in N[p], but region touches it
    GENERAL = "general"


def classify_neighborhood(inst: Instance):
    """Compute the high-degree set Y, its closed neighborhood D, and case tag.

    Y = {v != p : d(v) >= d(p)}, D = N[Y].  Only meaningful for objective Max.
    """
    if inst.objective is not Objective.MAX:
        raise PreconditionError("neighborhood classification requires objective Max")
    g = inst.graph
    t = g.degree(inst.p)
    y = frozenset(v for v in range(g.n) if v != inst.p and g.degree(v) >= t)
    d = frozenset(set(y) | g.neighborhood_of_set(y)) if y else frozenset()
    np_closed = g.closed_neighborhood(inst.p)
    if not (d & np_closed):
        tag = NeighborhoodCase.DISJOINT_D
    elif not (y & np_closed):
        tag = NeighborhoodCase.DISJOINT_Y
    else:
        tag = NeighborhoodCase.GENERAL
    return y, d, tag
