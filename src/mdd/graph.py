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
from typing import Iterable, Optional, Union

from .errors import InputError, PreconditionError

#: Weight sentinel marking a vertex that may never enter a deletion set.
#: Kept as a true infinity (not a "large number") so that summed weights of a
#: candidate containing a forbidden vertex are detectably infinite.
UNDELETABLE = math.inf


def is_valid_weight(w) -> bool:
    """The weight domain: a positive integer, or UNDELETABLE."""
    return w == UNDELETABLE or is_int(w, 1)


def is_int(value, low: Optional[int] = None) -> bool:
    """An int that is not a bool, and at least `low` unless `low` is None."""
    return (isinstance(value, int) and not isinstance(value, bool)
            and (low is None or value >= low))


def _ids(bound: int, values: Iterable, what: str = "vertex") -> frozenset:
    """The frozenset of `values`, the one id check over a collection: the
    first entry that is not an int in range(bound) raises InputError.
    Every entry is checked, also one a set would merge (True with 1)."""
    values = tuple(values)
    for v in values:
        if not (is_int(v, 0) and v < bound):
            raise InputError(f"{what} {v!r} not in range({bound})")
    return frozenset(values)


class Objective(Enum):
    MIN = "min"
    MAX = "max"


class Graph:
    """Immutable undirected simple graph on vertices 0..n-1.

    `adj[v]` is the frozenset of v's neighbours, the one adjacency store.
    """

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges: Iterable[tuple] = ()):
        if not is_int(n, 0):
            raise InputError("vertex count must be a non-negative integer")
        adj = [set() for _ in range(n)]
        for edge in edges:
            try:
                u, v = edge
            except (TypeError, ValueError):
                raise InputError(f"edge {edge!r} is not a pair of vertex "
                                 "ids") from None
            if not (is_int(u, 0) and u < n and is_int(v, 0) and v < n):
                raise InputError(f"edge ({u!r}, {v!r}) out of range for n={n}")
            if u == v:
                raise InputError(f"self-loop at vertex {u}")
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self.adj = tuple(frozenset(s) for s in adj)

    @classmethod
    def _unchecked(cls, adj) -> "Graph":
        """The graph whose neighbour sets are `adj`, without the per-edge
        checks of Graph(n, edges).  Unchecked: `adj` must be a sequence of
        frozensets of ids in range, symmetric and loop-free, as sets derived
        from another Graph's adjacency are (the complement and the cubic
        proxy graph build one) and as the neighbour sets of generate_gnp
        and generate_random_regular are, filled from edges those generators
        have just drawn and checked."""
        g = cls.__new__(cls)
        g.n = len(adj)
        g.adj = tuple(adj)
        return g

    # -- basic queries ----------------------------------------------------

    def degree(self, v: int) -> int:
        return len(self.adj[v])

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

    def regular_degree(self) -> Optional[int]:
        """Degree k if the graph is k-regular, else None."""
        if self.n == 0:
            return None
        k = len(self.adj[0])
        if all(len(s) == k for s in self.adj):
            return k
        return None

    # -- transforms -------------------------------------------------------

    def complement(self) -> "Graph":
        everyone = frozenset(range(self.n))
        return Graph._unchecked([everyone - a - {v}
                                 for v, a in enumerate(self.adj)])

    def induced_subgraph(self, keep: Iterable[int]):
        """Subgraph induced on `keep`, plus the remap table.

        Returns (subgraph, remap) where remap[new_id] = original id.  The
        kept vertices are renumbered in increasing original-id order.  The
        first entry of `keep` that is not a vertex id raises InputError.
        """
        keep = sorted(_ids(self.n, keep))
        index = {v: i for i, v in enumerate(keep)}
        edges = [(index[u], index[v]) for u in keep for v in self.adj[u]
                 if u < v and v in index]
        return Graph(len(keep), edges), tuple(keep)

    def disjoint_union(self, other: "Graph") -> "Graph":
        shift = self.n
        edges = self.edges() + [(u + shift, v + shift) for u, v in other.edges()]
        return Graph(self.n + other.n, edges)

    # -- constructors -----------------------------------------------------

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        if n < 3:
            raise InputError("cycle needs at least 3 vertices")
        return cls(n, [(i, (i + 1) % n) for i in range(n)])

    @classmethod
    def path(cls, n: int) -> "Graph":
        return cls(n, [(i, i + 1) for i in range(n - 1)])

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
        if not (is_int(self.p, 0) and self.p < self.graph.n):
            raise InputError(f"distinguished vertex {self.p} out of range")
        object.__setattr__(self, "weights",
                           _normalize_weights(self.graph, self.weights))
        for v, w in enumerate(self.weights):
            if v != self.p and not is_valid_weight(w):
                raise InputError(f"weight of vertex {v} must be a positive "
                                 f"integer or the undeletable sentinel")

    def weight(self, v: int):
        return self.weights[v]

    def weight_of(self, vertices: Iterable[int]):
        return sum(self.weights[v] for v in vertices)

    @property
    def unit_weights(self) -> bool:
        return all(w == 1 for v, w in enumerate(self.weights) if v != self.p)


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
    """True iff S deletes no UNDELETABLE vertex and p is the unique
    extreme-degree vertex of G[V \\ S]."""
    s = _solution_vertices(solution)
    if inst.p in s:
        raise PreconditionError("deletion set may not contain p")
    g = inst.graph
    _ids(g.n, s)
    if any(inst.weights[v] == UNDELETABLE for v in s):
        return False
    dp = len(g.adj[inst.p] - s)
    degrees = [len(g.adj[v] - s) for v in range(g.n)
               if v != inst.p and v not in s]
    if inst.objective is Objective.MIN:
        return all(dv > dp for dv in degrees)
    return all(dv < dp for dv in degrees)
