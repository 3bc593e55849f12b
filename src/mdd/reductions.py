"""Executable hardness constructions with bidirectional solution mappers.

Four constructions are provided:
  * dominating set -> MDD(min) on general graphs (clique-padded complement),
  * set cover -> MDD(min) on bipartite graphs,
  * set cover -> MDD(max) on bipartite graphs (pendant-padded incidence),
  * cubic dominating set -> cubic MDD(max) (disjoint 6-vertex gadget,
    additive constant 2).

Every padding edge comes from `_spokes`: a vertex short of k edges joins
the next k vertices of one stream, a pad cycled round-robin or fresh ids.

`CONSTRUCTIONS` names each one.  `lift_solution` sends a source solution
to a feasible deletion set of the same size (plus the forced vertices), and
`project_solution` sends a feasible deletion set to a source solution of no
larger size.  Both read what they need from the artifact.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Union

from .errors import InputError, PreconditionError
from .graph import (DeletionSet, Graph, Instance, Objective, _ids,
                    _solution_vertices, is_feasible, is_int)
from .subroutines import is_dominating


@dataclass(frozen=True)
class SetSystem:
    """A universe {0..r-1} and a family of non-empty subsets covering it."""

    universe_size: int
    family: tuple

    def __post_init__(self):
        if not is_int(self.universe_size, 1):
            raise InputError("universe must be non-empty")
        family = tuple(_ids(self.universe_size, f, "element")
                       for f in self.family)
        object.__setattr__(self, "family", family)
        if not family:
            raise InputError("family must be non-empty")
        for i, f in enumerate(family):
            if not f:
                raise InputError(f"set {i} is empty")
        if set().union(*family) != set(range(self.universe_size)):
            raise InputError("family does not cover the universe; no cover exists")

    @property
    def num_sets(self) -> int:
        return len(self.family)

    def occurrences(self, x: int) -> int:
        return sum(1 for f in self.family if x in f)

    def is_cover(self, indices: Iterable[int]) -> bool:
        covered = set()
        for i in indices:
            covered |= self.family[i]
        return covered == set(range(self.universe_size))


@dataclass(frozen=True)
class ReductionArtifact:
    """A constructed instance plus the provenance needed to map solutions.

    The set-cover constructions number element x as vertex x and set j as
    vertex r + j; a role-"I" vertex is a pendant standing for its one
    neighbour.
    """

    kind: str             # its key in CONSTRUCTIONS
    instance: Instance
    roles: tuple          # per-vertex role tag
    source: Union[Graph, SetSystem]  # the reduced source instance
    forced: tuple = ()    # vertices every lifted solution deletes


def _spokes(needs: Iterable[tuple], ends: Iterator[int]) -> list:
    """Join each v to the next k vertices of `ends`, for each (v, k) in needs."""
    return [(v, next(ends)) for v, k in needs for _ in range(k)]


# ---------------------------------------------------------------------------
# dominating set -> MDD(min)
# ---------------------------------------------------------------------------

def mindom_to_mddmin(g: Graph) -> ReductionArtifact:
    """Complement g, attach p to all of V, and pad degrees with a (2n+2)-clique
    so every original vertex ends at degree exactly n.

    Dominating sets of g are exactly the solutions of the produced MDD(min)
    instance that lie inside V, with equal cost.
    """
    n = g.n
    if n < 1:
        raise PreconditionError("source graph must have at least one vertex")
    p = n
    t_ids = range(n + 1, 3 * n + 3)
    edges = g.complement().edges()
    edges += [(v, p) for v in range(n)]
    edges += itertools.combinations(t_ids, 2)
    # Vertex v gets d_g(v) spokes into the clique.
    edges += _spokes(((v, g.degree(v)) for v in range(n)),
                     itertools.cycle(t_ids))
    h = Graph(3 * n + 3, edges)
    roles = tuple(["original"] * n + ["p"] + ["T"] * len(t_ids))
    inst = Instance(h, p, None, Objective.MIN)
    return ReductionArtifact("mddmin", inst, roles, g)


# ---------------------------------------------------------------------------
# set cover -> bipartite MDD(min)
# ---------------------------------------------------------------------------

def setcover_to_mddmin_bip(sys: SetSystem) -> ReductionArtifact:
    """Anti-incidence construction: element vertex a_i is adjacent to set
    vertex b_j iff the element is NOT in the set; p hangs off the set side;
    a complete bipartite pad on C and D lifts p and every element vertex to
    degree exactly t, and b_j to max(t, 1 + r - |F_j|).

    Requires r <= t so that the D-side pad can absorb every set vertex.
    """
    r = sys.universe_size
    t = sys.num_sets
    if r > t:
        raise PreconditionError(
            f"construction needs r <= t (got r={r}, t={t})")
    c_ids = range(r + t, r + 2 * t)
    d_ids = range(r + 2 * t, r + 3 * t)
    p = r + 3 * t
    edges = [(c, d) for c in c_ids for d in d_ids]
    edges += [(r + j, p) for j in range(t)]
    edges += [(i, r + j) for i in range(r) for j in range(t)
              if i not in sys.family[j]]
    # Set vertices have 1 + r - |F_j| edges and element vertices t - occ(i);
    # spokes into D and C bring each up to t.
    edges += _spokes(((r + j, t - 1 - r + len(f))
                      for j, f in enumerate(sys.family)), itertools.cycle(d_ids))
    edges += _spokes(((i, sys.occurrences(i)) for i in range(r)),
                     itertools.cycle(c_ids))
    h = Graph(r + 3 * t + 1, edges)
    roles = tuple(["U"] * r + ["F"] * t + ["C"] * t + ["D"] * t + ["p"])
    inst = Instance(h, p, None, Objective.MIN)
    return ReductionArtifact("mddmin-bip", inst, roles, sys)


# ---------------------------------------------------------------------------
# set cover -> bipartite MDD(max)
# ---------------------------------------------------------------------------

def setcover_to_mddmax_bip(sys: SetSystem) -> ReductionArtifact:
    """Natural incidence construction plus pendant vertices lifting p and
    every element vertex to degree exactly t; all other degrees stay below t.

    Requires occ(x) <= t-1 and |F_j| <= t-1 (else some vertex would tie p)
    and r <= t (else p would start above degree t).
    """
    r = sys.universe_size
    t = sys.num_sets
    if r > t:
        raise PreconditionError(f"construction needs r <= t (got r={r}, t={t})")
    for x in range(r):
        if sys.occurrences(x) > t - 1:
            raise PreconditionError(
                f"element {x} occurs in every set; pendant padding impossible")
    for j, f in enumerate(sys.family):
        if len(f) > t - 1:
            raise PreconditionError(
                f"set {j} has {len(f)} elements; its vertex would tie p at degree t")
    p = r + t
    edges = [(i, r + j) for i in range(r) for j in range(t)
             if i in sys.family[j]]
    edges += [(i, p) for i in range(r)]
    # Pendants lift element vertices (occ(i) + 1 edges) and p (r) to t.
    pendants = _spokes([(i, t - 1 - sys.occurrences(i)) for i in range(r)]
                       + [(p, t - r)], itertools.count(p + 1))
    h = Graph(p + 1 + len(pendants), edges + pendants)
    roles = tuple(["U"] * r + ["F"] * t + ["p"] + ["I"] * len(pendants))
    inst = Instance(h, p, None, Objective.MAX)
    return ReductionArtifact("mddmax-bip", inst, roles, sys)


# ---------------------------------------------------------------------------
# cubic dominating set -> cubic MDD(max)
# ---------------------------------------------------------------------------

def cubic_gadget():
    """The 6-vertex cubic bipartite gadget and its distinguished vertex.

    K_{3,3} with parts {p, d, e} and {a, b, c}: its unique optimal MDD(max)
    solution is {d, e}, every minimal solution contains {d, e}, and none
    touches {a, b, c}.  Vertex order: p, a, b, c, d, e.
    """
    p, a, b, c, d, e = range(6)
    edges = [(p, a), (p, b), (p, c),
             (d, a), (d, b), (d, c),
             (e, a), (e, b), (e, c)]
    return Graph(6, edges), p


def mindom_cubic_to_mddmax_cubic(g: Graph) -> ReductionArtifact:
    """Disjoint union with the 6-vertex gadget; costs shift by exactly 2."""
    if g.regular_degree() != 3:
        raise PreconditionError("source graph is not 3-regular")
    gadget, gp = cubic_gadget()
    combined = g.disjoint_union(gadget)
    p = g.n + gp
    roles = tuple(["original"] * g.n + ["p", "gadget", "gadget", "gadget",
                                        "gadget", "gadget"])
    inst = Instance(combined, p, None, Objective.MAX)
    # The gadget's d and e: its optimum, deleted by every lifted solution.
    return ReductionArtifact("cubic", inst, roles, g, (g.n + 4, g.n + 5))


#: Every construction by its artifact kind: kind -> (source problem, builder).
CONSTRUCTIONS = {
    "mddmin": ("mindom", mindom_to_mddmin),
    "mddmin-bip": ("setcover", setcover_to_mddmin_bip),
    "mddmax-bip": ("setcover", setcover_to_mddmax_bip),
    "cubic": ("mindom", mindom_cubic_to_mddmax_cubic),
}


# ---------------------------------------------------------------------------
# solution mappers shared by the constructions
# ---------------------------------------------------------------------------

def project_solution(art: ReductionArtifact, s) -> frozenset:
    """Backward map: a feasible deletion set becomes a source solution of
    no larger size.

    From a graph, the deleted source vertices, a dominating set.  From a
    set system, a deleted set vertex becomes its set; a deleted element
    vertex, or a pendant of one, becomes the first set containing the
    element; every other vertex is dropped.
    """
    verts = _solution_vertices(s)
    if not is_feasible(art.instance, verts):
        raise PreconditionError("solution is not feasible for the instance")
    source = art.source
    if isinstance(source, Graph):
        dom = frozenset(v for v in verts if v < source.n)
        if not is_dominating(source, dom):
            raise PreconditionError(
                "projected set fails domination; the input cannot have been feasible")
        return dom
    r, family = source.universe_size, source.family
    adj = art.instance.graph.adj
    cover = set()
    for v in verts:
        u = next(iter(adj[v])) if art.roles[v] == "I" else v
        if u < r:
            cover.add(min(j for j, f in enumerate(family) if u in f))
        elif u < r + source.num_sets:
            cover.add(u - r)
    if not source.is_cover(cover):
        raise PreconditionError(
            "projected indices fail to cover; the input cannot have been feasible")
    return frozenset(cover)


def lift_solution(art: ReductionArtifact, solution) -> DeletionSet:
    """Forward map: a dominating set of the source graph, or set indices
    covering the source system, becomes a feasible deletion set of the same
    size plus `art.forced`."""
    source = art.source
    on_graph = isinstance(source, Graph)
    solution = (_ids(source.n, solution) if on_graph
                else _ids(source.num_sets, solution, "set index"))
    if on_graph:
        if not is_dominating(source, solution):
            raise PreconditionError("input is not a dominating set of the source")
        return DeletionSet.of(art.instance, solution.union(art.forced))
    if not source.is_cover(solution):
        raise PreconditionError("input indices are not a set cover")
    r = source.universe_size
    return DeletionSet.of(art.instance, {r + j for j in solution})
