"""Executable hardness constructions: each builds the MDD instance of a
source problem and records that source in its artifact.

Four constructions are provided:
  * dominating set -> MDD(min) on general graphs (clique-padded complement),
  * set cover -> MDD(min) on bipartite graphs,
  * set cover -> MDD(max) on bipartite graphs (pendant-padded incidence),
  * cubic dominating set -> cubic MDD(max) (disjoint 6-vertex gadget,
    additive constant 2).

Every padding edge comes from `_spokes`: a vertex short of k edges joins
the next k vertices of one stream, a pad cycled round-robin or fresh ids.

`CONSTRUCTIONS` names each one.  `mdd reduce` writes their instances, and
the bench's `setcover` family scores its rows by the source's minimum cover
size, which both set-cover constructions keep.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Union

from .errors import InputError, PreconditionError
from .graph import Graph, Instance, Objective, _ids, is_int


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


@dataclass(frozen=True)
class ReductionArtifact:
    """A constructed instance plus its provenance: the source it reduces
    and the vertices that every solution built from a source solution
    deletes.

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

