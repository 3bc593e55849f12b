"""Reference hardness constructions and solution mappers for differential
tests.

The artifacts carry their provenance in an untyped `data` dict, and eight
kind-bound mappers (one forward and one backward per construction) check
the artifact kind before mapping.  The `lift_solution` and
`project_solution` of tests/testkit.py must give the same value, or raise
the same exception type with the same message, on every input, so this
stays as it is; tests compare against it.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from mdd import (DeletionSet, Graph, InputError, Instance, Objective,
                 PreconditionError, SetSystem, cubic_gadget, is_dominating,
                 is_feasible)
from mdd.graph import _solution_vertices

from testkit import is_cover


@dataclass
class ReductionArtifact:
    """A constructed instance plus the provenance needed to map solutions."""

    kind: str             # its key in CONSTRUCTIONS
    instance: Instance
    roles: tuple          # per-vertex role tag
    data: dict = field(default_factory=dict)

    def vertices_with_role(self, role: str) -> list:
        return [v for v, r in enumerate(self.roles) if r == role]


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
    t_start = n + 1
    t_size = 2 * n + 2
    total = 3 * n + 3
    edges = g.complement().edges()
    edges += [(v, p) for v in range(n)]
    edges += [(t_start + i, t_start + j)
              for i in range(t_size) for j in range(i + 1, t_size)]
    # Round-robin padding: vertex v gets d_g(v) edges into the clique.
    next_t = 0
    for v in range(n):
        for _ in range(g.degree(v)):
            edges.append((v, t_start + next_t))
            next_t = (next_t + 1) % t_size
    h = Graph(total, edges)
    roles = tuple(["original"] * n + ["p"] + ["T"] * t_size)
    inst = Instance(h, p, None, Objective.MIN)
    return ReductionArtifact("mddmin", inst, roles,
                             {"source": g, "forced": ()})


def mddmin_solution_to_domset(art: ReductionArtifact, s) -> frozenset:
    """Drop clique vertices from a feasible deletion set; what remains is a
    dominating set of the source of no larger size."""
    return _project_to_domset(art, "mddmin", s)


def domset_to_mddmin_solution(art: ReductionArtifact, domset) -> DeletionSet:
    return _lift_domset(art, "mddmin", domset)


# ---------------------------------------------------------------------------
# set cover -> bipartite MDD(min)
# ---------------------------------------------------------------------------

def setcover_to_mddmin_bip(sys: SetSystem) -> ReductionArtifact:
    """Anti-incidence construction: element vertex a_i is adjacent to set
    vertex b_j iff the element is NOT in the set; p hangs off the set side;
    a complete bipartite pad on C and D lifts every degree to exactly t.

    Requires r <= t so that the D-side pad can absorb every set vertex.
    """
    r = sys.universe_size
    t = sys.num_sets
    if r > t:
        raise PreconditionError(
            f"construction needs r <= t (got r={r}, t={t})")
    u_ids = list(range(r))
    f_ids = [r + j for j in range(t)]
    c_ids = [r + t + j for j in range(t)]
    d_ids = [r + 2 * t + j for j in range(t)]
    p = r + 3 * t
    edges = [(c, d) for c in c_ids for d in d_ids]
    edges += [(b, p) for b in f_ids]
    for i in range(r):
        for j in range(t):
            if i not in sys.family[j]:
                edges.append((u_ids[i], f_ids[j]))
    # Pad set vertices toward D and element vertices toward C, round-robin,
    # until each reaches degree t.
    next_d = 0
    for j in range(t):
        have = 1 + (r - len(sys.family[j]))
        for _ in range(max(0, t - have)):
            edges.append((f_ids[j], d_ids[next_d]))
            next_d = (next_d + 1) % t
    next_c = 0
    for i in range(r):
        have = t - sys.occurrences(i)
        for _ in range(max(0, t - have)):
            edges.append((u_ids[i], c_ids[next_c]))
            next_c = (next_c + 1) % t
    h = Graph(r + 3 * t + 1, edges)
    roles = tuple(["U"] * r + ["F"] * t + ["C"] * t + ["D"] * t + ["p"])
    inst = Instance(h, p, None, Objective.MIN)
    return ReductionArtifact("mddmin-bip", inst, roles,
                             {"system": sys, "f_ids": tuple(f_ids),
                              "u_ids": tuple(u_ids), "pendant_owner": {}})


def mddmin_bip_solution_to_cover(art: ReductionArtifact, s) -> frozenset:
    """Set-vertex deletions become sets; deleted element vertices are
    replaced by any set containing their element."""
    return _project_to_cover(art, "mddmin-bip", s)


def cover_to_mddmin_bip_solution(art: ReductionArtifact, cover) -> DeletionSet:
    return _lift_cover(art, "mddmin-bip", cover)


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
    u_ids = list(range(r))
    f_ids = [r + j for j in range(t)]
    p = r + t
    edges = [(u_ids[i], f_ids[j]) for i in range(r) for j in range(t)
             if i in sys.family[j]]
    edges += [(a, p) for a in u_ids]
    roles = ["U"] * r + ["F"] * t + ["p"]
    next_id = r + t + 1
    pendant_owner = {}
    for i in range(r):
        need = t - (sys.occurrences(i) + 1)
        for _ in range(need):
            edges.append((u_ids[i], next_id))
            roles.append("I")
            pendant_owner[next_id] = u_ids[i]
            next_id += 1
    for _ in range(t - r):
        edges.append((p, next_id))
        roles.append("I")
        pendant_owner[next_id] = p
        next_id += 1
    h = Graph(next_id, edges)
    inst = Instance(h, p, None, Objective.MAX)
    return ReductionArtifact("mddmax-bip", inst, tuple(roles),
                             {"system": sys, "f_ids": tuple(f_ids),
                              "u_ids": tuple(u_ids),
                              "pendant_owner": pendant_owner})


def mddmax_bip_solution_to_cover(art: ReductionArtifact, s) -> frozenset:
    """Normalization: element vertices and pendants of element vertices are
    replaced by a covering set vertex; pendants of p are dropped."""
    return _project_to_cover(art, "mddmax-bip", s)


def cover_to_mddmax_bip_solution(art: ReductionArtifact, cover) -> DeletionSet:
    return _lift_cover(art, "mddmax-bip", cover)


# ---------------------------------------------------------------------------
# cubic dominating set -> cubic MDD(max)
# ---------------------------------------------------------------------------

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
    return ReductionArtifact("cubic", inst, roles,
                             {"source": g, "forced": (g.n + 4, g.n + 5)})


def domset_to_mddmax_cubic_solution(art: ReductionArtifact, domset) -> DeletionSet:
    return _lift_domset(art, "cubic", domset)


def mddmax_cubic_solution_to_domset(art: ReductionArtifact, s) -> frozenset:
    return _project_to_domset(art, "cubic", s)


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

def _data(art: ReductionArtifact, kind: str) -> dict:
    """The provenance of `art`, which must come from construction `kind`."""
    if art.kind != kind:
        raise PreconditionError(f"artifact is not a {kind} reduction")
    return art.data


def _feasible_vertices(art: ReductionArtifact, kind: str, s) -> frozenset:
    _data(art, kind)
    verts = _solution_vertices(s)
    if not is_feasible(art.instance, verts):
        raise PreconditionError("solution is not feasible for the instance")
    return verts


def _project_to_domset(art: ReductionArtifact, kind: str, s) -> frozenset:
    """The deleted vertices of the source graph, a dominating set of it."""
    verts = _feasible_vertices(art, kind, s)
    source = art.data["source"]
    dom = frozenset(v for v in verts if v < source.n)
    if not is_dominating(source, dom):
        raise PreconditionError(
            "projected set fails domination; the input cannot have been feasible")
    return dom


def _project_to_cover(art: ReductionArtifact, kind: str, s) -> frozenset:
    """A deleted set vertex becomes its set; a deleted element vertex, or a
    pendant it owns, becomes the first set containing the element; every
    other vertex is dropped."""
    verts = _feasible_vertices(art, kind, s)
    sys = art.data["system"]
    owner = art.data["pendant_owner"]
    to_set = {a: min(j for j, f in enumerate(sys.family) if x in f)
              for x, a in enumerate(art.data["u_ids"])}
    to_set.update((b, j) for j, b in enumerate(art.data["f_ids"]))
    cover = frozenset(to_set[u] for u in (owner.get(v, v) for v in verts)
                      if u in to_set)
    if not is_cover(sys, cover):
        raise PreconditionError(
            "projected indices fail to cover; the input cannot have been feasible")
    return cover


def _in_range(values, bound: int, what: str) -> frozenset:
    values = list(values)
    bad = [x for x in values if type(x) is not int or not 0 <= x < bound]
    if bad:
        raise InputError(f"{what} {bad[0]!r} not in range({bound})")
    return frozenset(values)


def _lift_domset(art: ReductionArtifact, kind: str, domset) -> DeletionSet:
    data = _data(art, kind)
    domset = _in_range(domset, data["source"].n, "vertex")
    if not is_dominating(data["source"], domset):
        raise PreconditionError("input is not a dominating set of the source")
    return DeletionSet.of(art.instance, domset.union(data["forced"]))


def _lift_cover(art: ReductionArtifact, kind: str, cover) -> DeletionSet:
    data = _data(art, kind)
    cover = _in_range(cover, data["system"].num_sets, "set index")
    if not is_cover(data["system"], cover):
        raise PreconditionError("input indices are not a set cover")
    return DeletionSet.of(art.instance, {data["f_ids"][j] for j in cover})
