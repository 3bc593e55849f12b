"""Graph fixtures, checkers, a role lookup, a bound, the set-system and
solution serializers, and the hardness constructions' two solution maps
that only the test suite uses.

None of these is called by a solver, the CLI or the benchmark harness, so
they live beside bruteforce.py rather than in the package.
"""
from fractions import Fraction

from mdd import (DeletionSet, Graph, InputError, PreconditionError,
                 VerificationError, is_dominating, is_feasible)
from mdd.graph import _ids, _solution_vertices, is_int

# bruteforce imports this module too, so each reads the other's names at
# call time.
import bruteforce


def complete(n):
    """Complete graph K_n."""
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def star(leaves):
    """Star K_{1,leaves}; the center is vertex 0."""
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_bipartite(a, b):
    return Graph(a + b, [(u, a + v) for u in range(a) for v in range(b)])


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


def is_bipartite(g):
    """True iff a proper 2-coloring exists."""
    color = [None] * g.n
    for root in range(g.n):
        if color[root] is not None:
            continue
        color[root] = 0
        stack = [root]
        while stack:
            v = stack.pop()
            for u in g.adj[v]:
                if color[u] is None:
                    color[u] = 1 - color[v]
                    stack.append(u)
                elif color[u] == color[v]:
                    return False
    return True


def vertices_with_role(art, role):
    """The vertices of a ReductionArtifact tagged `role`, ascending."""
    return [v for v, r in enumerate(art.roles) if r == role]


def check_degree_caps(prob, deleted):
    """Re-verify a candidate against the caps from scratch: every vertex
    outside `deleted` keeps at most its cap.  An id outside the graph
    raises InputError, as the greedies do for `removed`."""
    deleted = set(deleted)
    if not all(is_int(v, 0) and v < prob.graph.n for v in deleted):
        raise InputError("deleted vertices must be vertex ids")
    return all(d <= prob.cap[v]
               for v, d in bruteforce.remaining_degrees(prob.graph, deleted).items())


def kreg_lower_bound(n, k, f):
    """Lower bound ((k-f+1)n - 1) / (2k-f+1) on any feasible MDD(max) set of
    a k-regular graph, where f is the number of surviving neighbors of p.
    Always at least (n-1)/(k+1)."""
    if n < 1:
        raise PreconditionError("n must be at least 1")
    if not 0 <= f <= k:
        raise PreconditionError("f must lie in [0, k]")
    return Fraction((k - f + 1) * n - 1, 2 * k - f + 1)


def serialize_setsystem(sys):
    """The set-system file of a SetSystem: header `r t`, then each set's
    elements ascending, one set per line."""
    out = [f"{sys.universe_size} {sys.num_sets}"]
    out += [" ".join(str(x) for x in sorted(f)) for f in sys.family]
    return "\n".join(out) + "\n"


def serialize_solution(vertices):
    """The solution file of a vertex set: its ids ascending, on one line."""
    return " ".join(str(v) for v in sorted(vertices)) + "\n"


def is_cover(sys, indices):
    """True iff the sets of `sys` at `indices` cover its universe."""
    covered = set()
    for i in indices:
        covered |= sys.family[i]
    return covered == set(range(sys.universe_size))


def project_solution(art, s):
    """Backward map of a ReductionArtifact: a feasible deletion set becomes
    a source solution of no larger size.

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
            raise VerificationError("projected set fails domination")
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
    if not is_cover(source, cover):
        raise VerificationError("projected indices fail to cover")
    return frozenset(cover)


def lift_solution(art, solution):
    """Forward map of a ReductionArtifact: a dominating set of the source
    graph, or set indices covering the source system, becomes a feasible
    deletion set of the same size plus `art.forced`."""
    source = art.source
    on_graph = isinstance(source, Graph)
    solution = (_ids(source.n, solution) if on_graph
                else _ids(source.num_sets, solution, "set index"))
    if on_graph:
        if not is_dominating(source, solution):
            raise PreconditionError("input is not a dominating set of the source")
        return DeletionSet.of(art.instance, solution.union(art.forced))
    if not is_cover(source, solution):
        raise PreconditionError("input indices are not a set cover")
    r = source.universe_size
    return DeletionSet.of(art.instance, {r + j for j in solution})
