"""Graph fixtures, checkers, a role lookup and a bound that only the test
suite uses.

None of these is called by a solver, the CLI or the benchmark harness, so
they live beside bruteforce.py rather than in the package.
"""
from fractions import Fraction

from mdd import Graph, InputError, PreconditionError
from mdd.graph import is_int

from bruteforce import remaining_degrees


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
               for v, d in remaining_degrees(prob.graph, deleted).items())


def kreg_lower_bound(n, k, f):
    """Lower bound ((k-f+1)n - 1) / (2k-f+1) on any feasible MDD(max) set of
    a k-regular graph, where f is the number of surviving neighbors of p.
    Always at least (n-1)/(k+1)."""
    if n < 1:
        raise PreconditionError("n must be at least 1")
    if not 0 <= f <= k:
        raise PreconditionError("f must lie in [0, k]")
    return Fraction((k - f + 1) * n - 1, 2 * k - f + 1)
