"""Feasibility checker written from the problem definition.

A deletion set S is feasible for (G, p, objective) when S avoids p and every
undeletable vertex, and p is the unique minimum (MIN) or unique maximum (MAX)
degree vertex of G[V \\ S]; a tie is infeasible.  The check uses explicit
`if` tests rather than `assert`, so it also runs under `python -O`, and it
shares no code with the solver package's own feasibility kernel.
"""
from __future__ import annotations

import math


def rejection(inst, vertices, total_weight=None):
    """Why `vertices` is not a feasible deletion set of `inst`, or None.

    When `total_weight` is given it must equal the summed vertex weights.
    """
    graph = inst.graph
    n = graph.n
    p = inst.p
    deleted = set()
    for v in vertices:
        if not isinstance(v, int) or not 0 <= v < n:
            return f"vertex {v!r} is not a vertex id of the graph"
        deleted.add(v)
    if p in deleted:
        return "the distinguished vertex is deleted"
    weight = 0
    for v in deleted:
        w = inst.weights[v]
        if w == math.inf:
            return f"undeletable vertex {v} is deleted"
        weight += w
    if total_weight is not None and total_weight != weight:
        return f"reported weight {total_weight} differs from {weight}"
    degree = {v: 0 for v in range(n) if v not in deleted}
    for u, v in graph.edges():
        if u in degree and v in degree:
            degree[u] += 1
            degree[v] += 1
    dp = degree[p]
    want_max = inst.objective.value == "max"
    for v, dv in degree.items():
        if v == p:
            continue
        if want_max and dv >= dp:
            return f"vertex {v} keeps degree {dv} >= {dp} = d(p)"
        if not want_max and dv <= dp:
            return f"vertex {v} keeps degree {dv} <= {dp} = d(p)"
    return None
