"""MDD(max) on 3-regular graphs: case analysis on the final degree of p.

Final degree 3 reduces to dominating set on a proxy graph in which N[p] is
isolated and proxies stand in for the neighbors of p; final degree 2
reduces to dissociation deletion after fixing the two surviving neighbors
of p; final degree 0 is S = V \\ {p}.  Final degree 1 is impossible for
any feasible solution.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import PreconditionError, VerificationError
from .graph import DeletionSet, Graph, Instance, Objective, is_feasible
from .subroutines import (FDepProblem, dominating_set_approx,
                          f_dependent_delete, is_dominating)


@dataclass(frozen=True)
class DominationGadget:
    """Proxy graph for the final-degree-3 case, on the ids of G.

    gprime keeps the n vertices of G and the edges of G[V \\ N[p]], so the
    `removed` set N[p] is isolated.  The proxies follow from id n on, in
    ascending x in N(p): x with two neighbors a, b outside N[p] gets two
    proxies adjacent to both, x with one outside neighbor gets one proxy
    adjacent to it.  groups[x] holds the proxies of x.
    """

    gprime: Graph
    removed: frozenset
    groups: dict


def _require_cubic_max_unit(inst: Instance):
    if inst.graph.regular_degree() != 3:
        raise PreconditionError("graph is not 3-regular")
    if inst.objective is not Objective.MAX:
        raise PreconditionError("cubic algorithm handles objective Max only")
    if not inst.unit_weights:
        raise PreconditionError("cubic algorithm requires unit weights")


def build_domination_gadget(inst: Instance) -> DominationGadget:
    _require_cubic_max_unit(inst)
    g, p = inst.graph, inst.p
    gadget = _gadget(g, p)
    if gadget is None:
        x = min(x for x in g.adj[p] if g.adj[x] <= g.closed_neighborhood(p))
        raise PreconditionError(f"neighbor {x} of p has 0 neighbors outside "
                                "N[p]; the final-degree-3 case does not apply")
    return gadget


def _gadget(g: Graph, p: int) -> Optional[DominationGadget]:
    """The gadget of build_domination_gadget on a checked instance, or None
    when a neighbor of p has no neighbor outside N[p].  The proxy graph's
    neighbour sets are those of g.adj, so it is built without per-edge
    checks; only N[p] and the at most 6 vertices adjacent to it get new
    sets, and every other one is shared with g."""
    removed = g.closed_neighborhood(p)
    adj = list(g.adj)
    for u in removed:
        adj[u] = frozenset()
    groups = {}
    for x in sorted(g.adj[p]):
        out_x = g.adj[x] - removed
        if not out_x:
            return None
        groups[x] = tuple(range(len(adj), len(adj) + len(out_x)))
        for a in out_x:
            adj[a] = (adj[a] - removed).union(groups[x])
        adj += [out_x] * len(out_x)
    return DominationGadget(Graph._unchecked(adj), removed, groups)


def normalize_dominating_set(gadget: DominationGadget, d_in) -> frozenset:
    """Push proxy vertices out of a dominating set of gprime - removed.

    Each selected proxy is replaced by one of its neighbors (the outside
    neighbors of the source vertex), which dominates the whole proxy group.
    The result is a dominating set of gprime - removed, disjoint from the
    proxies and no larger than the input: a deletion set of G.  The greedy
    dominating set of the final-degree-3 case holds no proxy (an outside
    neighbor of x covers what a proxy of x covers and has a lower id), so
    mdd_max_cubic_trace takes it as it stands, without this step.
    """
    g = gadget.gprime
    d = set(d_in)
    if d & gadget.removed or not is_dominating(g, d | gadget.removed):
        raise PreconditionError(
            "input does not dominate the proxy graph outside N[p]")
    for x, group in gadget.groups.items():
        hits = d & set(group)
        if not hits:
            continue
        d -= hits
        replacements = sorted(g.neighborhood_of_set(group))
        for _ in hits:
            fresh = [v for v in replacements if v not in d]
            if fresh:
                d.add(fresh[0])
            # else: the neighbors are all chosen already and dominate the
            # group; dropping the proxy only shrinks the set.
    if not is_dominating(g, d | gadget.removed):
        raise VerificationError(
            "normalized set no longer dominates the proxy graph")
    return frozenset(d)


def build_gstar(inst: Instance, x: int) -> frozenset:
    """Fixed set of the final-degree-2 case with x deleted: {x} plus the
    neighbors of the surviving vertices y, z of N(p), minus p, y, z.  The
    rest of the candidate is dissociation deletion on G*, which is G with
    fixed | N[p] passed as `removed`.
    """
    _require_cubic_max_unit(inst)
    g, p = inst.graph, inst.p
    if x not in g.adj[p]:
        raise PreconditionError(f"{x} is not a neighbor of p")
    fixed = _gstar(g, p, x)
    if fixed is None:
        y, z = sorted(g.adj[p] - {x})
        raise PreconditionError(
            f"surviving neighbors {y} and {z} are adjacent; branch at x={x} "
            f"does not apply")
    return fixed


def _gstar(g: Graph, p: int, x: int) -> Optional[frozenset]:
    """The fixed set of build_gstar on a checked instance and x in N(p), or
    None when the surviving y and z are adjacent."""
    y, z = sorted(g.adj[p] - {x})
    if z in g.adj[y]:
        return None
    return frozenset(({x} | g.adj[y] | g.adj[z]) - {p, y, z})


@dataclass(frozen=True)
class CubicTrace:
    solution: DeletionSet
    case: str
    candidate_sizes: tuple  # (case label, size) per candidate run to the end
    stopped: int  # final-degree-2 branches stopped (counting bound or budget)


# Selection prefers smaller sets; among equal sizes the domination case wins
# over the dissociation branches, which win over the full deletion.
_CASE_RANK = {"domination": 0, "dissociation": 1, "full": 2}


def mdd_max_cubic_trace(inst: Instance) -> CubicTrace:
    """Best of the three case candidates, on an instance checked once.

    The final-degree-3 candidate is the greedy dominating set of the proxy
    graph outside N[p], which holds no proxy (see normalize_dominating_set).
    Each final-degree-2 branch with fixed set F is stopped, not listed, when
    its candidate must be larger than best, the size of the smallest
    candidate so far, starting from the full candidate's n - 1.  It is
    stopped first by a counting bound, with R = F | N[p]: with every cap 1,
    the vertices of G - R have total excess at least
    2(n - |R|) - 3|R| = 2n - 5|R|, and one deletion lowers it by at most 5
    (2 of its own, 1 for each of its 3 neighbours), so every dissociation
    set of G - R has at least (2n - 5|R|) / 5 vertices.  A branch the bound
    does not settle runs the dissociation greedy with the budget best - |F|,
    which stops it when its set must be larger.  Both tests are strict, so
    a branch that ties the best still runs and can win on case rank or
    sorted tuple, and the result is that of running every branch to the
    end.  The dissociation problem is built only when a branch runs the
    greedy."""
    _require_cubic_max_unit(inst)
    g = inst.graph
    p = inst.p
    closed_p = g.closed_neighborhood(p)
    candidates = []
    gadget = _gadget(g, p)
    if gadget is not None:
        candidates.append(("domination", dominating_set_approx(
            gadget.gprime, removed=gadget.removed)))
    best = min([g.n - 1] + [len(c) for _, c in candidates])
    stopped = 0
    # One problem for every final-degree-2 branch that runs the greedy,
    # built by the first of them.
    dissociation = None
    for x in sorted(g.adj[p]):
        fixed = _gstar(g, p, x)
        if fixed is None:
            continue
        removed = fixed | closed_p
        if 2 * g.n - 5 * len(removed) > 5 * (best - len(fixed)):
            stopped += 1
            continue
        if dissociation is None:
            dissociation = FDepProblem.uniform(g, 1)
        t = f_dependent_delete(dissociation, removed,
                               budget=best - len(fixed))
        if t is None:
            stopped += 1
            continue
        candidates.append(("dissociation", fixed | t))
        best = min(best, len(fixed) + len(t))
    candidates.append(("full", set(range(g.n)) - {p}))
    label, cand = min(candidates, key=lambda c: (
        len(c[1]), _CASE_RANK[c[0]], tuple(sorted(c[1]))))
    if not is_feasible(inst, cand):
        raise VerificationError(f"cubic {label} candidate is infeasible")
    return CubicTrace(DeletionSet.of(inst, cand), label,
                      tuple((lbl, len(c)) for lbl, c in candidates), stopped)


def mdd_max_cubic(inst: Instance) -> DeletionSet:
    """Best of the three case candidates; always feasible."""
    return mdd_max_cubic_trace(inst).solution
