"""Reference greedy subroutines for differential tests.

Quadratic implementations of the degree-cap and dominating-set greedies
that rescore every vertex from scratch and compare ratios as exact
`Fraction`s; the branch loop of the log n algorithm, whose branch step
builds the induced subgraph G[V \\ K] and runs the reference greedy on it;
the final-degree-2 step of the cubic algorithm that does the same on G*;
and the cubic algorithm's choice with every candidate run to the end.  The
package's faster versions must pick exactly the same vertices, so these
stay as they are; tests compare against them.
"""
import itertools
import math
from collections import namedtuple
from fractions import Fraction
from typing import Iterable, Optional

from mdd import (BudgetError, DeletionSet, FDepProblem, Graph,
                 InfeasibleError, Objective, PreconditionError, UNDELETABLE,
                 VerificationError, build_L,
                 build_domination_gadget, is_feasible,
                 normalize_dominating_set)
from mdd import exact
from mdd.approx import BranchingResult

#: Cap sentinel of the reference: the vertex carries no degree constraint at
#: all.  The package caps such a vertex at its own degree instead.
EXEMPT = None

#: The reference greedy's input: FDepProblem's fields, with EXEMPT caps
#: allowed.  An FDepProblem does too.
CapProblem = namedtuple("CapProblem", "graph cap weights")


def _excess(prob: CapProblem, v: int, degree: int) -> int:
    c = prob.cap[v]
    if c is EXEMPT:
        return 0
    return max(0, degree - c)


def f_dependent_delete(prob: CapProblem) -> frozenset:
    """Greedy degree-cap deletion.

    Repeatedly deletes the deletable vertex with the best ratio of total
    cap-excess removed to weight.  Raises InfeasibleError when violations
    remain but no deletable vertex can reduce them, naming the least vertex
    still over its cap (an undeletable one with only undeletable remaining
    neighbors).
    """
    g = prob.graph
    remaining = set(range(g.n))
    deg = {v: g.degree(v) for v in remaining}
    deleted = set()
    while True:
        excess = {v: _excess(prob, v, deg[v]) for v in remaining}
        total = sum(excess.values())
        if total == 0:
            break
        best = None
        best_score = None
        for u in sorted(remaining):
            w = prob.weights[u]
            if w == math.inf:
                continue
            gain = excess[u]
            for v in g.adj[u]:
                if v in remaining and excess[v] > 0:
                    gain += excess[v] - _excess(prob, v, deg[v] - 1)
            if gain <= 0:
                continue
            score = Fraction(gain, w)
            if best_score is None or score > best_score:
                best = u
                best_score = score
        if best is None:
            stuck = min(v for v in remaining if excess[v])
            raise InfeasibleError(
                f"vertex {stuck} stays over its cap: every vertex that could "
                "bring it under is undeletable")
        remaining.discard(best)
        deleted.add(best)
        for v in g.adj[best]:
            if v in remaining:
                deg[v] -= 1
    return frozenset(deleted)


def dominating_set_approx(g: Graph, forbidden: Iterable[int] = (),
                          weights: Optional[tuple] = None) -> frozenset:
    """Greedy weighted dominating set avoiding `forbidden` vertices.

    Picks the allowed vertex covering the most still-undominated vertices
    per unit weight.  Vertices that are forbidden, or carry infinite weight,
    are never selected but still need to be dominated.
    """
    forbidden = set(forbidden)
    if weights is None:
        weights = tuple(1 for _ in range(g.n))
    allowed = [v for v in range(g.n)
               if v not in forbidden and weights[v] != math.inf]
    allowed_set = set(allowed)
    for v in range(g.n):
        if not (g.closed_neighborhood(v) & allowed_set):
            raise InfeasibleError(
                f"vertex {v} stays over its cap: every vertex that could "
                "bring it under is undeletable")
    uncovered = set(range(g.n))
    chosen = set()
    while uncovered:
        best = None
        best_score = None
        for u in allowed:
            if u in chosen:
                continue
            covered = len(g.closed_neighborhood(u) & uncovered)
            if covered == 0:
                continue
            score = Fraction(covered, weights[u])
            if best_score is None or score > best_score:
                best = u
                best_score = score
        assert best is not None  # the precheck above guarantees progress
        chosen.add(best)
        uncovered -= g.closed_neighborhood(best)
    return frozenset(chosen)


def branch_candidate(inst, k_set, np_open, dp):
    """Candidate deletion set for one branch K, or None if infeasible."""
    g = inst.graph
    p = inst.p
    keep = [v for v in range(g.n) if v not in k_set]
    cap_value = dp - len(k_set) - 1
    protected = np_open - k_set
    sub, remap = g.induced_subgraph(keep)
    caps = []
    weights = []
    for new_id, old in enumerate(remap):
        if old == p:
            caps.append(EXEMPT)
            weights.append(UNDELETABLE)
        else:
            caps.append(cap_value)
            if old in protected:
                weights.append(UNDELETABLE)
            else:
                weights.append(inst.weight(old))
    prob = CapProblem(sub, tuple(caps), tuple(weights))
    try:
        deleted = f_dependent_delete(prob)
    except InfeasibleError:
        return None
    return k_set | {remap[i] for i in deleted}


def logn_trace(inst):
    """The log n branching algorithm with `branch_candidate` as its branch
    step; 2^|L| branches may not exceed exact.DEFAULT_BUDGET, as in
    mdd_max_logn_trace."""
    if inst.objective is not Objective.MAX:
        raise PreconditionError("branching algorithm applies to objective Max")
    g = inst.graph
    p = inst.p
    l_set = build_L(inst)
    if 2 ** len(l_set.members) > exact.DEFAULT_BUDGET:
        raise BudgetError(f"2^{len(l_set.members)} branches exceed the "
                          f"budget of {exact.DEFAULT_BUDGET} search nodes")
    np_open = g.adj[p]
    dp = g.degree(p)
    members = sorted(l_set.members)
    candidates = []
    for size in range(len(members) + 1):
        for k_tuple in itertools.combinations(members, size):
            candidate = branch_candidate(inst, set(k_tuple), np_open, dp)
            if candidate is not None:
                candidates.append((candidate, k_tuple))
    feasible_branches = len(candidates)
    candidates.append((set(range(g.n)) - {p}, None))
    best, best_k = min(candidates, key=lambda c: (
        inst.weight_of(c[0]), len(c[0]), tuple(sorted(c[0]))))
    if inst.weight_of(best) == math.inf:
        raise InfeasibleError("every candidate requires an undeletable vertex")
    solution = DeletionSet.of(inst, best)
    if not is_feasible(inst, solution):
        raise VerificationError("branching algorithm selected an infeasible set")
    return BranchingResult(solution, best_k, 2 ** len(members),
                           feasible_branches, l_set.members)


def dissociation_candidate(inst, x):
    """Candidate of the cubic final-degree-2 branch that deletes x, or None
    where the surviving neighbors y, z of p are adjacent."""
    g = inst.graph
    p = inst.p
    y, z = sorted(g.adj[p] - {x})
    if z in g.adj[y]:
        return None
    nyz = g.adj[y] | g.adj[z]
    fixed = ({x} | nyz) - {p, y, z}
    vstar = set(range(g.n)) - ({y, z} | nyz | {x})
    gstar, remap = g.induced_subgraph(vstar)
    t = f_dependent_delete(FDepProblem.uniform(gstar, 1))
    return set(fixed) | {remap[i] for i in t}


def cubic_choice(inst):
    """(case, vertex set) of the cubic algorithm with every candidate run to
    the end: the reference greedy dominating set of the proxy graph outside
    N[p], built on its induced subgraph; each final-degree-2 branch's
    dissociation_candidate; and V - {p}.  The smallest wins, then the case
    (domination, dissociation, full), then the sorted tuple."""
    g = inst.graph
    candidates = []
    # The final-degree-3 case applies when every neighbor of p has a
    # neighbor outside N[p].
    closed = g.closed_neighborhood(inst.p)
    if all(g.adj[x] - closed for x in g.adj[inst.p]):
        gadget = build_domination_gadget(inst)
        gprime = gadget.gprime
        sub, remap = gprime.induced_subgraph(
            v for v in range(gprime.n) if v not in gadget.removed)
        dom = frozenset(remap[i] for i in dominating_set_approx(sub))
        candidates.append(
            (0, "domination", normalize_dominating_set(gadget, dom)))
    for x in sorted(g.adj[inst.p]):
        cand = dissociation_candidate(inst, x)
        if cand is not None:
            candidates.append((1, "dissociation", frozenset(cand)))
    candidates.append((2, "full", frozenset(range(g.n)) - {inst.p}))
    _, label, cand = min(candidates, key=lambda c: (
        len(c[2]), c[0], tuple(sorted(c[2]))))
    return label, cand
