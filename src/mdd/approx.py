"""Approximation machinery for MDD(max) on general graphs: the L-set
construction and the subset-enumeration algorithm that branches over
subsets of L.  The algorithm runs MDD(min) as MDD(max) on the complement
(`dualize`), which keeps every feasible set: the paper's result for Min
when d(p) = n - O(log n), where p's degree in the complement is O(log n).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

from .errors import (BudgetError, InfeasibleError, InputError,
                     PreconditionError, VerificationError)
from . import exact
from .graph import (DeletionSet, Instance, Objective, UNDELETABLE, is_feasible,
                    is_int)
from .subroutines import (_outweighs, _returns, _scale, _unchecked_problem,
                          f_dependent_delete)


@dataclass(frozen=True)
class LSet:
    """Greedily built subset of N(p), in insertion order.

    Invariant at each insertion of u (L the prefix before u):
    |N(u) \\ L| >= |N(p) \\ L|; at termination no remaining neighbor
    satisfies this.
    """

    members: tuple


def build_L(inst: Instance) -> LSet:
    """Fixpoint of the L-construction loop; ties broken by lowest id."""
    if inst.objective is not Objective.MAX:
        raise PreconditionError("L-set construction applies to objective Max")
    g = inst.graph
    np_open = g.adj[inst.p]
    members = []
    chosen = set()
    while True:
        threshold = len(np_open - chosen)
        candidates = [u for u in sorted(np_open - chosen)
                      if len(g.adj[u] - chosen) >= threshold]
        if not candidates:
            break
        u = candidates[0]
        members.append(u)
        chosen.add(u)
    return LSet(tuple(members))


@dataclass(frozen=True)
class BranchingResult:
    solution: DeletionSet
    chosen_k: tuple
    branches_total: int
    branches_feasible: int
    l_set: tuple


def mdd_max_logn_trace(inst: Instance, cap_on_L: Optional[int] = None) -> BranchingResult:
    """Branch over every subset K of L; see mdd_max_logn.  A Min instance
    is solved as its `dualize`, so L, K and the counts are the complement's.

    Each of the 2^|L| branches counts as one node against
    `exact.DEFAULT_BUDGET`, the oracle's and the K peel's node budget, read
    at call time: BudgetError is raised before the first branch when 2^|L|
    exceeds it (|L| >= 21 at 2,000,000).  An explicit cap_on_L also
    refuses an |L| above it; the package itself passes none.

    Every branch runs the degree-cap greedy on the whole graph with K
    removed, which picks the same vertices as on G[V \\ K].  The weights
    and their scale are built once per trace, from the weights Instance
    checked, with N[p] UNDELETABLE; each size |K|, 0 included, builds one
    problem from them, unchecked, with caps d(p) - |K| - 1 and d(p) for p
    itself.  The problem builds each view the steps below read on first
    read, so a size none of whose branches reaches _outweighs or the greedy
    (every one fails _returns, has an inf w(K) or a negative budget) builds
    no heap.

    The greedy runs only on a branch that _returns (exact) passes, whose
    w(K) is finite, and for which _outweighs (the fractional knapsack over
    the start gains) does not show that every candidate outweighs the best
    one so far.  A size whose problem has no _crowded vertex passes every
    K, so there the loop asks _returns nothing.  Once there is a best, the
    greedy gets the budget best - w(K) and returns None as soon as its set
    must weigh more.

    The first branch of a size that reaches _outweighs (a finite w(K) and
    a budget of 0 or more) first asks it once for the whole size: of the
    |K| members of L with the largest start gains, with the budget best
    less the |K| smallest weights over L.  Every K of the size weighs at
    least those, leaves at least as much start excess, and the knapsack
    bound does not fall as that excess grows; so when the size test
    holds, so would the test of every K of the size from there on, and
    the loop only counts the size's remaining feasible branches, one
    passing K at a time, before it leaves the size.  It reads the views
    just where the first K's own test would, so it builds none that the
    loop would not.  A skipped or stopped candidate weighs more than the
    best, best only falls, and every test is strict, so the result, ties
    on weight included, is that of running every branch to the end.  The
    ids of K are checked once, by f_dependent_delete, and only on
    branches where the greedy runs."""
    if inst.objective is Objective.MIN:
        inst = exact.dualize(inst)
    g = inst.graph
    p = inst.p
    if cap_on_L is not None and not is_int(cap_on_L, 0):
        raise InputError("cap on |L| must be an integer >= 0")
    l_set = build_L(inst)
    m = len(l_set.members)
    if cap_on_L is not None and m > cap_on_L:
        raise BudgetError(f"|L| = {m} exceeds cap {cap_on_L}; "
                          f"branch count 2^|L| would be too large")
    if 2 ** m > exact.DEFAULT_BUDGET:
        raise BudgetError(f"2^{m} branches exceed the budget of "
                          f"{exact.DEFAULT_BUDGET} search nodes")
    closed_p = g.closed_neighborhood(p)
    weights = tuple(UNDELETABLE if v in closed_p else w
                    for v, w in enumerate(inst.weights))
    scale = _scale(weights)
    members = sorted(l_set.members)
    lightest = list(itertools.accumulate(
        sorted(inst.weights[u] for u in members), initial=0))
    feasible = 0
    best = best_k = None  # best: the (weight, size, sorted tuple) key
    for size in range(len(members) + 1):
        caps = [g.degree(p) - size - 1] * g.n
        caps[p] = g.degree(p)
        prob = _unchecked_problem(g, tuple(caps), weights, scale)
        passing = itertools.combinations(members, size)
        if prob._crowded:
            passing = (k for k in passing if _returns(prob, k))
        asked = False  # the size test, asked at most once per size
        for k_tuple in passing:
            feasible += 1
            k_weight = inst.weight_of(k_tuple)
            if k_weight == math.inf:
                continue
            budget = None if best is None else best[0] - k_weight
            if budget is not None:
                if budget < 0:
                    continue
                if not asked:
                    asked = True
                    by_gain = sorted(members, key=prob._start[1].__getitem__)
                    if _outweighs(prob, by_gain[len(members) - size:],
                                  best[0] - lightest[size]):
                        feasible += sum(1 for _ in passing)
                        break
                if _outweighs(prob, k_tuple, budget):
                    continue
            deleted = f_dependent_delete(prob, k_tuple, budget=budget)
            if deleted is None:
                continue
            candidate = deleted.union(k_tuple)
            key = (k_weight + inst.weight_of(deleted), len(candidate),
                   tuple(sorted(candidate)))
            if best is None or key < best:
                best, best_k = key, k_tuple
    # V - {p} is no candidate: with no inf weight off p, the branch K = L is
    # feasible (build_L stops with N(p) - L within cap; any other violator
    # can delete itself) and no heavier; with one, V - {p} weighs inf.  No
    # candidate of an inf w(K) is built: such a candidate is selected only
    # when every candidate weighs inf, and then the error below is raised.
    if best is None:
        raise InfeasibleError("every candidate requires an undeletable vertex")
    solution = DeletionSet.of(inst, best[2])
    if not is_feasible(inst, solution):
        raise VerificationError(
            "branching algorithm selected an infeasible set")
    return BranchingResult(solution, best_k, 2 ** len(members), feasible,
                           l_set.members)


def mdd_max_logn(inst: Instance, cap_on_L: Optional[int] = None) -> DeletionSet:
    """Approximate MDD(max) by enumerating subsets K of the L-set.

    Each branch deletes K up front, forbids the rest of N(p), and caps every
    other vertex at d(p) - |K| - 1 via the degree-cap subroutine.  The
    cheapest feasible candidate wins.  MDD(min) runs on the complement,
    whose Max has the same feasible sets.
    """
    return mdd_max_logn_trace(inst, cap_on_L).solution

