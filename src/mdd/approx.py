"""Approximation machinery for MDD(max) on general graphs: the L-set
construction and the subset-enumeration algorithm that branches over
subsets of L.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

from .errors import (BudgetError, InfeasibleError, InputError,
                     PreconditionError, VerificationError)
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


def default_l_cap(n: int) -> int:
    return math.ceil(math.log2(max(n, 2))) + 2


@dataclass(frozen=True)
class BranchingResult:
    solution: DeletionSet
    chosen_k: tuple
    branches_total: int
    branches_feasible: int
    l_set: tuple


def mdd_max_logn_trace(inst: Instance, cap_on_L: Optional[int] = None) -> BranchingResult:
    """Branch over every subset K of L; see mdd_max_logn.

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
    one so far.  Once there is a best, the greedy gets the budget best -
    w(K) and returns None as soon as its set must weigh more.  A skipped
    or stopped candidate weighs more than the best, and both tests are
    strict, so the result, ties on weight included, is that of running
    every branch to the end.  The ids of K are checked once, by
    f_dependent_delete, and only on branches where the greedy runs."""
    if inst.objective is not Objective.MAX:
        raise PreconditionError("branching algorithm applies to objective Max")
    g = inst.graph
    p = inst.p
    if cap_on_L is None:
        cap_on_L = default_l_cap(g.n)
    elif not is_int(cap_on_L, 0):
        raise InputError("cap on |L| must be an integer >= 0")
    l_set = build_L(inst)
    if len(l_set.members) > cap_on_L:
        raise BudgetError(
            f"|L| = {len(l_set.members)} exceeds cap {cap_on_L}; "
            f"branch count 2^|L| would be too large")
    closed_p = g.closed_neighborhood(p)
    weights = tuple(UNDELETABLE if v in closed_p else w
                    for v, w in enumerate(inst.weights))
    scale = _scale(weights)
    members = sorted(l_set.members)
    feasible = 0
    best = best_k = None  # best: the (weight, size, sorted tuple) key
    for size in range(len(members) + 1):
        caps = [g.degree(p) - size - 1] * g.n
        caps[p] = g.degree(p)
        prob = _unchecked_problem(g, tuple(caps), weights, scale)
        for k_tuple in itertools.combinations(members, size):
            if not _returns(prob, k_tuple):
                continue
            feasible += 1
            k_weight = inst.weight_of(k_tuple)
            if k_weight == math.inf:
                continue
            budget = None if best is None else best[0] - k_weight
            if budget is not None and _outweighs(prob, k_tuple, budget):
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
    cheapest feasible candidate wins.
    """
    return mdd_max_logn_trace(inst, cap_on_L).solution

