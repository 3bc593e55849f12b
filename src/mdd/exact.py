"""Ground-truth solvers: search-tree oracle, complement duality, and the
exact solver for MDD(min) on any graph and weights, one peel per K <= N(p),
2^d(p) in all: polynomial when d(p) is O(log n), as on the paper's regular
graphs of constant degree.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

from .errors import BudgetError, InfeasibleError, InputError, PreconditionError
from .graph import DeletionSet, Instance, Objective

DEFAULT_BUDGET = 2_000_000


class WeightMode(Enum):
    CARDINALITY = "cardinality"
    WEIGHTED = "weighted"


@dataclass(frozen=True)
class OracleConfig:
    """The oracle's key.  WEIGHTED, the default, minimizes weight, then
    size; CARDINALITY minimizes size alone.  On unit weights the two are one
    search.  The node budget is DEFAULT_BUDGET, which the K peel shares."""

    weight_mode: WeightMode = WeightMode.WEIGHTED

    def __post_init__(self):
        if not isinstance(self.weight_mode, WeightMode):
            raise InputError("oracle weight_mode must be a WeightMode")


def brute_force_optimum(inst: Instance, cfg: OracleConfig = OracleConfig()) -> DeletionSet:
    """Minimum feasible deletion set by a bounded search tree.

    Every kept vertex that ties or beats p must be fixed by the deletion
    set, so the search branches over the few vertices that can fix one: the
    vertex itself, or a neighbour of it that is not a neighbour of p.  It
    returns the minimum under the deterministic tie-break: smaller weight,
    then smaller cardinality, then lexicographically smallest vertex tuple
    (the default WEIGHTED mode, the key of `mdd solve --algo oracle` and
    of the other exact and branching solvers); CARDINALITY mode drops the
    weight.  It raises BudgetError past DEFAULT_BUDGET search nodes, read
    once per call: the exact layer's one node budget, which the K peel
    shares.  A Min instance is searched as Max on its complement, so it
    builds the same tree as its `dualize` and gives the same result, or the
    same error.
    """
    # A node deletes `removed` and may no longer delete `blocked`.  A kept
    # v != p violates when d(v) >= d(p).  Deleting a common neighbour of v
    # and p lowers both degrees by one, and deleting a vertex adjacent to
    # neither changes neither, so only deleting v or a vertex of
    # N(v) - N[p] lowers d(v) against d(p): every feasible superset must
    # meet v's fixing set {v} + (N(v) - N[p]).  Min on G has the feasible
    # sets of Max on the complement, so Min complements the masks first.
    # The node branches on the smallest fixing set, without blocked
    # vertices, in ascending id; each branch blocks the members tried before
    # it, so the subtrees part the feasible supersets.  Costs are positive,
    # so a feasible node is lighter and smaller than all its supersets and
    # the search stops there; following any feasible set down the tree thus
    # meets a feasible subset of it, and the minimum key is always met.
    g = inst.graph
    p = inst.p
    budget = DEFAULT_BUDGET
    if cfg.weight_mode is WeightMode.WEIGHTED:
        cost = inst.weights
    else:
        cost = (1,) * g.n
    # The search's private encoding: a vertex set is an int with bit v set
    # for each member v, so a degree in G - removed is one popcount.
    masks = [sum(1 << u for u in s) for s in g.adj]
    full = (1 << g.n) - 1
    if inst.objective is Objective.MIN:
        masks = [full ^ (1 << v) ^ m for v, m in enumerate(masks)]
    others = [(v, 1 << v, (1 << v) | (masks[v] & ~masks[p]))
              for v in range(g.n) if v != p]
    undeletable = 1 << p
    for v, bit, _ in others:
        if inst.weight(v) == math.inf:
            undeletable |= bit
    best = None
    nodes = 0
    # Depth-first with an explicit stack (a search can run n levels deep);
    # a node is (removed, blocked, spent), children pop in ascending id.
    stack = [(0, undeletable, 0)]
    while stack:
        removed, blocked, spent = stack.pop()
        if best is not None and spent > best[0]:
            continue
        nodes += 1
        if nodes > budget:
            raise BudgetError(f"oracle budget of {budget} search nodes exhausted")
        remaining = full & ~removed
        free = remaining & ~blocked
        dp = (masks[p] & remaining).bit_count()
        fix = None
        for v, bit, fixing in others:
            if not remaining & bit or (masks[v] & remaining).bit_count() < dp:
                continue
            fixers = fixing & free
            if fix is None or fixers.bit_count() < fix.bit_count():
                fix = fixers
            if not fix:
                break  # a violator nothing can fix: no children
        if fix is None:
            chosen = tuple(v for v, bit, _ in others if removed & bit)
            key = (spent, len(chosen), chosen)
            if best is None or key < best:
                best = key
            continue
        children = []
        while fix:
            bit = fix & -fix
            fix ^= bit
            children.append((removed | bit, blocked,
                             spent + cost[bit.bit_length() - 1]))
            blocked |= bit
        stack.extend(reversed(children))
    if best is None:
        raise InfeasibleError(
            "no deletion set avoiding p and the undeletable vertices is feasible")
    return DeletionSet.of(inst, best[2])


def dualize(inst: Instance) -> Instance:
    """Complement the graph and flip the objective; feasibility of any set
    is preserved exactly."""
    flipped = Objective.MIN if inst.objective is Objective.MAX else Objective.MAX
    return Instance(inst.graph.complement(), inst.p, inst.weights, flipped)


def kregular_min_exact(inst: Instance) -> DeletionSet:
    """Exact MDD(min) on any graph and weights, in O(2^k * k * n^2) time
    with k = d(p): 2^k peels of at most n rounds of O(k * n) each.  Each
    peel counts as one node against DEFAULT_BUDGET, the oracle's node
    budget too, so BudgetError is raised up front when 2^k exceeds it
    (k >= 21).  The paper states it for regular graphs of constant degree,
    where k is the degree; the name stays because perfbench calls it and
    `kreg-exact` names it in the CLI.

    Fix K = S & N(p) for a feasible S.  Then p keeps degree k - |K|, so S
    holds every v != p whose degree falls to k - |K| or below.  Peeling such
    vertices from V - K to a fixpoint thus yields a part of every such S; if
    the peel reaches N(p) - K, no such S exists, and otherwise K plus the
    peel is feasible unless it deletes an UNDELETABLE vertex.  Weights are
    positive, so every minimum S is the peel of its own K, and the least
    peel by (weight, size, sorted tuple) is the oracle's WEIGHTED answer.
    The loop keeps only the best peel so far, as the search does, so it
    holds O(n) ids whatever k is; a peel of weight inf is never kept.
    """
    if inst.objective is not Objective.MIN:
        raise PreconditionError(
            "K peel handles objective Min only; run Max as dualize(inst)")
    g = inst.graph
    p = inst.p
    k = len(g.adj[p])
    if 2 ** k > DEFAULT_BUDGET:
        raise BudgetError(f"2^{k} peels exceed the budget of "
                          f"{DEFAULT_BUDGET} search nodes")
    best = None
    for size in range(k + 1):
        for ks in itertools.combinations(sorted(g.adj[p]), size):
            kept = set(range(g.n)).difference(ks)
            while True:
                peel = {v for v in kept
                        if v != p and len(g.adj[v] & kept) <= k - size}
                if not peel:
                    break
                kept -= peel
            if g.adj[p].difference(ks) <= kept:
                chosen = tuple(v for v in range(g.n) if v not in kept)
                key = (inst.weight_of(chosen), len(chosen), chosen)
                if key[0] != math.inf and (best is None or key < best):
                    best = key
    # K = N(p) always yields a peel, V - {p}; only an UNDELETABLE vertex in
    # every peel leaves no best.
    if best is None:
        raise InfeasibleError(
            "no deletion set avoiding p and the undeletable vertices is feasible")
    return DeletionSet.of(inst, best[2])
