"""Ground-truth solvers: search-tree oracle, complement duality, and the
polynomial exact solver for MDD(min) on regular graphs, one peel per K <= N(p).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

from .errors import BudgetError, InfeasibleError, InputError, PreconditionError
from .graph import DeletionSet, Instance, Objective, is_int

DEFAULT_BUDGET = 2_000_000


class WeightMode(Enum):
    CARDINALITY = "cardinality"
    WEIGHTED = "weighted"


@dataclass(frozen=True)
class OracleConfig:
    weight_mode: WeightMode = WeightMode.CARDINALITY
    budget: int = DEFAULT_BUDGET

    def __post_init__(self):
        if not isinstance(self.weight_mode, WeightMode):
            raise InputError("oracle weight_mode must be a WeightMode")
        if not is_int(self.budget, 1):
            raise InputError("oracle budget must be an integer >= 1")


def brute_force_optimum(inst: Instance, cfg: OracleConfig = OracleConfig()) -> DeletionSet:
    """Minimum feasible deletion set by a bounded search tree.

    Every kept vertex that ties or beats p must be fixed by the deletion
    set, so the search branches over the few vertices that can fix one: the
    vertex itself, or a neighbour of it that is not a neighbour of p.  It
    returns the minimum under the deterministic tie-break: smaller weight,
    then smaller cardinality, then lexicographically smallest vertex tuple;
    CARDINALITY mode drops the weight.  The budget counts search nodes.  A
    Min instance is searched as Max on its complement, so it builds the
    same tree as its `dualize` and gives the same result, or the same error.
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
        if nodes > cfg.budget:
            raise BudgetError(f"oracle budget of {cfg.budget} search nodes exhausted")
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


def _require_regular_min_unit(inst: Instance) -> int:
    k = inst.graph.regular_degree()
    if k is None:
        raise PreconditionError("graph is not regular")
    if inst.objective is not Objective.MIN:
        raise PreconditionError("regular-graph solver handles objective Min only")
    if not inst.unit_weights:
        raise PreconditionError("regular-graph solver requires unit weights")
    return k


def kregular_min_exact(inst: Instance) -> DeletionSet:
    """Exact MDD(min) on a k-regular graph with unit weights, in
    O(2^k * k * n^2) time: 2^k peels of at most n rounds of O(k * n) each.
    Each peel counts as one node against DEFAULT_BUDGET, so BudgetError is
    raised up front when 2^k exceeds it (k >= 21).

    Fix K = S & N(p) for a feasible S.  Then p keeps degree k - |K|, so S
    holds every v != p whose degree falls to k - |K| or below.  Peeling such
    vertices from V - K to a fixpoint thus yields a part of every such S; if
    the peel reaches N(p) - K, no such S exists, and otherwise K plus the
    peel is feasible.  So every minimum S is the peel of its own K, and the
    least peel by (size, sorted tuple) is the oracle's CARDINALITY answer.
    """
    k = _require_regular_min_unit(inst)
    if 2 ** k > DEFAULT_BUDGET:
        raise BudgetError(f"2^{k} peels exceed the budget of "
                          f"{DEFAULT_BUDGET} search nodes")
    g = inst.graph
    p = inst.p
    peels = []
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
                peels.append(tuple(v for v in range(g.n) if v not in kept))
    # K = N(p) always yields a peel: V - {p} is feasible.
    return DeletionSet.of(inst, min(peels, key=lambda s: (len(s), s)))
