"""Independent brute-force oracles for the test suite.

Everything here recomputes degrees from the adjacency sets on the vertices
left after each deletion, and calls none of the package's feasibility or
solver code, so that tests cross-validate two distinct code paths.
"""
import itertools
import math

from mdd import Objective

# testkit imports this module too, so each reads the other's names at call
# time.
import testkit


def remaining_degrees(g, deleted):
    remaining = set(range(g.n)) - set(deleted)
    return {v: len(g.adj[v] & remaining) for v in remaining}


def check_feasible(inst, deleted):
    """From-scratch feasibility check."""
    deleted = set(deleted)
    assert inst.p not in deleted
    deg = remaining_degrees(inst.graph, deleted)
    dp = deg[inst.p]
    for v, dv in deg.items():
        if v == inst.p:
            continue
        if inst.objective is Objective.MIN and dv <= dp:
            return False
        if inst.objective is Objective.MAX and dv >= dp:
            return False
    return True


def all_feasible_sets(inst, excluded=()):
    """Every feasible deletion set avoiding `excluded`, as frozensets."""
    others = [v for v in range(inst.graph.n)
              if v != inst.p and v not in set(excluded)]
    out = []
    for size in range(len(others) + 1):
        for combo in itertools.combinations(others, size):
            if check_feasible(inst, combo):
                out.append(frozenset(combo))
    return out


def min_deletion_weight(inst, excluded=()):
    """Optimal feasible weight, or None if nothing qualifies."""
    best = None
    for s in all_feasible_sets(inst, excluded):
        w = inst.weight_of(s)
        if best is None or w < best:
            best = w
    return best


def min_deletion_set(inst):
    """Optimal set under the (weight, size, lexicographic) tie-break."""
    best = None
    best_key = None
    for s in all_feasible_sets(inst):
        key = (inst.weight_of(s), len(s), tuple(sorted(s)))
        if best_key is None or key < best_key:
            best_key = key
            best = s
    return best


def min_fdep_weight(prob):
    """Optimal degree-cap deletion weight, or None if infeasible."""
    n = prob.graph.n
    deletable = [v for v in range(n) if prob.weights[v] != math.inf]
    best = None
    for size in range(len(deletable) + 1):
        for combo in itertools.combinations(deletable, size):
            remaining = set(range(n)) - set(combo)
            ok = True
            for v in remaining:
                if len(prob.graph.adj[v] & remaining) > prob.cap[v]:
                    ok = False
                    break
            if ok:
                w = sum(prob.weights[v] for v in combo)
                if best is None or w < best:
                    best = w
    return best


def min_domset_weight(g, forbidden=(), weights=None):
    if weights is None:
        weights = [1] * g.n
    allowed = [v for v in range(g.n)
               if v not in set(forbidden) and weights[v] != math.inf]
    best = None
    for size in range(len(allowed) + 1):
        for combo in itertools.combinations(allowed, size):
            covered = set()
            for v in combo:
                covered |= g.adj[v] | {v}
            if len(covered) == g.n:
                w = sum(weights[v] for v in combo)
                if best is None or w < best:
                    best = w
    return best


def min_domset_size(g):
    for size in range(g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            covered = set()
            for v in combo:
                covered |= g.adj[v] | {v}
            if len(covered) == g.n:
                return size
    raise AssertionError("every graph has a dominating set")


def min_dissociation_weight(g, weights=None):
    if weights is None:
        weights = [1] * g.n
    best = None
    for size in range(g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            remaining = set(range(g.n)) - set(combo)
            if all(len(g.adj[v] & remaining) <= 1 for v in remaining):
                w = sum(weights[v] for v in combo)
                if best is None or w < best:
                    best = w
    return best


def min_cover_size(sys):
    for size in range(sys.num_sets + 1):
        for combo in itertools.combinations(range(sys.num_sets), size):
            if testkit.is_cover(sys, combo):
                return size
    raise AssertionError("set system invariant guarantees a cover")
