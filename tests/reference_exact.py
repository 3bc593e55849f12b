"""Reference exact solvers for differential tests.

`_enumerate` is the loop that used to stand behind
`mdd.exact.brute_force_optimum` and `mdd.exact.kregular_min_exact`: it
checks every subset of the deletable vertices by increasing size, in
lexicographic order, with `is_feasible`, and keeps the minimum key (weight,
size, sorted tuple), or returns the first feasible set in CARDINALITY mode.
Its budget counts subsets.  The package's search tree and k-regular peel
must return exactly the same sets; tests compare against it.

`kregular_feasible_witness` is the constructive feasible set that bounds
the k-regular optimum by 2k - 1; tests check the exact solver against it
on graphs too large for any enumeration.
"""
import itertools
import math

from mdd import (BudgetError, DeletionSet, InfeasibleError, Instance,
                 OracleConfig, WeightMode, is_feasible)
from mdd.exact import _require_regular_min_unit


def _enumerate(inst: Instance, cfg: OracleConfig) -> DeletionSet:
    # Every subset of the deletable vertices, smallest first; the reference
    # that brute_force_optimum and kregular_min_exact are tested against.
    deletable = [v for v in range(inst.graph.n)
                 if v != inst.p and inst.weight(v) != math.inf]
    cardinality = cfg.weight_mode is WeightMode.CARDINALITY
    checked = 0
    best = None
    for size in range(len(deletable) + 1):
        for combo in itertools.combinations(deletable, size):
            checked += 1
            if checked > cfg.budget:
                raise BudgetError(f"oracle budget of {cfg.budget} subsets exhausted")
            if not is_feasible(inst, combo):
                continue
            weight = inst.weight_of(combo)
            if cardinality:
                # Sizes ascend and combinations are lexicographic, so the
                # first feasible set already has the minimum (size, combo).
                return DeletionSet(frozenset(combo), weight)
            key = (weight, size, combo)
            if best is None or key < best:
                best = key
    if best is None:
        raise InfeasibleError("no feasible deletion set within enumeration limits")
    weight, _, combo = best
    return DeletionSet(frozenset(combo), weight)


def kregular_feasible_witness(inst: Instance) -> DeletionSet:
    """The constructive feasible set S = N(p) + {v outside N[p] : N(v)=N(p)}.

    Its size is at most 2k-1 on a k-regular graph, which bounds the optimum.
    """
    _require_regular_min_unit(inst)
    g = inst.graph
    p = inst.p
    np_open = g.adj[p]
    np_closed = g.closed_neighborhood(p)
    twins = {v for v in range(g.n) if v not in np_closed and g.adj[v] == np_open}
    return DeletionSet.of(inst, np_open | twins)
