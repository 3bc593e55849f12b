"""Reference exact solvers for differential tests.

`_enumerate` is the loop that used to stand behind
`mdd.exact.brute_force_optimum` and `mdd.exact.kregular_min_exact`, kept
verbatim: it checks every subset of the deletable vertices by increasing
size, in lexicographic order, and keeps the minimum key (weight, size,
sorted tuple), or returns the first feasible set in CARDINALITY mode.  Its
budget counts subsets.  The package's search tree and k-regular peel must
return exactly the same sets, so this stays as it is; tests compare
against it.

`kregular_feasible_witness` is the constructive feasible set that bounds
the k-regular optimum by 2k - 1; tests check the exact solver against it
on graphs too large for any enumeration.
"""
import itertools
import math

from mdd import (BudgetError, DeletionSet, InfeasibleError, Instance,
                 Objective, OracleConfig, WeightMode)
from mdd.exact import _require_regular_min_unit
from mdd.graph import feasible_mask


def _enumerate(inst: Instance, cfg: OracleConfig) -> DeletionSet:
    # The loop behind brute_force_optimum, also called by kregular_min_exact,
    # so that a traced run attributes each solver's time to that solver.
    g = inst.graph
    p = inst.p
    want_min = inst.objective is Objective.MIN
    deletable = [v for v in range(g.n) if v != p and inst.weight(v) != math.inf]
    cardinality = cfg.weight_mode is WeightMode.CARDINALITY
    full = g.full_mask
    checked = 0
    best = None
    for size in range(len(deletable) + 1):
        for combo in itertools.combinations(deletable, size):
            checked += 1
            if checked > cfg.budget:
                raise BudgetError(f"oracle budget of {cfg.budget} subsets exhausted")
            remaining = full
            for v in combo:
                remaining &= ~(1 << v)
            if not feasible_mask(g, p, remaining, want_min):
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
