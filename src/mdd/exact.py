"""Ground-truth solvers: subset-enumeration oracle, complement duality, and
the polynomial exact solver for MDD(min) on regular graphs.
"""
from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from enum import Enum

from .errors import BudgetError, InfeasibleError, PreconditionError
from .graph import DeletionSet, Instance, Objective, feasible_mask

DEFAULT_BUDGET = 2_000_000


class WeightMode(Enum):
    CARDINALITY = "cardinality"
    WEIGHTED = "weighted"


@dataclass(frozen=True)
class OracleConfig:
    weight_mode: WeightMode = WeightMode.CARDINALITY
    budget: int = DEFAULT_BUDGET

    def __post_init__(self):
        if self.budget < 1:
            raise PreconditionError("oracle budget must be at least 1")


def brute_force_optimum(inst: Instance, cfg: OracleConfig = OracleConfig()) -> DeletionSet:
    """Minimum feasible deletion set by explicit subset enumeration.

    Ties are broken deterministically: smaller weight, then smaller
    cardinality, then lexicographically smallest vertex tuple.  In
    CARDINALITY mode the enumeration proceeds by increasing subset size and
    returns the first feasible set it meets, which is the minimum.
    """
    return _enumerate(inst, cfg)


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


def dualize(inst: Instance) -> Instance:
    """Complement the graph and flip the objective; feasibility of any set
    is preserved exactly."""
    flipped = Objective.MIN if inst.objective is Objective.MAX else Objective.MAX
    return Instance(inst.graph.complement(), inst.p, inst.weights, flipped)


def _require_regular_min_unit(inst: Instance) -> int:
    k = inst.graph.regular_degree()
    if k is None:
        raise PreconditionError("graph is not regular")
    if k == 0:
        raise PreconditionError("regular-graph solver requires degree k >= 1")
    if inst.objective is not Objective.MIN:
        raise PreconditionError("regular-graph solver handles objective Min only")
    if not inst.unit_weights:
        raise PreconditionError("regular-graph solver requires unit weights")
    return k


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


def kregular_min_exact(inst: Instance) -> DeletionSet:
    """Exact MDD(min) on a k-regular graph with unit weights.

    The witness above is feasible with at most 2k-1 vertices, and the
    CARDINALITY oracle returns at the first feasible size, so it stops by
    size 2k-1 and its budget is never the limit.
    """
    _require_regular_min_unit(inst)
    return _enumerate(inst, OracleConfig(budget=sys.maxsize))
