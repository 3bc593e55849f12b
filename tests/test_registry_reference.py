"""Every solver in `bench.ALGORITHMS`, run through `bench.solve`, against the
brute force of bruteforce.py.

Inputs are small G(n, q) instances (both objectives; unit weights, weights
1-5 and weights that include UNDELETABLE) and unit-weight instances on
random regular graphs, where `kreg-exact` applies on Min and `cubic` on
cubic Max.  A solver may give up (BudgetError, InfeasibleError,
PreconditionError); otherwise its set is feasible and no lighter than the
optimum, and the set of an exact solver (`oracle`, `kreg-exact`) is the
optimum under the (weight, size, sorted tuple) tie-break.  On a unit-weight
k-regular Max instance every set also meets `kreg_lower_bound`.

Derandomized, so every run checks the same examples.
"""
import math
import random

from hypothesis import given, settings, strategies as st

from mdd import (BudgetError, InfeasibleError, Instance, Objective,
                 PreconditionError, UNDELETABLE, generate_gnp,
                 generate_random_regular)
from mdd.bench import ALGORITHMS, solve

import bruteforce
from testkit import kreg_lower_bound


@st.composite
def instances(draw):
    # Hypothesis draws only the seed and the family: values it draws one by
    # one crowd at their simplest (n = 1, weight 1), which rarely tell
    # weight from size.
    rng = random.Random(draw(st.integers(0, 10**6)))
    objective = rng.choice(list(Objective))
    if draw(st.booleans()):
        k = rng.randint(1, 6)
        n = rng.randint(k + 1, 10)
        g = generate_random_regular(n + n * k % 2, k, rng.randrange(10**6))
        return Instance(g, rng.randrange(g.n), None, objective)
    g = generate_gnp(rng.randint(2, 12), rng.choice([0.1, 0.3, 0.5, 0.7, 0.9]),
                     rng.randrange(10**6))
    pool = rng.choice([(1,), (1, 2, 3, 4, 5), (1, 2, 5, UNDELETABLE)])
    return Instance(g, rng.randrange(g.n),
                    [rng.choice(pool) for _ in range(g.n)], objective)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(instances())
def test_every_solver_is_feasible_and_no_lighter_than_optimum(inst):
    optimum = bruteforce.min_deletion_weight(inst)
    k = inst.graph.regular_degree()
    bounded = (k is not None and inst.unit_weights
               and inst.objective is Objective.MAX)
    for name in ALGORITHMS:
        try:
            solution, _ = solve(name, inst)
        except InfeasibleError:
            if name == "oracle":
                # Only sets that delete an undeletable vertex are feasible.
                assert optimum in (None, math.inf)
            continue
        except (BudgetError, PreconditionError):
            assert name != "oracle"
            continue
        assert bruteforce.check_feasible(inst, solution.vertices)
        assert solution.total_weight == inst.weight_of(solution.vertices)
        assert solution.total_weight >= optimum
        if bounded:
            f = len(inst.graph.adj[inst.p] - solution.vertices)
            assert solution.size >= kreg_lower_bound(inst.graph.n, k, f)
        if name in ("oracle", "kreg-exact"):
            assert solution.vertices == bruteforce.min_deletion_set(inst)
