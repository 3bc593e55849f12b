"""Every solver in `bench.ALGORITHMS`, run through `bench.solve`, against the
brute force of bruteforce.py.

Inputs are small G(n, q) instances (both objectives; unit weights, weights
1-5 and weights that include UNDELETABLE) and unit-weight instances on
random regular graphs, where `cubic` applies on cubic Max.  A solver may
give up (BudgetError, InfeasibleError, PreconditionError); otherwise its set
is feasible and no lighter than the optimum, and the set of an exact solver
(`oracle`, `kreg-exact`) is the optimum under the (weight, size, sorted
tuple) tie-break.  The oracle raises only InfeasibleError on these sizes,
and `kreg-exact` never refuses a Min instance: it raises BudgetError only when
2^d(p) peels exceed `DEFAULT_BUDGET`, and InfeasibleError only where brute
force finds no set.  On a unit-weight k-regular Max instance every set also
meets `kreg_lower_bound`.  The peel also solves Max through `dualize`.
Each name gives the set, or the error, of the library function it stands
for, called with its defaults.

Derandomized, so every run checks the same examples.
"""
import math
import random

from hypothesis import given, settings, strategies as st

from mdd import (BudgetError, InfeasibleError, Instance, MDDError,
                 Objective, OracleConfig, PreconditionError, UNDELETABLE,
                 WeightMode, brute_force_optimum, dualize, generate_gnp,
                 generate_random_regular, kregular_min_exact, mdd_max_cubic,
                 mdd_max_logn)
from mdd.bench import ALGORITHMS, solve
from mdd.exact import DEFAULT_BUDGET

import bruteforce
from testkit import kreg_lower_bound


def _gnp_instance(rng, objective):
    g = generate_gnp(rng.randint(2, 12), rng.choice([0.1, 0.3, 0.5, 0.7, 0.9]),
                     rng.randrange(10**6))
    pool = rng.choice([(1,), (1, 2, 3, 4, 5), (1, 2, 5, UNDELETABLE)])
    return Instance(g, rng.randrange(g.n),
                    [rng.choice(pool) for _ in range(g.n)], objective)


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
    return _gnp_instance(rng, objective)


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
            if name in ("oracle", "kreg-exact"):
                # Only sets that delete an undeletable vertex are feasible.
                assert optimum in (None, math.inf)
            continue
        except BudgetError:
            assert name != "oracle"
            if name == "kreg-exact":
                assert 2 ** inst.graph.degree(inst.p) > DEFAULT_BUDGET
            continue
        except PreconditionError:
            # oracle and logn take every instance; the peel refuses Max.
            assert name == "cubic" or (name == "kreg-exact"
                                       and inst.objective is Objective.MAX)
            continue
        assert bruteforce.check_feasible(inst, solution.vertices)
        assert solution.total_weight == inst.weight_of(solution.vertices)
        assert solution.total_weight >= optimum
        if bounded:
            f = len(inst.graph.adj[inst.p] - solution.vertices)
            assert solution.size >= kreg_lower_bound(inst.graph.n, k, f)
        if name in ("oracle", "kreg-exact"):
            assert solution.vertices == bruteforce.min_deletion_set(inst)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except MDDError as exc:
        return type(exc)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(0, 10**6))
def test_peel_on_the_complement_solves_max(seed):
    # dualize keeps every feasible set and flips Max to Min, so the peel
    # gives the WEIGHTED oracle's set for Max, or its error.
    rng = random.Random(seed)
    g = generate_gnp(rng.randint(1, 12), rng.choice([0.1, 0.3, 0.5, 0.7, 0.9]),
                     rng.randrange(10**6))
    pool = rng.choice([(1, 2, 3, 4, 5, 6, 7, 8, 9), (1, 2, 5, UNDELETABLE)])
    inst = Instance(g, rng.randrange(g.n),
                    [rng.choice(pool) for _ in range(g.n)], Objective.MAX)
    assert _outcome(kregular_min_exact, dualize(inst)) == _outcome(
        brute_force_optimum, inst, OracleConfig(WeightMode.WEIGHTED))


#: The library function behind each registry name.
LIBRARY = {"oracle": brute_force_optimum, "kreg-exact": kregular_min_exact,
           "logn": mdd_max_logn, "cubic": mdd_max_cubic}


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.integers(0, 10**6))
def test_each_name_gives_its_library_call(seed):
    # The registry holds no solver rule of its own (a weight mode, a
    # complement), so `mdd solve --algo X` and the library call agree.
    rng = random.Random(seed)
    inst = _gnp_instance(rng, rng.choice(list(Objective)))
    assert LIBRARY.keys() == ALGORITHMS.keys()
    for name, fn in LIBRARY.items():
        assert _outcome(lambda: solve(name, inst)[0]) == _outcome(fn, inst)
