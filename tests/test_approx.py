import itertools
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from mdd import (BudgetError, DeletionSet, Graph, InfeasibleError, InputError,
                 Instance, Objective, PreconditionError, UNDELETABLE,
                 VerificationError, brute_force_optimum,
                 build_L, dualize, is_feasible, mdd_max_logn,
                 mdd_max_logn_trace, generate_gnp)
from mdd import approx, exact

from bruteforce import min_deletion_weight
from testkit import complete, complete_bipartite, kreg_lower_bound, star


def check_l_invariants(inst, members):
    """Replay the insertion trace and the termination condition."""
    g = inst.graph
    np_open = g.adj[inst.p]
    prefix = set()
    for u in members:
        assert u in np_open
        assert len(g.adj[u] - prefix) >= len(np_open - prefix)
        prefix.add(u)
    for u in np_open - prefix:
        assert len(g.adj[u] - prefix) < len(np_open - prefix)


class TestBuildL:
    def test_star_empty(self):
        inst = Instance(star(3), 0, None, Objective.MAX)
        assert build_L(inst).members == ()

    def test_k4_full_neighborhood(self):
        inst = Instance(complete(4), 0, None, Objective.MAX)
        assert set(build_L(inst).members) == {1, 2, 3}

    def test_low_degree_neighbors_give_empty_l(self):
        # p (vertex 0) has degree 3; each neighbor has degree 2 < 3
        g = Graph(7, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6)])
        inst = Instance(g, 0, None, Objective.MAX)
        assert build_L(inst).members == ()

    def test_invariants_on_random_instances(self):
        for seed in range(30):
            g = generate_gnp(9, 0.45, 2000 + seed)
            inst = Instance(g, seed % 9, None, Objective.MAX)
            members = build_L(inst).members
            check_l_invariants(inst, members)
            dp = g.degree(inst.p)
            assert (members == ()) == all(g.degree(u) < dp
                                          for u in g.adj[inst.p])


class TestMddMaxLogn:
    def test_star_returns_empty(self):
        inst = Instance(star(3), 0, None, Objective.MAX)
        assert mdd_max_logn(inst).vertices == frozenset()

    def test_star_runs_one_branch(self):
        inst = Instance(star(4), 0, None, Objective.MAX)
        trace = mdd_max_logn_trace(inst)
        assert trace.solution.vertices == frozenset()
        assert trace.branches_total == 1       # L is empty: only K = {}

    def test_triangle(self):
        inst = Instance(complete(3), 0, None, Objective.MAX)
        best = mdd_max_logn(inst)
        assert best.vertices == frozenset({1, 2})
        assert best.total_weight == 2
        assert brute_force_optimum(inst).total_weight == 2

    def test_triangle_branch_structure(self):
        inst = Instance(complete(3), 0, None, Objective.MAX)
        trace = mdd_max_logn_trace(inst)
        assert trace.branches_total == 4       # L = {1, 2}
        assert trace.branches_feasible == 1    # only K = L survives
        assert trace.chosen_k == (1, 2)

    def test_full_neighborhood_branch_meets_undeletable(self):
        # L = N(0) = {1, 4, 5, 6}; the branch K = L must delete every other
        # vertex, including the undeletable 3, so only K = {4, 5} survives.
        g = Graph(7, [(0, 1), (0, 4), (0, 5), (0, 6), (1, 4), (1, 5), (2, 3),
                      (2, 5), (2, 6), (3, 5), (4, 6), (5, 6)])
        weights = (1, 1, 1, math.inf, 1, 1, 1)
        trace = mdd_max_logn_trace(Instance(g, 0, weights, Objective.MAX))
        assert sorted(trace.l_set) == [1, 4, 5, 6]
        assert trace.solution.vertices == frozenset({2, 4, 5})
        assert trace.chosen_k == (4, 5)
        assert trace.branches_total == 16
        assert trace.branches_feasible == 1

    def test_k33_matches_oracle(self):
        inst = Instance(complete_bipartite(3, 3), 0, None, Objective.MAX)
        best = mdd_max_logn(inst)
        assert best.total_weight == brute_force_optimum(inst).total_weight == 2

    def test_l_cap_enforced(self, monkeypatch):
        # On K8, |L| = 7.  A cap below it refuses first; a cap above it
        # leaves the budget rule in force.
        inst = Instance(complete(8), 0, None, Objective.MAX)
        with pytest.raises(BudgetError) as err:
            mdd_max_logn(inst, cap_on_L=6)
        assert str(err.value) == ("|L| = 7 exceeds cap 6; "
                                  "branch count 2^|L| would be too large")
        assert mdd_max_logn(inst, cap_on_L=7) == mdd_max_logn(inst)
        monkeypatch.setattr(exact, "DEFAULT_BUDGET", 2 ** 7 - 1)
        with pytest.raises(BudgetError) as err:
            mdd_max_logn(inst, cap_on_L=64)
        assert str(err.value) == ("2^7 branches exceed the budget of 127 "
                                  "search nodes")

    @pytest.mark.parametrize("cap", [-1, 2.5, True, "3"])
    def test_bad_l_cap_is_an_input_error(self, cap):
        # Bad input, not an exhausted budget: the star's L is empty.
        inst = Instance(star(3), 0, None, Objective.MAX)
        with pytest.raises(InputError) as err:
            mdd_max_logn(inst, cap)
        assert str(err.value) == "cap on |L| must be an integer >= 0"

    @pytest.mark.parametrize("m", [0, 1, 4, 7])
    def test_budget_admits_exactly_2_to_the_l_branches(self, monkeypatch, m):
        # On K_{m+1}, L is all of N(p): 2^m branches, each one node of the
        # budget, which is read at call time.
        inst = Instance(complete(m + 1), 0, None, Objective.MAX)
        monkeypatch.setattr(exact, "DEFAULT_BUDGET", 2 ** m)
        trace = mdd_max_logn_trace(inst)
        assert (len(trace.l_set), trace.branches_total) == (m, 2 ** m)
        monkeypatch.setattr(exact, "DEFAULT_BUDGET", 2 ** m - 1)
        with pytest.raises(BudgetError) as err:
            mdd_max_logn_trace(inst)
        assert str(err.value) == (f"2^{m} branches exceed the budget of "
                                  f"{2 ** m - 1} search nodes")

    def test_no_finite_branch_raises_infeasible(self):
        # Beside p's two leaves, an undeletable triangle ties d(p): no
        # branch is feasible.  On K4 only K = L = {1, 2, 3} is, and it
        # deletes the undeletable vertex 1.
        g = Graph(6, [(0, 1), (0, 2), (3, 4), (4, 5), (3, 5)])
        triangle = Instance(g, 0, (1, 1, 1, math.inf, math.inf, math.inf),
                            Objective.MAX)
        k4 = Instance(complete(4), 0, (1, math.inf, 1, 1), Objective.MAX)
        for inst in (triangle, k4):
            with pytest.raises(InfeasibleError) as err:
                mdd_max_logn(inst)
            assert str(err.value) == \
                "every candidate requires an undeletable vertex"

    def test_feasible_and_no_better_than_oracle(self):
        for seed in range(40):
            g = generate_gnp(8, 0.5, 3000 + seed)
            inst = Instance(g, seed % 8, None, Objective.MAX)
            best = mdd_max_logn(inst, cap_on_L=8)
            assert is_feasible(inst, best)
            assert best.total_weight >= brute_force_optimum(inst).total_weight

    def test_low_degree_neighbors_run_one_branch(self):
        # Every neighbor of p below d(p) means L is empty, so the one branch
        # K = {} runs the greedy on V \ N[p] with N(p) undeletable.
        hits = 0
        for seed in range(200):
            g = generate_gnp(9, 0.3, 4000 + seed)
            inst = Instance(g, seed % 9, None, Objective.MAX)
            dp = g.degree(inst.p)
            if any(g.degree(u) >= dp for u in g.adj[inst.p]):
                continue
            hits += 1
            trace = mdd_max_logn_trace(inst)
            assert trace.branches_total == 1
            assert is_feasible(inst, trace.solution)
            assert not trace.solution.vertices & g.adj[inst.p]
        assert hits >= 5

    def test_crowded_sizes_are_walked_lazily(self):
        # p is joined to a_1..a_12, each joined to the 12 vertices of Y;
        # x, of weight inf, is joined to a_1..a_11.  L is all of N(p), x
        # crowds every size from 1 up, and about half of each size's K (those
        # without a_12) pass.  Listing a size's passing K before walking
        # them held about 0.17 MiB at once here.
        a, x, y = range(1, 13), 13, range(14, 26)
        edges = [(0, u) for u in a] + [(x, u) for u in a[:-1]]
        edges += [(u, v) for u in a for v in y]
        weights = [1] * 26
        weights[x] = UNDELETABLE
        inst = Instance(Graph(26, edges), 0, weights, Objective.MAX)
        tracemalloc.start()
        try:
            trace = mdd_max_logn_trace(inst, cap_on_L=12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (trace.branches_total, trace.branches_feasible) == (4096, 2036)
        assert is_feasible(inst, trace.solution)
        assert peak < 2 ** 16

    def test_infeasible_greedy_result_raises(self, monkeypatch):
        # p = 0 has leaves 1 and 2, so L is empty; the triangle 3-4-5 ties
        # its degree, so a feasible set must delete a triangle vertex.  A
        # greedy that deletes nothing makes the branch K = {} the lightest
        # candidate, the empty set, and the final check must reject it.
        g = Graph(6, [(0, 1), (0, 2), (3, 4), (4, 5), (3, 5)])
        inst = Instance(g, 0, None, Objective.MAX)
        monkeypatch.setattr(approx, "f_dependent_delete",
                            lambda prob, removed=(), *, budget=None:
                            frozenset())
        with pytest.raises(VerificationError) as err:
            mdd_max_logn_trace(inst)
        assert err.type is VerificationError
        assert str(err.value) == "branching algorithm selected an infeasible set"

    def test_min_objective_runs_on_the_complement(self):
        # Min runs as Max on the complement, here K3 minus its edges, where
        # every vertex but p must go.
        inst = Instance(complete(3), 0)
        assert mdd_max_logn(inst) == DeletionSet(frozenset({1, 2}), 2)
        assert mdd_max_logn(inst) == mdd_max_logn(dualize(inst))


def largest_start_gain(inst):
    """g_max of a Max instance, from the definition: the largest start gain
    over every K of L.  On G - K every v != p has cap d(p) - |K| - 1 and p
    has cap d(p); the start gain of u is its own excess over its cap plus
    its neighbours over theirs, and only vertices outside N[p] count."""
    g, p = inst.graph, inst.p
    closed = g.closed_neighborhood(p)
    best = 0
    members = build_L(inst).members
    for size in range(len(members) + 1):
        for k in itertools.combinations(members, size):
            kept = set(range(g.n)).difference(k)
            cap = {v: g.degree(p) - size - 1 for v in kept}
            cap[p] = g.degree(p)
            excess = {v: max(0, len(g.adj[v] & kept) - cap[v]) for v in kept}
            best = max([best] + [excess[u] + sum(1 for v in g.adj[u] & kept
                                                 if excess[v])
                                 for u in kept - closed])
    return best


def harmonic(g):
    return sum(Fraction(1, i) for i in range(1, g + 1))


@st.composite
def gnp_instances(draw):
    """G(n, q) with n 5-11, unit, 1-9 or 1-9 and inf weights, either
    objective."""
    n = draw(st.integers(5, 11))
    g = generate_gnp(n, draw(st.sampled_from([0.2, 0.35, 0.5, 0.65, 0.8])),
                     draw(st.integers(0, 10**6)))
    mode = draw(st.sampled_from(["unit", "weighted", "inf"]))
    weights = None
    if mode != "unit":
        weights = tuple(draw(st.integers(1, 9)) for _ in range(n))
    if mode == "inf":
        weights = tuple(UNDELETABLE if draw(st.integers(0, 3)) == 0 else w
                        for w in weights)
    return Instance(g, draw(st.integers(0, n - 1)), weights,
                    draw(st.sampled_from(list(Objective))))


#: A weighted Min instance whose complement has g_max = 1, so the bound is
#: OPT itself: a greedy that picks by gain alone, not gain per weight,
#: returns weight 6 against OPT 1 here.
_GAIN_ONE = Instance(
    Graph(9, [(0, 1), (0, 2), (0, 3), (0, 5), (0, 7), (0, 8), (1, 2),
              (1, 4), (1, 5), (1, 6), (2, 3), (2, 4), (2, 5), (2, 7), (2, 8),
              (3, 4), (3, 5), (3, 6), (3, 7), (3, 8), (4, 5), (4, 6), (4, 7),
              (4, 8), (5, 6), (5, 7), (6, 8), (7, 8)]),
    1, (6, 6, 4, 7, 7, 6, 1, 8, 7), Objective.MIN)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(gnp_instances())
@example(_GAIN_ONE)
def test_logn_within_harmonic_of_largest_start_gain(inst):
    # Each branch runs the greedy for an integer submodular cover, within
    # H(g) of that branch's optimum (Wolsey, 1982), with g its largest start
    # gain; the paper's O(log n) ratio follows.  Min runs as Max on the
    # complement, so g_max is taken there.
    optimum = min_deletion_weight(inst)
    if optimum is None or optimum == math.inf:
        return
    as_max = dualize(inst) if inst.objective is Objective.MIN else inst
    weight = mdd_max_logn(as_max, cap_on_L=inst.graph.n).total_weight
    assert weight <= max(1, harmonic(largest_start_gain(as_max))) * optimum


class TestKregLowerBound:
    def test_values_from_formula(self):
        assert kreg_lower_bound(9, 3, 3) == Fraction(2)
        assert kreg_lower_bound(9, 3, 0) == Fraction(5)

    def test_f_equals_k_reduces_to_weakest(self):
        for n in range(1, 12):
            for k in range(1, 5):
                assert kreg_lower_bound(n, k, k) == Fraction(n - 1, k + 1)

    def test_monotone_consequence(self):
        for n in range(1, 12):
            for k in range(1, 5):
                for f in range(k + 1):
                    assert kreg_lower_bound(n, k, f) >= Fraction(n - 1, k + 1)

    def test_out_of_range(self):
        with pytest.raises(PreconditionError):
            kreg_lower_bound(5, 3, 4)
        with pytest.raises(PreconditionError):
            kreg_lower_bound(0, 3, 1)
