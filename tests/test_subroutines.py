import random
import re

import pytest

from mdd import (FDepProblem, Graph, InfeasibleError, InputError,
                 UNDELETABLE, dissociation_delete,
                 dominating_set_approx, f_dependent_delete, generate_gnp, is_dominating)

from bruteforce import min_domset_weight, min_dissociation_weight, min_fdep_weight
from testkit import check_degree_caps, complete, star


class TestFDependentDelete:
    def test_star_cap_one(self):
        prob = FDepProblem.uniform(star(4), 1)
        assert f_dependent_delete(prob) == frozenset({0})

    def test_already_satisfied(self):
        g = generate_gnp(8, 0.4, 7)
        caps = tuple(g.degree(v) for v in range(g.n))
        prob = FDepProblem(g, caps, tuple([1] * g.n))
        assert f_dependent_delete(prob) == frozenset()

    def test_triangle_cap_zero_with_undeletable(self):
        prob = FDepProblem(complete(3), (0, 0, 0),
                           (UNDELETABLE, 1, 1))
        assert f_dependent_delete(prob) == frozenset({1, 2})

    def test_infeasible_reported(self):
        # both endpoints of an edge undeletable and capped at 0
        prob = FDepProblem(Graph.path(2), (0, 0), (UNDELETABLE, UNDELETABLE))
        with pytest.raises(InfeasibleError):
            f_dependent_delete(prob)

    def test_negative_cap_forces_deletion(self):
        g = Graph(3, [(0, 1)])
        prob = FDepProblem(g, (-1, 0, 0), (1, 1, 1))
        deleted = f_dependent_delete(prob)
        assert 0 in deleted

    def test_exempt_vertices_untouched_by_constraints(self):
        # A cap of the vertex's own degree never binds.
        g = star(4)
        prob = FDepProblem(g, (4, 0, 0, 0, 0), (1, 1, 1, 1, 1))
        deleted = f_dependent_delete(prob)
        # leaves need degree 0; deleting the center achieves it in one move
        assert deleted == frozenset({0})

    def test_output_recheck_random(self):
        rng = random.Random(5)
        for trial in range(40):
            g = generate_gnp(rng.randint(4, 10), rng.uniform(0.2, 0.7), trial)
            caps = tuple(rng.choice([g.degree(v), 0, 1, 2]) for v in range(g.n))
            weights = tuple(rng.randint(1, 5) for _ in range(g.n))
            prob = FDepProblem(g, caps, weights)
            deleted = f_dependent_delete(prob)
            assert check_degree_caps(prob, deleted)
            assert f_dependent_delete(prob) == deleted  # deterministic

    def test_weight_within_band_of_optimum(self):
        rng = random.Random(11)
        for trial in range(25):
            g = generate_gnp(rng.randint(4, 9), 0.5, 400 + trial)
            caps = tuple(rng.choice([0, 1, 2]) for _ in range(g.n))
            weights = tuple(rng.randint(1, 4) for _ in range(g.n))
            prob = FDepProblem(g, caps, weights)
            deleted = f_dependent_delete(prob)
            got = sum(weights[v] for v in deleted)
            opt = min_fdep_weight(prob)
            assert opt is not None
            assert got <= 3 * max(opt, 1)

    def test_removed_vertices_are_absent(self):
        # Without the center, the leaves have degree 0 and meet cap 0.
        prob = FDepProblem(star(3), (0, 0, 0, 0), (1, 1, 1, 1))
        assert f_dependent_delete(prob, {0}) == frozenset()
        assert check_degree_caps(prob, {0})
        assert not check_degree_caps(prob, ())

    def test_removed_vertex_never_returned(self):
        # Path 0-1-2-3 capped at 0 with 1 removed: the edge 2-3 remains,
        # and 2 is the lowest id that fixes it.
        prob = FDepProblem(Graph.path(4), (0, 0, 0, 0), (1, 1, 1, 1))
        assert f_dependent_delete(prob, {1}) == frozenset({2})

    def test_removed_vertex_with_negative_cap(self):
        # A removed vertex may be over its cap, as K is in the log n
        # branches when d(p) <= |K|: its excess leaves with it.
        prob = FDepProblem(star(3), (-1, 0, 0, 0), (1, 1, 1, 1))
        assert f_dependent_delete(prob) == frozenset({0})
        assert f_dependent_delete(prob, {0}) == frozenset()
        prob = FDepProblem(Graph.path(3), (-1, 0, 0), (1, 1, 1))
        assert f_dependent_delete(prob, (0,)) == frozenset({1})

    def test_removed_out_of_range(self):
        prob = FDepProblem(Graph.path(3), (0, 0, 0), (1, 1, 1))
        for removed in ({3}, {-1}, {"0"}):
            message = (f"^removed vertex {re.escape(repr(*removed))} "
                       r"not in range\(3\)$")
            with pytest.raises(InputError, match=message):
                f_dependent_delete(prob, removed)
            with pytest.raises(InputError, match=message):
                dominating_set_approx(prob.graph, removed=removed)

    def test_check_degree_caps_rejects_ids_outside_graph(self):
        prob = FDepProblem(Graph.path(3), (0, 0, 0), (1, 1, 1))
        with pytest.raises(InputError,
                           match="^deleted vertices must be vertex ids$"):
            check_degree_caps(prob, {99})

    def test_budget_stops_above_the_set_weight(self):
        # Center 0 of a 4-leaf star is over its cap 1 by 3; deleting it
        # (weight 2) clears all of it, where the leaves clear 1 each.
        prob = FDepProblem(star(4), (1,) * 5, (2, 1, 1, 1, 1))
        assert f_dependent_delete(prob) == frozenset({0})
        assert f_dependent_delete(prob, budget=2) == frozenset({0})
        assert f_dependent_delete(prob, budget=1) is None
        assert f_dependent_delete(prob, budget=-1) is None

    def test_budget_must_be_an_integer(self):
        prob = FDepProblem.uniform(star(4), 1)
        for budget in (1.5, True, "3", UNDELETABLE):
            with pytest.raises(InputError,
                               match="^budget must be an integer$"):
                f_dependent_delete(prob, budget=budget)

    def test_non_integer_cap_rejected(self):
        for cap in (None, 1.5):
            with pytest.raises(InputError, match="^caps must be integers$"):
                FDepProblem(Graph.path(3), (cap, 0, 0), (1, 1, 1))


def test_bools_are_not_vertex_ids():
    prob = FDepProblem(Graph.path(3), (0, 0, 0), (1, 1, 1))
    with pytest.raises(InputError,
                       match=r"^removed vertex True not in range\(3\)$"):
        f_dependent_delete(prob, {True})
    # False comes first in the set's iteration order.
    with pytest.raises(InputError,
                       match=r"^dominating vertex False not in range\(2\)$"):
        is_dominating(Graph.path(2), {True, False})


def test_bools_are_not_caps_or_weights():
    with pytest.raises(InputError, match="^caps must be integers$"):
        FDepProblem(Graph.path(3), (True, 0, 0), (1, 1, 1))
    with pytest.raises(InputError, match="^caps must be integers$"):
        FDepProblem.uniform(Graph.path(3), True)
    with pytest.raises(InputError, match="^weight True is neither"):
        FDepProblem(Graph.path(3), (0, 0, 0), (True, 1, 1))


@pytest.mark.parametrize("weights", [(0, 1, 1, 1), (-1, 1, 1, 1),
                                     (2.5, 1, 1, 1)])
def test_weights_outside_domain_rejected(weights):
    message = f"^weight {weights[0]!r} is neither a positive integer"
    with pytest.raises(InputError, match=message):
        FDepProblem.uniform(star(3), 1, weights)
    with pytest.raises(InputError, match=message):
        dominating_set_approx(star(3), weights=weights)


@pytest.mark.parametrize("weights", [(1,), (1, 1, 1, 1)])
def test_dominating_set_weights_length_checked(weights):
    # FDepProblem's check, the one length rule of the greedy layer.
    with pytest.raises(InputError, match=r"^cap/weights length must "
                       r"equal vertex count$"):
        dominating_set_approx(Graph.path(3), weights=weights)


class TestDominatingSet:
    def test_star(self):
        assert dominating_set_approx(star(4)) == frozenset({0})

    def test_c4_size_two(self):
        result = dominating_set_approx(Graph.cycle(4))
        assert is_dominating(Graph.cycle(4), result)
        assert len(result) == 2
        assert min_domset_weight(Graph.cycle(4)) == 2

    def test_empty_graph_needs_everything(self):
        g = Graph(5)
        assert dominating_set_approx(g) == frozenset(range(5))

    def test_forbidden_respected(self):
        g = Graph.cycle(5)
        result = dominating_set_approx(
            g, (UNDELETABLE, UNDELETABLE, 1, 1, 1))
        assert is_dominating(g, result)
        assert not (result & {0, 1})

    def test_isolated_forbidden_vertex_infeasible(self):
        g = Graph(3, [(0, 1)])
        with pytest.raises(InfeasibleError):
            dominating_set_approx(g, (1, 1, UNDELETABLE))
        # a removed vertex needs no dominator
        assert dominating_set_approx(g, (1, 1, UNDELETABLE), {2}) == {0}

    def test_weight_within_band_of_optimum(self):
        rng = random.Random(21)
        for trial in range(25):
            g = generate_gnp(rng.randint(4, 9), 0.5, 800 + trial)
            weights = tuple(rng.randint(1, 4) for _ in range(g.n))
            result = dominating_set_approx(g, weights=weights)
            assert is_dominating(g, result)
            got = sum(weights[v] for v in result)
            opt = min_domset_weight(g, weights=weights)
            assert got <= 3 * max(opt, 1)


@pytest.mark.parametrize("g, vertices", [
    # Python's negative indexing would alias a real vertex.
    (Graph.path(2), {-1}),
    (Graph.path(3), {-2}),
    # Past the end: no vertex to index.
    (Graph.path(2), {5}),
])
def test_is_dominating_rejects_ids_outside_graph(g, vertices):
    with pytest.raises(InputError, match="^" + re.escape(
            f"dominating vertex {min(vertices)} not in range({g.n})") + "$"):
        is_dominating(g, vertices)


class TestDissociationDelete:
    def test_path4(self):
        g = Graph.path(4)
        result = dissociation_delete(g)
        assert len(result) == 1
        assert result <= {1, 2}

    def test_perfect_matching_untouched(self):
        g = Graph(6, [(0, 1), (2, 3), (4, 5)])
        assert dissociation_delete(g) == frozenset()

    def test_triangle_single_deletion(self):
        assert len(dissociation_delete(complete(3))) == 1

    def test_removed_vertices_are_absent(self):
        g = Graph.path(5)
        prob = FDepProblem.uniform(g, 1)
        assert f_dependent_delete(prob, {2}) == frozenset()
        assert f_dependent_delete(prob, {0}) == frozenset({2})

    def test_max_degree_after(self):
        rng = random.Random(31)
        for trial in range(25):
            g = generate_gnp(rng.randint(4, 10), 0.5, 1200 + trial)
            result = dissociation_delete(g)
            remaining = set(range(g.n)) - result
            assert all(len(g.adj[v] & remaining) <= 1 for v in remaining)
            opt = min_dissociation_weight(g)
            assert len(result) <= 3 * max(opt, 1)
