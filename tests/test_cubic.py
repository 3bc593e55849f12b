import re
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from mdd import (Graph, InputError, Instance, Objective,
                 PreconditionError, brute_force_optimum, cubic, subroutines,
                 build_domination_gadget, build_gstar, dominating_set_approx,
                 generate_random_cubic, generate_random_regular,
                 is_dominating, is_feasible,
                 mdd_max_cubic, mdd_max_cubic_trace, normalize_dominating_set)

from bruteforce import min_deletion_weight, min_dissociation_weight
from testkit import complete, complete_bipartite, petersen

#: The end of build_domination_gadget's refusal when some neighbor of p
#: has no neighbor outside N[p].
_NO_DOMINATION_CASE = "the final-degree-3 case does not apply"


def prism():
    # two triangles joined by a matching
    return Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                     (0, 3), (1, 4), (2, 5)])


def k33():
    return complete_bipartite(3, 3)


class TestDominationGadget:
    def test_k33_six_proxies(self):
        # p = 0, N(p) = {3, 4, 5}, each with two neighbors outside N[p]
        inst = Instance(k33(), 0, None, Objective.MAX)
        gadget = build_domination_gadget(inst)
        # the six vertices keep their ids; proxies 6-11 follow, two per x
        assert gadget.gprime.n == 6 + 6
        assert gadget.groups == {3: (6, 7), 4: (8, 9), 5: (10, 11)}
        assert gadget.removed == frozenset({0, 3, 4, 5})
        assert all(gadget.gprime.degree(v) == 0 for v in gadget.removed)
        assert all(gadget.gprime.adj[v] == {1, 2} for v in range(6, 12))

    def test_single_outside_neighbor_single_proxy(self):
        inst = Instance(prism(), 0, None, Objective.MAX)
        gadget = build_domination_gadget(inst)
        # N(p) = {1, 2, 3}; vertices 1 and 2 each see one vertex outside
        # N[p], while 3 sees both of {4, 5}
        assert len(gadget.groups[1]) == 1
        assert len(gadget.groups[2]) == 1
        assert len(gadget.groups[3]) == 2
        assert gadget.gprime.n == 6 + 4

    def test_same_proxy_graph_as_an_edge_list_construction(self):
        # The proxy graph is built from neighbour sets; the edges of G
        # outside N[p] plus the proxy edges give the same graph.
        graphs = [k33(), prism()] + [generate_random_cubic(n, seed)
                                     for n in (8, 12, 20) for seed in range(5)]
        built = 0
        for g in graphs:
            for p in range(g.n):
                try:
                    gadget = build_domination_gadget(
                        Instance(g, p, None, Objective.MAX))
                except PreconditionError as exc:
                    assert str(exc).endswith(_NO_DOMINATION_CASE)
                    continue
                built += 1
                removed = g.closed_neighborhood(p)
                edges = [(u, v) for u in range(g.n) if u not in removed
                         for v in g.adj[u] if u < v and v not in removed]
                groups = {}
                next_id = g.n
                for x in sorted(g.adj[p]):
                    out_x = g.adj[x] - removed
                    groups[x] = tuple(range(next_id, next_id + len(out_x)))
                    edges += [(pid, a) for pid in groups[x] for a in out_x]
                    next_id += len(out_x)
                assert gadget.gprime.adj == Graph(next_id, edges).adj
                assert gadget.groups == groups
                assert gadget.removed == removed
        assert built > 100

    def test_proxy_graph_shares_the_neighbour_sets_it_keeps(self):
        # Every (graph, p) pair of random cubic graphs with even n 8-40
        # (seeds 0-11 up to n = 20, 0-3 above): set for set the proxy graph
        # of neighbour sets rebuilt for every vertex (empty on N[p],
        # a - N[p] elsewhere), and a vertex with no neighbour in N[p]
        # keeps G's own set.
        pairs = 0
        for n in range(8, 41, 2):
            for seed in range(12 if n <= 20 else 4):
                g = generate_random_cubic(n, seed)
                for p in range(n):
                    pairs += 1
                    gadget = cubic._gadget(g, p)
                    removed = g.closed_neighborhood(p)
                    adj = [frozenset() if u in removed else a - removed
                           for u, a in enumerate(g.adj)]
                    groups = {}
                    for x in sorted(g.adj[p]):
                        out_x = g.adj[x] - removed
                        if not out_x:
                            groups = None
                            break
                        groups[x] = tuple(range(len(adj),
                                                len(adj) + len(out_x)))
                        for a in out_x:
                            adj[a] = adj[a].union(groups[x])
                        adj += [out_x] * len(out_x)
                    if groups is None:
                        assert gadget is None
                        continue
                    assert gadget.gprime.adj == tuple(adj)
                    assert gadget.groups == groups
                    assert gadget.removed == removed
                    near = removed | g.neighborhood_of_set(removed)
                    assert all(gadget.gprime.adj[v] is g.adj[v]
                               for v in range(n) if v not in near)
        assert pairs == 2416

    def test_k4_inapplicable(self):
        inst = Instance(complete(4), 0, None, Objective.MAX)
        with pytest.raises(PreconditionError, match="^" + re.escape(
                "neighbor 1 of p has 0 neighbors outside N[p]; "
                + _NO_DOMINATION_CASE) + "$"):
            build_domination_gadget(inst)

    def test_normalize_removes_proxies(self):
        inst = Instance(k33(), 0, None, Objective.MAX)
        gadget = build_domination_gadget(inst)
        d = normalize_dominating_set(gadget, set(range(6, 12)))
        assert d == frozenset({1, 2})
        assert is_dominating(gadget.gprime, d | gadget.removed)

    def test_normalize_rejects_non_dominating(self):
        inst = Instance(k33(), 0, None, Objective.MAX)
        gadget = build_domination_gadget(inst)
        with pytest.raises(PreconditionError):
            normalize_dominating_set(gadget, set())
        # a set that dominates but picks from N[p] is no deletion set
        with pytest.raises(PreconditionError):
            normalize_dominating_set(gadget, {1, 2, 3})

    def test_normalize_rejects_ids_outside_proxy_graph(self):
        inst = Instance(k33(), 0, None, Objective.MAX)
        gadget = build_domination_gadget(inst)
        with pytest.raises(InputError,
                           match=r"^dominating vertex -1 not in range\(12\)$"):
            normalize_dominating_set(gadget, {1, 2, -1})


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(2, 19), st.integers(0, 10**6))
def test_domination_greedy_never_picks_a_proxy(half, seed):
    # An outside neighbor of x covers every undominated vertex a proxy of x
    # covers and has a lower id, so the greedy prefers it.
    g = generate_random_cubic(2 * half, seed)
    for p in range(g.n):
        try:
            gadget = build_domination_gadget(
                Instance(g, p, None, Objective.MAX))
        except PreconditionError as exc:
            assert str(exc).endswith(_NO_DOMINATION_CASE)
            continue
        dom = dominating_set_approx(gadget.gprime, removed=gadget.removed)
        assert all(v < g.n for v in dom)
        assert normalize_dominating_set(gadget, dom) == dom


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.integers(2, 7), st.integers(0, 10**6))
def test_dissociation_counting_bound_is_sound(half, seed):
    # With every cap 1, the vertices of G - R of a cubic G have total excess
    # at least 2(n - |R|) - 3|R|, and one deletion lowers it by at most 5,
    # so every dissociation set of G - R has at least (2n - 5|R|) / 5
    # vertices.  Checked against the optimum for R = fixed | N[p] of every
    # final-degree-2 branch (p, x), as mdd_max_cubic_trace uses it, and,
    # since the argument holds for any R, for R empty and each R = {p},
    # where at these sizes the bound is not vacuous.
    g = generate_random_cubic(2 * half, seed)
    sets = [frozenset()]
    for p in range(g.n):
        sets.append(frozenset({p}))
        for x in sorted(g.adj[p]):
            fixed = cubic._gstar(g, p, x)
            if fixed is not None:
                sets.append(fixed | g.closed_neighborhood(p))
    for removed in set(sets):
        rest, _ = g.induced_subgraph(set(range(g.n)) - removed)
        assert 5 * min_dissociation_weight(rest) >= 2 * g.n - 5 * len(removed)


def _assert_counting_bound_is_outweighs(g, ps):
    # With every cap 1 on a cubic G, every start gain is 5, every weight 1
    # and E0 = 2n, so _outweighs's fractional knapsack over G - R weighs
    # (2n - 5|R|) / 5: the counting bound of mdd_max_cubic_trace is the
    # greedy layer's bound, for every final-degree-2 branch of each p in
    # `ps` and every budget 0 <= b < n.  Below 0 only _outweighs settles the
    # branch, and the greedy then returns None at once.
    prob = subroutines.FDepProblem.uniform(g, 1)
    for p in ps:
        for x in sorted(g.adj[p]):
            fixed = cubic._gstar(g, p, x)
            if fixed is None:
                continue
            removed = fixed | g.closed_neighborhood(p)
            for b in range(g.n):
                assert (2 * g.n - 5 * len(removed) > 5 * b) == \
                    subroutines._outweighs(prob, removed, b)
            assert subroutines._outweighs(prob, removed, -1)
            assert subroutines.f_dependent_delete(prob, removed,
                                                  budget=-1) is None


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(4, 20), st.integers(0, 10**6))
def test_dissociation_counting_bound_is_the_knapsack_bound(half, seed):
    g = generate_random_cubic(2 * half, seed)
    _assert_counting_bound_is_outweighs(g, range(g.n))


@pytest.mark.parametrize("n", [200, 202, 204, 206, 208, 250])
def test_counting_bound_is_the_knapsack_bound_at_cubic_large_sizes(n):
    # Sizes of the cubic benchmark, with 2n taking every residue mod 5 (a
    # bound off by one excess unit shows only at some), seeds 0-3 and eight
    # values of p each: the K loop may settle these branches by the closed
    # form alone.
    for seed in range(4):
        g = generate_random_cubic(n, seed)
        _assert_counting_bound_is_outweighs(g, [i * n // 8 for i in range(8)])


class TestGStar:
    def test_k33_branch(self):
        # p = 0, delete x = 3: survivors y = 4, z = 5 are non-adjacent,
        # N(y) u N(z) = {0, 1, 2}, so fixed u N[p] is every vertex and
        # nothing is left for the dissociation greedy.
        inst = Instance(k33(), 0, None, Objective.MAX)
        fixed = build_gstar(inst, 3)
        assert fixed == frozenset({1, 2, 3})
        assert fixed | inst.graph.closed_neighborhood(0) == set(range(6))

    def test_prism_adjacent_survivors_inapplicable(self):
        inst = Instance(prism(), 0, None, Objective.MAX)
        # deleting x = 3 leaves y = 1, z = 2 which are adjacent
        with pytest.raises(PreconditionError, match="^surviving neighbors 1 "
                           "and 2 are adjacent; branch at x=3 does not apply$"):
            build_gstar(inst, 3)

    def test_non_neighbor_rejected(self):
        inst = Instance(k33(), 0, None, Objective.MAX)
        with pytest.raises(PreconditionError):
            build_gstar(inst, 1)


class TestMddMaxCubic:
    def test_k4_full_deletion(self):
        inst = Instance(complete(4), 0, None, Objective.MAX)
        trace = mdd_max_cubic_trace(inst)
        assert trace.solution.size == 3
        assert trace.case == "full"

    def test_k33_domination_case(self):
        inst = Instance(k33(), 0, None, Objective.MAX)
        trace = mdd_max_cubic_trace(inst)
        # {1, 2} and {4, 5} are both optimal; lexicographic tie-break
        assert trace.solution.vertices == frozenset({1, 2})
        assert trace.solution.size == brute_force_optimum(inst).size == 2
        assert trace.case == "domination"

    def test_rejects_non_cubic(self):
        with pytest.raises(PreconditionError):
            mdd_max_cubic(Instance(Graph.cycle(5), 0, None, Objective.MAX))

    def test_rejects_single_vertex(self):
        # One vertex is 0-regular: a refusal, not a crash.
        with pytest.raises(PreconditionError, match="^graph is not 3-regular$"):
            mdd_max_cubic_trace(Instance(Graph(1), 0, None, Objective.MAX))

    def test_rejects_min_objective(self):
        with pytest.raises(PreconditionError):
            mdd_max_cubic(Instance(k33(), 0))

    @pytest.mark.parametrize("inst, message", [
        (Instance(Graph.cycle(5), 0, None, Objective.MAX),
         "graph is not 3-regular"),
        (Instance(k33(), 0), "cubic algorithm handles objective Max only"),
        (Instance(k33(), 0, (1, 1, 2, 1, 1, 1), Objective.MAX),
         "cubic algorithm requires unit weights"),
    ], ids=["non-cubic", "min", "non-unit"])
    def test_trace_checks_the_instance(self, inst, message):
        with pytest.raises(PreconditionError, match=f"^{message}$"):
            mdd_max_cubic_trace(inst)

    def test_a_branch_stops_on_an_earlier_branch(self, monkeypatch):
        # On random cubic graphs no final-degree-2 candidate was found
        # smaller than the domination one, so that case is taken out here:
        # on cubic n = 8, seed 1, p = 2, the branch at x = 4 gives size 3,
        # and the one at x = 7, of size 4, stops on that best.
        monkeypatch.setattr(cubic, "_gadget", lambda g, p: None)
        trace = mdd_max_cubic_trace(
            Instance(generate_random_cubic(8, 1), 2, None, Objective.MAX))
        assert trace.candidate_sizes == (("dissociation", 3), ("full", 7))
        assert trace.stopped == 1
        assert trace.solution.vertices == {1, 4, 5}

    def test_two_final_degree_2_branches_run(self):
        # Both final-degree-2 branches run to the end, each tying the best
        # size 5, so neither is stopped; a best size updated wrongly after
        # the first would stop the second.
        g = generate_random_regular(12, 3, 5)
        trace = mdd_max_cubic_trace(Instance(g, 6, None, Objective.MAX))
        assert trace.solution.vertices == {0, 2, 4, 9, 10}
        assert trace.case == "domination"
        assert trace.candidate_sizes == (
            ("domination", 5), ("dissociation", 5), ("dissociation", 5),
            ("full", 11))
        assert trace.stopped == 0

    def test_worst_known_ratio_is_pinned(self):
        # The worst cubic ratio known, found by a search aimed at the greedy:
        # on this n = 16 graph with p = 1 the optimum {2, 6, 9, 11} lies in
        # the final-degree-3 case, yet the domination greedy picks 7 and the
        # dissociation candidate has 7 too.  7/4 exceeds the paper's 1.583
        # (19/12).  A change that lowers the ratio updates this pin; one
        # that raises it fails here.
        g = Graph(16, [(0, 2), (0, 8), (0, 12), (1, 7), (1, 13), (1, 15),
                       (2, 4), (2, 15), (3, 9), (3, 10), (3, 14), (4, 6),
                       (4, 7), (5, 9), (5, 10), (5, 12), (6, 10), (6, 13),
                       (7, 11), (8, 11), (8, 14), (9, 12), (11, 14),
                       (13, 15)])
        inst = Instance(g, 1, None, Objective.MAX)
        trace = mdd_max_cubic_trace(inst)
        assert trace.solution.vertices == {0, 2, 3, 4, 5, 6, 8}
        assert trace.case == "domination"
        assert trace.candidate_sizes == (("domination", 7),
                                         ("dissociation", 7), ("full", 15))
        assert trace.stopped == 1
        assert brute_force_optimum(inst).vertices == {2, 6, 9, 11}
        assert min_deletion_weight(inst) == 4
        ratio = Fraction(trace.solution.size, 4)
        assert ratio == Fraction(7, 4) > Fraction(19, 12)

    def test_settled_branches_build_no_dissociation_problem(self):
        # On cubic n = 200 the counting bound settles every final-degree-2
        # branch, so each trace runs the greedy once, for the domination
        # candidate, and builds no dissociation problem, while `stopped`
        # still counts every branch that applies.
        for seed in range(3):
            g = generate_random_cubic(200, seed)
            for p in range(0, 200, 25):
                greedy = mock.Mock(wraps=subroutines.f_dependent_delete)
                problems = mock.Mock(wraps=cubic.FDepProblem)
                with mock.patch.object(subroutines, "f_dependent_delete",
                                       greedy), \
                        mock.patch.object(cubic, "f_dependent_delete",
                                          greedy), \
                        mock.patch.object(cubic, "FDepProblem", problems):
                    trace = mdd_max_cubic_trace(
                        Instance(g, p, None, Objective.MAX))
                assert not problems.uniform.called
                assert greedy.call_count == 1
                assert greedy.call_args.kwargs == {}
                assert trace.case == "domination"
                assert trace.stopped == sum(
                    cubic._gstar(g, p, x) is not None for x in g.adj[p])
                assert trace.candidate_sizes[1:] == (("full", 199),)

    def test_petersen_all_p(self):
        g = petersen()
        for p in range(g.n):
            inst = Instance(g, p, None, Objective.MAX)
            sol = mdd_max_cubic(inst)
            assert is_feasible(inst, sol)
            assert sol.size >= brute_force_optimum(inst).size

    def test_random_cubic_feasible_and_bounded(self):
        for seed in range(20):
            g = generate_random_cubic(10, seed)
            inst = Instance(g, seed % g.n, None, Objective.MAX)
            sol = mdd_max_cubic(inst)
            assert is_feasible(inst, sol)
            opt = brute_force_optimum(inst)
            assert opt.size <= sol.size <= 2 * max(opt.size, 1)
