import re

import pytest
from hypothesis import given, settings, strategies as st

from mdd import (UNDELETABLE, Graph, Instance, InputError, Objective,
                 PreconditionError, generate_gnp, is_feasible)

from mdd.graph import is_valid_weight

from bruteforce import check_feasible
from testkit import (complete, complete_bipartite, is_bipartite, petersen,
                     star)


def _graph_from_bits(n, bits):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph(n, [e for i, e in enumerate(pairs) if bits >> i & 1])


def small_graphs():
    """Hypothesis strategy: a random simple graph on up to 8 vertices."""
    return st.integers(min_value=1, max_value=8).flatmap(
        lambda n: st.integers(
            min_value=0, max_value=2 ** (n * (n - 1) // 2) - 1
        ).map(lambda bits: _graph_from_bits(n, bits)))


class TestGraphBasics:
    def test_rejects_self_loop(self):
        with pytest.raises(InputError):
            Graph(3, [(0, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError):
            Graph(3, [(0, 3)])

    @pytest.mark.parametrize("n", [2.0, True, -1, "3"])
    def test_vertex_count_must_be_a_non_negative_int(self, n):
        with pytest.raises(InputError,
                           match="^vertex count must be a non-negative integer$"):
            Graph(n)

    @pytest.mark.parametrize("edge", [(True, 0), (0, False), (0, 1.0),
                                      (0, "1"), (-1, 0)])
    def test_endpoints_must_be_vertex_ids(self, edge):
        with pytest.raises(InputError, match=re.escape(
                f"edge ({edge[0]!r}, {edge[1]!r}) out of range for n=3")):
            Graph(3, [edge])

    def test_parallel_edges_collapse(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.num_edges == 1

    def test_symmetry(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        for u in range(4):
            for v in g.adj[u]:
                assert u in g.adj[v]

    def test_petersen_is_cubic(self):
        g = petersen()
        assert g.n == 10
        assert g.regular_degree() == 3

    def test_empty_graph_has_no_regular_degree(self):
        assert Graph(0).regular_degree() is None

    def test_single_vertex_is_zero_regular(self):
        assert Graph(1).regular_degree() == 0

    def test_equal_vertex_counts_with_different_edges_differ(self):
        assert Graph(3, [(0, 1)]) != Graph(3, [(1, 2)])

    def test_never_equals_a_non_graph(self):
        assert (Graph(2) == "x") is False

    def test_bipartite_detection(self):
        assert is_bipartite(complete_bipartite(2, 3))
        assert not is_bipartite(complete(3))
        assert is_bipartite(Graph.cycle(6))
        assert not is_bipartite(Graph.cycle(5))


class TestComplement:
    def test_triangle_to_empty(self):
        assert complete(3).complement().num_edges == 0

    def test_path_complement(self):
        g = Graph.path(3).complement()
        assert g.edges() == [(0, 2)]

    def test_matches_edge_list_construction(self):
        for n in range(31):
            for q in (0.0, 0.1, 0.5, 0.7, 1.0):
                g = generate_gnp(n, q, 1000 * n + int(10 * q))
                edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                         if v not in g.adj[u]]
                assert g.complement() == Graph(n, edges)

    @settings(max_examples=60, deadline=None)
    @given(small_graphs())
    def test_involution(self, g):
        assert g.complement().complement() == g

    @settings(max_examples=60, deadline=None)
    @given(small_graphs())
    def test_degree_sum(self, g):
        gc = g.complement()
        for v in range(g.n):
            assert g.degree(v) + gc.degree(v) == g.n - 1


class TestInducedSubgraph:
    def test_cycle_to_path(self):
        sub, remap = Graph.cycle(5).induced_subgraph([0, 1, 2])
        assert remap == (0, 1, 2)
        assert sub == Graph.path(3)

    def test_full_keep_is_identity(self):
        g = petersen()
        sub, remap = g.induced_subgraph(range(10))
        assert sub == g
        assert remap == tuple(range(10))

    def test_k4_to_k3(self):
        sub, _ = complete(4).induced_subgraph([0, 2, 3])
        assert sub == complete(3)

    def test_invalid_vertex(self):
        with pytest.raises(InputError):
            complete(3).induced_subgraph([0, 5])

    @pytest.mark.parametrize("keep, bad", [([True, 2], True), ([1.0, 2], 1.0),
                                           (["a"], "a"), ([0, -1], -1),
                                           ([2, 1, "a", 3], "a")])
    def test_ids_must_be_vertex_ids(self, keep, bad):
        # The first entry that is not a vertex id is named, before any
        # dedup or sort could fold a bool into an int or fail on a str.
        with pytest.raises(InputError, match="^" + re.escape(
                f"vertex {bad!r} not in range(3)") + "$"):
            Graph.path(3).induced_subgraph(keep)


class TestInstance:
    def test_p_out_of_range(self):
        with pytest.raises(InputError):
            Instance(complete(3), 3)

    def test_bad_weight(self):
        with pytest.raises(InputError):
            Instance(complete(3), 0, (1, 0, 1))

    @pytest.mark.parametrize("p", [True, 1.0])
    def test_p_must_be_an_int(self, p):
        with pytest.raises(InputError,
                           match=f"^distinguished vertex {p} out of range$"):
            Instance(complete(3), p)

    def test_bool_weight_rejected(self):
        assert not is_valid_weight(True)
        with pytest.raises(InputError, match="^weight of vertex 1 must be"):
            Instance(complete(3), 0, (1, True, 1))

    def test_infinite_weight_allowed(self):
        from mdd import UNDELETABLE
        inst = Instance(complete(3), 0, (1, UNDELETABLE, 2))
        assert inst.weight(1) == UNDELETABLE
        assert not inst.unit_weights


class TestFeasibility:
    def test_star_center_max(self):
        inst = Instance(star(3), 0, None, Objective.MAX)
        assert is_feasible(inst, set())

    def test_triangle_two_survivors_tie(self):
        inst = Instance(complete(3), 0, None, Objective.MAX)
        assert not is_feasible(inst, {1})

    def test_vacuous_uniqueness(self):
        for objective in Objective:
            inst = Instance(petersen(), 3, None, objective)
            assert is_feasible(inst, set(range(10)) - {3})

    def test_deleting_an_undeletable_vertex_is_infeasible(self):
        g = generate_gnp(5, 0.5, 0)
        assert is_feasible(Instance(g, 0, None, Objective.MAX), {1, 2})
        weights = (1, UNDELETABLE, 1, 1, 1)
        inst = Instance(g, 0, weights, Objective.MAX)
        assert not is_feasible(inst, {1, 2})
        # Ids are range-checked before any weight is read: 1 comes first
        # in the set's iteration order.
        assert list(frozenset({1, 7})) == [1, 7]
        with pytest.raises(InputError, match=r"^vertex 7 not in range\(5\)$"):
            is_feasible(inst, {1, 7})

    @pytest.mark.parametrize("vertex", [True, 1.5, "a"])
    def test_non_int_vertex_rejected(self, vertex):
        inst = Instance(complete(3), 0)
        with pytest.raises(InputError,
                           match=f"^vertex {re.escape(repr(vertex))} "
                                 r"not in range\(3\)$"):
            is_feasible(inst, {vertex})

    def test_p_in_set_rejected(self):
        inst = Instance(complete(3), 0)
        with pytest.raises(PreconditionError):
            is_feasible(inst, {0})

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(small_graphs(), st.data())
    def test_agrees_with_recount(self, g, data):
        # Unit, 1-9 and UNDELETABLE weights in both objectives: a set is
        # feasible iff it deletes no UNDELETABLE vertex and the recount
        # from scratch agrees.
        p = data.draw(st.integers(0, g.n - 1))
        weight = data.draw(st.sampled_from([
            st.just(1), st.integers(1, 9),
            st.one_of(st.integers(1, 9), st.just(UNDELETABLE))]))
        weights = data.draw(st.lists(weight, min_size=g.n, max_size=g.n))
        inst = Instance(g, p, weights, data.draw(st.sampled_from(list(Objective))))
        s = data.draw(st.sets(st.integers(0, g.n - 1))) - {p}
        deletable = all(weights[v] != UNDELETABLE for v in s)
        assert is_feasible(inst, s) == (deletable and check_feasible(inst, s))
