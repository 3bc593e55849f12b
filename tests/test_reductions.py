import itertools
import re

import pytest

from mdd import (Graph, InputError, Instance, Objective,
                 PreconditionError, SetSystem, brute_force_optimum,
                 cubic_gadget, generate_random_cubic, is_feasible,
                 mindom_cubic_to_mddmax_cubic, mindom_to_mddmin,
                 setcover_to_mddmax_bip, setcover_to_mddmin_bip)

from bruteforce import min_cover_size, min_domset_size
from testkit import (complete, is_bipartite, is_cover, lift_solution,
                     project_solution, star, vertices_with_role)


class TestSetSystem:
    def test_rejects_uncoverable(self):
        with pytest.raises(InputError):
            SetSystem(3, [{0, 1}])

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError):
            SetSystem(2, [{0, 1, 2}])

    def test_rejects_non_int_elements(self):
        with pytest.raises(InputError,
                           match=r"^element 0\.0 not in range\(2\)$"):
            SetSystem(2, ({0.0, 1}, {1}))

    @pytest.mark.parametrize("size", [1.5, True])
    def test_rejects_non_int_universe(self, size):
        with pytest.raises(InputError, match="^universe must be non-empty$"):
            SetSystem(size, ({0},))

    def test_rejects_empty_set(self):
        # The text format cannot write an empty set, so none may exist.
        with pytest.raises(InputError, match="^set 1 is empty$"):
            SetSystem(2, [{0, 1}, set()])

    def test_occurrences_and_cover(self):
        sys = SetSystem(3, [{0, 1}, {1, 2}, {2}])
        assert sys.occurrences(1) == 2
        assert is_cover(sys, {0, 1})
        assert not is_cover(sys, {0})


class TestMindomToMddmin:
    def test_single_edge_layout(self):
        art = mindom_to_mddmin(Graph(2, [(0, 1)]))
        h = art.instance.graph
        assert h.n == 9
        assert art.instance.p == 2
        assert art.roles == ("original", "original", "p",
                             "T", "T", "T", "T", "T", "T")
        # both original vertices land at degree n = 2
        assert h.degree(0) == h.degree(1) == 2

    def test_round_trip_small_graphs(self):
        graphs = [Graph(2, [(0, 1)]), Graph.path(3), Graph.cycle(4),
                  star(3), complete(3)]
        for g in graphs:
            art = mindom_to_mddmin(g)
            opt = brute_force_optimum(art.instance)
            dom = project_solution(art, opt)
            assert len(dom) <= opt.size
            back = lift_solution(art, dom)
            assert is_feasible(art.instance, back)
            # costs match exactly in both directions
            assert opt.size == min_domset_size(g)
            assert back.size == len(dom)

    def test_forward_rejects_non_dominating(self):
        art = mindom_to_mddmin(Graph.path(3))
        with pytest.raises(PreconditionError):
            lift_solution(art, {0})

    def test_backward_rejects_infeasible(self):
        art = mindom_to_mddmin(Graph.path(3))
        with pytest.raises(PreconditionError):
            project_solution(art, set())


class TestSetcoverToMddminBip:
    def test_singleton_system(self):
        art = setcover_to_mddmin_bip(SetSystem(1, [{0}]))
        assert is_bipartite(art.instance.graph)
        opt = brute_force_optimum(art.instance)
        assert len(project_solution(art, opt)) == 1

    def test_requires_r_le_t(self):
        with pytest.raises(PreconditionError, match=r"^construction needs "
                           r"r <= t \(got r=3, t=2\)$"):
            setcover_to_mddmin_bip(SetSystem(3, [{0, 1}, {2}]))

    def test_cost_equality_small_systems(self):
        systems = [SetSystem(2, [{0}, {1}]),
                   SetSystem(2, [{0, 1}, {1}]),
                   SetSystem(3, [{0, 1}, {1, 2}, {0, 2}]),
                   SetSystem(3, [{0}, {1}, {2}, {0, 1, 2}])]
        for sys in systems:
            art = setcover_to_mddmin_bip(sys)
            assert is_bipartite(art.instance.graph)
            opt = brute_force_optimum(art.instance)
            cover = project_solution(art, opt)
            assert is_cover(sys, cover)
            assert len(cover) <= opt.size
            assert opt.size == min_cover_size(sys)
            back = lift_solution(art, cover)
            assert is_feasible(art.instance, back)
            assert back.size == len(cover)

    def test_roles_partition(self):
        sys = SetSystem(2, [{0}, {1}, {0, 1}])
        art = setcover_to_mddmin_bip(sys)
        assert len(vertices_with_role(art, "U")) == 2
        assert len(vertices_with_role(art, "F")) == 3
        assert len(vertices_with_role(art, "C")) == 3
        assert len(vertices_with_role(art, "D")) == 3
        assert vertices_with_role(art, "p") == [art.instance.p]


class TestSetcoverToMddmaxBip:
    def test_preconditions(self):
        with pytest.raises(PreconditionError, match=r"^construction needs "
                           r"r <= t \(got r=3, t=2\)$"):
            setcover_to_mddmax_bip(SetSystem(3, [{0, 1}, {2}]))  # r > t
        with pytest.raises(PreconditionError, match="^element 0 occurs in "
                           "every set; pendant padding impossible$"):
            setcover_to_mddmax_bip(SetSystem(1, [{0}, {0}]))  # occ = t
        # |F_0| = t here, but occ(0) = t too, and occurrences come first.
        with pytest.raises(PreconditionError, match="^element 0 occurs in "
                           "every set; pendant padding impossible$"):
            setcover_to_mddmax_bip(SetSystem(2, [{0, 1}, {0}]))
        with pytest.raises(PreconditionError, match="^set 0 has 3 elements; "
                           "its vertex would tie p at degree t$"):
            setcover_to_mddmax_bip(
                SetSystem(3, [{0, 1, 2}, {0}, {1}]))  # |F_0| = t

    def test_degree_structure(self):
        sys = SetSystem(2, [{0}, {1}, {0, 1}])
        art = setcover_to_mddmax_bip(sys)
        h = art.instance.graph
        t = sys.num_sets
        assert is_bipartite(h)
        assert h.degree(art.instance.p) == t
        for v in vertices_with_role(art, "U"):
            assert h.degree(v) == t
        for v in vertices_with_role(art, "F"):
            assert h.degree(v) < t

    def test_cost_equality_small_systems(self):
        systems = [SetSystem(2, [{0}, {1}, {0, 1}]),
                   SetSystem(3, [{0, 1}, {1, 2}, {0, 2}]),
                   SetSystem(3, [{0}, {1}, {2}, {0, 1}])]
        for sys in systems:
            art = setcover_to_mddmax_bip(sys)
            opt = brute_force_optimum(art.instance)
            cover = project_solution(art, opt)
            assert is_cover(sys, cover)
            assert len(cover) <= opt.size
            assert opt.size == min_cover_size(sys)
            back = lift_solution(art, cover)
            assert is_feasible(art.instance, back)
            assert back.size == len(cover)

    def test_normalization_handles_element_deletions(self):
        sys = SetSystem(2, [{0}, {1}, {0, 1}])
        art = setcover_to_mddmax_bip(sys)
        f_ids = vertices_with_role(art, "F")
        u_ids = vertices_with_role(art, "U")
        s = {u_ids[0], f_ids[1], f_ids[2]}
        assert is_feasible(art.instance, s)
        # element 0 is replaced by the first set containing it
        assert project_solution(art, s) == {0, 1, 2}

    def test_normalization_handles_element_pendants(self):
        sys = SetSystem(2, [{0}, {1}, {1}])
        art = setcover_to_mddmax_bip(sys)
        u_ids = vertices_with_role(art, "U")
        pendant = next(v for v in vertices_with_role(art, "I")
                       if art.instance.graph.adj[v] == {u_ids[0]})
        s = {vertices_with_role(art, "F")[1], pendant}
        assert is_feasible(art.instance, s)
        # the pendant of element 0 stands for the first set containing 0
        assert project_solution(art, s) == {0, 1}


class TestCubicReduction:
    def test_gadget_oracle(self):
        g, p = cubic_gadget()
        assert g.regular_degree() == 3
        inst = Instance(g, p, None, Objective.MAX)
        opt = brute_force_optimum(inst)
        assert opt.vertices == frozenset({4, 5})  # d and e

    def test_gadget_minimal_solutions_contain_de(self):
        g, p = cubic_gadget()
        inst = Instance(g, p, None, Objective.MAX)
        others = [v for v in range(6) if v != p]
        for size in range(6):
            for combo in itertools.combinations(others, size):
                if not is_feasible(inst, combo):
                    continue
                s = set(combo)
                minimal = not any(is_feasible(inst, s - {v}) for v in s)
                if minimal:
                    assert {4, 5} <= s

    def test_round_trip(self):
        for seed in range(5):
            g = generate_random_cubic(8, seed)
            art = mindom_cubic_to_mddmax_cubic(g)
            assert art.instance.graph.regular_degree() == 3
            opt = brute_force_optimum(art.instance)
            dom = project_solution(art, opt)
            assert len(dom) <= opt.size - 2
            back = lift_solution(art, dom)
            assert is_feasible(art.instance, back)
            assert back.size == len(dom) + 2
            assert opt.size == min_domset_size(g) + 2

    def test_rejects_non_cubic_source(self):
        with pytest.raises(PreconditionError):
            mindom_cubic_to_mddmax_cubic(Graph.cycle(5))


#: One artifact per construction and a source solution of it, labelled by
#: what lifting that solution does.
FORWARD = {
    "domset_to_mddmin_solution":
        (mindom_to_mddmin(Graph.path(3)), {0, 1, 2}),
    "cover_to_mddmin_bip_solution":
        (setcover_to_mddmin_bip(SetSystem(2, [{0}, {1}, {0, 1}])), {0, 1, 2}),
    "cover_to_mddmax_bip_solution":
        (setcover_to_mddmax_bip(SetSystem(2, [{0}, {1}, {0, 1}])), {0, 1, 2}),
    "domset_to_mddmax_cubic_solution":
        (mindom_cubic_to_mddmax_cubic(complete(4)), {0, 1, 2, 3}),
}


@pytest.mark.parametrize("art, source_solution", FORWARD.values(),
                         ids=FORWARD.keys())
def test_forward_mapper_rejects_out_of_range(art, source_solution):
    # A valid source solution plus one index just outside range(n) or
    # range(t) on either side; Python's negative indexing must not accept -1.
    lift_solution(art, source_solution)
    source = art.source
    on_graph = isinstance(source, Graph)
    bound = source.n if on_graph else source.num_sets
    what = "vertex" if on_graph else "set index"
    for bad in (-1, bound):
        with pytest.raises(InputError, match="^" + re.escape(
                f"{what} {bad} not in range({bound})") + "$"):
            lift_solution(art, set(source_solution) | {bad})


def test_forward_maps_reject_negative_ids():
    with pytest.raises(InputError, match=r"^vertex -1 not in range\(3\)$"):
        lift_solution(mindom_to_mddmin(complete(3)), {-1})
    art = setcover_to_mddmin_bip(SetSystem(2, [{0}, {1}, {0, 1}]))
    with pytest.raises(InputError,
                       match=r"^set index -1 not in range\(3\)$"):
        lift_solution(art, {-1})


def test_maps_reject_non_int_ids():
    # {True} would read as set 1, which alone covers.
    art = setcover_to_mddmin_bip(SetSystem(2, [{0}, {0, 1}]))
    for solution, bad in (({0.0, 1}, "0.0"), ({True}, "True")):
        with pytest.raises(InputError,
                           match=f"^set index {bad} not in range\\(2\\)$"):
            lift_solution(art, solution)
    with pytest.raises(InputError, match=r"^vertex True not in range\(9\)$"):
        project_solution(art, {True})
