import math
import random
import tracemalloc

import pytest

from mdd import (BudgetError, DeletionSet, Graph, InfeasibleError,
                 InputError, Instance, Objective, OracleConfig, UNDELETABLE,
                 WeightMode,
                 brute_force_optimum, exact, dualize, is_feasible,
                 kregular_min_exact, generate_gnp, generate_random_regular)

from bruteforce import check_feasible, min_deletion_set
from reference_exact import kregular_feasible_witness
from testkit import complete, petersen, star


class TestOracle:
    def test_star_center_max_empty(self):
        inst = Instance(star(3), 0, None, Objective.MAX)
        best = brute_force_optimum(inst)
        assert best.vertices == frozenset()
        assert best.total_weight == 0

    def test_c5_min_deletes_both_neighbors(self):
        inst = Instance(Graph.cycle(5), 0)
        best = brute_force_optimum(inst)
        assert best.vertices == frozenset({1, 4})
        assert best.size == 2

    def test_k33_max(self):
        # parts {0, 4, 5} / {1, 2, 3}; p = 0 must outgrow its part partners
        g = Graph(6, [(0, 1), (0, 2), (0, 3), (4, 1), (4, 2), (4, 3),
                      (5, 1), (5, 2), (5, 3)])
        inst = Instance(g, 0, None, Objective.MAX)
        best = brute_force_optimum(inst)
        assert best.vertices == frozenset({4, 5})

    def test_default_budget_is_two_million_nodes(self):
        # Read unpatched: the other budget tests patch it.
        assert exact.DEFAULT_BUDGET == 2_000_000

    def test_budget_error(self, monkeypatch):
        inst = Instance(Graph.cycle(5), 0)
        monkeypatch.setattr(exact, "DEFAULT_BUDGET", 3)
        with pytest.raises(BudgetError, match="^oracle budget of 3 search "
                           "nodes exhausted$"):
            brute_force_optimum(inst)

    def test_budget_counts_search_nodes(self, monkeypatch):
        # The search visits 8 nodes on C5; with the heavy vertices 2 and 3
        # the weight prune skips one of them.  At {1, 2} the violator 3
        # shares its neighbour 4 with p, so deleting 4 cannot close the gap
        # and only 3 is tried.  Visiting a set twice, branching on a common
        # neighbour, or a branch heavier than the best set found, would
        # need more.
        for weights, mode, nodes in [(None, WeightMode.CARDINALITY, 8),
                                     ((1, 1, 9, 9, 1), WeightMode.WEIGHTED, 7)]:
            inst = Instance(Graph.cycle(5), 0, weights)
            monkeypatch.setattr(exact, "DEFAULT_BUDGET", nodes)
            best = brute_force_optimum(inst, OracleConfig(mode))
            assert best.vertices == frozenset({1, 4})
            monkeypatch.setattr(exact, "DEFAULT_BUDGET", nodes - 1)
            with pytest.raises(BudgetError):
                brute_force_optimum(inst, OracleConfig(mode))

    def test_complete_graph_min_branches_once_per_vertex(self, monkeypatch):
        # On K_18 every vertex shares all its other neighbours with p, so
        # each fixing set is the violator alone: one path of 18 nodes down
        # to V - {p}.  A fixing set that kept the common neighbours would
        # branch over all of N(p) at every level.
        inst = Instance(complete(18), 0)
        monkeypatch.setattr(exact, "DEFAULT_BUDGET", 18)
        best = brute_force_optimum(inst)
        assert best.vertices == frozenset(range(1, 18))
        monkeypatch.setattr(exact, "DEFAULT_BUDGET", 17)
        with pytest.raises(BudgetError):
            brute_force_optimum(inst)

    @pytest.mark.parametrize("field, value", [("weight_mode", "weighted")])
    def test_config_rejects_what_it_cannot_use(self, field, value):
        # A string weight_mode used to run CARDINALITY silently: a
        # malformed value.
        with pytest.raises(InputError):
            OracleConfig(**{field: value})

    def test_weighted_mode(self):
        # deleting the two light neighbors beats one heavy vertex elsewhere
        inst = Instance(Graph.cycle(5), 0, (1, 1, 9, 9, 1), Objective.MIN)
        cfg = OracleConfig(weight_mode=WeightMode.WEIGHTED)
        best = brute_force_optimum(inst, cfg)
        assert best.vertices == frozenset({1, 4})
        assert best.total_weight == 2

    def test_matches_independent_enumeration(self):
        for seed in range(15):
            g = generate_gnp(7, 0.4, seed)
            inst = Instance(g, seed % 7, None,
                            Objective.MAX if seed % 2 else Objective.MIN)
            cfg = OracleConfig(weight_mode=WeightMode.WEIGHTED)
            assert brute_force_optimum(inst, cfg).vertices == min_deletion_set(inst)

    def test_matches_independent_enumeration_weighted(self):
        for seed in range(15):
            rng = random.Random(seed)
            g = generate_gnp(7, 0.4, seed)
            inst = Instance(g, seed % 7, [rng.randint(1, 9) for _ in range(7)],
                            Objective.MAX if seed % 2 else Objective.MIN)
            cfg = OracleConfig(weight_mode=WeightMode.WEIGHTED)
            assert brute_force_optimum(inst, cfg).vertices == min_deletion_set(inst)

    def test_matches_independent_enumeration_undeletable(self):
        # The independent enumeration may delete an UNDELETABLE vertex at
        # infinite weight; the oracle then finds nothing feasible.
        infeasible = 0
        for seed in range(30):
            rng = random.Random(seed)
            g = generate_gnp(7, 0.4, seed)
            weights = [UNDELETABLE if rng.random() < 0.3 else rng.randint(1, 9)
                       for _ in range(7)]
            inst = Instance(g, seed % 7, weights,
                            Objective.MAX if seed % 2 else Objective.MIN)
            cfg = OracleConfig(weight_mode=WeightMode.WEIGHTED)
            expected = min_deletion_set(inst)
            if expected is None or inst.weight_of(expected) == math.inf:
                infeasible += 1
                with pytest.raises(InfeasibleError):
                    brute_force_optimum(inst, cfg)
            else:
                assert brute_force_optimum(inst, cfg).vertices == expected
        assert 0 < infeasible < 30

    def test_determinism(self):
        inst = Instance(generate_gnp(8, 0.5, 3), 2, None, Objective.MAX)
        a = brute_force_optimum(inst)
        b = brute_force_optimum(inst)
        assert a == b


class TestDualize:
    def test_involution(self):
        inst = Instance(generate_gnp(6, 0.5, 1), 2, None, Objective.MAX)
        assert dualize(dualize(inst)) == inst

    def test_star_duality(self):
        inst = Instance(star(3), 0, None, Objective.MAX)
        dual = dualize(inst)
        assert dual.objective is Objective.MIN
        assert dual.graph.degree(0) == 0
        assert brute_force_optimum(dual).vertices == frozenset()

    def test_k4_duality(self):
        inst = Instance(complete(4), 0, None, Objective.MAX)
        a = brute_force_optimum(inst)
        b = brute_force_optimum(dualize(inst))
        assert a.total_weight == b.total_weight == 3

    def test_feasibility_transfers(self):
        for seed in range(10):
            g = generate_gnp(7, 0.5, 100 + seed)
            inst = Instance(g, 0, None, Objective.MAX)
            dual = dualize(inst)
            for s in ({1}, {2, 3}, {1, 4, 5}, set(range(1, 7))):
                assert is_feasible(inst, s) == is_feasible(dual, s)


class TestKRegular:
    def test_exact_c5(self):
        assert kregular_min_exact(Instance(Graph.cycle(5), 0)).size == 2

    def test_exact_k4(self):
        assert kregular_min_exact(Instance(complete(4), 0)).size == 3

    def test_exact_petersen_matches_oracle(self):
        for p in range(10):
            inst = Instance(petersen(), p)
            exact = kregular_min_exact(inst)
            assert exact.size <= 5
            assert exact == brute_force_optimum(inst)

    def test_irregular_matches_oracle(self):
        # The peel reads d(p), not a regular degree: on the star every
        # leaf must go.
        inst = Instance(star(3), 0)
        exact = kregular_min_exact(inst)
        assert exact.vertices == frozenset({1, 2, 3})
        assert exact == brute_force_optimum(
            inst, OracleConfig(WeightMode.WEIGHTED))

    def test_weighted_matches_oracle(self):
        # Weight first: on the second graph one heavy vertex fixes p, but
        # two light ones weigh less.
        cfg = OracleConfig(WeightMode.WEIGHTED)
        inst = Instance(Graph.cycle(5), 0, (1, 2, 1, 1, 1))
        exact = kregular_min_exact(inst)
        assert exact == brute_force_optimum(inst, cfg)
        assert exact == DeletionSet(frozenset({1, 4}), 3)
        g = Graph(7, [(0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 6), (2, 3),
                      (2, 4), (2, 6), (3, 5), (5, 6)])
        inst = Instance(g, 0, (1, 1, 1, 1, 5, 1, 5))
        assert brute_force_optimum(
            inst, OracleConfig(WeightMode.CARDINALITY)).vertices == frozenset({4})
        exact = kregular_min_exact(inst)
        assert exact == brute_force_optimum(inst, cfg)
        assert exact == DeletionSet(frozenset({3, 5}), 2)

    def test_random_regular_matches_oracle(self):
        # k = 0 included: on an edgeless graph every vertex but p goes.
        cfg = OracleConfig(WeightMode.CARDINALITY)
        for seed, (n, k) in enumerate([(8, 2), (8, 3), (9, 4), (10, 3),
                                       (6, 1), (10, 5), (11, 6), (12, 5),
                                       (12, 6)]
                                      + [(n, 0) for n in range(1, 8)]):
            g = generate_random_regular(n, k, seed)
            for p in range(n):
                inst = Instance(g, p)
                assert kregular_min_exact(inst) == brute_force_optimum(inst, cfg)

    def test_peel_keeps_only_the_best_peel(self):
        # p is joined to 10 vertices of a 40-clique, from which 300 leaves
        # hang: each of the 1,024 peels deletes up to 340 ids, about 5 MiB
        # held at once if every peel were kept.  The best is K = N(p) with
        # the 80 leaves it strands.
        clique = range(1, 41)
        edges = [(u, v) for u in clique for v in clique if u < v]
        edges += [(0, c) for c in range(1, 11)]
        edges += [(1 + i % 40, 41 + i) for i in range(300)]
        inst = Instance(Graph(341, edges), 0)
        tracemalloc.start()
        try:
            exact_set = kregular_min_exact(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stranded = {41 + i for i in range(300) if i % 40 < 10}
        assert exact_set == DeletionSet.of(inst, set(range(1, 11)) | stranded)
        assert peak < 2 ** 20

    def test_peel_count_over_budget_raises_at_once(self):
        # K_22 needs 2^21 peels, over the 2,000,000-node oracle budget.
        with pytest.raises(BudgetError):
            kregular_min_exact(Instance(complete(22), 0))

    def test_dense_regular_matches_oracle(self):
        inst = Instance(generate_random_regular(24, 12, 1), 0)
        assert kregular_min_exact(inst) == brute_force_optimum(inst)

    @pytest.mark.parametrize("n, k, seed", [(3000, 3, 3), (1000, 4, 5)])
    def test_large_regular_feasible_within_witness(self, n, k, seed):
        # Far beyond the subset enumeration of reference_exact.py.
        g = generate_random_regular(n, k, seed)
        for p in (0, 1, n // 2, n - 1):
            inst = Instance(g, p)
            exact = kregular_min_exact(inst)
            assert check_feasible(inst, exact.vertices)
            assert exact.size <= kregular_feasible_witness(inst).size <= 2 * k - 1
