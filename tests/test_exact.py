import math
import random

import pytest

from mdd import (BudgetError, Graph, InfeasibleError, InputError, Instance,
                 Objective, OracleConfig, PreconditionError, UNDELETABLE,
                 WeightMode,
                 brute_force_optimum, dualize, is_feasible,
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

    def test_budget_error(self):
        inst = Instance(Graph.cycle(5), 0)
        with pytest.raises(BudgetError):
            brute_force_optimum(inst, OracleConfig(budget=3))

    def test_budget_counts_search_nodes(self):
        # The search visits 8 nodes on C5; with the heavy vertices 2 and 3
        # the weight prune skips one of them.  At {1, 2} the violator 3
        # shares its neighbour 4 with p, so deleting 4 cannot close the gap
        # and only 3 is tried.  Visiting a set twice, branching on a common
        # neighbour, or a branch heavier than the best set found, would
        # need more.
        for weights, mode, nodes in [(None, WeightMode.CARDINALITY, 8),
                                     ((1, 1, 9, 9, 1), WeightMode.WEIGHTED, 7)]:
            inst = Instance(Graph.cycle(5), 0, weights)
            best = brute_force_optimum(inst, OracleConfig(mode, budget=nodes))
            assert best.vertices == frozenset({1, 4})
            with pytest.raises(BudgetError):
                brute_force_optimum(inst, OracleConfig(mode, budget=nodes - 1))

    def test_complete_graph_min_branches_once_per_vertex(self):
        # On K_18 every vertex shares all its other neighbours with p, so
        # each fixing set is the violator alone: one path of 18 nodes down
        # to V - {p}.  A fixing set that kept the common neighbours would
        # branch over all of N(p) at every level.
        inst = Instance(complete(18), 0)
        best = brute_force_optimum(inst, OracleConfig(budget=18))
        assert best.vertices == frozenset(range(1, 18))
        with pytest.raises(BudgetError):
            brute_force_optimum(inst, OracleConfig(budget=17))

    @pytest.mark.parametrize("field, value", [
        ("weight_mode", "weighted"), ("budget", "3"), ("budget", True)])
    def test_config_rejects_what_it_cannot_use(self, field, value):
        # A string weight_mode used to run CARDINALITY silently, a string
        # budget raised TypeError and a bool budget was taken as 1.  Each
        # is a malformed value.
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

    def test_rejects_irregular(self):
        with pytest.raises(PreconditionError):
            kregular_min_exact(Instance(star(3), 0))

    def test_rejects_weighted(self):
        inst = Instance(Graph.cycle(5), 0, (1, 2, 1, 1, 1))
        with pytest.raises(PreconditionError):
            kregular_min_exact(inst)

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
