"""End-to-end acceptance checks, one per headline property.

Each test prints a single pass/fail line so the suite doubles as a checklist
when run with `pytest -v -s tests/test_acceptance.py`.
"""
import itertools
import random
import statistics
from contextlib import contextmanager
from fractions import Fraction

from mdd import (FDepProblem, Graph, Instance, Objective, OracleConfig,
                 SetSystem, WeightMode, brute_force_optimum, build_L,
                 cubic_gadget, dissociation_delete, dominating_set_approx,
                 f_dependent_delete, generate_gnp, generate_random_cubic,
                 generate_random_regular, is_dominating, is_feasible,
                 kregular_min_exact, mdd_max_cubic, mdd_max_logn,
                 mindom_cubic_to_mddmax_cubic, mindom_to_mddmin,
                 setcover_to_mddmax_bip, setcover_to_mddmin_bip)
from bruteforce import (all_feasible_sets, min_cover_size,
                        min_deletion_weight, min_dissociation_weight,
                        min_domset_size, min_domset_weight, min_fdep_weight,
                        remaining_degrees)
from testkit import (check_degree_caps, complete, complete_bipartite,
                     is_bipartite, is_cover, kreg_lower_bound, lift_solution,
                     petersen, project_solution)


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"criterion {num} ({label}): FAIL")
        raise
    print(f"criterion {num} ({label}): PASS")


def all_labeled_graphs(n):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for bits in range(1 << len(pairs)):
        yield Graph(n, [e for i, e in enumerate(pairs) if bits >> i & 1])


def _connected(g):
    seen, stack = {0}, [0]
    while stack:
        for u in g.adj[stack.pop()] - seen:
            seen.add(u)
            stack.append(u)
    return len(seen) == g.n


def small_cubic_graphs():
    prism = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                      (0, 3), (1, 4), (2, 5)])
    out = [complete(4), complete_bipartite(3, 3), prism,
           petersen()]
    out += [generate_random_cubic(n, seed)
            for n, seed in [(6, 1), (8, 2), (8, 3), (10, 4)]]
    return out


def test_criterion_1_duality():
    """Max on G and Min on the complement have identical optima."""
    with criterion(1, "duality"):
        rng = random.Random(101)
        cfg = OracleConfig(weight_mode=WeightMode.WEIGHTED)
        for trial in range(200):
            n = rng.randint(4, 9)
            g = generate_gnp(n, rng.uniform(0.2, 0.8), 10_000 + trial)
            if trial % 2:
                weights = tuple(rng.randint(1, 5) for _ in range(n))
            else:
                weights = None
            for p in range(n):
                primal = Instance(g, p, weights, Objective.MAX)
                dual = Instance(g.complement(), p, weights, Objective.MIN)
                a = brute_force_optimum(primal, cfg)
                b = brute_force_optimum(dual, cfg)
                assert a.total_weight == b.total_weight
                assert a.vertices == b.vertices


def test_criterion_2_regular_exactness():
    """The regular-graph solver is optimal and uses at most 2k-1 deletions."""
    with criterion(2, "regular exactness"):
        checked = 0
        for k in (2, 3, 4):
            for n in range(k + 1, 13):
                if n * k % 2:
                    continue
                for seed in range(3):
                    g = generate_random_regular(n, k, 20_000 + seed)
                    if not _connected(g):
                        continue
                    inst = Instance(g, (seed * 7) % n)
                    exact = kregular_min_exact(inst)
                    assert exact == brute_force_optimum(inst)
                    assert exact.size <= 2 * k - 1
                    checked += 1
        assert checked >= 50


def test_criterion_3_lower_bound():
    """Every feasible Max set on a cubic graph meets the size bound."""
    with criterion(3, "cubic lower bound"):
        for g in small_cubic_graphs():
            if g.n > 10:
                continue
            for p in (0, g.n // 2):
                inst = Instance(g, p, None, Objective.MAX)
                for s in all_feasible_sets(inst):
                    f = len(g.adj[p] - s)
                    bound = kreg_lower_bound(g.n, 3, f)
                    assert Fraction(len(s)) >= bound
                    assert Fraction(len(s)) >= Fraction(g.n - 1, 4)


def test_criterion_4_gadget_optimum():
    """The 6-vertex gadget costs exactly 2 and shifts domination by 2."""
    with criterion(4, "gadget optimum"):
        gadget, gp = cubic_gadget()
        opt = brute_force_optimum(Instance(gadget, gp, None, Objective.MAX))
        assert opt.vertices == frozenset({4, 5})
        assert opt.size == 2
        done = 0
        seed = 0
        while done < 20:
            seed += 1
            n = 6 + 2 * (seed % 3)
            g = generate_random_cubic(n, 30_000 + seed)
            art = mindom_cubic_to_mddmax_cubic(g)
            combined_opt = brute_force_optimum(art.instance).size
            assert combined_opt == min_domset_size(g) + 2
            done += 1


def _check_mindom_source(g):
    art = mindom_to_mddmin(g)
    opt = brute_force_optimum(art.instance)
    dom = project_solution(art, opt)
    assert len(dom) <= opt.size
    back = lift_solution(art, dom)
    assert is_feasible(art.instance, back)
    assert opt.size == min_domset_size(g)


def _check_setcover_source(sys):
    source_opt = min_cover_size(sys)
    builders = []
    if sys.universe_size <= sys.num_sets:
        builders.append(setcover_to_mddmin_bip)
    t = sys.num_sets
    if (sys.universe_size <= t
            and all(sys.occurrences(x) <= t - 1
                    for x in range(sys.universe_size))
            and all(len(f) <= t - 1 for f in sys.family)):
        builders.append(setcover_to_mddmax_bip)
    for build in builders:
        art = build(sys)
        assert is_bipartite(art.instance.graph)
        opt = brute_force_optimum(art.instance)
        cover = project_solution(art, opt)
        assert is_cover(sys, cover)
        assert len(cover) <= opt.size
        assert is_feasible(art.instance, lift_solution(art, cover))
        assert opt.size == source_opt


def test_criterion_5_cost_preservation():
    """Constructed instances keep the source optimum exactly.

    Sources: every labeled graph on up to 4 vertices plus random samples at
    5 and 6 vertices; every set system with r = t = 2 or r <= t = 3 plus
    random samples up to r = 4, t = 5.
    """
    with criterion(5, "cost preservation"):
        for n in (1, 2, 3, 4):
            for g in all_labeled_graphs(n):
                _check_mindom_source(g)
        for n, seed in [(5, 1), (5, 2), (5, 3), (5, 4), (5, 5),
                        (6, 1), (6, 2), (6, 3), (6, 4), (6, 5)]:
            _check_mindom_source(generate_gnp(n, 0.4, 40_000 + seed))

        def nonempty_subsets(r):
            return [frozenset(c) for size in range(1, r + 1)
                    for c in itertools.combinations(range(r), size)]

        for r, t in [(2, 2), (2, 3), (3, 3)]:
            for family in itertools.product(nonempty_subsets(r), repeat=t):
                if frozenset().union(*family) != frozenset(range(r)):
                    continue
                _check_setcover_source(SetSystem(r, family))
        rng = random.Random(55)
        for r, t in [(3, 4), (3, 5), (4, 4), (4, 5)]:
            subsets = nonempty_subsets(r)
            for _ in range(8):
                family = tuple(rng.choice(subsets) for _ in range(t))
                if frozenset().union(*family) != frozenset(range(r)):
                    continue
                _check_setcover_source(SetSystem(r, family))


def test_criterion_6_branching_structure():
    """Neighborhood prefix invariants, optimum preservation under the
    prefix restriction, and solver quality on 100 random instances."""
    with criterion(6, "branching structure"):
        ratios = []
        count = 0
        seed = 0
        while count < 100:
            seed += 1
            n = 8 + seed % 3
            g = generate_gnp(n, 0.25 + (seed % 5) * 0.08, 50_000 + seed)
            p = seed % n
            inst = Instance(g, p, None, Objective.MAX)
            members = build_L(inst).members
            if len(members) > 4:
                continue
            count += 1
            # (a) insertion and termination invariants
            prefix = set()
            for u in members:
                assert u in g.adj[p]
                assert len(g.adj[u] - prefix) >= len(g.adj[p] - prefix)
                prefix.add(u)
            for u in g.adj[p] - prefix:
                assert len(g.adj[u] - prefix) < len(g.adj[p] - prefix)
            # (b) forbidding N(p) outside the prefix preserves the optimum
            full = min_deletion_weight(inst)
            restricted = min_deletion_weight(inst, excluded=g.adj[p] - prefix)
            assert full == restricted
            # (c) solver output is feasible and no better than the optimum
            sol = mdd_max_logn(inst, cap_on_L=8)
            assert is_feasible(inst, sol)
            assert sol.total_weight >= full
            if full > 0:
                ratios.append(sol.total_weight / full)
            else:
                assert sol.total_weight == 0
                ratios.append(1.0)
        assert statistics.median(ratios) <= 1.5


def test_criterion_7_cubic_algorithm():
    """Cubic solver feasibility, trivial-solution bound, empirical ratio,
    and impossibility of final degree 1."""
    with criterion(7, "cubic algorithm"):
        for trial in range(100):
            n = (8, 10, 12, 14, 16)[trial % 5]
            g = generate_random_cubic(n, 60_000 + trial)
            inst = Instance(g, trial % n, None, Objective.MAX)
            sol = mdd_max_cubic(inst)
            assert is_feasible(inst, sol)
            assert sol.size <= n - 1
            if n <= 12:
                opt = brute_force_optimum(inst).size
                assert sol.size <= 2.0 * opt
        for g in small_cubic_graphs():
            if g.n > 10:
                continue
            inst = Instance(g, 0, None, Objective.MAX)
            for s in all_feasible_sets(inst):
                assert remaining_degrees(g, s)[0] != 1


def test_criterion_8_subroutines():
    """Greedy subroutines always satisfy their constraints and stay within
    3x of the exhaustive subproblem optimum at small sizes."""
    with criterion(8, "subroutines"):
        rng = random.Random(8)
        for trial in range(170):
            g = generate_gnp(rng.randint(3, 10), rng.uniform(0.2, 0.7),
                             70_000 + trial)
            caps = tuple(rng.choice([g.degree(v), 0, 1, 2]) for v in range(g.n))
            weights = tuple(rng.randint(1, 5) for _ in range(g.n))
            prob = FDepProblem(g, caps, weights)
            deleted = f_dependent_delete(prob)
            assert check_degree_caps(prob, deleted)
            opt = min_fdep_weight(prob)
            got = sum(weights[v] for v in deleted)
            assert got <= 3 * max(opt, 1)
        for trial in range(170):
            g = generate_gnp(rng.randint(3, 10), rng.uniform(0.2, 0.7),
                             80_000 + trial)
            weights = tuple(rng.randint(1, 5) for _ in range(g.n))
            result = dominating_set_approx(g, weights=weights)
            assert is_dominating(g, result)
            got = sum(weights[v] for v in result)
            assert got <= 3 * max(min_domset_weight(g, weights=weights), 1)
        for trial in range(160):
            g = generate_gnp(rng.randint(3, 10), rng.uniform(0.2, 0.7),
                             90_000 + trial)
            result = dissociation_delete(g)
            remaining = set(range(g.n)) - result
            assert all(len(g.adj[v] & remaining) <= 1 for v in remaining)
            assert len(result) <= 3 * max(min_dissociation_weight(g), 1)
