"""Workload inputs and the solver calls the benchmark makes on them.

Every input is generated from the workload seed through `mdd.generators`, so
one seed always gives the same instances, and nothing here calls a solver or
its helpers: the inputs do not change when the solver does.  Each workload
is a fixed list of jobs (one solver call on one instance); a round is one
pass over that list.

Runs with different seeds are compared with each other, so a round must
look alike from seed to seed.  Instances are drawn the natural way (random
graph, random weights, p at random); where solve time is heavy-tailed, the
draws are stratified by what the time depends on, with each stratum's share
taken from the natural distribution.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

import checker

# logn-sparse: G(n, 0.1) max instances, p at random.  Solve time grows
# as 2^|L| n^3, and the weight of the result is highest when d(p) <= 1
# (nearly every vertex must go), so the round is stratified by
# (|L|, min(d(p), 2)) and n: LOGN_STRATA[key] instances fall in stratum key,
# with n evenly spread over LOGN_N.  The counts are 240 times the share of
# each stratum among natural (graph, p) pairs (n uniform in LOGN_N),
# measured on 20000 graphs and rounded by largest remainder; |L| >= 11 has
# share 0.0004 and gets none.  test_perfbench re-measures the shares.
LOGN_N = (40, 60)
LOGN_EDGE_PROB = 0.1
LOGN_STRATA = {(0, 0): 2, (0, 2): 11, (1, 1): 8, (1, 2): 5, (2, 2): 23,
               (3, 2): 36, (4, 2): 44, (5, 2): 42, (6, 2): 33, (7, 2): 21,
               (8, 2): 10, (9, 2): 4, (10, 2): 1}
LOGN_MAX_DRAWS = 1000    # per instance; |L| = 10 takes about 10
LOGN_MAX_L = 64          # admits every instance: |L| <= d(p) < n <= 60
# Every second instance gets balanced integer weights 1-5, and every fourth
# also UNDELETABLE_PER_INSTANCE undeletable vertices, placed where a witness
# still proves the instance feasible; after PLACEMENT_TRIES failed placements
# the instance keeps finite weights.
UNDELETABLE_PER_INSTANCE = 2
PLACEMENT_TRIES = 20

# cubic-large: two random cubic graphs for every even n from 200 to 298,
# unit weights, p uniform.  Solve time grows about as n^2.
CUBIC_SIZES = tuple(n for n in range(200, 300, 2) for _ in range(2))

# exact-small: (label, instances, graph family, n, objective, oracle weight
# mode, solvers scored against the oracle).  G(n, q) instances have
# balanced integer weights 1-9 and one undeletable vertex; cubic and regular
# solvers need unit weights.  The instances of a G(n, q) family take p at evenly spaced
# quantiles of (|L|, d(p)) in the graph the log n algorithm sees, a
# stratified form of p at random: the time of the log n algorithm grows as
# 2^|L|, and how much must be deleted depends on where d(p) stands.  The
# CARDINALITY oracle stops at the optimum size, so its time spans four
# orders of magnitude from instance to instance; it runs on fewer G(n, q)
# instances, so that the median of solve time is not set by it.
# Min instances are drawn from G(n, 0.7), so that the graph the dual route
# hands to the log n algorithm, their complement, is a G(n, 0.3) graph.  On
# G(n, 0.3) min instances that complement is dense, |L| reaches 12-14, and
# one dual-route call takes 1-3 s, longer than the oracle it is scored
# against.
EXACT_FAMILIES = (
    ("gnp-max-w", 160, "gnp", 17, "max", "weighted", ("logn",)),
    ("gnp-min-w", 160, "gnp", 17, "min", "weighted", ("dual-logn",)),
    ("gnp-max-c", 16, "gnp", 17, "max", "cardinality", ("logn",)),
    ("gnp-min-c", 16, "gnp", 17, "min", "cardinality", ("dual-logn",)),
    ("cubic-max", 12, "regular", 18, "max", "cardinality", ("logn", "cubic")),
    ("regular-min", 12, "regular", 20, "min", "cardinality", ("kreg",)),
)
EXACT_EDGE_PROB = {"max": 0.3, "min": 0.7}
EXACT_MAX_L = 64         # admits every instance: |L| < n <= 20


@dataclass(frozen=True)
class Job:
    """One solver call.  `role` is "oracle", "exact" or "approx"; exact and
    approximate results are compared with the oracle result for the same
    instance id, which comes earlier in the job list."""

    instance_id: str
    solver: str
    inst: object
    role: str
    arg: object = None


def _solve_logn_trace(m, inst, max_l):
    return m.approx.mdd_max_logn_trace(inst, max_l).solution


def _solve_cubic_trace(m, inst, _):
    return m.cubic.mdd_max_cubic_trace(inst).solution


def _solve_oracle(m, inst, mode):
    cfg = m.exact.OracleConfig(weight_mode=m.exact.WeightMode(mode))
    return m.exact.brute_force_optimum(inst, cfg)


def _solve_kreg(m, inst, _):
    return m.exact.kregular_min_exact(inst)


def _solve_logn(m, inst, max_l):
    return m.approx.mdd_max_logn(inst, max_l)


def _solve_dual_logn(m, inst, max_l):
    # MDD(min) through the complement: the same vertex set solves both.
    return m.approx.mdd_max_logn(m.exact.dualize(inst), max_l)


def _solve_cubic(m, inst, _):
    return m.cubic.mdd_max_cubic(inst)


# Solvers are looked up on the package's modules at call time, so that the
# traced run sees the wrappers installed there.
SOLVERS = {
    "logn-trace": _solve_logn_trace,
    "cubic-trace": _solve_cubic_trace,
    "oracle": _solve_oracle,
    "kreg": _solve_kreg,
    "logn": _solve_logn,
    "dual-logn": _solve_dual_logn,
    "cubic": _solve_cubic,
}


def solve(m, job):
    return SOLVERS[job.solver](m, job.inst, job.arg)


def _rng(workload, seed, slot):
    return random.Random(f"{workload}:{seed}:{slot}")


def l_size(adj, p):
    """|L| from its definition: L grows from the empty set by a neighbor u
    of p, lowest id first, while |N(u) \\ L| >= |N(p) \\ L|.  The log n
    algorithm branches over the 2^|L| subsets of L."""
    chosen = set()
    while True:
        open_p = adj[p] - chosen
        u = next((u for u in sorted(open_p)
                  if len(adj[u] - chosen) >= len(open_p)), None)
        if u is None:
            return len(chosen)
        chosen.add(u)


def _certified(inst, nbrs):
    """Whether a witness proves the instance feasible.

    `nbrs` is the adjacency the max objective sees: G itself, or for min its
    complement (the feasible sets are the same).  Without undeletable
    vertices, deleting all but p is feasible.  Otherwise the witness keeps p,
    the undeletable vertices, and a greedy independent set of neighbors of p
    that avoids the undeletable vertices and their neighbors; it deletes the
    rest.
    """
    n, p = inst.graph.n, inst.p
    undeletable = {v for v in range(n) if v != p and inst.weights[v] == math.inf}
    if not undeletable:
        return True
    blocked = set(undeletable)
    for x in undeletable:
        blocked |= nbrs[x]
    keep = {p} | undeletable
    for u in sorted(nbrs[p]):
        if u not in blocked and not (nbrs[u] & (keep - {p})):
            keep.add(u)
    witness = [v for v in range(n) if v not in keep]
    return checker.rejection(inst, witness) is None


def _with_undeletable(m, rng, g, p, weights):
    """The max instance with UNDELETABLE_PER_INSTANCE vertices other than p
    made undeletable, at the first of PLACEMENT_TRIES random placements that
    is certified feasible, or else with the finite weights."""
    others = [v for v in range(g.n) if v != p]
    for _ in range(PLACEMENT_TRIES):
        trial = list(weights)
        for v in rng.sample(others, UNDELETABLE_PER_INSTANCE):
            trial[v] = math.inf
        inst = m.graph.Instance(g, p, trial, m.graph.Objective.MAX)
        if _certified(inst, g.adj):
            return inst
    return m.graph.Instance(g, p, weights, m.graph.Objective.MAX)


def _balanced_weights(rng, n, top):
    """Integer weights 1..top in random order, each as often as n allows, so
    that an instance's total weight depends on n alone and the weight of a
    result mostly on how many vertices it deletes."""
    weights = [1 + k % top for k in range(n)]
    rng.shuffle(weights)
    return weights


def _shuffled(groups, workload, seed):
    """Jobs of whole instances in a seeded order, so that slow and fast
    calls are spread over the round."""
    _rng(workload, seed, "order").shuffle(groups)
    return [job for group in groups for job in group]


def stratum(adj, p):
    """The logn-sparse stratum of p: (|L|, d(p) capped at 2)."""
    return l_size(adj, p), min(len(adj[p]), 2)


def _logn_pairs(m, seed):
    """(graph, p) pairs, stratum by stratum.

    Slot j of a stratum with c slots has n = 40 + 20 (j + 1/2) / c, rounded;
    its graph is the first G(n, 0.1) drawn that has a vertex in the stratum,
    and p is one of those vertices at random."""
    rng = _rng("logn-sparse", seed, "pool")
    lo, hi = LOGN_N
    pairs = []
    for key, count in LOGN_STRATA.items():
        for j in range(count):
            n = lo + round((hi - lo) * (j + 0.5) / count)
            for _ in range(LOGN_MAX_DRAWS):
                g = m.generators.generate_gnp(n, LOGN_EDGE_PROB,
                                              rng.randrange(2**31))
                ps = [p for p in range(n) if stratum(g.adj, p) == key]
                if ps:
                    pairs.append((g, rng.choice(ps)))
                    break
            else:
                raise RuntimeError(f"perfbench: {LOGN_MAX_DRAWS} graphs on {n} "
                                   f"vertices had no vertex in stratum {key}")
    return pairs


def logn_sparse(m, seed):
    groups = []
    for i, (g, p) in enumerate(_logn_pairs(m, seed)):
        rng = _rng("logn-sparse", seed, i)
        weights = _balanced_weights(rng, g.n, 5) if i % 2 else None
        if i % 4 == 3:
            inst = _with_undeletable(m, rng, g, p, weights)
        else:
            inst = m.graph.Instance(g, p, weights, m.graph.Objective.MAX)
        groups.append([Job(f"logn-sparse/{i}", "logn-trace", inst, "approx",
                           LOGN_MAX_L)])
    return _shuffled(groups, "logn-sparse", seed)


def cubic_large(m, seed):
    groups = []
    for i, n in enumerate(CUBIC_SIZES):
        rng = _rng("cubic-large", seed, i)
        g = m.generators.generate_random_cubic(n, rng.randrange(2**31))
        inst = m.graph.Instance(g, rng.randrange(n), None, m.graph.Objective.MAX)
        groups.append([Job(f"cubic-large/{i}", "cubic-trace", inst, "approx")])
    return _shuffled(groups, "cubic-large", seed)


def _exact_instance(m, rng, family, n, objective, rank):
    """An instance on G(n, q) or a random 3-regular graph.

    On G(n, q), p is the vertex at quantile `rank`, in order of |L| and
    degree in the graph the log n algorithm sees, of the vertices for which
    the empty set is infeasible (so that the oracle weight is positive), or
    the next one in that order at which a vertex can be made undeletable
    with a certificate of feasibility."""
    obj = m.graph.Objective(objective)
    if family == "regular":
        g = m.generators.generate_random_regular(n, 3, rng.randrange(2**31))
        return m.graph.Instance(g, rng.randrange(n), None, obj)
    g = m.generators.generate_gnp(n, EXACT_EDGE_PROB[objective],
                                  rng.randrange(2**31))
    weights = _balanced_weights(rng, n, 9)
    nbrs = (g.adj if objective == "max"
            else [set(range(n)) - g.adj[v] - {v} for v in range(n)])
    order = sorted((p for p in range(n) if checker.rejection(
        m.graph.Instance(g, p, None, obj), ()) is not None),
        key=lambda p: (l_size(nbrs, p), len(nbrs[p]), rng.random()))
    start = int(rank * len(order))
    for p in order[start:] + order[:start]:
        for u in rng.sample(range(n), n):
            trial = list(weights)
            trial[u] = math.inf
            inst = m.graph.Instance(g, p, trial, obj)
            if u != p and _certified(inst, nbrs):
                return inst
    raise RuntimeError("perfbench: no vertex of the graph can be made "
                       "undeletable")


def exact_small(m, seed):
    groups = []
    for label, count, family, n, objective, mode, solvers in EXACT_FAMILIES:
        for i in range(count):
            rng = _rng("exact-small", seed, f"{label}/{i}")
            inst = _exact_instance(m, rng, family, n, objective,
                                   (i + 0.5) / count)
            iid = f"exact-small/{label}/{i}"
            group = [Job(iid, "oracle", inst, "oracle", mode)]
            for name in solvers:
                role = "exact" if name == "kreg" else "approx"
                arg = EXACT_MAX_L if "logn" in name else None
                group.append(Job(iid, name, inst, role, arg))
            groups.append(group)
    return _shuffled(groups, "exact-small", seed)


WORKLOADS = {
    "logn-sparse": logn_sparse,
    "cubic-large": cubic_large,
    "exact-small": exact_small,
}
