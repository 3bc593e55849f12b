"""Tests of the benchmark itself.  Run from the repository root with

    python3 -m pytest perfbench
"""
from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
import sys
import types
from collections import defaultdict
from pathlib import Path

import pytest

import checker
import run
import speed
import tracer
import workloads

HERE = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def m():
    return run.import_mdd()


def _signature(job):
    inst = job.inst
    return (job.instance_id, job.solver, job.role, job.arg, inst.graph.n,
            tuple(inst.graph.edges()), inst.p, inst.weights,
            inst.objective.value)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(m, name):
    make = workloads.WORKLOADS[name]
    first = [_signature(j) for j in make(m, 3)]
    assert first == [_signature(j) for j in make(m, 3)]
    assert first != [_signature(j) for j in make(m, 4)]


def test_inputs_need_only_generators_and_graph(m):
    # The inputs must not change when a solver does, so making them may not
    # call one.
    bare = types.SimpleNamespace(generators=m.generators, graph=m.graph)
    for name, make in workloads.WORKLOADS.items():
        assert [_signature(j) for j in make(bare, 3)] == \
            [_signature(j) for j in make(m, 3)], name


def test_l_size_agrees_with_build_l(m):
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(2, 30)
        g = m.generators.generate_gnp(n, rng.random(), rng.randrange(10**6))
        inst = m.graph.Instance(g, rng.randrange(n), None, m.graph.Objective.MAX)
        assert workloads.l_size(g.adj, inst.p) == len(m.approx.build_L(inst).members)


def test_logn_strata_follow_natural_shares(m):
    # Each stratum's count is 240 times its share among (G(n, 0.1), p) pairs
    # with n uniform in 40-60 and p uniform, to within rounding.
    rng = random.Random(7)
    share = defaultdict(float)
    graphs = 2000
    for _ in range(graphs):
        n = rng.randint(*workloads.LOGN_N)
        g = m.generators.generate_gnp(n, workloads.LOGN_EDGE_PROB,
                                      rng.randrange(2**31))
        for p in range(n):
            share[workloads.stratum(g.adj, p)] += 1 / (n * graphs)
    total = sum(workloads.LOGN_STRATA.values())
    for key in set(share) | set(workloads.LOGN_STRATA):
        assert abs(workloads.LOGN_STRATA.get(key, 0) - total * share[key]) < 1, key


def test_loop_stops_only_between_rounds(m):
    jobs = [j for j in workloads.cubic_large(m, 2) if j.inst.graph.n <= 204]
    book = run.Book(jobs)
    times, _, rounds = run.run_loop(m, jobs, book, 0, 2)
    assert (len(times), rounds) == (2 * len(jobs), 2)
    assert book.correct
    best = run.fastest_per_job(times, len(jobs))
    assert best == [min(times[j], times[j + len(jobs)]) for j in range(len(jobs))]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_has_100_instances(m, name):
    # so that the 90th percentile over instances has 10 samples beyond it
    jobs = workloads.WORKLOADS[name](m, 1)
    assert len({j.instance_id for j in jobs}) >= 100


def test_instance_time_sums_its_jobs():
    jobs = [workloads.Job(i, "oracle", None, "oracle") for i in "aabc"]
    assert run.per_instance(jobs, [1.0, 2.0, 4.0, 8.0]) == [3.0, 4.0, 8.0]


def test_times_are_scaled_to_the_reference_speed():
    ref = speed.REFERENCE_S
    assert speed.scale(0.5, ref, ref) == pytest.approx(0.5)
    # a host running the kernel at half speed doubles the measured time
    assert speed.scale(1.0, 2 * ref, 2 * ref) == pytest.approx(0.5)
    assert speed.scale(1.0, ref, 3 * ref) == pytest.approx(0.5)
    assert 0 < speed.sample() < 1


def _path_instance(m, objective, weights=None):
    g = m.graph.Graph(3, [(0, 1), (1, 2)])
    return m.graph.Instance(g, 0, weights, m.graph.Objective(objective))


def test_checker_rejects_known_infeasible_sets(m):
    high = _path_instance(m, "max")
    assert checker.rejection(high, []) is not None         # d(1) = 2 > d(p)
    assert checker.rejection(high, [2]) is not None        # tie at degree 1
    assert checker.rejection(high, [0]) is not None        # p deleted
    assert checker.rejection(high, [7]) is not None        # not a vertex
    assert checker.rejection(high, [1, 2]) is None
    assert checker.rejection(high, [1, 2], total_weight=3) is not None
    blocked = _path_instance(m, "max", [1, math.inf, 1])
    assert checker.rejection(blocked, [1, 2]) is not None  # undeletable
    low = _path_instance(m, "min")
    assert checker.rejection(low, []) is not None          # tie at degree 1
    assert checker.rejection(low, [1]) is not None         # tie at degree 0
    assert checker.rejection(low, [1, 2]) is None


def test_checker_agrees_with_package_kernel(m):
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 8)
        g = m.generators.generate_gnp(n, rng.random(), rng.randrange(10**6))
        obj = rng.choice(list(m.graph.Objective))
        inst = m.graph.Instance(g, rng.randrange(n), None, obj)
        s = [v for v in range(n) if v != inst.p and rng.random() < 0.4]
        assert (checker.rejection(inst, s) is None) == m.graph.is_feasible(inst, s)


def test_checker_runs_under_optimize_flag():
    code = ("import types, checker\n"
            "g = types.SimpleNamespace(n=3, edges=lambda: [(0, 1), (1, 2)])\n"
            "inst = types.SimpleNamespace(graph=g, p=0, weights=(1, 1, 1),\n"
            "    objective=types.SimpleNamespace(value='max'))\n"
            "print(checker.rejection(inst, []) is not None,\n"
            "      checker.rejection(inst, [1, 2]) is None)\n")
    out = subprocess.run([sys.executable, "-O", "-c", code], cwd=HERE,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.split() == ["True", "True"], out.stderr


def _cheap_jobs(m):
    """A few fast jobs of every workload, oracle jobs ahead of the rest."""
    logn = [j for j in workloads.logn_sparse(m, 5)
            if workloads.l_size(j.inst.graph.adj, j.inst.p) <= 3][:4]
    cubic = [j for j in workloads.cubic_large(m, 5) if j.inst.graph.n == 200]
    keep = ("cubic-max/0", "regular-min/0", "gnp-max-c/0", "gnp-min-c/0")
    exact = [j for j in workloads.exact_small(m, 5)
             if j.instance_id.endswith(keep)]
    return logn + cubic + exact


def _traced(m, jobs, rounds):
    book = run.Book(jobs)
    trc = tracer.Tracer()
    run._install(trc, m)
    try:
        run.run_loop(m, jobs, book, 0, rounds, trc=trc)
    finally:
        trc.uninstall()
    metrics, consistent = run.per_layer(trc, book, 1.0, 1, 1.0)
    counts = {k: v for k, v in metrics.items()
              if not k.endswith("_s") and not k.startswith("trace.")}
    return book, counts, consistent


def test_counts_repeat_across_rounds_runs_and_tracing(m):
    jobs = _cheap_jobs(m)
    untraced = run.Book(jobs)
    run.run_loop(m, jobs, untraced, 0, 1)
    book_a, counts_a, consistent = _traced(m, jobs, rounds=2)
    book_b, counts_b, _ = _traced(m, jobs, rounds=1)
    assert consistent
    assert untraced.correct and book_a.correct and book_b.correct
    assert counts_a == counts_b
    assert untraced.weight_sum == book_a.weight_sum == book_b.weight_sum
    assert untraced.ratios == book_a.ratios == book_b.ratios
    assert counts_a["subroutines.f_dependent_delete.calls"] > 0
    assert counts_a["exact.brute_force_optimum.calls"] == 4
    assert counts_a["approx.branches_total"] >= counts_a["approx.branches_feasible"] > 0
    # tracing must leave the package as it found it
    assert m.approx.f_dependent_delete is m.subroutines.f_dependent_delete
    assert not hasattr(m.approx.f_dependent_delete, "__wrapped__")


def test_wrappers_reach_importing_modules_and_nest(m):
    trc = tracer.Tracer()
    trc.begin_round()
    run._install(trc, m)
    try:
        assert m.approx.f_dependent_delete is m.subroutines.f_dependent_delete
        g = m.generators.generate_random_cubic(20, 1)
        m.subroutines.dissociation_delete(g)
    finally:
        trc.uninstall()
    names = [s[0] for s in trc.spans]
    assert names == ["subroutines.dissociation_delete",
                     "subroutines.f_dependent_delete"]
    outer, inner = trc.spans
    assert inner[3] == 0
    selfs = trc.self_times()
    assert selfs[0] == pytest.approx((outer[2] - outer[1]) - (inner[2] - inner[1]))


def test_failing_call_is_recorded_and_loop_goes_on(m):
    g = m.graph.Graph.cycle(6)              # 2-regular: the cubic solver refuses
    bad = m.graph.Instance(g, 0, None, m.graph.Objective.MAX)
    good = workloads.cubic_large(m, 1)[0]
    jobs = [workloads.Job("bad", "cubic", bad, "approx"), good]
    book = run.Book(jobs)
    run.run_loop(m, jobs, book, 0, 1)
    assert (book.attempted, book.failed, book.correct) == (2, 1, False)
    assert "PreconditionError" in book.errors[0]


def test_result_lighter_than_oracle_is_rejected(m):
    # On the path 0-1-2-3 with p = 1, both {3} and {0, 2, 3} are feasible.
    g = m.graph.Graph.path(4)
    inst = m.graph.Instance(g, 1, None, m.graph.Objective.MAX)
    jobs = [workloads.Job("i", "oracle", inst, "oracle", "cardinality"),
            workloads.Job("i", "logn", inst, "approx", 5),
            workloads.Job("i", "kreg", inst, "exact")]
    book = run.Book(jobs)
    book.record(0, m.graph.DeletionSet.of(inst, [0, 2, 3]), None)
    book.record(1, m.graph.DeletionSet.of(inst, [3]), None)
    book.record(2, m.graph.DeletionSet.of(inst, [3]), None)
    assert book.failed == 2
    assert "beats oracle" in book.errors[0]
    assert "differs from oracle size" in book.errors[1]


def test_result_lighter_than_weighted_oracle_is_rejected(m):
    g = m.graph.Graph.path(4)
    inst = m.graph.Instance(g, 1, [1, 1, 1, 1], m.graph.Objective.MAX)
    jobs = [workloads.Job("i", "oracle", inst, "oracle", "weighted"),
            workloads.Job("i", "oracle", inst, "oracle", "cardinality"),
            workloads.Job("i", "logn", inst, "approx", 5)]
    book = run.Book(jobs)
    book.record(0, m.graph.DeletionSet.of(inst, [0, 2, 3]), None)
    book.record(1, m.graph.DeletionSet.of(inst, [3]), None)
    book.record(2, m.graph.DeletionSet.of(inst, [3]), None)
    assert book.failed == 1
    assert "beats oracle weight" in book.errors[0]


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(e["name"], e["unit"]) for e in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(e["name"], e["unit"]) for e in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_no_result_without_the_solver_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                          "cubic-large", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
