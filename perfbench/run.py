"""Benchmark of the `mdd` solver package.

    python3 perfbench/run.py --workload logn-sparse --seed 1 --seconds 15 --trace 0

Run from anywhere inside a checkout: the package is imported from the
checkout's `src/` directory.  Each workload runs in this one process and
thread as a closed loop, one solver call at a time, over a fixed list of jobs
generated from the seed (see workloads.py and README.md).  Every result is
checked by the benchmark's own feasibility checker; a call that raises or is
rejected counts as failed and the loop goes on.  End-to-end times are scaled
to a reference host speed measured between calls (see speed.py).

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1 runs
whole rounds untraced and then traced, and reports per-layer metrics from the
trace; the spans are written to .perfbench/ at the end.  --workload all runs
each workload in its own process, one after the other.

The last line of standard output is one JSON object with the keys
"correct", "attempted", "failed" and "metrics".
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import checker
import speed
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
# Whole rounds each run makes at least.  One round of every workload takes
# longer than --seconds in BENCHMARK.json, so a run makes one round and the
# statistics do not depend on how fast the host was during the run.  Every
# workload has at least 100 instances, so the 90th percentile over
# instances has 10 samples beyond it.  When a run makes more rounds, a job's
# time is the fastest of its calls.
MIN_ROUNDS = 1

END_TO_END = (
    ("setup_s", "s"),
    ("solve_s.p50", "s"),
    ("solve_s.p90", "s"),
    ("solves_per_s", "1/s"),
    ("weight_sum", "weight"),
    ("peak_rss_mb", "MiB"),
)

# Wrapped layers: (span name, module, attribute, reported metrics).  The
# reported metrics of a layer are a subset of "calls", "self_s", "failed".
LAYERS = (
    ("subroutines.f_dependent_delete", "subroutines", "f_dependent_delete",
     ("calls", "self_s", "failed")),
    ("subroutines.dominating_set_approx", "subroutines",
     "dominating_set_approx", ("calls", "self_s")),
    ("subroutines.dissociation_delete", "subroutines", "dissociation_delete",
     ("calls", "self_s")),
    ("approx.build_L", "approx", "build_L", ("calls", "self_s")),
    ("approx.mdd_max_logn_trace", "approx", "mdd_max_logn_trace", ("self_s",)),
    ("graph.induced_subgraph", "graph", "Graph.induced_subgraph",
     ("calls", "self_s")),
    ("graph.is_feasible", "graph", "is_feasible", ("calls", "self_s")),
    ("graph.complement", "graph", "Graph.complement", ("calls", "self_s")),
    ("exact.brute_force_optimum", "exact", "brute_force_optimum",
     ("calls", "self_s", "failed")),
    ("exact.kregular_min_exact", "exact", "kregular_min_exact",
     ("calls", "self_s")),
    ("exact.dualize", "exact", "dualize", ("self_s",)),
    ("cubic.build_domination_gadget", "cubic", "build_domination_gadget",
     ("self_s",)),
    ("cubic.build_gstar", "cubic", "build_gstar", ("calls", "self_s")),
    ("cubic.normalize_dominating_set", "cubic", "normalize_dominating_set",
     ("self_s",)),
    ("cubic.mdd_max_cubic_trace", "cubic", "mdd_max_cubic_trace", ("self_s",)),
)
CUBIC_CASES = ("domination", "dissociation", "full")
UNITS = {"calls": "count", "self_s": "s", "failed": "count"}

PER_LAYER = tuple(
    [(f"{name}.{kind}", UNITS[kind]) for name, _, _, kinds in LAYERS
     for kind in kinds]
    + [("subroutines.f_dependent_delete.vertices_in", "count"),
       ("approx.L_size.mean", "count"),
       ("approx.L_size.max", "count"),
       ("approx.branches_total", "count"),
       ("approx.branches_feasible", "count"),
       ("approx.branch_useful_ratio", "ratio")]
    + [(f"cubic.case.{case}", "count") for case in CUBIC_CASES]
    + [("approx_ratio.mean", "ratio"),
       ("approx_ratio.max", "ratio"),
       ("solve.self_s", "s"),
       ("trace.solve_s", "s"),
       ("trace.overhead_s", "s")])


def import_mdd():
    """Import the solver package from the checkout's src/, afresh."""
    src = ROOT / "src"
    if not (src / "mdd" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no solver package at {src / 'mdd'}")
    for name in [k for k in sys.modules if k == "mdd" or k.startswith("mdd.")]:
        del sys.modules[name]
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    importlib.invalidate_caches()
    return importlib.import_module("mdd")


def setup(workload, seed, repeats=SETUP_REPEATS):
    """Import plus input generation, `repeats` times; the last one is used.

    Returns (package, jobs, median set-up time in seconds at the reference
    speed of speed.py)."""
    times = []
    before = speed.sample()
    for _ in range(repeats):
        start = time.perf_counter()
        m = import_mdd()
        jobs = workloads.WORKLOADS[workload](m, seed)
        elapsed = time.perf_counter() - start
        after = speed.sample()
        times.append(speed.scale(elapsed, before, after))
        before = after
    return m, jobs, statistics.median(times)


class Book:
    """Checks every result and keeps what the metrics need.

    A call fails when it raises or when its result is rejected: infeasible,
    a wrong reported weight, an exact solver disagreeing in size with the
    CARDINALITY oracle, or an approximation lighter than the WEIGHTED oracle
    or smaller than the CARDINALITY one.  The first result of each job is
    kept; a later call of the same job must return the same set.
    """

    UNSEEN = object()

    def __init__(self, jobs):
        self.jobs = jobs
        self.first = [self.UNSEEN] * len(jobs)
        self.oracle = {}        # instance id -> {weight mode: (weight, size)}
        self.attempted = 0
        self.failed = 0
        self.changed = 0
        self.ratios = []
        self.errors = []

    def record(self, index, result, error):
        self.attempted += 1
        job = self.jobs[index]
        reason = self._reason(job, result, error)
        outcome = None if reason else (result.vertices, result.total_weight)
        if reason:
            self.failed += 1
        if self.first[index] is self.UNSEEN:
            self.first[index] = outcome
            ref = self.oracle.get(job.instance_id)
            if outcome and job.role == "approx" and ref:
                # Without a WEIGHTED oracle the weights are unit, and the
                # CARDINALITY optimum is also the lightest set.
                best = ref.get("weighted") or ref["cardinality"]
                self.ratios.append(result.total_weight / best[0])
        elif self.first[index] != outcome:
            self.changed += 1
            reason = reason or "result differs from the first call"
        if reason and len(self.errors) < 20:
            self.errors.append(f"{job.instance_id} {job.solver}: {reason}")

    def _reason(self, job, result, error):
        if error is not None:
            return "".join(traceback.format_exception_only(error)).strip()
        reason = checker.rejection(job.inst, result.vertices, result.total_weight)
        if reason:
            return reason
        weight, size = result.total_weight, len(result.vertices)
        if job.role == "oracle":
            self.oracle.setdefault(job.instance_id, {}).setdefault(
                job.arg, (weight, size))
            return None
        ref = self.oracle.get(job.instance_id, {})
        least = ref.get("cardinality", (None, None))[1]
        if job.role == "exact" and least is not None and size != least:
            return f"size {size} differs from oracle size {least}"
        if job.role == "approx":
            if least is not None and size < least:
                return f"size {size} beats oracle size {least}"
            lightest = ref.get("weighted", (None,))[0]
            if lightest is not None and weight < lightest:
                return f"weight {weight} beats oracle weight {lightest}"
        return None

    @property
    def correct(self):
        return self.failed == 0 and self.changed == 0

    @property
    def weight_sum(self):
        return sum(first[1] for first in self.first
                   if first is not self.UNSEEN and first is not None)


def run_loop(m, jobs, book, seconds, min_rounds, trc=None):
    """Closed loop over whole rounds of `jobs`, one call at a time, until at
    least `seconds` have passed and `min_rounds` rounds are done.  Stopping
    only between rounds keeps the set of timed jobs the same however fast
    the solver is.  The calibration kernel of speed.py runs between calls,
    and each call's wall time is scaled to the reference speed with the
    samples taken just before and after it.

    Returns (per-call scaled times, loop wall time, completed rounds)."""
    times = []
    n = len(jobs)
    i = 0
    start = time.perf_counter()
    before = speed.sample()
    while not (i and i % n == 0 and i >= min_rounds * n
               and time.perf_counter() - start >= seconds):
        job = jobs[i % n]
        if trc is not None and i % n == 0:
            trc.begin_round()
        result = error = None
        t0 = time.perf_counter()
        try:
            if trc is None:
                result = workloads.solve(m, job)
            else:
                trc.instance_id = job.instance_id
                result = trc.call("solve." + job.solver, workloads.solve, m, job)
        except Exception as exc:    # a failing call is recorded, not fatal
            error = exc
        elapsed = time.perf_counter() - t0
        after = speed.sample()
        times.append(speed.scale(elapsed, before, after))
        before = after
        book.record(i % n, result, error)
        i += 1
    return times, time.perf_counter() - start, i // n


def fastest_per_job(times, n):
    """The fastest call of each of `n` jobs, from the times of whole rounds."""
    return [min(times[j::n]) for j in range(n)]


def per_instance(jobs, best):
    """Solve time of each instance: the summed fastest times of the jobs on
    it, which follow each other in the job list."""
    totals = {}
    for job, t in zip(jobs, best):
        totals[job.instance_id] = totals.get(job.instance_id, 0.0) + t
    return list(totals.values())


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def ratio_stats(book):
    if not book.ratios:
        return 0.0, 0.0
    return statistics.fmean(book.ratios), max(book.ratios)


def end_to_end(setup_s, times, book):
    best = per_instance(book.jobs, fastest_per_job(times, len(book.jobs)))
    return {
        "setup_s": setup_s,
        "solve_s.p50": percentile(best, 50),
        "solve_s.p90": percentile(best, 90),
        "solves_per_s": len(times) / sum(times),
        "weight_sum": book.weight_sum,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _install(trc, m):
    def on_fdep(t, prob, *args, **kwargs):
        t.record("subroutines.f_dependent_delete.vertices_in", prob.graph.n)

    def on_build_l(t, lset):
        t.record("approx.L_size", len(lset.members))

    def on_branching(t, res):
        t.record("approx.branches_total", res.branches_total)
        t.record("approx.branches_feasible", res.branches_feasible)

    def on_cubic(t, res):
        t.record(f"cubic.case.{res.case}", 1)

    hooks = {"subroutines.f_dependent_delete": (on_fdep, None),
             "approx.build_L": (None, on_build_l),
             "approx.mdd_max_logn_trace": (None, on_branching),
             "cubic.mdd_max_cubic_trace": (None, on_cubic)}
    trc.install(m, [(name, getattr(m, module), attr) + hooks.get(name, (None, None))
                    for name, module, attr, _ in LAYERS])


def round_summaries(trc):
    """Per traced round: {span name: [calls, self time, failed]} and the
    recorded values."""
    spans = [defaultdict(lambda: [0, 0.0, 0]) for _ in trc.counters]
    for span, self_s in zip(trc.spans, trc.self_times()):
        entry = spans[span[6]][span[0]]
        entry[0] += 1
        entry[1] += self_s
        entry[2] += span[5]
    return spans, trc.counters


def per_layer(trc, book, untraced_wall, untraced_rounds, traced_wall):
    """Per-layer metrics, each for one round.  Counts must be the same in
    every traced round; returns (metrics, counts agree)."""
    spans, values = round_summaries(trc)
    rounds = len(spans)
    counts = [({k: (v[0], v[2]) for k, v in s.items()}, dict(c))
              for s, c in zip(spans, values)]
    consistent = all(c == counts[0] for c in counts)

    def mean_self(name):
        return sum(s[name][1] for s in spans if name in s) / rounds

    first_spans, first_values = spans[0], values[0]
    out = {}
    for name, _, _, kinds in LAYERS:
        entry = first_spans.get(name, [0, 0.0, 0])
        for kind in kinds:
            out[f"{name}.{kind}"] = (mean_self(name) if kind == "self_s"
                                     else entry[0] if kind == "calls"
                                     else entry[2])
    sizes = first_values.get("approx.L_size", [])
    total = sum(first_values.get("approx.branches_total", []))
    feasible = sum(first_values.get("approx.branches_feasible", []))
    out["subroutines.f_dependent_delete.vertices_in"] = sum(
        first_values.get("subroutines.f_dependent_delete.vertices_in", []))
    out["approx.L_size.mean"] = statistics.fmean(sizes) if sizes else 0.0
    out["approx.L_size.max"] = max(sizes, default=0)
    out["approx.branches_total"] = total
    out["approx.branches_feasible"] = feasible
    out["approx.branch_useful_ratio"] = feasible / total if total else 0.0
    for case in CUBIC_CASES:
        out[f"cubic.case.{case}"] = len(first_values.get(f"cubic.case.{case}", []))
    out["approx_ratio.mean"], out["approx_ratio.max"] = ratio_stats(book)
    solve_names = {s[0] for s in trc.spans if s[3] is None}
    out["solve.self_s"] = sum(mean_self(name) for name in solve_names)
    out["trace.solve_s"] = sum(s[2] - s[1] for s in trc.spans
                               if s[3] is None) / rounds
    out["trace.overhead_s"] = (traced_wall / rounds
                               - untraced_wall / untraced_rounds)
    return out, consistent


def environment(args):
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0))}


def run_one(args):
    env = environment(args)
    m, jobs, setup_s = setup(args.workload, args.seed)
    book = Book(jobs)
    print("# " + " ".join(f"{k}={v}" for k, v in env.items())
          + f" jobs_per_round={len(jobs)}")
    if not args.trace:
        times, wall, rounds = run_loop(m, jobs, book, args.seconds,
                                        MIN_ROUNDS)
        metrics = end_to_end(setup_s, times, book)
        units = dict(END_TO_END)
        instances = len({job.instance_id for job in jobs})
        print(f"# {len(times)} calls in {wall:.2f} s wall, {sum(times):.2f} s "
              f"at reference speed ({rounds} rounds of {len(jobs)} jobs); "
              f"percentiles over {instances} instances, each timed by the "
              f"fastest calls of its jobs")
        consistent = True
    else:
        half = args.seconds / 2
        _, wall_u, rounds_u = run_loop(m, jobs, book, half, 1)
        trc = tracer.Tracer()
        _install(trc, m)
        try:
            _, wall_t, rounds_t = run_loop(m, jobs, book, half, 1, trc=trc)
        finally:
            trc.uninstall()
        metrics, consistent = per_layer(trc, book, wall_u, rounds_u, wall_t)
        units = dict(PER_LAYER)
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
        trc.write(path, dict(env, rounds=rounds_t, weight_sum=book.weight_sum))
        layers = sum(v for k, v in metrics.items()
                     if k.endswith(".self_s") and k != "solve.self_s")
        print(f"# untraced: {rounds_u} rounds in {wall_u:.2f} s; traced: "
              f"{rounds_t} rounds in {wall_t:.2f} s; spans in "
              f"{path.relative_to(ROOT)}")
        print(f"# per round: layer self time {layers:.4f} s + solver self "
              f"time {metrics['solve.self_s']:.4f} s of traced solve time "
              f"{metrics['trace.solve_s']:.4f} s")
        print(f"# weight_sum {book.weight_sum} weight")
    ratio_mean, ratio_max = ratio_stats(book)
    print(f"# failed_frac {book.failed / book.attempted:.6g} ratio "
          f"({book.failed} of {book.attempted} calls)")
    if book.ratios:
        print(f"# approx_ratio.mean {ratio_mean:.6g} ratio, approx_ratio.max "
              f"{ratio_max:.6g} ratio ({len(book.ratios)} pairs)")
    for line in book.errors:
        print(f"# FAILED {line}")
    if not consistent:
        print("# FAILED per-layer counts differ between traced rounds")
    for name, value in metrics.items():
        print(f"{name:45s} {value:.6g} {units[name]}")
    return {"correct": book.correct and consistent,
            "attempted": book.attempted, "failed": book.failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def run_all(args):
    """Each workload in a process of its own, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"perfbench: workload {name} exited with "
                             f"code {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    return combined


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
