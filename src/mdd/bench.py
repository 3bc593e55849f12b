"""Solver registry and benchmark harness: run any registered solver with
one feasibility check, generate instance families, run solvers against the
oracle, and collect ratio reports as CSV or JSON.
"""
from __future__ import annotations

import csv
import io
import itertools
import json
import time
from dataclasses import dataclass, field, asdict
from typing import Optional

from .approx import mdd_max_logn_trace
from .cubic import mdd_max_cubic_trace
from .errors import InputError, MDDError
from .exact import (OracleConfig, WeightMode, brute_force_optimum, dualize,
                    kregular_min_exact)
from .generators import (generate_gnp, generate_random_regular,
                         generate_random_setsystem)
from .graph import Instance, Objective, is_feasible
from .reductions import setcover_to_mddmax_bip, setcover_to_mddmin_bip

DEFAULT_ORACLE_CUTOFF = 18


def _solve_oracle(inst, max_L):
    mode = WeightMode.CARDINALITY if inst.unit_weights else WeightMode.WEIGHTED
    return brute_force_optimum(inst, OracleConfig(weight_mode=mode)), ()


def _solve_kreg(inst, max_L):
    return kregular_min_exact(inst), ()


def _branches_note(trace):
    return f"branches = {trace.branches_total} (feasible {trace.branches_feasible})"


def _solve_logn(inst, max_L):
    trace = mdd_max_logn_trace(inst, max_L)
    chosen = sorted(trace.chosen_k) if trace.chosen_k else "[] (fallback)"
    return trace.solution, (f"L = {sorted(trace.l_set)}", _branches_note(trace),
                            f"chosen K = {chosen}")


def _solve_cubic(inst, max_L):
    trace = mdd_max_cubic_trace(inst)
    notes = [f"candidate {label}: size {size}"
             for label, size in trace.candidate_sizes]
    return trace.solution, (*notes, f"winning case: {trace.case}")


def _solve_dual_logn(inst, max_L):
    # MDD(min) routed through the complement: the same vertex set solves both.
    if inst.objective is not Objective.MIN:
        raise InputError("dual-logn expects a Min instance")
    trace = mdd_max_logn_trace(dualize(inst), max_L)
    return trace.solution, (_branches_note(trace),)


#: Every solver by name: fn(instance, max_L) -> (DeletionSet, trace lines).
#: max_L caps the L-set of the branching solvers; the others ignore it.
ALGORITHMS = {
    "oracle": _solve_oracle,
    "kreg-exact": _solve_kreg,
    "logn": _solve_logn,
    "cubic": _solve_cubic,
    "dual-logn": _solve_dual_logn,
}


def solve(name: str, inst: Instance, max_L: Optional[int] = None):
    """Run solver `name` and verify its result.

    Returns (DeletionSet, trace lines).  Raises MDDError if the solver
    returns an infeasible set; the check is explicit so that it also runs
    under `python -O`.
    """
    solution, notes = ALGORITHMS[name](inst, max_L)
    if not is_feasible(inst, solution):
        raise MDDError(f"solver '{name}' returned an infeasible deletion set")
    return solution, notes


@dataclass
class ExperimentConfig:
    family: str                       # gnp | regular | setcover
    sizes: list
    algorithms: list = field(default_factory=lambda: ["oracle"])
    k: int = 3
    edge_prob: float = 0.3
    instances_per_size: int = 5
    seed: int = 0
    objective: str = "max"
    oracle_cutoff: int = DEFAULT_ORACLE_CUTOFF
    max_L: Optional[int] = None
    setsystem_ratio: int = 2          # t = size, r = size // setsystem_ratio

    def __post_init__(self):
        if self.family not in ("gnp", "regular", "setcover"):
            raise InputError(f"unknown instance family '{self.family}'")
        if self.family != "setcover":
            for name in self.algorithms:
                if name not in ALGORITHMS:
                    raise InputError(f"unknown algorithm '{name}'")
        Objective(self.objective)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        try:
            return cls(**d)
        except TypeError as exc:
            raise InputError(f"bad experiment config: {exc}") from None

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            return cls.from_dict(json.loads(text))
        except json.JSONDecodeError as exc:
            raise InputError(f"config is not valid JSON: {exc}") from None


@dataclass
class ExperimentRow:
    instance_id: str
    family: str
    n: int
    algorithm: str
    size: Optional[int]
    weight: Optional[float]
    oracle_weight: Optional[float]
    ratio: Optional[float]
    wall_time: float
    feasible: Optional[bool]
    extra: dict = field(default_factory=dict)


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    rows: list
    aggregates: dict

    def to_csv(self) -> str:
        buf = io.StringIO()
        fields = ["instance_id", "family", "n", "algorithm", "size", "weight",
                  "oracle_weight", "ratio", "wall_time", "feasible", "extra"]
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(fields)
        for row in self.rows:
            d = asdict(row)
            d["extra"] = json.dumps(d["extra"], sort_keys=True)
            writer.writerow([d[f] for f in fields])
        return buf.getvalue()

    def to_json(self) -> str:
        return json.dumps({
            "config": asdict(self.config),
            "rows": [asdict(r) for r in self.rows],
            "aggregates": self.aggregates,
        }, indent=2, sort_keys=True) + "\n"


def _make_instances(cfg: ExperimentConfig):
    objective = Objective(cfg.objective)
    for n, idx in itertools.product(cfg.sizes, range(cfg.instances_per_size)):
        seed = cfg.seed * 100003 + n * 131 + idx
        if cfg.family == "gnp":
            g = generate_gnp(n, cfg.edge_prob, seed)
        else:
            g = generate_random_regular(n, cfg.k, seed)
        yield f"{cfg.family}-n{n}-i{idx}", Instance(g, 0, None, objective)


def _run_solver_row(cfg, instance_id, inst, name, oracle_weight):
    start = time.perf_counter()
    solution, _ = solve(name, inst, cfg.max_L)
    elapsed = time.perf_counter() - start
    ratio = None
    if oracle_weight is not None:
        if oracle_weight > 0:
            ratio = solution.total_weight / oracle_weight
        elif solution.total_weight == 0:
            ratio = 1.0
    return ExperimentRow(instance_id, cfg.family, inst.graph.n, name,
                         solution.size, solution.total_weight, oracle_weight,
                         ratio, elapsed, True)


def _setcover_rows(cfg: ExperimentConfig):
    tasks = []
    for t, idx in itertools.product(cfg.sizes, range(cfg.instances_per_size)):
        r = max(2, t // cfg.setsystem_ratio)
        seed = cfg.seed * 100003 + t * 131 + idx
        sys = generate_random_setsystem(r, t, seed)
        tasks.append((f"setcover-t{t}-i{idx}", sys))
    rows = []
    for instance_id, sys in tasks:
        source_opt = _min_cover_size(sys)
        for kind, build in (("mddmin-bip", setcover_to_mddmin_bip),
                            ("mddmax-bip", setcover_to_mddmax_bip)):
            start = time.perf_counter()
            art = build(sys)
            opt = brute_force_optimum(art.instance).size
            elapsed = time.perf_counter() - start
            rows.append(ExperimentRow(
                instance_id, "setcover", art.instance.graph.n, kind,
                opt, float(opt), float(source_opt),
                None, elapsed, True,
                extra={"source_opt": source_opt, "gap": opt - source_opt}))
    return rows


def _min_cover_size(sys) -> int:
    for size in range(sys.num_sets + 1):
        for combo in itertools.combinations(range(sys.num_sets), size):
            if sys.is_cover(combo):
                return size
    raise AssertionError("set system invariant guarantees a cover")


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    if cfg.family == "setcover":
        rows = _setcover_rows(cfg)
    else:
        instances = list(_make_instances(cfg))
        oracle_weights = {}
        for instance_id, inst in instances:
            if inst.graph.n <= cfg.oracle_cutoff:
                oracle_weights[instance_id] = brute_force_optimum(inst).total_weight
        rows = [_run_solver_row(cfg, instance_id, inst, name,
                                oracle_weights.get(instance_id))
                for instance_id, inst in instances for name in cfg.algorithms]
    rows.sort(key=lambda r: (r.instance_id, r.algorithm))
    aggregates = _aggregate(rows)
    return ExperimentReport(cfg, rows, aggregates)


def _aggregate(rows) -> dict:
    out = {}
    by_algo = {}
    for row in rows:
        by_algo.setdefault(row.algorithm, []).append(row)
    for name, group in sorted(by_algo.items()):
        ratios = [r.ratio for r in group if r.ratio is not None]
        out[name] = {
            "rows": len(group),
            "mean_ratio": sum(ratios) / len(ratios) if ratios else None,
            "max_ratio": max(ratios) if ratios else None,
            "total_time": sum(r.wall_time for r in group),
        }
    return out
