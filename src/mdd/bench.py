"""Solver registry and benchmark harness: run any registered solver with
one feasibility check, generate instance families, score every solver row
against the instance's optimum, and collect ratio reports as CSV or JSON.

The optimum of a set-cover instance is known from its source (the minimum
cover size, which both bipartite constructions keep); on gnp and regular
instances up to `DEFAULT_ORACLE_CUTOFF` vertices it is the weight of the
`oracle` row, solved once per instance.
"""
from __future__ import annotations

import csv
import io
import itertools
import json
import time
from dataclasses import dataclass, field, fields, asdict
from typing import Optional

from .approx import mdd_max_logn_trace
from .cubic import mdd_max_cubic_trace
from .errors import InputError, MDDError, VerificationError
from .exact import brute_force_optimum, kregular_min_exact
from .generators import (generate_gnp, generate_random_regular,
                         generate_random_setsystem)
from .graph import Instance, Objective, is_feasible, is_int
from .reductions import setcover_to_mddmax_bip, setcover_to_mddmin_bip

DEFAULT_ORACLE_CUTOFF = 28


def _solve_oracle(inst):
    return brute_force_optimum(inst), ()


def _solve_kreg(inst):
    return kregular_min_exact(inst), ()


def _solve_logn(inst):
    trace = mdd_max_logn_trace(inst)
    return trace.solution, (
        f"L = {sorted(trace.l_set)}",
        f"branches = {trace.branches_total} (feasible {trace.branches_feasible})",
        f"chosen K = {sorted(trace.chosen_k)}")


def _solve_cubic(inst):
    trace = mdd_max_cubic_trace(inst)
    notes = [f"candidate {label}: size {size}"
             for label, size in trace.candidate_sizes]
    return trace.solution, (*notes,
                            f"stopped dissociation branches: {trace.stopped}",
                            f"winning case: {trace.case}")


#: Every solver by name: fn(instance) -> (DeletionSet, trace lines).
#: Each calls its library function with that function's defaults and only
#: formats the trace, so a solver's limits are its own: `oracle`,
#: `kreg-exact` and `logn` each raise BudgetError past exact.DEFAULT_BUDGET.
ALGORITHMS = {
    "oracle": _solve_oracle,
    "kreg-exact": _solve_kreg,
    "logn": _solve_logn,
    "cubic": _solve_cubic,
}


def solve(name: str, inst: Instance):
    """Run solver `name` and verify its result.

    Returns (DeletionSet, trace lines).  Raises VerificationError if the
    solver returns an infeasible set; the check is explicit so that it also
    runs under `python -O`.
    """
    if name not in ALGORITHMS:
        raise InputError(f"unknown algorithm '{name}'")
    solution, notes = ALGORITHMS[name](inst)
    if not is_feasible(inst, solution):
        raise VerificationError(
            f"solver '{name}' returned an infeasible deletion set")
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

    def __post_init__(self):
        if self.family not in ("gnp", "regular", "setcover"):
            raise InputError(f"unknown instance family '{self.family}'")
        if not isinstance(self.algorithms, list):
            raise InputError("algorithms must be a list of solver names")
        for i, name in enumerate(self.algorithms):
            if not isinstance(name, str) or name not in ALGORITHMS:
                raise InputError(f"unknown algorithm '{name}'")
            if name in self.algorithms[:i]:
                raise InputError(f"algorithm '{name}' is listed twice")
        if self.objective not in [o.value for o in Objective]:
            raise InputError("objective must be 'min' or 'max'")
        if not (isinstance(self.sizes, list)
                and all(is_int(n, 1) for n in self.sizes)):
            raise InputError("sizes must be a list of integers >= 1")
        for name, low in (("k", 0), ("instances_per_size", 0), ("seed", None)):
            if not is_int(getattr(self, name), low):
                raise InputError(f"{name} must be an integer"
                                 + ("" if low is None else f" >= {low}"))
        if (isinstance(self.edge_prob, bool)
                or not isinstance(self.edge_prob, (int, float))
                or not 0 <= self.edge_prob <= 1):
            raise InputError("edge_prob must be a number in [0, 1]")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise InputError("experiment config must be a JSON object")
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
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(f.name for f in fields(ExperimentRow))
        for row in self.rows:
            d = asdict(row)
            d["extra"] = json.dumps(d["extra"], sort_keys=True)
            writer.writerow(d.values())
        return buf.getvalue()

    def to_json(self) -> str:
        return json.dumps({
            "config": asdict(self.config),
            "rows": [asdict(r) for r in self.rows],
            "aggregates": self.aggregates,
        }, indent=2, sort_keys=True) + "\n"


def _make_instances(cfg: ExperimentConfig):
    """Yield (instance_id, instance, known optimum or None).

    A set-cover instance (t = size sets over r = max(2, size // 2)
    elements) is lifted by the construction of `cfg.objective`.
    Both constructions keep the optimum exactly (no forced vertices, unit
    weights), so the source's minimum cover size is the MDD optimum.
    """
    objective = Objective(cfg.objective)
    for n, idx in itertools.product(cfg.sizes, range(cfg.instances_per_size)):
        seed = cfg.seed * 100003 + n * 131 + idx
        if cfg.family == "setcover":
            sys = generate_random_setsystem(max(2, n // 2), n, seed)
            build = (setcover_to_mddmax_bip if objective is Objective.MAX
                     else setcover_to_mddmin_bip)
            yield (f"setcover-t{n}-i{idx}", build(sys).instance,
                   _min_cover_size(sys))
        else:
            g = (generate_gnp(n, cfg.edge_prob, seed) if cfg.family == "gnp"
                 else generate_random_regular(n, cfg.k, seed))
            yield (f"{cfg.family}-n{n}-i{idx}",
                   Instance(g, 0, None, objective), None)


def _min_cover_size(sys) -> int:
    """Breadth-first search over covered-element bitmasks: level s holds the
    masks first reached by s sets, so the level that reaches the whole
    universe is the least cover size.  O(2^r * t) for r elements, t sets."""
    sets = {sum(1 << x for x in f) for f in sys.family}
    universe = (1 << sys.universe_size) - 1
    seen, level, size = {0}, {0}, 0
    while universe not in level:
        level = {covered | s for covered in level for s in sets} - seen
        if not level:
            raise VerificationError("set system invariant guarantees a cover")
        seen |= level
        size += 1
    return size


def _run_solver_row(cfg, instance_id, inst, name):
    start = time.perf_counter()
    try:
        solution, _ = solve(name, inst)
    except MDDError as exc:
        # Recorded, not fatal: one solver giving up on, failing, or not
        # applying to one instance leaves the rest of the experiment standing.
        # A class with no status (a malformed argument) goes through.
        if exc.status is None:
            raise
        return ExperimentRow(instance_id, cfg.family, inst.graph.n, name,
                             None, None, None, None,
                             time.perf_counter() - start, None,
                             extra={"status": exc.status})
    return ExperimentRow(instance_id, cfg.family, inst.graph.n, name,
                         solution.size, solution.total_weight, None, None,
                         time.perf_counter() - start, True)


def _score(row, reference):
    row.oracle_weight = reference
    if reference is not None and row.weight is not None:
        if reference > 0:
            row.ratio = row.weight / reference
        elif row.weight == 0:
            row.ratio = 1.0


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    rows = []
    # Every instance is built before any solver runs, so a bad size fails
    # first and fast.
    for instance_id, inst, reference in list(_make_instances(cfg)):
        solved = {}  # the reference oracle row, emitted if configured
        # A config that lists no algorithm has no row to score.
        if (cfg.algorithms and reference is None
                and inst.graph.n <= DEFAULT_ORACLE_CUTOFF):
            # A BudgetError leaves the instance unscored, as above the cutoff.
            solved["oracle"] = _run_solver_row(cfg, instance_id, inst, "oracle")
            reference = solved["oracle"].weight
        for name in cfg.algorithms:
            row = (solved.get(name)
                   or _run_solver_row(cfg, instance_id, inst, name))
            _score(row, reference)
            rows.append(row)
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
            "failed": sum(1 for r in group if "status" in r.extra),
        }
    return out
