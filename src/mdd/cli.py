"""Command-line interface.

Verbs: solve, verify, reduce, gen, bench, subroutine.  Exit codes:
0 success, 2 infeasible/inapplicable, 3 budget exhausted, 4 input error.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import fileio
from .bench import ALGORITHMS, ExperimentConfig, run_experiment, solve
from .errors import (BudgetError, InapplicableError, InfeasibleError,
                     InputError, MDDError, PreconditionError)
from .generators import generate_gnp, generate_random_regular
from .graph import is_feasible
from .reductions import (mindom_cubic_to_mddmax_cubic, mindom_to_mddmin,
                         setcover_to_mddmax_bip, setcover_to_mddmin_bip)
from .subroutines import (FDepProblem, dissociation_delete,
                          dominating_set_approx, f_dependent_delete)

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_BUDGET = 3
EXIT_INPUT = 4


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _write_or_print(text: str, out: str):
    if out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _cmd_solve(args) -> int:
    inst = fileio.parse_instance(_read(args.instance))
    solution, notes = solve(args.algo, inst, args.max_L)
    for line in notes:
        print(line)
    print(f"solution: {' '.join(str(v) for v in solution.sorted_vertices())}")
    print(f"size: {solution.size}  weight: {solution.total_weight}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    inst = fileio.parse_instance(_read(args.instance))
    vertices = fileio.parse_solution(_read(args.solution))
    if is_feasible(inst, vertices):
        print("FEASIBLE")
        return EXIT_OK
    print("INFEASIBLE")
    return EXIT_INFEASIBLE


def _cmd_reduce(args) -> int:
    if args.source == "mindom":
        g = fileio.parse_graph(_read(args.input))
        if args.target == "mddmin":
            art = mindom_to_mddmin(g)
        elif args.target == "cubic":
            art = mindom_cubic_to_mddmax_cubic(g)
        else:
            raise InputError(f"cannot reduce mindom to '{args.target}'")
    else:  # setcover
        sys_ = fileio.parse_setsystem(_read(args.input))
        if args.target == "mddmin-bip":
            art = setcover_to_mddmin_bip(sys_)
        elif args.target == "mddmax-bip":
            art = setcover_to_mddmax_bip(sys_)
        else:
            raise InputError(f"cannot reduce setcover to '{args.target}'")
    text = fileio.serialize_instance(art.instance)
    if args.roles:
        text += "".join(f"# role {v} {r}\n" for v, r in enumerate(art.roles))
    _write_or_print(text, args.out)
    return EXIT_OK


def _cmd_gen(args) -> int:
    if args.family == "regular":
        g = generate_random_regular(args.n, args.k, args.seed)
    else:
        g = generate_gnp(args.n, args.prob, args.seed)
    _write_or_print(fileio.serialize_graph(g), args.out)
    return EXIT_OK


def _cmd_bench(args) -> int:
    cfg = ExperimentConfig.from_json(_read(args.config))
    report = run_experiment(cfg)
    if args.csv:
        _write_or_print(report.to_csv(), args.csv)
    if args.json:
        _write_or_print(report.to_json(), args.json)
    if not args.csv and not args.json:
        sys.stdout.write(report.to_csv())
    return EXIT_OK


def _cmd_subroutine(args) -> int:
    g = fileio.parse_graph(_read(args.graph))
    if args.kind == "fdep":
        prob = FDepProblem.uniform(g, args.cap)
        result = f_dependent_delete(prob)
    elif args.kind == "domset":
        forbidden = set(args.forbidden or [])
        result = dominating_set_approx(g, forbidden)
    else:  # dissoc
        result = dissociation_delete(g)
    print(" ".join(str(v) for v in sorted(result)))
    print(f"size: {len(result)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdd",
        description="Solvers for making a distinguished vertex the unique "
                    "minimum or maximum degree vertex by vertex deletion.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve an instance file")
    p_solve.add_argument("instance")
    p_solve.add_argument("--algo", required=True, choices=list(ALGORITHMS))
    p_solve.add_argument("--max-L", type=int, default=None, dest="max_L")
    p_solve.set_defaults(func=_cmd_solve)

    p_verify = sub.add_parser("verify", help="check a solution file")
    p_verify.add_argument("instance")
    p_verify.add_argument("solution")
    p_verify.set_defaults(func=_cmd_verify)

    p_reduce = sub.add_parser("reduce", help="run a hardness construction")
    p_reduce.add_argument("--from", dest="source", required=True,
                          choices=["mindom", "setcover"])
    p_reduce.add_argument("--to", dest="target", required=True,
                          choices=["mddmin", "mddmin-bip", "mddmax-bip",
                                   "cubic"])
    p_reduce.add_argument("input")
    p_reduce.add_argument("--out", default="-")
    p_reduce.add_argument("--roles", action="store_true",
                          help="append per-vertex role comments")
    p_reduce.set_defaults(func=_cmd_reduce)

    p_gen = sub.add_parser("gen", help="generate a random graph")
    p_gen.add_argument("--family", required=True, choices=["regular", "gnp"])
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--k", type=int, default=3)
    p_gen.add_argument("--prob", type=float, default=0.3)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", default="-")
    p_gen.set_defaults(func=_cmd_gen)

    p_bench = sub.add_parser("bench", help="run an experiment config")
    p_bench.add_argument("--config", required=True)
    p_bench.add_argument("--csv", default=None)
    p_bench.add_argument("--json", default=None)
    p_bench.set_defaults(func=_cmd_bench)

    p_sub = sub.add_parser("subroutine", help="run a greedy subroutine directly")
    p_sub.add_argument("--kind", required=True,
                       choices=["fdep", "domset", "dissoc"])
    p_sub.add_argument("--graph", required=True)
    p_sub.add_argument("--cap", type=int, default=1)
    p_sub.add_argument("--forbidden", type=int, nargs="*", default=None)
    p_sub.set_defaults(func=_cmd_subroutine)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InfeasibleError, InapplicableError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except BudgetError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (InputError, PreconditionError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MDDError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
