"""Command-line interface.

Verbs: solve, verify, reduce, gen, bench, subroutine.  Exit code 0 is
success; a package error exits with its class's `exit_code` and prints its
`label` and message to stderr (see `errors`): 2 no feasible deletion set,
3 budget exhausted, 4 any other error.  A usage error is malformed input, so
it exits as an InputError does.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import fileio
from .bench import ALGORITHMS, ExperimentConfig, run_experiment, solve
from .errors import InfeasibleError, InputError, MDDError
from .generators import generate_gnp, generate_random_regular
from .graph import UNDELETABLE, _ids, is_feasible
from .reductions import CONSTRUCTIONS
from .subroutines import FDepProblem, dominating_set_approx, f_dependent_delete

EXIT_OK = 0

#: Input parser of each source problem in `CONSTRUCTIONS`.
SOURCE_PARSERS = {"mindom": fileio.parse_graph,
                  "setcover": fileio.parse_setsystem}


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _write_or_print(text: str, out: str):
    if out == "-":
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text)
    except OSError as exc:
        raise InputError(f"cannot write {out}: {exc}") from None


def _cmd_solve(args) -> int:
    inst = fileio.parse_instance(_read(args.instance))
    solution, notes = solve(args.algo, inst)
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
    return InfeasibleError.exit_code


def _cmd_reduce(args) -> int:
    source_kind, build = CONSTRUCTIONS[args.target]
    art = build(SOURCE_PARSERS[source_kind](_read(args.input)))
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
    if args.cap is not None and args.kind != "fdep":
        raise InputError(f"--cap applies only to --kind fdep, not {args.kind}")
    forbidden = _ids(g.n, args.forbidden or (), "forbidden vertex")
    weights = tuple(UNDELETABLE if v in forbidden else 1 for v in range(g.n))
    if args.kind == "fdep":
        cap = 1 if args.cap is None else args.cap
        result = f_dependent_delete(FDepProblem.uniform(g, cap, weights))
    else:  # domset
        result = dominating_set_approx(g, weights)
    print(" ".join(str(v) for v in sorted(result)))
    print(f"size: {len(result)}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on a usage error, the code of an infeasible
    instance here; a malformed command line is malformed input."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(InputError.exit_code, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mdd",
        description="Solvers for making a distinguished vertex the unique "
                    "minimum or maximum degree vertex by vertex deletion.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve an instance file")
    p_solve.add_argument("instance")
    p_solve.add_argument("--algo", required=True, choices=list(ALGORITHMS))
    p_solve.set_defaults(func=_cmd_solve)

    p_verify = sub.add_parser("verify", help="check a solution file")
    p_verify.add_argument("instance")
    p_verify.add_argument("solution")
    p_verify.set_defaults(func=_cmd_verify)

    p_reduce = sub.add_parser("reduce", help="run a hardness construction")
    p_reduce.add_argument("--to", dest="target", required=True,
                          choices=list(CONSTRUCTIONS))
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
    p_sub.add_argument("--kind", required=True, choices=["fdep", "domset"])
    p_sub.add_argument("--graph", required=True)
    p_sub.add_argument("--cap", type=int, default=None,
                       help="degree cap of --kind fdep (default 1)")
    p_sub.add_argument("--forbidden", type=int, nargs="*", default=None)
    p_sub.set_defaults(func=_cmd_subroutine)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MDDError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
