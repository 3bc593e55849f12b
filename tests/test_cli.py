import csv
import io
import json
import os
import re
import runpy
import shlex
import subprocess
import sys

import mdd
import pytest
from hypothesis import given, settings, strategies as st

from mdd import (Graph, Instance, Objective, generate_gnp,
                 generate_random_cubic, serialize_graph,
                 serialize_instance, SetSystem, mindom_cubic_to_mddmax_cubic,
                 mindom_to_mddmin,
                 parse_graph, parse_instance, setcover_to_mddmax_bip,
                 setcover_to_mddmin_bip)
from mdd import InputError, fileio
from mdd.bench import ALGORITHMS
from mdd.cli import build_parser, main

from testkit import (complete, serialize_setsystem, serialize_solution,
                     star)

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def write_instance(tmp_path, inst, name="inst.txt"):
    path = tmp_path / name
    path.write_text(serialize_instance(inst))
    return str(path)


def _usage_error(argv, capsys) -> str:
    """Run the CLI on a bad command line; check it exits 4 with argparse's
    usage text, and return stderr."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 4
    err = capsys.readouterr().err
    assert err.startswith("usage: mdd")
    return err


class TestUsage:
    @pytest.mark.parametrize("argv, message", [
        (["solve", "f.txt", "--algo", "bogus"], "invalid choice: 'bogus'"),
        (["gen", "--family", "gnp", "--n", "x"], "invalid int value: 'x'"),
        (["reduce", "g.txt"], "required: --to"),
        ([], "required: command"),
        # --kind fdep at its default cap 1 is dissociation deletion.
        (["subroutine", "--kind", "dissoc", "--graph", "g.txt"],
         "invalid choice: 'dissoc'"),
        # logn's branches count against exact.DEFAULT_BUDGET: no |L| cap.
        (["solve", "f.txt", "--algo", "logn", "--max-L", "12"],
         "unrecognized arguments: --max-L 12")])
    def test_usage_error_exits_4(self, capsys, argv, message):
        assert message in _usage_error(argv, capsys)

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: mdd solve")

    @pytest.mark.filterwarnings("ignore:'mdd.cli' found in sys.modules")
    @pytest.mark.parametrize("args, code", [
        (["solve", "{inst}", "--algo", "oracle"], 0),
        (["solve", "{inst}", "--algo", "bogus"], 4)], ids=["solved", "usage"])
    def test_module_exits_with_mains_code(self, tmp_path, monkeypatch, capsys,
                                          args, code):
        # `python -m mdd.cli` hands main's return value to sys.exit.
        inst = write_instance(tmp_path, Instance(Graph.path(3), 1, None,
                                                 Objective.MAX))
        monkeypatch.setattr(sys, "argv",
                            ["mdd"] + [a.format(inst=inst) for a in args])
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("mdd.cli", run_name="__main__")
        assert exc.value.code == code
        out, err = capsys.readouterr()
        assert bool(out) == (code == 0) and bool(err) == (code != 0)

    def test_readme_cli_lines_parse(self):
        # Parsed only, not run: the files they name need not exist.
        text = open(README, encoding="utf-8").read()
        block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1]
        lines = [shlex.split(line, comments=True)
                 for line in block.split("```", 1)[0].splitlines()]
        commands = [words for words in lines if words and words[0] == "mdd"]
        assert len(commands) >= 10
        for words in commands:
            build_parser().parse_args(words[1:])
        # Every registered solver is shown, and no other.
        assert {words[words.index("--algo") + 1] for words in commands
                if "--algo" in words} == set(ALGORITHMS)

    def test_readme_python_blocks_run(self):
        # Each block runs on its own, and every `name = ...  # <set>` comment
        # (a DeletionSet's vertices or a frozenset) states the value.
        text = open(README, encoding="utf-8").read()
        blocks = [part.split("```", 1)[0]
                  for part in text.split("```python\n")[1:]]
        stated = {}
        for block in blocks:
            namespace = {}
            exec(block, namespace)
            for name, value in re.findall(
                    r"^(\w+) = .*# (?:DeletionSet\(vertices=|frozenset\()"
                    r"(\{[\d, ]*\})", block, re.M):
                got = namespace[name]
                stated[name] = set(getattr(got, "vertices", got))
                assert stated[name] == set(map(int, re.findall(r"\d+", value)))
        assert stated == {"best": {1, 4}, "opt": {1}, "dom": {1}}


_INSTANCE = "2 1\n0 1\np 0 objective max\n"


class TestMalformedInput:
    @pytest.mark.parametrize("verb, text, message", [
        ("solve", "# nothing\n", "empty graph file"),
        ("solve", "3 2\n0 1\n", "expected 2 edge lines, got 1"),
        ("verify", "3 1\n0 1 2\n", "line 2: expected 'u v'"),
        ("solve", "3 1\n# loop\n1 1\n", "line 3: self-loop at 1"),
        ("reduce", "3 1\n0 3\n", "line 2: edge (0, 3) out of range"),
        ("reduce", "3 2\n0 1\n0 1\n", "line 3: duplicate edge (0, 1)"),
        ("solve", "2 1\n0 1\np 0 objective\n",
         "line 3: expected 'p <id> objective <min|max>'"),
        ("verify", "2 1\n0 1\np 0 objective mid\n",
         "line 3: objective must be 'min' or 'max'"),
        ("solve", _INSTANCE + "w 1\n", "line 4: expected 'w <id> <weight>'"),
        ("verify", _INSTANCE + "w 2 3\n", "line 4: vertex 2 out of range"),
        ("solve", _INSTANCE + "w 1 3\nw 1 inf\n",
         "line 5: duplicate weight for vertex 1"),
        ("reduce-sets", "\n", "empty set system file"),
        ("reduce-sets", "2\n", "line 1: expected 'r t' header"),
        ("reduce-sets", "2 2\n0 1\n", "expected 2 set lines, got 1"),
        ("reduce-sets", "2 1\n0 1\n1\n",
         "line 3: trailing content after set list"),
        ("reduce", "3 -1\n", "line 1: 'n m' counts must be >= 0"),
        ("solve", "2 1\n0 1\np 7 objective max\n",
         "line 3: distinguished vertex 7 out of range"),
        ("verify", _INSTANCE + "w 1 0\n",
         "line 4: weight must be a positive integer or 'inf'"),
        ("reduce-sets", "2 -1\n", "line 1: 'r t' counts must be >= 1"),
        ("reduce-sets", "2 0\n", "line 1: 'r t' counts must be >= 1"),
        ("reduce-sets", "0 0\n", "line 1: 'r t' counts must be >= 1"),
        ("reduce-sets", "2 2\n0\n# c\n1 2\n",
         "line 4: element 2 outside universe"),
    ])
    def test_exits_4_with_message(self, tmp_path, capsys, verb, text, message):
        path = tmp_path / "input.txt"
        path.write_text(text)
        sol_path = tmp_path / "sol.txt"
        sol_path.write_text("1\n")
        argv = {"solve": ["solve", str(path), "--algo", "oracle"],
                "verify": ["verify", str(path), str(sol_path)],
                "reduce": ["reduce", "--to", "mddmin", str(path)],
                "reduce-sets": ["reduce", "--to", "mddmin-bip", str(path)],
                }[verb]
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: {message}\n"

    @pytest.mark.parametrize("parse, text, message", [
        (fileio.parse_graph, "3 -1\n", "line 1: 'n m' counts must be >= 0"),
        (fileio.parse_instance, "3 -1\np 0 objective min\n",
         "line 1: 'n m' counts must be >= 0"),
        (fileio.parse_graph, "-1 0\n", "line 1: 'n m' counts must be >= 0"),
        (fileio.parse_setsystem, "2 -1\n",
         "line 1: 'r t' counts must be >= 1"),
        (fileio.parse_setsystem, "2 0\n",
         "line 1: 'r t' counts must be >= 1"),
        (fileio.parse_setsystem, "0 0\n",
         "line 1: 'r t' counts must be >= 1"),
        (fileio.parse_instance, _INSTANCE.replace("p 0", "p -1"),
         "line 3: distinguished vertex -1 out of range"),
        (fileio.parse_instance, _INSTANCE + "w 1 -2\n",
         "line 4: weight must be a positive integer or 'inf'"),
        (fileio.parse_setsystem, "2 2\n0 1\n-1\n",
         "line 3: element -1 outside universe"),
    ], ids=["graph-m", "instance-m", "graph-n", "setsystem-t",
            "setsystem-t-zero", "setsystem-r-zero", "p", "weight", "element"])
    def test_parsers_check_each_value_on_its_line(self, parse, text, message):
        # Each value is checked where it is read, so the error names its
        # line; a negative count is no empty list.
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            parse(text)

    # Small integers only: a header such as `n m` may not ask for a huge
    # graph.  Other tokens are keywords, integer look-alikes the formats
    # reject, and short runs of characters that are not decimal digits.
    _TOKEN = st.one_of(
        st.integers(-2, 9).map(str),
        st.sampled_from(["p", "w", "objective", "min", "max", "inf", "#",
                         "+1", "1_0", "\u0663", "0x1", "1.5"]),
        st.text(st.characters(blacklist_categories=("Nd", "Cs")),
                max_size=3))
    _LINES = st.lists(st.lists(_TOKEN, max_size=5).map(" ".join),
                      max_size=8).map("\n".join)

    @staticmethod
    def _replace(text, edits):
        """`text` with the token at each (index mod count) replaced."""
        tokens = text.replace("\n", " \n ").split(" ")
        for i, token in edits:
            tokens[i % len(tokens)] = token
        return " ".join(tokens)

    # Valid files of each format, then a few tokens replaced, reach the
    # checks behind the headers.
    _VALID = ["3 2\n0 1\n1 2\n", _INSTANCE + "w 1 inf\n",
              "3 2\n0 1\n1 2\np 1 objective min\nw 0 2\nw 2 5\n",
              "2 3\n0\n1\n0 1\n", "0 2 5\n"]
    _TEXT = st.one_of(_LINES, st.builds(
        _replace, st.sampled_from(_VALID),
        st.lists(st.tuples(st.integers(0, 30), _TOKEN), max_size=3)))

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(_TEXT, st.sampled_from([
        fileio.parse_graph, fileio.parse_instance, fileio.parse_setsystem,
        fileio.parse_solution]))
    def test_parsers_raise_only_input_error(self, text, parse):
        try:
            parse(text)
        except InputError:
            pass


class TestSolve:
    def test_oracle(self, tmp_path, capsys):
        path = write_instance(tmp_path, Instance(Graph.cycle(5), 0))
        assert main(["solve", path, "--algo", "oracle"]) == 0
        out = capsys.readouterr().out
        assert "solution: 1 4" in out
        assert "size: 2" in out

    def test_oracle_minimises_weight(self, tmp_path, capsys):
        # the minimum-cardinality set {2, 5} weighs 8; {5, 7} weighs 6
        inst = Instance(generate_gnp(9, 0.5, 0), 0, (1, 3, 5, 4, 4, 3, 4, 3, 5),
                        Objective.MAX)
        path = write_instance(tmp_path, inst)
        assert main(["solve", path, "--algo", "oracle"]) == 0
        out = capsys.readouterr().out
        assert "solution: 5 7\n" in out
        assert "size: 2  weight: 6\n" in out

    def test_dual_logn_min(self, tmp_path, capsys):
        # logn solves a Min instance on the complement: L and K are the
        # complement's, the solution is the Min instance's.
        path = write_instance(tmp_path, Instance(Graph.cycle(5), 0))
        assert main(["solve", path, "--algo", "logn"]) == 0
        assert capsys.readouterr().out == ("L = [2, 3]\n"
                                           "branches = 4 (feasible 2)\n"
                                           "chosen K = []\n"
                                           "solution: 1 4\n"
                                           "size: 2  weight: 2\n")

    def test_dual_logn_on_max_exits_4(self, tmp_path, capsys):
        # The complement route has no name of its own; a Max instance is
        # solved as it is.
        inst = Instance(Graph.cycle(5), 0, None, Objective.MAX)
        path = write_instance(tmp_path, inst)
        err = _usage_error(["solve", path, "--algo", "dual-logn"], capsys)
        assert "invalid choice: 'dual-logn'" in err
        assert main(["solve", path, "--algo", "logn"]) == 0
        assert "L = [1, 4]\n" in capsys.readouterr().out

    def test_logn_chosen_k_labels(self, tmp_path, capsys):
        # K = [] wins on a star: p already has the largest degree.
        path = write_instance(tmp_path, Instance(star(3), 0, None,
                                                 Objective.MAX))
        assert main(["solve", path, "--algo", "logn"]) == 0
        assert "chosen K = []\nsolution: \n" in capsys.readouterr().out

    def test_logn_trace_output(self, tmp_path, capsys):
        inst = Instance(complete(3), 0, None, Objective.MAX)
        path = write_instance(tmp_path, inst)
        assert main(["solve", path, "--algo", "logn"]) == 0
        out = capsys.readouterr().out
        assert "L = [1, 2]" in out
        assert "branches = 4" in out
        assert "solution: 1 2" in out

    def test_logn_output_where_branches_are_pruned(self, tmp_path, capsys):
        # G(40, 0.1), seed 0, p = 3: |L| = 6, and the greedy runs on 7 of
        # the 56 feasible branches; the others are provably heavier.
        inst = Instance(generate_gnp(40, 0.1, 0), 3, None, Objective.MAX)
        path = write_instance(tmp_path, inst)
        assert main(["solve", path, "--algo", "logn"]) == 0
        assert capsys.readouterr().out == ("L = [1, 7, 14, 15, 22, 31]\n"
                                           "branches = 64 (feasible 56)\n"
                                           "chosen K = []\n"
                                           "solution: 4 8 23 26 36 38\n"
                                           "size: 6  weight: 6\n")

    def test_cubic_trace_output(self, tmp_path, capsys):
        inst = Instance(complete(4), 0, None, Objective.MAX)
        path = write_instance(tmp_path, inst)
        assert main(["solve", path, "--algo", "cubic"]) == 0
        out = capsys.readouterr().out
        assert "winning case: full" in out

    def test_cubic_output_with_a_stopped_branch(self, tmp_path, capsys):
        # Cubic n = 8, seed 1, p = 1: the domination candidate has size 3,
        # so the branch at x = 3, whose candidate has size 4, stops; the
        # branch at x = 6 ties at 3, runs and loses on case rank, and the
        # one at x = 0 does not apply.
        inst = Instance(generate_random_cubic(8, 1), 1, None, Objective.MAX)
        path = write_instance(tmp_path, inst)
        assert main(["solve", path, "--algo", "cubic"]) == 0
        assert capsys.readouterr().out == (
            "candidate domination: size 3\n"
            "candidate dissociation: size 3\n"
            "candidate full: size 7\n"
            "stopped dissociation branches: 1\n"
            "winning case: domination\n"
            "solution: 2 4 5\n"
            "size: 3  weight: 3\n")

    def test_kreg_on_large_cubic(self, tmp_path, capsys):
        g_path = tmp_path / "g.txt"
        assert main(["gen", "--family", "regular", "--n", "1000", "--k", "3",
                     "--seed", "0", "--out", str(g_path)]) == 0
        g = parse_graph(g_path.read_text())
        path = write_instance(tmp_path, Instance(g, 0))
        assert main(["solve", path, "--algo", "kreg-exact"]) == 0
        assert "solution: " in capsys.readouterr().out

    def test_kreg_on_edgeless_graph(self, tmp_path, capsys):
        path = write_instance(tmp_path, Instance(Graph(4, []), 2))
        assert main(["solve", path, "--algo", "kreg-exact"]) == 0
        assert capsys.readouterr().out.endswith(
            "solution: 0 1 3\nsize: 3  weight: 3\n")

    def test_kreg_on_irregular_prints_the_oracle_answer(self, tmp_path,
                                                        capsys):
        path = write_instance(tmp_path, Instance(star(3), 0))
        assert main(["solve", path, "--algo", "kreg-exact"]) == 0
        out = capsys.readouterr().out
        assert out.endswith("solution: 1 2 3\nsize: 3  weight: 3\n")
        assert main(["solve", path, "--algo", "oracle"]) == 0
        assert capsys.readouterr().out == out

    def test_logn_budget_exits_3(self, tmp_path, capsys, monkeypatch):
        # On K8, L is N(p): 2^7 branches, one more than the budget.
        monkeypatch.setattr(mdd.exact, "DEFAULT_BUDGET", 2 ** 7 - 1)
        inst = Instance(complete(8), 0, None, Objective.MAX)
        path = write_instance(tmp_path, inst)
        assert main(["solve", path, "--algo", "logn"]) == 3
        assert capsys.readouterr().err == (
            "budget exhausted: 2^7 branches exceed the budget of 127 search "
            "nodes\n")

    def test_bad_file_exits_4(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("not a graph\n")
        assert main(["solve", str(path), "--algo", "oracle"]) == 4

    def test_file_not_utf8_exits_4(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"\xff\xfe")
        assert main(["solve", str(path), "--algo", "oracle"]) == 4
        assert capsys.readouterr().err.startswith("input error: cannot read")


# Runs under `python -O`: a registered solver that returns an infeasible set
# must still be caught by both the CLI (exit 4) and the bench harness (an
# `error` row, counted as failed).
_OPTIMISED_SCRIPT = """
import sys
from mdd import (DeletionSet, ExperimentConfig, Graph, Instance,
                 run_experiment, serialize_instance)
from mdd import bench
from mdd.cli import main
if __debug__:
    sys.exit("expected python -O")
bench.ALGORITHMS["oracle"] = lambda inst: (DeletionSet(frozenset(), 0), ())
with open(sys.argv[1], "w") as f:
    f.write(serialize_instance(Instance(Graph.cycle(5), 0)))
print("exit", main(["solve", sys.argv[1], "--algo", "oracle"]))
report = run_experiment(ExperimentConfig(family="regular", sizes=[6],
                                         algorithms=["oracle"],
                                         instances_per_size=1))
print("rows", [row.extra for row in report.rows],
      "failed", report.aggregates["oracle"]["failed"])
"""


def test_verification_survives_optimised_mode(tmp_path):
    src = os.path.dirname(os.path.dirname(mdd.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMISED_SCRIPT,
         str(tmp_path / "inst.txt")],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "exit 4", "rows [{'status': 'error'}] failed 1"]
    assert "error: solver 'oracle' returned an infeasible" in proc.stderr


class TestVerify:
    def test_feasible(self, tmp_path, capsys):
        inst_path = write_instance(tmp_path, Instance(Graph.cycle(5), 0))
        sol_path = tmp_path / "sol.txt"
        sol_path.write_text(serialize_solution({1, 4}))
        assert main(["verify", inst_path, str(sol_path)]) == 0
        assert "FEASIBLE" in capsys.readouterr().out

    def test_deleting_an_undeletable_vertex_is_infeasible(self, tmp_path,
                                                          capsys):
        # Without the inf weight on vertex 1, deleting {1, 2} is feasible.
        g_path = tmp_path / "g.txt"
        assert main(["gen", "--family", "gnp", "--n", "5", "--prob", "0.5",
                     "--seed", "0", "--out", str(g_path)]) == 0
        inst_path = tmp_path / "inst.txt"
        inst_path.write_text(g_path.read_text()
                             + "p 0 objective max\nw 1 inf\n")
        sol_path = tmp_path / "sol.txt"
        sol_path.write_text("1 2\n")
        assert main(["verify", str(inst_path), str(sol_path)]) == 2
        assert capsys.readouterr().out == "INFEASIBLE\n"
        assert main(["solve", str(inst_path), "--algo", "oracle"]) == 2
        inst_path.write_text(g_path.read_text() + "p 0 objective max\n")
        assert main(["verify", str(inst_path), str(sol_path)]) == 0

    def test_infeasible(self, tmp_path, capsys):
        inst_path = write_instance(tmp_path, Instance(Graph.cycle(5), 0))
        sol_path = tmp_path / "sol.txt"
        sol_path.write_text(serialize_solution({1}))
        assert main(["verify", inst_path, str(sol_path)]) == 2
        assert "INFEASIBLE" in capsys.readouterr().out


class TestReduce:
    def test_mindom_roundtrip(self, tmp_path):
        g_path = tmp_path / "g.txt"
        g_path.write_text(serialize_graph(Graph.path(3)))
        out_path = tmp_path / "h.txt"
        assert main(["reduce", "--to", "mddmin",
                     str(g_path), "--out", str(out_path)]) == 0
        inst = parse_instance(out_path.read_text())
        assert inst.graph.n == 3 * 3 + 3
        assert inst.objective is Objective.MIN

    def test_roles_comments_skipped_on_reparse(self, tmp_path):
        g_path = tmp_path / "g.txt"
        g_path.write_text(serialize_graph(Graph.path(3)))
        out_path = tmp_path / "h.txt"
        assert main(["reduce", "--to", "mddmin",
                     str(g_path), "--out", str(out_path), "--roles"]) == 0
        text = out_path.read_text()
        assert "# role 3 p" in text
        parse_instance(text)  # comments are ignored

    def test_setcover_precondition_exits_4(self, tmp_path, capsys):
        # r > t is outside the construction's hypotheses, as a non-cubic
        # graph is for --to cubic: a precondition, not an infeasible input.
        s_path = tmp_path / "s.txt"
        s_path.write_text(serialize_setsystem(SetSystem(3, [{0, 1}, {2}])))
        assert main(["reduce", "--to", "mddmax-bip", str(s_path)]) == 4
        assert capsys.readouterr().err == (
            "input error: construction needs r <= t (got r=3, t=2)\n")

    def test_bad_target_combination(self, tmp_path, capsys):
        # --to alone picks the source problem, so --from is a usage error,
        # even with the source that --to picks.
        g_path = tmp_path / "g.txt"
        g_path.write_text(serialize_graph(Graph.path(3)))
        err = _usage_error(["reduce", "--from", "mindom", "--to", "mddmin",
                            str(g_path)], capsys)
        assert "unrecognized arguments: --from" in err

    @pytest.mark.parametrize("source, target, build", [
        ("mindom", "mddmin", mindom_to_mddmin),
        ("mindom", "cubic", mindom_cubic_to_mddmax_cubic),
        ("setcover", "mddmin-bip", setcover_to_mddmin_bip),
        ("setcover", "mddmax-bip", setcover_to_mddmax_bip)])
    def test_output_is_the_constructed_instance(self, tmp_path, capsys,
                                                source, target, build):
        path, parsed = _reduce_input(tmp_path, source)
        assert main(["reduce", "--to", target, path]) == 0
        art = build(parsed)
        assert art.kind == target
        assert capsys.readouterr().out == serialize_instance(art.instance)

    @pytest.mark.parametrize("source, target", [
        ("mindom", "mddmin-bip"), ("mindom", "mddmax-bip"),
        ("setcover", "mddmin"), ("setcover", "cubic")])
    def test_mismatched_pair_exits_4(self, tmp_path, capsys, source, target):
        # A pair of problems can no longer be written: each --to names one.
        path, _ = _reduce_input(tmp_path, source)
        err = _usage_error(["reduce", "--from", source, "--to", target, path],
                           capsys)
        assert "unrecognized arguments: --from" in err


def _reduce_input(tmp_path, source):
    """A reduce input file of the given source problem and its parsed value."""
    if source == "mindom":
        value = complete(4)
        text = serialize_graph(value)
    else:
        value = SetSystem(2, [{0}, {1}, {0, 1}])
        text = serialize_setsystem(value)
    path = tmp_path / "input.txt"
    path.write_text(text)
    return str(path), value


class TestGenAndSubroutine:
    def test_gen_regular(self, tmp_path):
        out_path = tmp_path / "g.txt"
        assert main(["gen", "--family", "regular", "--n", "8", "--k", "3",
                     "--seed", "1", "--out", str(out_path)]) == 0
        assert parse_graph(out_path.read_text()).regular_degree() == 3

    def test_gen_regular_degree_7(self, tmp_path):
        # The pairing model alone fails here for every seed 0-19.
        out_path = tmp_path / "g.txt"
        assert main(["gen", "--family", "regular", "--n", "30", "--k", "7",
                     "--out", str(out_path)]) == 0
        assert parse_graph(out_path.read_text()).regular_degree() == 7

    def test_gen_impossible_exits_4(self, tmp_path):
        assert main(["gen", "--family", "regular", "--n", "5", "--k", "3"]) == 4

    def test_unwritable_out_exits_4(self, tmp_path, capsys):
        for out in (tmp_path, tmp_path / "missing" / "g.txt"):
            assert main(["gen", "--family", "gnp", "--n", "5",
                         "--out", str(out)]) == 4
            err = capsys.readouterr().err
            assert err.startswith(f"input error: cannot write {out}: ")

    def test_subroutine_fdep(self, tmp_path, capsys):
        g_path = tmp_path / "g.txt"
        g_path.write_text(serialize_graph(star(4)))
        assert main(["subroutine", "--kind", "fdep", "--graph", str(g_path),
                     "--cap", "1"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "0"

    def test_subroutine_domset_infeasible_exits_2(self, tmp_path, capsys):
        g_path = tmp_path / "g.txt"
        g_path.write_text(serialize_graph(Graph(3, [(0, 1)])))
        assert main(["subroutine", "--kind", "domset", "--graph", str(g_path),
                     "--forbidden", "2"]) == 2

    def test_subroutine_domset_forbidden_out_of_range_exits_4(self, tmp_path,
                                                             capsys):
        g_path = tmp_path / "g.txt"
        g_path.write_text("3 1\n0 1\n")
        assert main(["subroutine", "--kind", "domset", "--graph", str(g_path),
                     "--forbidden", "7", "-5"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "input error: forbidden vertex 7 not in range(3)\n")

    @pytest.mark.parametrize("cap, expected", [
        ([], "1 2 3"), (["--cap", "2"], "1 2"), (["--cap", "1"], "1 2 3")],
        ids=["fdep", "fdep-cap2", "fdep-cap1"])
    def test_subroutine_forbidden_applies_to_every_kind(self, tmp_path, capsys,
                                                        cap, expected):
        # Without --forbidden 0 each of these deletes the star's centre.
        g_path = tmp_path / "g.txt"
        g_path.write_text(serialize_graph(star(4)))
        assert main(["subroutine", "--kind", "fdep", "--graph", str(g_path),
                     *cap, "--forbidden", "0"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == expected

    @pytest.mark.parametrize("cap", [[], ["--cap", "1"]],
                             ids=["fdep", "fdep-cap1"])
    def test_subroutine_forbidden_out_of_range_exits_4(self, tmp_path, capsys,
                                                       cap):
        g_path = tmp_path / "g.txt"
        g_path.write_text("3 1\n0 1\n")
        assert main(["subroutine", "--kind", "fdep", "--graph", str(g_path),
                     *cap, "--forbidden", "3"]) == 4
        assert capsys.readouterr().err == (
            "input error: forbidden vertex 3 not in range(3)\n")

    @pytest.mark.parametrize("kind", ["domset"])
    def test_subroutine_cap_without_fdep_exits_4(self, tmp_path, capsys, kind):
        g_path = tmp_path / "g.txt"
        g_path.write_text(serialize_graph(star(4)))
        assert main(["subroutine", "--kind", kind, "--graph", str(g_path),
                     "--cap", "3"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--cap applies only to --kind fdep" in captured.err


def _mask_wall_time(report):
    rows = list(csv.DictReader(io.StringIO(report)))
    assert rows
    for row in rows:
        row["wall_time"] = "-"
    return rows


class TestBenchCommand:
    def test_bench_csv_and_json(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "family": "gnp", "sizes": [5], "instances_per_size": 1,
            "algorithms": ["oracle"]}))
        csv_path = tmp_path / "out.csv"
        json_path = tmp_path / "out.json"
        assert main(["bench", "--config", str(cfg_path),
                     "--csv", str(csv_path), "--json", str(json_path)]) == 0
        assert csv_path.read_text().startswith("instance_id,")
        payload = json.loads(json_path.read_text())
        assert payload["aggregates"]["oracle"]["rows"] == 1
        # With neither file, the CSV report goes to stdout.
        capsys.readouterr()
        assert main(["bench", "--config", str(cfg_path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert (_mask_wall_time(captured.out)
                == _mask_wall_time(csv_path.read_text()))

    @pytest.mark.parametrize("config, inapplicable", [
        ({"family": "gnp", "sizes": [6], "objective": "max",
          "algorithms": ["oracle", "kreg-exact"]}, "kreg-exact"),
        ({"family": "regular", "k": 2, "sizes": [6], "objective": "max",
          "algorithms": ["cubic"]}, "cubic"),
    ])
    def test_bench_records_inapplicable_solver_rows(
            self, tmp_path, capsys, config, inapplicable):
        # A solver whose precondition fails on an instance (kreg-exact on a
        # Max instance, cubic on a 2-regular one) gives a failed row
        # per instance; the run ends, and every other row is solved and
        # every instance scored.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        json_path = tmp_path / "out.json"
        assert main(["bench", "--config", str(cfg_path),
                     "--json", str(json_path)]) == 0
        assert capsys.readouterr().err == ""
        payload = json.loads(json_path.read_text())
        rows = payload["rows"]
        assert len(rows) == 5 * len(config["algorithms"])
        for row in rows:
            assert row["oracle_weight"] is not None
            if row["algorithm"] == inapplicable:
                assert row["extra"] == {"status": "inapplicable"}
                assert (row["size"], row["weight"], row["feasible"]) == \
                    (None, None, None)
            else:
                assert row["extra"] == {} and row["feasible"] is True
        assert {name: agg["failed"]
                for name, agg in payload["aggregates"].items()} == {
            name: 5 if name == inapplicable else 0
            for name in config["algorithms"]}

    def test_bench_bad_config_exits_4(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{}")
        assert main(["bench", "--config", str(cfg_path)]) == 4

    @pytest.mark.parametrize("config", [
        {"family": "gnp", "sizes": [5.5]},
        {"family": "gnp", "sizes": "ab"},
        {"family": "gnp", "sizes": [5], "instances_per_size": "x"},
        {"family": "gnp", "sizes": [5], "k": "3"},
        {"family": "setcover", "sizes": [4], "seed": 1.5},
        [1, 2],
        None,
    ])
    def test_bench_badly_typed_config_exits_4(self, tmp_path, capsys, config):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["bench", "--config", str(cfg_path)]) == 4
        assert capsys.readouterr().err.startswith("input error:")

    @pytest.mark.parametrize("family, name", [("gnp", "oracle"),
                                              ("setcover", "logn")])
    def test_bench_repeated_algorithm_exits_4(self, tmp_path, capsys, family,
                                              name):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"family": family, "sizes": [6], "algorithms": [name, name]}))
        assert main(["bench", "--config", str(cfg_path)]) == 4
        assert (capsys.readouterr().err
                == f"input error: algorithm '{name}' is listed twice\n")
