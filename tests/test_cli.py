import json
import os
import subprocess
import sys

import mdd
from mdd import (Graph, Instance, Objective, generate_gnp, serialize_graph,
                 serialize_instance, serialize_setsystem, serialize_solution,
                 SetSystem, parse_instance)
from mdd.cli import main


def write_instance(tmp_path, inst, name="inst.txt"):
    path = tmp_path / name
    path.write_text(serialize_instance(inst))
    return str(path)


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
        path = write_instance(tmp_path, Instance(Graph.cycle(5), 0))
        assert main(["solve", path, "--algo", "dual-logn"]) == 0
        assert capsys.readouterr().out == ("branches = 4 (feasible 2)\n"
                                           "solution: 1 4\n"
                                           "size: 2  weight: 2\n")

    def test_dual_logn_on_max_exits_4(self, tmp_path, capsys):
        inst = Instance(Graph.cycle(5), 0, None, Objective.MAX)
        path = write_instance(tmp_path, inst)
        assert main(["solve", path, "--algo", "dual-logn"]) == 4
        assert "expects a Min instance" in capsys.readouterr().err

    def test_logn_trace_output(self, tmp_path, capsys):
        inst = Instance(Graph.complete(3), 0, None, Objective.MAX)
        path = write_instance(tmp_path, inst)
        assert main(["solve", path, "--algo", "logn"]) == 0
        out = capsys.readouterr().out
        assert "L = [1, 2]" in out
        assert "branches = 4" in out
        assert "solution: 1 2" in out

    def test_cubic_trace_output(self, tmp_path, capsys):
        inst = Instance(Graph.complete(4), 0, None, Objective.MAX)
        path = write_instance(tmp_path, inst)
        assert main(["solve", path, "--algo", "cubic"]) == 0
        out = capsys.readouterr().out
        assert "winning case: full" in out

    def test_kreg_on_irregular_exits_4(self, tmp_path, capsys):
        path = write_instance(tmp_path, Instance(Graph.star(3), 0))
        assert main(["solve", path, "--algo", "kreg-exact"]) == 4

    def test_logn_budget_exits_3(self, tmp_path, capsys):
        inst = Instance(Graph.complete(8), 0, None, Objective.MAX)
        path = write_instance(tmp_path, inst)
        assert main(["solve", path, "--algo", "logn", "--max-L", "2"]) == 3

    def test_bad_file_exits_4(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("not a graph\n")
        assert main(["solve", str(path), "--algo", "oracle"]) == 4


# Runs under `python -O`: a registered solver that returns an infeasible set
# must still be caught by both the CLI and the bench harness.
_OPTIMISED_SCRIPT = """
import sys
from mdd import (DeletionSet, ExperimentConfig, Graph, Instance, MDDError,
                 run_experiment, serialize_instance)
from mdd import bench
from mdd.cli import main
if __debug__:
    sys.exit("expected python -O")
bench.ALGORITHMS["oracle"] = lambda inst, max_L: (DeletionSet(frozenset(), 0), ())
with open(sys.argv[1], "w") as f:
    f.write(serialize_instance(Instance(Graph.cycle(5), 0)))
print("exit", main(["solve", sys.argv[1], "--algo", "oracle"]))
try:
    run_experiment(ExperimentConfig(family="regular", sizes=[6],
                                    algorithms=["oracle"],
                                    instances_per_size=1))
except MDDError:
    print("raised")
"""


def test_verification_survives_optimised_mode(tmp_path):
    src = os.path.dirname(os.path.dirname(mdd.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMISED_SCRIPT,
         str(tmp_path / "inst.txt")],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["exit 4", "raised"]
    assert "error: solver 'oracle' returned an infeasible" in proc.stderr


class TestVerify:
    def test_feasible(self, tmp_path, capsys):
        inst_path = write_instance(tmp_path, Instance(Graph.cycle(5), 0))
        sol_path = tmp_path / "sol.txt"
        sol_path.write_text(serialize_solution({1, 4}))
        assert main(["verify", inst_path, str(sol_path)]) == 0
        assert "FEASIBLE" in capsys.readouterr().out

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
        assert main(["reduce", "--from", "mindom", "--to", "mddmin",
                     str(g_path), "--out", str(out_path)]) == 0
        inst = parse_instance(out_path.read_text())
        assert inst.graph.n == 3 * 3 + 3
        assert inst.objective is Objective.MIN

    def test_roles_comments_skipped_on_reparse(self, tmp_path):
        g_path = tmp_path / "g.txt"
        g_path.write_text(serialize_graph(Graph.path(3)))
        out_path = tmp_path / "h.txt"
        assert main(["reduce", "--from", "mindom", "--to", "mddmin",
                     str(g_path), "--out", str(out_path), "--roles"]) == 0
        text = out_path.read_text()
        assert "# role 3 p" in text
        parse_instance(text)  # comments are ignored

    def test_setcover_precondition_exits_2(self, tmp_path):
        s_path = tmp_path / "s.txt"
        s_path.write_text(serialize_setsystem(SetSystem(3, [{0, 1}, {2}])))
        assert main(["reduce", "--from", "setcover", "--to", "mddmax-bip",
                     str(s_path)]) == 2

    def test_bad_target_combination(self, tmp_path):
        g_path = tmp_path / "g.txt"
        g_path.write_text(serialize_graph(Graph.path(3)))
        assert main(["reduce", "--from", "mindom", "--to", "mddmax-bip",
                     str(g_path)]) == 4


class TestGenAndSubroutine:
    def test_gen_regular(self, tmp_path):
        out_path = tmp_path / "g.txt"
        assert main(["gen", "--family", "regular", "--n", "8", "--k", "3",
                     "--seed", "1", "--out", str(out_path)]) == 0
        from mdd import parse_graph
        assert parse_graph(out_path.read_text()).regular_degree() == 3

    def test_gen_impossible_exits_4(self, tmp_path):
        assert main(["gen", "--family", "regular", "--n", "5", "--k", "3"]) == 4

    def test_subroutine_fdep(self, tmp_path, capsys):
        g_path = tmp_path / "g.txt"
        g_path.write_text(serialize_graph(Graph.star(4)))
        assert main(["subroutine", "--kind", "fdep", "--graph", str(g_path),
                     "--cap", "1"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "0"

    def test_subroutine_domset_infeasible_exits_2(self, tmp_path, capsys):
        g_path = tmp_path / "g.txt"
        g_path.write_text(serialize_graph(Graph(3, [(0, 1)])))
        assert main(["subroutine", "--kind", "domset", "--graph", str(g_path),
                     "--forbidden", "2"]) == 2


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

    def test_bench_bad_config_exits_4(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{}")
        assert main(["bench", "--config", str(cfg_path)]) == 4
