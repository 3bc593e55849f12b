import dataclasses
import hashlib
import json
import re

import pytest
from hypothesis import given, settings, strategies as st

import mdd.bench
from mdd import (BudgetError, DeletionSet, ExperimentConfig, Graph, InputError,
                 PreconditionError, VerificationError, generate_gnp,
                 generate_random_regular, generate_random_setsystem,
                 parse_graph, parse_instance,
                 parse_setsystem, parse_solution, run_experiment,
                 serialize_graph, serialize_instance, serialize_setsystem,
                 serialize_solution, setcover_to_mddmax_bip,
                 setcover_to_mddmin_bip, Instance, Objective, UNDELETABLE)

from bruteforce import min_cover_size
from testkit import complete, petersen, star


class TestGenerators:
    def test_regular_determinism(self):
        a = generate_random_regular(10, 3, 7)
        b = generate_random_regular(10, 3, 7)
        assert a == b
        assert a.regular_degree() == 3

    @pytest.mark.parametrize("k", [6, 7, 8])
    def test_regular_high_degree(self, k):
        # The pairing model alone fails for 11, 20 and 20 of these seeds.
        for seed in range(20):
            g = generate_random_regular(30, k, seed)
            assert g.n == 30 and g.regular_degree() == k

    def test_n4_k3_is_k4(self):
        assert generate_random_regular(4, 3, 0) == complete(4)

    def test_odd_product_rejected(self):
        with pytest.raises(PreconditionError):
            generate_random_regular(5, 3, 0)

    def test_gnp_determinism_and_extremes(self):
        assert generate_gnp(8, 0.4, 3) == generate_gnp(8, 0.4, 3)
        assert generate_gnp(6, 0.0, 0).num_edges == 0
        assert generate_gnp(6, 1.0, 0).num_edges == 15

    def test_setsystem_meets_preconditions(self):
        r, t = 3, 5
        for seed in range(10):
            sys = generate_random_setsystem(r, t, seed)
            assert sys.universe_size == r and sys.num_sets == t
            assert all(sys.occurrences(x) <= t - 1 for x in range(r))
            assert all(1 <= len(f) <= r - 1 for f in sys.family)
        assert (generate_random_setsystem(3, 5, 1)
                == generate_random_setsystem(3, 5, 1))

    def test_setsystem_rejects_r1(self):
        with pytest.raises(PreconditionError):
            generate_random_setsystem(1, 3, 0)

    @pytest.mark.parametrize("make, args", [
        (generate_random_regular, (4, True)),
        (generate_random_regular, (4, 3.0)),
        (generate_random_regular, (4.0, 3)),
        (generate_random_regular, (True, 0)),
        (generate_gnp, (4, True)),
        (generate_gnp, (4.0, 0.5)),
        (generate_gnp, (True, 0.5)),
        (generate_gnp, ("4", 0.5)),
        (generate_gnp, (4, "0.5")),
        (generate_random_setsystem, (2.0, 3)),
        (generate_random_setsystem, (2, 3.0)),
        (generate_random_setsystem, (True, 3)),
    ], ids=["regular-bool-k", "regular-float-k", "regular-float-n",
            "regular-bool-n", "gnp-bool-p", "gnp-float-n", "gnp-bool-n",
            "gnp-str-n", "gnp-str-p", "setsystem-float-r",
            "setsystem-float-t", "setsystem-bool-r"])
    def test_bad_size_and_probability_types_rejected(self, make, args):
        with pytest.raises(InputError):
            make(*args, 0)

    # SHA-256 of [(g.n, sorted(g.edges())) for seeds 0-4], recorded while
    # the generators still built through Graph(n, edges), so a faster build
    # cannot change a generated graph; k >= 6 takes the Steger-Wormald path.
    PINNED = [
        (generate_random_regular, (8, 3), "8e5a151fdecced6c07b14acf3b474c204041b81dd2fda9e9615f66ffeb89086c"),
        (generate_random_regular, (200, 3), "4b472d89e7584731a55bcf0c2792046b9f662a152a49f74aac651c98a8bf922c"),
        (generate_random_regular, (298, 3), "6e3f04132235785dffa6d87fc3580c834bcf0bc846e6b97a7c9e17860f3968aa"),
        (generate_random_regular, (20, 4), "fd55237467a9381fd5c7cf0c6031eee5e1c4f4d2b3a1822fcb12596680a292c8"),
        (generate_random_regular, (30, 6), "c36fca365c8ddbb30a881d1003bdf2cdf37ae30fd6b11c7a9a1f7215d272fb82"),
        (generate_random_regular, (20, 7), "a94ae260f409e296aeffd2855cf1e9e4094bfebd727a5d23f984c5ae3238ad9e"),
        (generate_gnp, (0, 0.3), "976c7973fdc970bbcb00da1ea5f2c8a30c68f69adaf04e82cb8331f1f188ce33"),
        (generate_gnp, (1, 0.7), "0cf8b5acd2ab313d18673d00df11775fe849af428977af5f57afe883565322c3"),
        (generate_gnp, (12, 0.0), "d6945dd1b7f0df71b29ee911988adc0fb9ab0e2084366509484e7034c675d4f3"),
        (generate_gnp, (50, 0.1), "1817d1d7f143461277185cb77c88faa40ed804f60286e6d69010a57d93260e25"),
        (generate_gnp, (17, 0.3), "0a3fee8449f92e4ef677b3536fdbead8851e2810d38afd6ec389b1c38a48f5d4"),
        (generate_gnp, (17, 0.7), "35e89b313214c708f29dc14fa77ac00787b74d2c0703649df0092f6d396d8aa4"),
        (generate_gnp, (12, 1.0), "2e1bba6864e5869834e7e59874472c3b3d23cc30ab16892fa0dd725f7128bce7"),
    ]

    @pytest.mark.parametrize("make, args, digest", PINNED)
    def test_generated_graphs_are_pinned(self, make, args, digest):
        graphs = [make(*args, seed) for seed in range(5)]
        payload = repr([(g.n, sorted(g.edges())) for g in graphs])
        assert hashlib.sha256(payload.encode()).hexdigest() == digest
        # Each graph is the one Graph(n, edges) builds from its sorted edges,
        # down to the iteration order of every neighbour set, so solvers see
        # the same frozensets whichever way the generator built them.
        for g in graphs:
            checked = Graph(g.n, g.edges())
            assert g == checked
            assert ([list(a) for a in g.adj]
                    == [list(a) for a in checked.adj])


class TestFileIO:
    def test_graph_round_trip(self):
        g = petersen()
        text = serialize_graph(g)
        assert parse_graph(text) == g
        assert serialize_graph(parse_graph(text)) == text

    def test_graph_comments_and_blanks(self):
        text = "# a graph\n3 1\n\n0 1\n"
        assert parse_graph(text) == Graph(3, [(0, 1)])

    def test_graph_rejects_unordered_edge(self):
        with pytest.raises(InputError):
            parse_graph("3 1\n1 0\n")

    def test_graph_rejects_trailing(self):
        with pytest.raises(InputError):
            parse_graph("3 1\n0 1\n0 2\n")

    def test_instance_round_trip(self):
        inst = Instance(Graph.cycle(5), 2, (1, 4, 1, UNDELETABLE, 1),
                        Objective.MAX)
        text = serialize_instance(inst)
        assert parse_instance(text) == inst
        assert serialize_instance(parse_instance(text)) == text

    def test_instance_default_weights(self):
        inst = parse_instance("3 1\n0 1\np 0 objective min\n")
        assert inst.unit_weights
        assert inst.objective is Objective.MIN

    def test_instance_missing_header(self):
        with pytest.raises(InputError):
            parse_instance("3 1\n0 1\n")

    def test_setsystem_round_trip(self):
        sys = generate_random_setsystem(3, 4, 2)
        text = serialize_setsystem(sys)
        assert parse_setsystem(text) == sys
        assert serialize_setsystem(parse_setsystem(text)) == text

    @pytest.mark.parametrize("token", ["+3", "1_0", "0_1", "\u0663"])
    def test_integers_are_ascii_digits_only(self, token):
        # int() takes each of these; no file format does.
        with pytest.raises(InputError, match="^line 1: expected integer 'n m' header$"):
            parse_graph(f"{token} 0\n")
        with pytest.raises(InputError, match="^line 4: vertex id must be an integer$"):
            parse_instance(f"3 1\n0 1\np 0 objective min\nw {token} 2\n")
        with pytest.raises(InputError,
                           match=f"^line 1: '{re.escape(token)}' is not a vertex id$"):
            parse_solution(f"0 {token}\n")

    def test_negative_integers_still_parse(self):
        assert parse_solution("-0 -2 007\n") == frozenset({0, -2, 7})

    def test_solution_round_trip(self):
        assert parse_solution(serialize_solution({5, 1, 3})) == frozenset({1, 3, 5})
        assert serialize_solution({5, 1, 3}) == "1 3 5\n"


class TestBench:
    def test_config_validation(self):
        with pytest.raises(InputError):
            ExperimentConfig(family="nope", sizes=[5])
        with pytest.raises(InputError):
            ExperimentConfig(family="gnp", sizes=[5], algorithms=["nope"])
        with pytest.raises(InputError):
            ExperimentConfig(family="setcover", sizes=[5], algorithms=["bogus"])
        # One row per instance and algorithm: an algorithm listed twice
        # would emit duplicate rows (or run its solver twice per instance).
        for family, name in (("gnp", "oracle"), ("setcover", "logn")):
            with pytest.raises(InputError,
                               match=f"^algorithm '{name}' is listed twice$"):
                ExperimentConfig(family=family, sizes=[6],
                                 algorithms=[name, name])
        with pytest.raises(InputError):
            ExperimentConfig.from_json("not json")
        with pytest.raises(InputError):
            ExperimentConfig.from_json(json.dumps({"bogus": 1}))
        for text in ("[1,2]", "null"):
            with pytest.raises(InputError,
                               match="^experiment config must be a JSON object$"):
                ExperimentConfig.from_json(text)

    def test_solve_rejects_unknown_algorithm(self):
        inst = Instance(Graph.path(3), 0, None, Objective.MAX)
        with pytest.raises(InputError, match="^unknown algorithm 'bogus'$"):
            mdd.bench.solve("bogus", inst)

    def test_gnp_experiment(self):
        cfg = ExperimentConfig(family="gnp", sizes=[6, 7],
                               algorithms=["oracle", "logn"],
                               instances_per_size=2, seed=1, max_L=8)
        report = run_experiment(cfg)
        assert len(report.rows) == 2 * 2 * 2
        for row in report.rows:
            assert row.feasible
            if row.ratio is not None:
                assert row.ratio >= 1.0 - 1e-9
        assert report.aggregates["oracle"]["max_ratio"] == 1.0
        # determinism apart from timing
        again = run_experiment(cfg)
        assert [(r.instance_id, r.algorithm, r.size, r.weight)
                for r in report.rows] == \
               [(r.instance_id, r.algorithm, r.size, r.weight)
                for r in again.rows]

    def test_regular_min_experiment(self):
        cfg = ExperimentConfig(family="regular", sizes=[8],
                               algorithms=["oracle", "kreg-exact", "logn"],
                               k=3, instances_per_size=2, seed=2,
                               objective="min", max_L=10)
        report = run_experiment(cfg)
        for row in report.rows:
            if row.algorithm == "kreg-exact":
                assert row.ratio == 1.0

    def test_edgeless_regular_experiment_runs_to_the_end(self):
        cfg = ExperimentConfig(family="regular", sizes=[1, 4, 6],
                               algorithms=["oracle", "kreg-exact"], k=0,
                               instances_per_size=2, objective="min")
        report = run_experiment(cfg)
        assert len(report.rows) == 3 * 2 * 2
        for row in report.rows:
            assert row.feasible
            assert row.size == row.n - 1
            assert row.ratio == 1.0

    def test_failing_rows_are_recorded(self):
        # logn solves Min on the complement.  The complement of a 3-regular
        # graph on 12 vertices has |L| = 8, over the default cap of 6, so
        # logn gives up on those rows.
        cfg = ExperimentConfig(family="regular", sizes=[8, 10, 12],
                               algorithms=["oracle", "kreg-exact", "logn"],
                               k=3, instances_per_size=3, seed=3,
                               objective="min")
        report = run_experiment(cfg)
        assert len(report.rows) == 3 * 3 * 3
        failed = [r for r in report.rows if r.extra]
        assert [(r.n, r.algorithm) for r in failed] == [(12, "logn")] * 3
        for row in failed:
            assert row.extra == {"status": "budget"}
            assert (row.size, row.weight, row.ratio, row.feasible) == \
                (None, None, None, None)
        assert [report.aggregates[name]["failed"]
                for name in ("logn", "kreg-exact", "oracle")] == [3, 0, 0]

    def test_infeasible_result_is_an_error_row(self, monkeypatch):
        # A solver whose set fails bench.solve's feasibility check gives an
        # `error` row, counted as failed, and the run goes on.
        monkeypatch.setitem(mdd.bench.ALGORITHMS, "logn", lambda inst, max_L: (
            DeletionSet(frozenset(), 0), ()))
        cfg = ExperimentConfig(family="regular", sizes=[6, 8],
                               algorithms=["oracle", "logn"], k=3,
                               instances_per_size=2, seed=2)
        report = run_experiment(cfg)
        assert len(report.rows) == 2 * 2 * 2
        for row in report.rows:
            if row.algorithm == "logn":
                assert row.extra == {"status": "error"}
                assert (row.size, row.weight, row.ratio, row.feasible) == \
                    (None, None, None, None)
                assert row.oracle_weight is not None
            else:
                assert row.extra == {} and row.ratio == 1.0
        assert [report.aggregates[name]["failed"]
                for name in ("logn", "oracle")] == [4, 0]

    @pytest.mark.parametrize("name, patched, message", [
        ("logn", [("approx", "f_dependent_delete")],
         "branching algorithm selected an infeasible set"),
        ("cubic", [("cubic", "dominating_set_approx"),
                   ("cubic", "f_dependent_delete")],
         "cubic domination candidate is infeasible"),
    ])
    def test_solver_verification_failure_is_an_error_row(
            self, monkeypatch, name, patched, message):
        # With its greedies deleting nothing, the solver picks the empty set
        # and its own feasibility check rejects it, before bench.solve's
        # check: that too is an `error` row, and the run goes on.
        for module, attr in patched:
            monkeypatch.setattr(getattr(mdd, module), attr,
                                lambda *args, **kwargs: frozenset())
        cfg = ExperimentConfig(family="regular", sizes=[6, 8],
                               algorithms=["oracle", name], k=3,
                               instances_per_size=2, seed=2, objective="max")
        inst = next(mdd.bench._make_instances(cfg))[1]
        with pytest.raises(VerificationError, match=f"^{message}$"):
            mdd.bench.solve(name, inst)
        report = run_experiment(cfg)
        assert len(report.rows) == 2 * 2 * 2
        for row in report.rows:
            if row.algorithm == name:
                assert row.extra == {"status": "error"}
                assert (row.size, row.weight, row.ratio, row.feasible) == \
                    (None, None, None, None)
                assert row.oracle_weight is not None
            else:
                assert row.extra == {} and row.ratio == 1.0
        assert [report.aggregates[algo]["failed"]
                for algo in (name, "oracle")] == [4, 0]

    def test_setcover_experiment(self):
        # Both constructions keep the optimum, so on either objective the
        # oracle meets the source's minimum cover size.
        for objective in ("max", "min"):
            cfg = ExperimentConfig(family="setcover", sizes=[4, 5],
                                   instances_per_size=2, seed=3,
                                   objective=objective)
            report = run_experiment(cfg)
            assert len(report.rows) == 2 * 2
            for row in report.rows:
                assert row.algorithm == "oracle" and row.ratio == 1.0

    def test_oracle_runs_once_per_instance(self, monkeypatch):
        calls = []
        solve = mdd.bench.brute_force_optimum

        def counting(inst, cfg=None):
            calls.append(inst)
            return solve(inst, cfg)

        monkeypatch.setattr(mdd.bench, "brute_force_optimum", counting)
        cfg = ExperimentConfig(family="gnp", sizes=[18],
                               algorithms=["oracle", "logn"],
                               instances_per_size=4)
        report = run_experiment(cfg)
        assert len(calls) == 4
        assert all(row.ratio is not None for row in report.rows)
        assert report.aggregates["oracle"]["max_ratio"] == 1.0

    @staticmethod
    def _setsystems(cfg):
        """The set system behind each setcover instance id of `cfg`."""
        return {f"setcover-t{t}-i{idx}": generate_random_setsystem(
                    max(2, t // 2), t,
                    cfg.seed * 100003 + t * 131 + idx)
                for t in cfg.sizes for idx in range(cfg.instances_per_size)}

    def test_setcover_rows_are_scored_against_source_optimum(self):
        cfg = ExperimentConfig(family="setcover", sizes=[4, 8],
                               algorithms=["oracle", "logn"],
                               instances_per_size=2, seed=3)
        report = run_experiment(cfg)
        systems = self._setsystems(cfg)
        assert len(report.rows) == 2 * len(systems)
        for row in report.rows:
            sys = systems[row.instance_id]
            assert row.n == setcover_to_mddmax_bip(sys).instance.graph.n
            assert row.oracle_weight == min_cover_size(sys)
            assert row.ratio == row.weight / row.oracle_weight >= 1.0
        assert report.aggregates["oracle"]["max_ratio"] == 1.0
        assert report.aggregates["logn"]["rows"] == len(systems)
        # max_L reaches the setcover rows: a cap of 0 is below every |L| here.
        capped = run_experiment(dataclasses.replace(cfg, max_L=0))
        assert [row.extra for row in capped.rows if row.algorithm == "logn"] \
            == [{"status": "budget"}] * len(systems)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.integers(2, 9), st.integers(0, 7), st.integers(0, 10**6))
    def test_min_cover_size_matches_enumeration(self, r, extra, seed):
        sys = generate_random_setsystem(r, r + extra, seed)
        assert mdd.bench._min_cover_size(sys) == min_cover_size(sys)

    def test_setcover_min_builds_mddmin_bip(self):
        cfg = ExperimentConfig(family="setcover", sizes=[4, 6],
                               algorithms=["oracle", "logn"],
                               instances_per_size=2, seed=3, objective="min")
        report = run_experiment(cfg)
        systems = self._setsystems(cfg)
        assert len(report.rows) == 2 * len(systems)
        for row in report.rows:
            sys = systems[row.instance_id]
            assert row.n == setcover_to_mddmin_bip(sys).instance.graph.n
            assert row.oracle_weight == min_cover_size(sys)
            if row.algorithm == "oracle":
                assert row.ratio == 1.0
            else:
                # d(p) = t, far below n - O(log n): the complement's |L|
                # is over the default cap.
                assert row.extra == {"status": "budget"}
                assert (row.size, row.ratio) == (None, None)
        assert report.aggregates["logn"]["failed"] == len(systems)

    def test_zero_optimum_scores_only_zero_weight_rows(self):
        # p is the star's unique maximum already: the optimum is 0.
        inst = Instance(star(3), 0, None, Objective.MAX)
        cfg = ExperimentConfig(family="gnp", sizes=[4])
        row = mdd.bench._run_solver_row(cfg, "star", inst, "oracle")
        heavier = dataclasses.replace(row, size=3, weight=3)
        for r in (row, heavier):
            mdd.bench._score(r, 0)
        assert (row.weight, row.oracle_weight, row.ratio) == (0, 0, 1.0)
        assert (heavier.oracle_weight, heavier.ratio) == (0, None)

    @pytest.mark.parametrize("objective", ["max", "min"])
    def test_default_cutoff_scores_gnp_at_n28(self, objective):
        # The default oracle cutoff reaches n = 28 on default-config gnp.
        cfg = ExperimentConfig(family="gnp", sizes=[28], instances_per_size=1,
                               objective=objective)
        [row] = run_experiment(cfg).rows
        assert row.extra == {}
        assert row.oracle_weight == row.weight is not None
        assert row.ratio == 1.0

    def test_reference_budget_leaves_rows_unscored(self, monkeypatch):
        def give_up(inst, cfg=None):
            raise BudgetError("oracle budget exhausted")

        monkeypatch.setattr(mdd.bench, "brute_force_optimum", give_up)
        cfg = ExperimentConfig(family="gnp", sizes=[6, 7], algorithms=["logn"],
                               instances_per_size=2, seed=1)
        report = run_experiment(cfg)
        assert len(report.rows) == 2 * 2
        for row in report.rows:
            assert row.feasible and row.extra == {}
            assert (row.oracle_weight, row.ratio) == (None, None)
        assert report.aggregates["logn"]["failed"] == 0

    def test_setcover_oracle_budget_is_recorded(self, monkeypatch):
        cfg = ExperimentConfig(family="setcover", sizes=[4, 5],
                               algorithms=["oracle", "logn"],
                               instances_per_size=2, seed=3)
        before = run_experiment(cfg).rows

        def give_up(inst, cfg=None):
            raise BudgetError("oracle budget exhausted")

        monkeypatch.setattr(mdd.bench, "brute_force_optimum", give_up)
        report = run_experiment(cfg)
        assert len(report.rows) == len(before) == 2 * 2 * 2
        for old, row in zip(before, report.rows):
            if row.algorithm == "oracle":
                assert (row.size, row.weight, row.ratio, row.feasible) == \
                    (None, None, None, None)
                assert row.extra == {"status": "budget"}
                # Still the source optimum: the reference never needs the oracle.
                assert row.oracle_weight == old.oracle_weight is not None
            else:
                assert row.ratio is not None
                assert (dataclasses.replace(row, wall_time=0)
                        == dataclasses.replace(old, wall_time=0))
        assert [report.aggregates[name]["failed"]
                for name in ("logn", "oracle")] == [0, 4]

    def test_report_serialization(self):
        cfg = ExperimentConfig(family="gnp", sizes=[5], instances_per_size=1)
        report = run_experiment(cfg)
        csv_text = report.to_csv()
        assert csv_text.splitlines()[0].startswith("instance_id,family,n,")
        assert len(csv_text.splitlines()) == 1 + len(report.rows)
        payload = json.loads(report.to_json())
        assert payload["config"]["family"] == "gnp"
        assert len(payload["rows"]) == len(report.rows)
