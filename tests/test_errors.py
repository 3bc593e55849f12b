"""One rule per refusal: which error class each call raises, and what the
two boundaries that catch package errors, `mdd` and a bench row, make of
each class.

A malformed value is an InputError, a well-formed input outside a method's
hypotheses a PreconditionError, and a result or invariant that fails its
own check a VerificationError.
"""
import re
import types

import pytest

from mdd import (BudgetError, ExperimentConfig, FDepProblem, Graph,
                 InfeasibleError, InputError, Instance, Objective,
                 OracleConfig, PreconditionError, SetSystem, VerificationError,
                 build_domination_gadget, build_gstar, build_L, bench, cubic,
                 dominating_set_approx, errors, f_dependent_delete,
                 generate_random_regular, generate_random_setsystem,
                 is_dominating, is_feasible, kregular_min_exact, lift_solution,
                 mdd_max_cubic, mdd_max_logn, mindom_cubic_to_mddmax_cubic,
                 mindom_to_mddmin, normalize_dominating_set, project_solution,
                 serialize_instance, setcover_to_mddmax_bip,
                 setcover_to_mddmin_bip)
from mdd.cli import main

from testkit import complete, complete_bipartite, star

K33 = complete_bipartite(3, 3)
PRISM = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                  (0, 3), (1, 4), (2, 5)])
PATH3 = Graph.path(3)


def _max(g, p=0, weights=None):
    return Instance(g, p, weights, Objective.MAX)


def _gadget():
    return build_domination_gadget(_max(K33))


def _always_then_never():
    """is_dominating that holds once and then fails: the input check of
    normalize_dominating_set passes and its post-check does not."""
    answers = iter([True])
    return lambda g, vertices: next(answers, False)


#: (call, class, message) for each call whose class follows the rule: the
#: malformed values, the cases and constructions that do not apply to a
#: well-formed input, and the two internal invariants.
MOVED = {
    "fdep-cap": (lambda: FDepProblem(PATH3, (1.5, 0, 0), (1, 1, 1)),
                 InputError, "caps must be integers"),
    "fdep-weight": (lambda: FDepProblem(PATH3, (0, 0, 0), (0, 1, 1)),
                    InputError,
                    "weight 0 is neither a positive integer nor UNDELETABLE"),
    "fdep-length": (lambda: FDepProblem(PATH3, (0, 0), (1, 1, 1)),
                    InputError, "cap/weights length must equal vertex count"),
    "fdep-uniform": (lambda: FDepProblem.uniform(PATH3, 1.5),
                     InputError, "caps must be integers"),
    "fdep-budget": (lambda: f_dependent_delete(
        FDepProblem.uniform(PATH3, 0), budget=1.5),
        InputError, "budget must be an integer"),
    "fdep-removed": (lambda: f_dependent_delete(
        FDepProblem.uniform(PATH3, 0), (3,)),
        InputError, "removed vertex 3 not in range(3)"),
    "domset-removed": (lambda: dominating_set_approx(PATH3, removed=[-1]),
                       InputError, "removed vertex -1 not in range(3)"),
    "is-dominating": (lambda: is_dominating(PATH3, [0, 5]),
                      InputError, "dominating vertex 5 not in range(3)"),
    "is-feasible": (lambda: is_feasible(_max(PATH3, 1), [7]),
                    InputError, "vertex 7 not in range(3)"),
    "induced-subgraph": (lambda: PATH3.induced_subgraph([0, "1"]),
                         InputError, "vertex '1' not in range(3)"),
    "lift-graph": (lambda: lift_solution(mindom_to_mddmin(PATH3), [1, 3]),
                   InputError, "vertex 3 not in range(3)"),
    "lift-cover": (lambda: lift_solution(setcover_to_mddmin_bip(
        SetSystem(2, [{0}, {1}])), [True]),
        InputError, "set index True not in range(2)"),
    "setsystem-element": (lambda: SetSystem(2, [{0, 1}, [2]]),
                          InputError, "element 2 not in range(2)"),
    "logn-cap": (lambda: mdd_max_logn(_max(star(3)), -1),
                 InputError, "cap on |L| must be an integer >= 0"),
    "oracle-mode": (lambda: OracleConfig(weight_mode="weighted"),
                    InputError, "oracle weight_mode must be a WeightMode"),
    "oracle-budget": (lambda: OracleConfig(budget=0),
                      InputError, "oracle budget must be an integer >= 1"),
    # The type comes first: 5.0 vertices of degree 3 also admit no graph.
    "regular-float-n": (lambda: generate_random_regular(5.0, 3, 0),
                        InputError, "n and k must be integers"),
    "mddmin-bip-r>t": (lambda: setcover_to_mddmin_bip(
        SetSystem(3, [{0, 1}, {2}])),
        PreconditionError, "construction needs r <= t (got r=3, t=2)"),
    "mddmax-bip-r>t": (lambda: setcover_to_mddmax_bip(
        SetSystem(3, [{0, 1}, {2}])),
        PreconditionError, "construction needs r <= t (got r=3, t=2)"),
    "mddmax-bip-occ": (lambda: setcover_to_mddmax_bip(
        SetSystem(1, [{0}, {0}])),
        PreconditionError,
        "element 0 occurs in every set; pendant padding impossible"),
    "mddmax-bip-set": (lambda: setcover_to_mddmax_bip(
        SetSystem(3, [{0, 1, 2}, {0}, {1}])),
        PreconditionError,
        "set 0 has 3 elements; its vertex would tie p at degree t"),
    "gadget": (lambda: build_domination_gadget(_max(complete(4))),
               PreconditionError, "neighbor 1 of p has 0 neighbors outside "
               "N[p]; the final-degree-3 case does not apply"),
    "gstar": (lambda: build_gstar(_max(PRISM), 3), PreconditionError,
              "surviving neighbors 1 and 2 are adjacent; branch at x=3 does "
              "not apply"),
    "min-cover-invariant": (lambda: bench._min_cover_size(
        types.SimpleNamespace(universe_size=2, family=({0},))),
        VerificationError, "set system invariant guarantees a cover"),
}

#: (call, message) for each refusal that stays a PreconditionError: a
#: well-formed input outside the method's hypotheses.
STAYS = {
    "build-L-min": (lambda: build_L(Instance(PATH3, 1)),
                    "L-set construction applies to objective Max"),
    "logn-min": (lambda: mdd_max_logn(Instance(PATH3, 1)),
                 "branching algorithm applies to objective Max"),
    "cubic-regular": (lambda: mdd_max_cubic(_max(Graph.cycle(5))),
                      "graph is not 3-regular"),
    "cubic-min": (lambda: mdd_max_cubic(Instance(K33, 0)),
                  "cubic algorithm handles objective Max only"),
    "cubic-unit": (lambda: mdd_max_cubic(_max(K33, 0, (1, 1, 2, 1, 1, 1))),
                   "cubic algorithm requires unit weights"),
    "kreg-regular": (lambda: kregular_min_exact(Instance(PATH3, 1)),
                     "graph is not regular"),
    "kreg-max": (lambda: kregular_min_exact(_max(K33)),
                 "regular-graph solver handles objective Min only"),
    "kreg-unit": (lambda: kregular_min_exact(
        Instance(K33, 0, (1, 1, 2, 1, 1, 1))),
        "regular-graph solver requires unit weights"),
    "regular-size": (lambda: generate_random_regular(5, 3, 0),
                     "no 3-regular graph on 5 vertices (need 0 <= k < n, "
                     "n*k even)"),
    "setsystem-size": (lambda: generate_random_setsystem(1, 3, 0),
                       "need 2 <= r <= t"),
    "mddmin-empty": (lambda: mindom_to_mddmin(Graph(0)),
                     "source graph must have at least one vertex"),
    "cubic-source": (lambda: mindom_cubic_to_mddmax_cubic(Graph.cycle(4)),
                     "source graph is not 3-regular"),
    "gstar-non-neighbor": (lambda: build_gstar(_max(K33), 1),
                           "1 is not a neighbor of p"),
    "feasible-p": (lambda: is_feasible(_max(PATH3, 1), {1}),
                   "deletion set may not contain p"),
    "project-infeasible": (lambda: project_solution(
        mindom_to_mddmin(PATH3), set()),
        "solution is not feasible for the instance"),
    "lift-not-dominating": (lambda: lift_solution(
        mindom_to_mddmin(PATH3), {0}),
        "input is not a dominating set of the source"),
    "lift-not-cover": (lambda: lift_solution(setcover_to_mddmin_bip(
        SetSystem(2, [{0}, {1}])), {0}),
        "input indices are not a set cover"),
    "normalize-input": (lambda: normalize_dominating_set(_gadget(), set()),
                        "input does not dominate the proxy graph outside "
                        "N[p]"),
}


@pytest.mark.parametrize("call, cls, message", MOVED.values(),
                         ids=MOVED.keys())
def test_each_call_raises_its_class(call, cls, message):
    with pytest.raises(cls, match=f"^{re.escape(message)}$") as err:
        call()
    assert type(err.value) is cls


def test_normalize_post_check_is_a_verification_error(monkeypatch):
    gadget = _gadget()
    monkeypatch.setattr(cubic, "is_dominating", _always_then_never())
    with pytest.raises(VerificationError, match="^normalized set no longer "
                       "dominates the proxy graph$"):
        normalize_dominating_set(gadget, {1, 2})


@pytest.mark.parametrize("call, message", STAYS.values(), ids=STAYS.keys())
def test_refusals_outside_the_hypotheses_stay(call, message):
    with pytest.raises(PreconditionError,
                       match=f"^{re.escape(message)}$") as err:
        call()
    assert type(err.value) is PreconditionError


#: Each class's exit code and stderr prefix under `mdd` (README, CLI), and
#: its status in a bench row; None: the row lets the error through, since a
#: malformed argument is the caller's bug.
BOUNDARIES = {
    InputError: (4, "input error", None),
    PreconditionError: (4, "input error", "inapplicable"),
    InfeasibleError: (2, "infeasible", "infeasible"),
    BudgetError: (3, "budget exhausted", "budget"),
    VerificationError: (4, "error", "error"),
}


def test_every_error_class_has_a_boundary_rule():
    assert set(errors.MDDError.__subclasses__()) == set(BOUNDARIES)


def test_each_class_carries_its_boundary_row():
    # BOUNDARIES is the spec, written out apart from the classes; the base
    # class reports as a generic error.
    rows = {cls: (cls.exit_code, cls.label, cls.status)
            for cls in [errors.MDDError, *BOUNDARIES]}
    assert rows == {errors.MDDError: (4, "error", "error"), **BOUNDARIES}


@pytest.mark.parametrize("cls", errors.MDDError.__subclasses__(),
                         ids=lambda c: c.__name__)
def test_each_class_has_one_meaning_at_each_boundary(cls, tmp_path, capsys,
                                                     monkeypatch):
    def refuse(inst, max_L):
        raise cls("refused")

    monkeypatch.setitem(bench.ALGORITHMS, "oracle", refuse)
    code, prefix, status = BOUNDARIES[cls]
    inst = _max(PATH3, 1)
    path = tmp_path / "inst.txt"
    path.write_text(serialize_instance(inst))
    assert main(["solve", str(path), "--algo", "oracle"]) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"{prefix}: refused\n")

    cfg = ExperimentConfig(family="gnp", sizes=[3])
    if status is None:
        with pytest.raises(cls, match="^refused$"):
            bench._run_solver_row(cfg, "i", inst, "oracle")
    else:
        row = bench._run_solver_row(cfg, "i", inst, "oracle")
        assert row.extra == {"status": status}
        assert (row.size, row.weight, row.feasible) == (None, None, None)
