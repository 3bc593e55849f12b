"""Static checks on the package source."""
import ast
import re
from pathlib import Path

import mdd
from mdd import errors

SOURCES = sorted(Path(mdd.__file__).parent.glob("*.py"))
TREES = {path.name: ast.parse(path.read_text()) for path in SOURCES}


def test_package_parses_at_the_oldest_supported_python():
    # pyproject.toml declares the oldest Python the package runs on; read by
    # a regex, since tomllib is itself newer than 3.10.
    pyproject = (Path(__file__).parent.parent / "pyproject.toml").read_text()
    major, minor = map(int, re.search(
        r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', pyproject,
        re.MULTILINE).groups())
    for path in SOURCES:
        ast.parse(path.read_text(), path.name, feature_version=(major, minor))


def test_package_has_no_assert_statements():
    # `python -O` strips asserts, so no check the package relies on may be one.
    found = [f"{name}:{node.lineno}"
             for name, tree in TREES.items()
             for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert SOURCES
    assert found == []


def _raised_name(node):
    """The class name in `raise Name(...)` or `raise Name`, else None."""
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


def test_package_raises_only_its_own_errors():
    # MDDError is the documented base of every error the package raises.
    raised = [(f"{name}:{node.lineno}", _raised_name(node))
              for name, tree in TREES.items()
              for node in ast.walk(tree)
              if isinstance(node, ast.Raise) and _raised_name(node)]
    assert raised
    foreign = [(where, exc) for where, exc in raised
               if not (isinstance(getattr(errors, exc, None), type)
                       and issubclass(getattr(errors, exc), errors.MDDError))]
    assert foreign == []


def _imported_names(tree):
    """(line, bound name) for every import except `from __future__`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def test_package_has_no_unused_imports():
    unused = []
    for name, tree in TREES.items():
        if name == "__init__.py":  # imports only to re-export
            continue
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{name}:{line}: {imported}"
                   for line, imported in _imported_names(tree)
                   if imported not in used]
    assert unused == []


def test_package_has_no_unused_private_definitions():
    # A private module-level function or class has no caller outside the
    # package, so one that nothing in the package names is dead code.
    named = {node.id if isinstance(node, ast.Name) else node.attr
             for tree in TREES.values() for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute))}
    defined = [(f"{name}:{node.lineno}", node.name)
               for name, tree in TREES.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.ClassDef))
               and node.name.startswith("_") and not node.name.startswith("__")]
    assert defined
    unused = [f"{where}: {fn}" for where, fn in defined if fn not in named]
    assert unused == []


def _is_bare_int_check(node):
    """`isinstance(x, int)`: the class argument is the bare name `int`."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance" and len(node.args) == 2
            and isinstance(node.args[1], ast.Name) and node.args[1].id == "int")


def test_integer_checks_go_through_is_int():
    # isinstance(True, int) holds, so a bare check lets bools pass as
    # integers; graph.is_int is the one integer rule.
    allowed = {id(node) for fn in TREES["graph.py"].body
               if isinstance(fn, ast.FunctionDef) and fn.name == "is_int"
               for node in ast.walk(fn)}
    bare = [f"{name}:{node.lineno}"
            for name, tree in TREES.items() for node in ast.walk(tree)
            if _is_bare_int_check(node) and id(node) not in allowed]
    assert allowed
    assert bare == []


def test_bitmask_encoding_stays_in_exact():
    # Graph keeps one adjacency, the frozensets; only the oracle's search
    # packs vertex sets into ints, so only exact.py may count their bits.
    users = sorted({name for name, tree in TREES.items()
                    for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and node.attr == "bit_count"})
    assert users == ["exact.py"]


def test_greedy_heap_keys_are_single_ints():
    # The greedy keeps one heap encoding, as the oracle keeps one bitmask
    # encoding: u's entry is the int -gain[u] * scale[u] * n + u, which
    # orders as the pair (-gain[u] * scale[u], u) would.  So no heapq call
    # in subroutines.py takes a tuple, and the start state's heap holds
    # none.
    tree = TREES["subroutines.py"]
    from_heapq = {alias.asname or alias.name for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.module == "heapq"
                  for alias in node.names}
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and ((isinstance(node.func, ast.Attribute)
                   and isinstance(node.func.value, ast.Name)
                   and node.func.value.id == "heapq")
                  or (isinstance(node.func, ast.Name)
                      and node.func.id in from_heapq))]
    assert calls
    assert [node.lineno for node in calls
            if any(isinstance(arg, ast.Tuple) for arg in node.args)] == []
    start = dict(_functions(tree))["FDepProblem._start"]
    assert [node.lineno for node in ast.walk(start)
            if isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.SetComp))
            and isinstance(node.elt, ast.Tuple)] == []
    g = mdd.generate_gnp(12, 0.4, 1)
    heap = mdd.FDepProblem(g, (1,) * g.n, tuple(range(1, g.n + 1)))._start[-1]
    assert heap and all(type(key) is int for key in heap)


def test_package_reads_no_environment():
    # Every choice the package makes comes from its inputs or its callers'
    # arguments, so no environment variable can become a hidden option.
    reads = [f"{name}:{node.lineno}"
             for name, tree in TREES.items() for node in ast.walk(tree)
             if (isinstance(node, ast.Attribute)
                 and node.attr in ("environ", "environb", "getenv", "getenvb"))
             or (isinstance(node, ast.ImportFrom) and node.module == "os")]
    assert reads == []


def test_greedy_layer_has_no_true_division():
    # The greedy's picks and the log n loop's bounds compare gain/weight
    # ratios exactly, as products of integers.
    divisions = [node.lineno for node in ast.walk(TREES["subroutines.py"])
                 if isinstance(node, (ast.BinOp, ast.AugAssign))
                 and isinstance(node.op, ast.Div)]
    assert divisions == []


def _called_name(node):
    """The name in `name(...)` or `obj.name(...)`, else None."""
    func = node.func
    return (func.id if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute) else None)


def test_only_the_branch_loops_budget_the_greedy():
    # A budget stops the greedy once its set must outweigh the best
    # candidate of a branch loop: the log n loop's K branches and the cubic
    # final-degree-2 branches.  dominating_set_approx, dissociation_delete
    # and `mdd subroutine` run it to the end.  `**kwargs` counts as a budget.
    budgeted = sorted({name for name, tree in TREES.items()
                       for node in ast.walk(tree)
                       if isinstance(node, ast.Call)
                       and _called_name(node) == "f_dependent_delete"
                       and any(k.arg in ("budget", None)
                               for k in node.keywords)})
    assert budgeted == ["approx.py", "cubic.py"]


def test_package_does_not_import_fractions():
    # Every bound and pick in the package is an integer comparison; Fraction
    # arithmetic once took about 30% of the log n branch time.
    imports = [f"{name}:{node.lineno}"
               for name, tree in TREES.items() for node in ast.walk(tree)
               if (isinstance(node, ast.ImportFrom) and node.module == "fractions")
               or (isinstance(node, ast.Import)
                   and any(a.name == "fractions" for a in node.names))]
    assert imports == []


def test_oracle_search_loop_names_no_objective():
    # The oracle searches Min as Max on the complemented masks, so its
    # search loop keeps one violator rule and one fixing set.
    oracle = next(node for node in TREES["exact.py"].body
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "brute_force_optimum")
    loops = [node for node in ast.walk(oracle)
             if isinstance(node, ast.While)
             and isinstance(node.test, ast.Name) and node.test.id == "stack"]
    assert len(loops) == 1
    named = sorted({node.id if isinstance(node, ast.Name) else node.attr
                    for node in ast.walk(loops[0])
                    if isinstance(node, (ast.Name, ast.Attribute))}
                   & {"Objective", "MIN", "MAX", "want_min"})
    assert named == []


def _names(tree):
    """(line, name) for every Name, Attribute and definition in `tree`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.lineno, node.name


def test_solves_do_not_redo_checked_work():
    # The log n loop builds every size's problem from weights Instance
    # checked, so it builds no checked FDepProblem and recaps none.  The
    # cubic greedy's dominating set holds no proxy, so the solve takes it
    # as it stands: normalize_dominating_set is a public step no solver
    # calls.
    approx = [f"approx.py:{line}: {name}"
              for line, name in _names(TREES["approx.py"])
              if name in ("FDepProblem", "_recapped")]
    assert approx == []
    cubic = [line for line, name in _names(TREES["cubic.py"])
             if name == "normalize_dominating_set"]
    definition = next(node.lineno for node in TREES["cubic.py"].body
                      if isinstance(node, ast.FunctionDef)
                      and node.name == "normalize_dominating_set")
    assert cubic == [definition]


def test_generators_build_graphs_unchecked():
    # The generators prove their edges simple and in range as they draw
    # them, so they build each graph from its edge list through one builder,
    # `_graph`, which holds the one Graph._unchecked call, and never re-check
    # it edge by edge in Graph(n, edges).
    tree = TREES["generators.py"]
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    checked = [node.lineno for node in calls
               if isinstance(node.func, ast.Name) and node.func.id == "Graph"]
    functions = dict(_functions(tree))
    inside = {id(node) for node in ast.walk(functions["_graph"])}
    unchecked = [id(node) in inside for node in calls
                 if isinstance(node.func, ast.Attribute)
                 and node.func.attr == "_unchecked"
                 and isinstance(node.func.value, ast.Name)
                 and node.func.value.id == "Graph"]
    assert checked == []
    assert unchecked == [True]
    for generator in ("generate_random_regular", "generate_gnp"):
        returns = [node.value for node in ast.walk(functions[generator])
                   if isinstance(node, ast.Return)]
        assert returns and all(
            isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id == "_graph" for value in returns), generator


def test_errors_has_one_class_per_refusal():
    # A case or construction that does not apply is a PreconditionError,
    # and MDDError is only the base class: each raise names why it refuses.
    assert not hasattr(errors, "InapplicableError")
    bare = [f"{name}:{node.lineno}"
            for name, tree in TREES.items() for node in ast.walk(tree)
            if isinstance(node, ast.Raise) and _raised_name(node) == "MDDError"]
    assert bare == []


def _functions(tree):
    """(qualified name, node) for every function, methods as Class.name."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def _in_functions(allowed):
    """The ids of the nodes inside each (module, qualified function) of
    `allowed` that exists."""
    inside = set()
    for module, qualified in allowed:
        fn = dict(_functions(TREES[module])).get(qualified)
        inside |= {id(node) for node in ast.walk(fn)} if fn else set()
    return inside


def test_package_catches_its_own_errors_only_at_its_boundaries():
    # A solver step that does not apply returns None, not an error caught
    # as control flow; only the CLI and a bench row turn errors into exit
    # codes and statuses.  Each of them catches MDDError itself once and
    # reads the class's own exit_code, label and status, so no handler in
    # the package names a subclass.
    package = {name for name in vars(errors)
               if isinstance(getattr(errors, name), type)
               and issubclass(getattr(errors, name), errors.MDDError)}
    allowed = _in_functions([("cli.py", "main"),
                             ("bench.py", "_run_solver_row")])
    caught, boundaries = [], []
    for name, tree in TREES.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler) or node.type is None:
                continue
            named = {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}
            if named & (package - {"MDDError"}) or (
                    named & package and id(node) not in allowed):
                caught.append(f"{name}:{node.lineno}")
            elif isinstance(node.type, ast.Name) and node.type.id == "MDDError":
                boundaries.append(name)
    assert allowed
    assert caught == []
    assert sorted(boundaries) == ["bench.py", "cli.py"]


def _is_range_check(node):
    """`is_int(x, 0) and x < bound`: the id check over a collection."""
    if not (isinstance(node, ast.BoolOp) and isinstance(node.op, ast.And)):
        return False
    calls = [v for v in node.values if isinstance(v, ast.Call)
             and isinstance(v.func, ast.Name) and v.func.id == "is_int"
             and len(v.args) == 2 and isinstance(v.args[1], ast.Constant)
             and v.args[1].value == 0]
    return any(isinstance(v, ast.Compare) and isinstance(v.ops[0], ast.Lt)
               and ast.dump(v.left) == ast.dump(call.args[0])
               for call in calls for v in node.values)


def test_one_id_check_over_a_collection():
    # graph._ids checks every id of a collection against its bound, with
    # one message; only single values (an edge's endpoints, Instance.p)
    # are checked where they are read.
    allowed = _in_functions([("graph.py", "_ids"),
                             ("graph.py", "Graph.__init__"),
                             ("graph.py", "Instance.__post_init__")])
    found = [f"{name}:{node.lineno}"
             for name, tree in TREES.items() for node in ast.walk(tree)
             if _is_range_check(node) and id(node) not in allowed]
    assert found == []
    assert sum(_is_range_check(node) for node in ast.walk(TREES["graph.py"])) == 3


def test_greedy_layer_refuses_in_one_place():
    # The greedy's own exhaustion test is the one place a degree-cap problem
    # is refused; _returns predicts it exactly, so no caller pre-checks.
    sites = [node for node in ast.walk(TREES["subroutines.py"])
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name)
             and node.func.id == "InfeasibleError"]
    assert len(sites) == 1
    assert id(sites[0]) in _in_functions([("subroutines.py",
                                           "f_dependent_delete")])
