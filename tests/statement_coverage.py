"""List the statements of src/mdd that no tier-1 test executes.

Runs the tier-1 suite (the pytest `testpaths` of pyproject.toml) in this
process under a `sys.settrace` hook that traces only frames whose code lies
in src/mdd, then prints each `ast` statement of the package that holds
compiled code and that no test reached.  Stdlib only, since `coverage` is
not a dependency; code that tests run in a subprocess counts as not run.

Run by hand, not collected by pytest:

    python tests/statement_coverage.py            # tier-1, all of it
    python tests/statement_coverage.py ARGS...    # pytest ARGS instead

It prints one `file:line: statement` line per statement not run, then the
count.  Tracing slows the suite several times over (minutes, not seconds),
so it lifts Hypothesis's deadline, which no test's examples depend on.
"""
import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mdd"


def _own_lines(node):
    """The lines that belong to `node` itself: all of a simple statement,
    and the header (decorators included) of a compound one."""
    first = min([node.lineno]
                + [d.lineno for d in getattr(node, "decorator_list", ())])
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:
        last = max(node.lineno, body[0].lineno - 1)
    else:
        last = node.end_lineno
    return range(first, last + 1)


def _code_lines(code):
    """Every line that some bytecode of `code` or a nested code object sits on."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _statements(path):
    """(line, source text) of each statement of `path` that has bytecode,
    with the lines each owns."""
    source = path.read_text()
    compiled = _code_lines(compile(source, str(path), "exec"))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.stmt):
            lines = set(_own_lines(node)) & compiled
            if lines:
                text = ast.get_source_segment(source, node).splitlines()[0]
                yield node.lineno, text.strip(), lines


class _NoDeadline:
    """A pytest plugin that lifts Hypothesis's deadline for the traced run."""

    @staticmethod
    def pytest_configure(config):
        from hypothesis import settings
        settings.register_profile("traced", deadline=None)
        settings.load_profile("traced")


def _trace(argv):
    """Run pytest on `argv` and return the set of (file, line) it ran."""
    hits = set()
    prefix = str(PACKAGE) + "/"

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            hits.add((frame.f_code.co_filename, frame.f_lineno))
            return local
        return None

    import pytest
    threading.settrace(call)
    sys.settrace(call)
    try:
        status = pytest.main(argv, plugins=[_NoDeadline()])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    print(f"pytest exit status: {int(status)}")
    return hits


def main(argv):
    sys.path.insert(0, str(ROOT / "src"))
    hits = _trace(argv or ["-q", "-p", "no:cacheprovider",
                           "--continue-on-collection-errors",
                           "--rootdir", str(ROOT),
                           str(ROOT / "tests"), str(ROOT / "perfbench")])
    missed = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        ran = {line for name, line in hits if name == str(path)}
        for line, text, lines in sorted(_statements(path)):
            if not lines & ran:
                missed += 1
                print(f"{path.relative_to(ROOT)}:{line}: {text}")
    print(f"{missed} statements not run")


if __name__ == "__main__":
    main(sys.argv[1:])
