"""Mutation probe: change one token of a module at a time and report the
changes that a pytest selection does not notice.

Run by hand, not collected by pytest:

    python tests/mutation_probe.py src/mdd/generators.py \\
        tests/test_harness.py::TestGenerators

The first argument is the module, relative to the checkout; the rest are
pytest arguments.  Each mutant changes one token of the module:
- a comparison flips, `<` and `<=`, `>` and `>=`, `==` and `!=`;
- `+` and `-` swap, and `*` and `//`;
- an integer constant becomes one more and, separately, one less;
- `and` and `or` swap.

The probe copies the checkout's src/, tests/, perfbench/ and pyproject.toml
to a temporary directory (under $TMPDIR) and mutates only that copy.  It
runs the selection unmutated first, which must pass, and then once per
mutant with `-x`, stopping a mutant after ten times the unmutated run's
time plus ten seconds.  A mutant the selection fails on is killed, one that
runs out of time is printed and counted apart, and one that does not
compile is skipped.  Each survivor that is not in EQUIVALENT is printed as
`file:line:column: old -> new` with its source line, then the counts.  The
exit status is 1 if any such survivor is left.  Stdlib only.
"""
import io
import os
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "pyproject.toml")

SWAPS = {"<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "==",
         "+": "-", "-": "+", "*": "//", "//": "*", "and": "or", "or": "and"}

#: Survivors known to leave the module's behaviour unchanged, keyed by
#: (file, line, "old -> new"), each with the reason.  A line number goes
#: stale when its module changes; the probe then prints the survivor.
EQUIVALENT = {
    ("src/mdd/generators.py", 42, "0 -> (-1)"):
        "range(-1) is as empty as range(0)",
    ("src/mdd/generators.py", 48, "< -> <="):
        "u == v gives the same key either way, and the pairing breaks",
    ("src/mdd/generators.py", 54, "< -> <="):
        "an accepted pairing has no pair with u == v",
    ("src/mdd/generators.py", 115, "< -> <="):
        "adj[u] never holds u",
    ("src/mdd/generators.py", 132, "< -> <="):
        "differs only on a draw equal to p, 2^-53 likely per draw",
    ("src/mdd/graph.py", 107, "< -> <="):
        "adj[u] never holds u",
    ("src/mdd/graph.py", 135, "< -> <="):
        "adj[u] never holds u",
    ("src/mdd/graph.py", 149, "+ -> -"):
        "edges (i, i - 1) make the same cycle as (i, i + 1)",
    ("src/mdd/graph.py", 265, "1 -> 2"):
        "a Max sentinel of -2 violates no more than -1: degrees are >= 0",
}


def mutants(source):
    """Yield (line, column, old, new, mutated source) for each one-token
    change of `source`."""
    lines = source.splitlines(keepends=True)
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        text = tok.string
        if tok.type == tokenize.OP or (tok.type == tokenize.NAME
                                       and text in ("and", "or")):
            news = [SWAPS[text]] if text in SWAPS else []
        elif tok.type == tokenize.NUMBER and _is_int(text):
            value = int(text, 0)
            news = [str(v) if v >= 0 else f"({v})"
                    for v in (value + 1, value - 1)]
        else:
            continue
        (row, col), end_col = tok.start, tok.end[1]
        line = lines[row - 1]
        for new in news:
            mutated = lines[:row - 1] + [line[:col] + new + line[end_col:]]
            yield row, col, text, new, "".join(mutated + lines[row:])


def _is_int(text):
    try:
        int(text, 0)
    except ValueError:
        return False
    return True


def _run(workdir, selection, timeout):
    """True if the selection passes in `workdir` within `timeout` seconds,
    False if it fails, None if it runs out of time."""
    env = dict(os.environ, PYTHONPATH=str(Path(workdir) / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", *selection],
            cwd=workdir, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None
    return done.returncode == 0


def main(argv):
    if len(argv) < 2:
        raise SystemExit(__doc__)
    module, selection = argv[0], argv[1:]
    source = (ROOT / module).read_text()
    counts = {"killed": 0, "timed out": 0, "equivalent": 0, "survived": 0,
              "not compiling": 0}
    with tempfile.TemporaryDirectory() as workdir:
        for name in COPIED:
            path = ROOT / name
            if path.is_dir():
                shutil.copytree(path, Path(workdir) / name, ignore=
                                shutil.ignore_patterns("__pycache__"))
            elif path.exists():
                shutil.copy(path, Path(workdir) / name)
        target = Path(workdir) / module
        start = time.perf_counter()
        if not _run(workdir, selection, None):
            raise SystemExit("the selection fails on the unmutated module")
        timeout = 10 * (time.perf_counter() - start) + 10
        for line, col, old, new, mutated in mutants(source):
            try:
                compile(mutated, module, "exec")
            except SyntaxError:
                counts["not compiling"] += 1
                continue
            target.write_text(mutated)
            passed = _run(workdir, selection, timeout)
            if passed is None:
                counts["timed out"] += 1
                print(f"{module}:{line}:{col}: {old} -> {new} timed out",
                      flush=True)
            elif not passed:
                counts["killed"] += 1
            elif (module, line, f"{old} -> {new}") in EQUIVALENT:
                counts["equivalent"] += 1
            else:
                counts["survived"] += 1
                text = source.splitlines()[line - 1].strip()
                print(f"{module}:{line}:{col}: {old} -> {new}  |  {text}",
                      flush=True)
    print(", ".join(f"{n} {what}" for what, n in counts.items()))
    return 1 if counts["survived"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
