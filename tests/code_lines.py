"""Count the code lines of a Python package: every line that holds a token
other than a comment, a docstring or layout, so blank, comment and
docstring lines do not count.  A docstring is the string statement that
opens a module, class or function body (found with ast); a string that
spans lines counts on every line it spans unless it is one.

Run by hand, not collected by pytest:

    python tests/code_lines.py            # src/mdd
    python tests/code_lines.py DIR...     # any other directories

It prints one line per file and the total.
"""
import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_starts(tree):
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(source: str) -> int:
    docstrings = _docstring_starts(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT or (tok.type == tokenize.STRING
                                   and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv):
    roots = argv or [str(Path(__file__).resolve().parents[1] / "src" / "mdd")]
    total = 0
    for root in roots:
        for path in sorted(Path(root).rglob("*.py")):
            count = code_lines(path.read_text())
            total += count
            print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
