"""Text formats for graphs, instances, set systems, and solutions.

Graph file: line `n m`, then m lines `u v` with 0-based ids and u < v.
Instance file: a graph, then `p <id> objective <min|max>`, then optional
`w <id> <weight>` lines (weight is a positive integer or `inf`; default 1).
Set system file: line `r t` (both >= 1), then t non-empty lines of
space-separated element ids.
Solution file: whitespace-separated vertex ids.

Blank lines and lines starting with `#` are ignored everywhere.  Serializers
emit a canonical form (sorted edges, no comments) so that parse/serialize
round-trips are byte-identical on canonical files.
"""
from __future__ import annotations

import math
import re
from typing import Iterable

from .errors import InputError
from .graph import Graph, Instance, Objective, UNDELETABLE
from .reductions import SetSystem


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


_INTEGER = re.compile(r"-?[0-9]+")


def _int(token: str, lineno: int, message: str, low=None) -> int:
    """The integer an optional '-' and ASCII digits spell, >= `low` if given,
    or InputError 'line <lineno>: <message>'.  Python's int() would also take
    '+3', '1_0' and non-ASCII digits, which the formats do not allow."""
    if not _INTEGER.fullmatch(token) or (low is not None and int(token) < low):
        raise InputError(f"line {lineno}: {message}")
    return int(token)


def _header(lines, kind: str, names: str, low: int) -> tuple:
    """The two counts, each >= `low`, of the `<names>` header of a `kind`
    file."""
    try:
        lineno, header = next(lines)
    except StopIteration:
        raise InputError(f"empty {kind} file") from None
    parts = header.split()
    if len(parts) != 2:
        raise InputError(f"line {lineno}: expected '{names}' header")
    counts = tuple(_int(x, lineno, f"expected integer '{names}' header")
                   for x in parts)
    if min(counts) < low:
        raise InputError(f"line {lineno}: '{names}' counts must be >= {low}")
    return counts


def _counted(lines, count: int, kind: str):
    """The next `count` content lines, the `kind` lines a header counts."""
    for got in range(count):
        try:
            yield next(lines)
        except StopIteration:
            raise InputError(
                f"expected {count} {kind} lines, got {got}") from None


def _parse_graph_lines(lines) -> Graph:
    n, m = _header(lines, "graph", "n m", 0)
    edges = []
    seen = set()
    for lineno, line in _counted(lines, m, "edge"):
        parts = line.split()
        if len(parts) != 2:
            raise InputError(f"line {lineno}: expected 'u v'")
        u, v = (_int(x, lineno, "expected integer endpoints") for x in parts)
        if u == v:
            raise InputError(f"line {lineno}: self-loop at {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"line {lineno}: edge ({u}, {v}) out of range")
        if u > v:
            raise InputError(f"line {lineno}: edges must satisfy u < v")
        if (u, v) in seen:
            raise InputError(f"line {lineno}: duplicate edge ({u}, {v})")
        seen.add((u, v))
        edges.append((u, v))
    return Graph(n, edges)


def parse_graph(text: str) -> Graph:
    lines = _content_lines(text)
    g = _parse_graph_lines(lines)
    for lineno, _ in lines:
        raise InputError(f"line {lineno}: trailing content after edge list")
    return g


def serialize_graph(g: Graph) -> str:
    out = [f"{g.n} {g.num_edges}"]
    out += [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(out) + "\n"


def parse_instance(text: str) -> Instance:
    lines = _content_lines(text)
    g = _parse_graph_lines(lines)
    try:
        lineno, line = next(lines)
    except StopIteration:
        raise InputError("missing 'p <id> objective <min|max>' line") from None
    parts = line.split()
    if len(parts) != 4 or parts[0] != "p" or parts[2] != "objective":
        raise InputError(f"line {lineno}: expected 'p <id> objective <min|max>'")
    p = _int(parts[1], lineno, "p must be an integer")
    if not 0 <= p < g.n:
        raise InputError(f"line {lineno}: distinguished vertex {p} out of range")
    try:
        objective = Objective(parts[3])
    except ValueError:
        raise InputError(f"line {lineno}: objective must be 'min' or 'max'") from None
    weights = [1] * g.n
    weighted = set()
    for lineno, line in lines:
        parts = line.split()
        if len(parts) != 3 or parts[0] != "w":
            raise InputError(f"line {lineno}: expected 'w <id> <weight>'")
        v = _int(parts[1], lineno, "vertex id must be an integer")
        if not 0 <= v < g.n:
            raise InputError(f"line {lineno}: vertex {v} out of range")
        if v in weighted:
            raise InputError(f"line {lineno}: duplicate weight for vertex {v}")
        weighted.add(v)
        weights[v] = UNDELETABLE if parts[2] == "inf" else _int(
            parts[2], lineno, "weight must be a positive integer or 'inf'", 1)
    return Instance(g, p, tuple(weights), objective)


def serialize_instance(inst: Instance) -> str:
    out = serialize_graph(inst.graph)
    out += f"p {inst.p} objective {inst.objective.value}\n"
    for v, w in enumerate(inst.weights):
        if v == inst.p or w == 1:
            continue
        out += f"w {v} {'inf' if w == math.inf else w}\n"
    return out


def parse_setsystem(text: str) -> SetSystem:
    lines = _content_lines(text)
    r, t = _header(lines, "set system", "r t", 1)
    family = []
    for lineno, line in _counted(lines, t, "set"):
        family.append([_int(x, lineno, "expected integer element ids")
                       for x in line.split()])
        for x in family[-1]:
            if not 0 <= x < r:
                raise InputError(f"line {lineno}: element {x} outside universe")
    for lineno, _ in lines:
        raise InputError(f"line {lineno}: trailing content after set list")
    return SetSystem(r, tuple(family))


def serialize_setsystem(sys: SetSystem) -> str:
    out = [f"{sys.universe_size} {sys.num_sets}"]
    out += [" ".join(str(x) for x in sorted(f)) for f in sys.family]
    return "\n".join(out) + "\n"


def parse_solution(text: str) -> frozenset:
    ids = []
    for lineno, line in _content_lines(text):
        ids += (_int(tok, lineno, f"'{tok}' is not a vertex id")
                for tok in line.split())
    return frozenset(ids)


def serialize_solution(vertices: Iterable[int]) -> str:
    return " ".join(str(v) for v in sorted(vertices)) + "\n"
