"""Line-oriented text format for resolution graphs, plus the built-in catalog.

Grammar (one statement per line, ``#`` starts a comment, blank lines are
ignored, whitespace within a line is free):

    graph <name>
    vertex <id> euler=<int> [genus=<nonneg-int>]
    edge <id> <id>              # repeat for parallel edges
    cycle <name> E: <id>=<rat> ...        # rationals as p or p/q, vertex basis
    cycle <name> Edual: <id>=<int> ...    # integer combination of dual cycles

Parsing and serialising are mutually inverse on documents; serialisation is
byte-deterministic.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .cycles import RatCycle
from .errors import InputError, ParseError
from .graph import ResolutionGraph, Vertex, dual_cycle
from .record import Record

_TOKEN = re.compile(r"\S+")
_ID = re.compile(r"^[A-Za-z0-9_~+\-.']+$")


class CycleDef(Record):
    __slots__ = ("name", "basis", "coeffs")  # `basis` is "E" or "Edual"


class GraphDocument(Record):
    __slots__ = ("name", "vertices", "edges", "cycles")
    _defaults = {"cycles": ()}

    def graph(self) -> ResolutionGraph:
        return ResolutionGraph(self.vertices, self.edges)

    def cycle(self, name: str) -> RatCycle:
        """Resolve a named cycle to the vertex basis."""
        for cdef in self.cycles:
            if cdef.name == name:
                if cdef.basis == "E":
                    return RatCycle(dict(cdef.coeffs))
                g = self.graph()
                total = RatCycle.zero()
                for vid, coeff in cdef.coeffs:
                    total = total + coeff * dual_cycle(g, vid)
                return total
        raise InputError(f"no cycle named {name!r} in this document")


def _tokens(line: str):
    return [(m.group(0), m.start() + 1) for m in _TOKEN.finditer(line)]


def _check_id(token: str, lineno: int, col: int) -> str:
    if not _ID.match(token):
        raise ParseError(f"invalid id {token!r}", lineno, col)
    return token


def _parse_rational(text: str, lineno: int, col: int) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"invalid rational {text!r}", lineno, col) from None


def parse(text: str) -> GraphDocument:
    """Parse DSL source; errors carry the line and column of the offence."""
    name: str | None = None
    vertices: list[Vertex] = []
    edges: list[tuple[str, str]] = []
    cycles: list[CycleDef] = []
    ids: set[str] = set()
    cycle_names: set[str] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        toks = _tokens(line)
        if not toks:
            continue
        keyword, kcol = toks[0]
        if keyword == "graph":
            if name is not None:
                raise ParseError("duplicate graph line", lineno, kcol)
            if len(toks) != 2:
                raise ParseError("expected: graph <name>", lineno, kcol)
            name = _check_id(toks[1][0], lineno, toks[1][1])
        elif keyword == "vertex":
            if len(toks) < 3:
                raise ParseError("expected: vertex <id> euler=<int> [genus=<int>]", lineno, kcol)
            vid = _check_id(toks[1][0], lineno, toks[1][1])
            if vid in ids:
                raise ParseError(f"duplicate vertex id {vid!r}", lineno, toks[1][1])
            attrs = {}
            for tok, col in toks[2:]:
                key, eq, value = tok.partition("=")
                if not eq:
                    raise ParseError(f"expected key=value, got {tok!r}", lineno, col)
                if key not in ("euler", "genus"):
                    raise ParseError(f"unknown vertex attribute {key!r}", lineno, col)
                if key in attrs:
                    raise ParseError(f"repeated vertex attribute {key!r}", lineno, col)
                try:
                    attrs[key] = int(value)
                except ValueError:
                    raise ParseError(f"invalid integer {value!r}", lineno, col) from None
                if key == "genus" and attrs[key] < 0:
                    raise ParseError("genus must be nonnegative", lineno, col)
            if "euler" not in attrs:
                raise ParseError(f"vertex {vid!r} is missing euler=<int>", lineno, kcol)
            ids.add(vid)
            vertices.append(Vertex(vid, attrs["euler"], attrs.get("genus", 0)))
        elif keyword == "edge":
            if len(toks) != 3:
                raise ParseError("expected: edge <id> <id>", lineno, kcol)
            u, ucol = toks[1]
            v, vcol = toks[2]
            if u not in ids:
                raise ParseError(f"unknown vertex id {u!r}", lineno, ucol)
            if v not in ids:
                raise ParseError(f"unknown vertex id {v!r}", lineno, vcol)
            if u == v:
                raise ParseError(f"loop edge at {u!r}", lineno, ucol)
            edges.append((u, v))
        elif keyword == "cycle":
            if len(toks) < 3:
                raise ParseError("expected: cycle <name> E:|Edual: <id>=<coeff> ...", lineno, kcol)
            cname = _check_id(toks[1][0], lineno, toks[1][1])
            if cname in cycle_names:
                raise ParseError(f"duplicate cycle name {cname!r}", lineno, toks[1][1])
            basis_tok, bcol = toks[2]
            if basis_tok not in ("E:", "Edual:"):
                raise ParseError(f"expected basis marker E: or Edual:, got {basis_tok!r}", lineno, bcol)
            basis = basis_tok[:-1]
            coeffs = {}
            for tok, col in toks[3:]:
                vid, eq, value = tok.partition("=")
                if not eq:
                    raise ParseError(f"expected <id>=<coeff>, got {tok!r}", lineno, col)
                if vid not in ids:
                    raise ParseError(f"unknown vertex id {vid!r}", lineno, col)
                if vid in coeffs:
                    raise ParseError(f"vertex {vid!r} repeated in cycle {cname!r}", lineno, col)
                q = _parse_rational(value, lineno, col)
                if basis == "Edual" and q.denominator != 1:
                    raise ParseError("dual-basis coefficients must be integers", lineno, col)
                coeffs[vid] = q
            cycle_names.add(cname)
            cycles.append(CycleDef(cname, basis, tuple(coeffs.items())))
        else:
            raise ParseError(f"unknown statement {keyword!r}", lineno, kcol)

    doc = GraphDocument(name, tuple(vertices), tuple(edges), tuple(cycles))
    try:
        doc.graph()
    except InputError as exc:
        raise ParseError(str(exc)) from None
    return doc


def serialize(doc: GraphDocument) -> str:
    """Canonical source text; `parse` recovers the document exactly."""
    lines = []
    if doc.name is not None:
        lines.append(f"graph {doc.name}")
    for v in doc.vertices:
        line = f"vertex {v.id} euler={v.euler}"
        if v.genus:
            line += f" genus={v.genus}"
        lines.append(line)
    for u, v in doc.edges:
        lines.append(f"edge {u} {v}")
    for cdef in doc.cycles:
        parts = " ".join(f"{vid}={coeff}" for vid, coeff in cdef.coeffs)
        lines.append(f"cycle {cdef.name} {cdef.basis}: {parts}".rstrip())
    return "\n".join(lines) + "\n"


_STATIC_CATALOG = {
    "paper-z7": """\
graph paper-z7
# chain of four -2 curves around a -2 center with a -2 leaf; one arm ends in -3
vertex E1 euler=-2
vertex E2 euler=-2
vertex c euler=-2
vertex E3 euler=-2
vertex E4 euler=-3
vertex f euler=-2
edge E1 E2
edge E2 c
edge c E3
edge E3 E4
edge c f
""",
    "gamma-2-3-7": """\
graph gamma-2-3-7
# Seifert star with trivial discriminant group
vertex c euler=-1
vertex a2 euler=-2
vertex a3 euler=-3
vertex a7 euler=-7
edge c a2
edge c a3
edge c a7
""",
    "cusp-3x3": """\
graph cusp-3x3
vertex E1 euler=-3
vertex E2 euler=-3
vertex E3 euler=-3
edge E1 E2
edge E2 E3
edge E3 E1
""",
    "simply-elliptic-d3": """\
graph simply-elliptic-d3
vertex E euler=-3 genus=1
""",
    "E6": """\
graph E6
vertex v1 euler=-2
vertex v2 euler=-2
vertex c euler=-2
vertex v3 euler=-2
vertex v4 euler=-2
vertex v5 euler=-2
edge v1 v2
edge v2 c
edge c v3
edge v3 v4
edge c v5
""",
    "E7": """\
graph E7
vertex v1 euler=-2
vertex v2 euler=-2
vertex v3 euler=-2
vertex c euler=-2
vertex v4 euler=-2
vertex v5 euler=-2
vertex v6 euler=-2
edge v1 v2
edge v2 v3
edge v3 c
edge c v4
edge v4 v5
edge c v6
""",
    "E8": """\
graph E8
vertex v1 euler=-2
vertex v2 euler=-2
vertex v3 euler=-2
vertex v4 euler=-2
vertex c euler=-2
vertex v5 euler=-2
vertex v6 euler=-2
vertex v7 euler=-2
edge v1 v2
edge v2 v3
edge v3 v4
edge v4 c
edge c v5
edge v5 v6
edge c v7
""",
}

_KNOWN_PATTERNS = ("A<n>", "D<n>")


def catalog_names() -> tuple[str, ...]:
    """The static catalog's names; the families are `_KNOWN_PATTERNS`."""
    return tuple(sorted(_STATIC_CATALOG))


def catalog_source(name: str) -> str:
    """DSL source of a named catalog graph."""
    if name in _STATIC_CATALOG:
        return _STATIC_CATALOG[name]
    # ASCII digits with no leading zero, so each graph has one name
    if match := re.fullmatch(r"A([1-9][0-9]*)", name):
        n = int(match.group(1))
        lines = [f"graph A{n}"]
        lines += [f"vertex v{i} euler=-2" for i in range(1, n + 1)]
        lines += [f"edge v{i} v{i + 1}" for i in range(1, n)]
        return "\n".join(lines) + "\n"
    if match := re.fullmatch(r"D([1-9][0-9]*)", name):
        n = int(match.group(1))
        if n >= 4:
            lines = [f"graph D{n}"]
            lines += [f"vertex v{i} euler=-2" for i in range(1, n + 1)]
            lines += [f"edge v{i} v{i + 1}" for i in range(1, n - 2)]
            lines += [f"edge v{n - 2} v{n - 1}", f"edge v{n - 2} v{n}"]
            return "\n".join(lines) + "\n"
    known = ", ".join(catalog_names() + _KNOWN_PATTERNS)
    raise InputError(f"unknown catalog graph {name!r}; known names: {known}")


def catalog(name: str) -> ResolutionGraph:
    return parse(catalog_source(name)).graph()
