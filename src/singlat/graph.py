"""Resolution graphs, their intersection form, and graph surgeries.

A resolution graph is a decorated multigraph: each vertex carries a
self-intersection (Euler number) and a genus, and parallel edges encode
multiple intersection points of the corresponding curves. Loops are
rejected because components are smooth; disconnected input is rejected
because links are connected.

A graph runs at most one elimination, on [-M | I]: its pivots decide
definiteness and give det(-M), and adj(-M) = det(-M) (-M)^-1 gives the dual
cycles, the canonical cycle and the Schur complement of an extension. Cycles
are integer numerators in vertex order, and `cycle_vector` and
`vector_cycle` convert to and from a `RatCycle` at the edge only."""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Iterable, Union

from . import linalg
from .cycles import RatCycle
from .errors import InputError, InternalError, PreconditionError
from .record import Record


class Vertex(Record):
    __slots__ = ("id", "euler", "genus")
    _defaults = {"genus": 0}


class ResolutionGraph(Record):
    # `_memo` holds the `per_graph` values; `_ids` and `_position` are the
    # vertex ids in order and each id's position, built once
    __slots__ = ("vertices", "edges", "_memo", "_ids", "_position", "__weakref__")
    _fields = ("vertices", "edges")

    def __init__(self, vertices: tuple[Vertex, ...], edges: tuple[tuple[str, str], ...] = ()):
        object.__setattr__(self, "vertices", tuple(vertices))
        object.__setattr__(self, "edges", tuple((str(u), str(v)) for u, v in edges))
        object.__setattr__(self, "_memo", {})
        if not self.vertices:
            raise InputError("a resolution graph needs at least one vertex")
        position = {}
        for i, vert in enumerate(self.vertices):
            if vert.id in position:
                raise InputError(f"duplicate vertex id {vert.id!r}")
            if vert.genus < 0:
                raise InputError(f"vertex {vert.id!r} has negative genus")
            position[vert.id] = i
        object.__setattr__(self, "_ids", tuple(position))
        object.__setattr__(self, "_position", position)
        for u, v in self.edges:
            if u not in position or v not in position:
                raise InputError(f"edge ({u!r}, {v!r}) references an unknown vertex")
            if u == v:
                raise InputError(f"loop edge at {u!r}: components are smooth curves")
        if len(vertex_components(self._ids, self.edges)) > 1:
            raise InputError("graph is not connected")

    @classmethod
    def from_data(cls, vertices: Iterable, edges: Iterable[tuple[str, str]] = ()) -> "ResolutionGraph":
        """Build from (id, euler[, genus]) tuples and edge pairs."""
        verts = []
        for item in vertices:
            if isinstance(item, Vertex):
                verts.append(item)
            else:
                verts.append(Vertex(str(item[0]), int(item[1]), int(item[2]) if len(item) > 2 else 0))
        return cls(tuple(verts), tuple(edges))

    @property
    def ids(self) -> tuple[str, ...]:
        return self._ids

    def vertex(self, vid: str) -> Vertex:
        return self.vertices[self.index(vid)]

    def index(self, vid: str) -> int:
        return _lookup(self._position, vid)

    def degree(self, vid: str) -> int:
        return _degrees(self)[self.index(vid)]

    @property
    def betti1(self) -> int:
        """First Betti number of the underlying graph (0 for trees)."""
        return len(self.edges) - len(self.vertices) + 1

    @property
    def is_tree(self) -> bool:
        return self.betti1 == 0

    @property
    def all_genus_zero(self) -> bool:
        return all(v.genus == 0 for v in self.vertices)

    @property
    def is_cycle_graph(self) -> bool:
        """A single cycle: connected with every vertex of degree two."""
        return (len(self.edges) == len(self.vertices)
                and all(self.degree(v.id) == 2 for v in self.vertices))

    @property
    def is_minimal_resolution(self) -> bool:
        """No genus-zero vertex with self-intersection -1."""
        return not any(v.euler == -1 and v.genus == 0 for v in self.vertices)

    def fresh_id(self, base: str) -> str:
        taken = set(self.ids)
        if base not in taken:
            return base
        k = 2
        while f"{base}{k}" in taken:
            k += 1
        return f"{base}{k}"


def _lookup(position: dict, vid) -> int:
    try:
        return position[vid]
    except (KeyError, TypeError):  # TypeError: an unhashable id
        raise InputError(f"unknown vertex id {vid!r}") from None


def vertex_components(ids, edges) -> list[set[str]]:
    """The vertex sets of the connected components of the graph on `ids`
    with those `edges` that join two of them, in order of first vertex."""
    adjacent: dict[str, list[str]] = {vid: [] for vid in ids}
    for u, v in edges:
        if u in adjacent and v in adjacent:
            adjacent[u].append(v)
            adjacent[v].append(u)
    parts, seen = [], set()
    for vid in ids:
        if vid in seen:
            continue
        reached, frontier = {vid}, [vid]
        while frontier:
            for nb in adjacent[frontier.pop()]:
                if nb not in reached:
                    reached.add(nb)
                    frontier.append(nb)
        seen |= reached
        parts.append(reached)
    return parts


def per_graph(fn):
    """Compute `fn(g)` at most once per graph object, kept in `g._memo`.

    The value lives exactly as long as the graph: once the last reference
    to a graph is dropped, everything computed from it goes with it. Equal
    graphs built separately compute their own values, and a call that
    raises stores nothing.
    """
    @functools.wraps(fn)
    def memoised(g):
        memo = g._memo
        if fn not in memo:
            memo[fn] = fn(g)
        return memo[fn]
    return memoised


def _derived(vertices, edges, known: dict) -> ResolutionGraph:
    """A graph built from another one, holding the values already known
    about it: `known` maps `per_graph` functions to their values on the new
    graph, which are then never computed."""
    g = ResolutionGraph(vertices, edges)
    g._memo.update((fn.__wrapped__, value) for fn, value in known.items())
    return g


@per_graph
def neighbours(g: ResolutionGraph) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per vertex position, the (position, edge multiplicity) pairs of its
    neighbours: the nonzero off-diagonal entries of its matrix row."""
    rows: list[dict[int, int]] = [{} for _ in g.vertices]
    pos = g._position
    for u, v in g.edges:
        i, j = pos[u], pos[v]
        rows[i][j] = rows[i].get(j, 0) + 1
        rows[j][i] = rows[j].get(i, 0) + 1
    return tuple(tuple(sorted(row.items())) for row in rows)


@per_graph
def _degrees(g: ResolutionGraph) -> tuple[int, ...]:
    return tuple(sum(m for _, m in row) for row in neighbours(g))


def induced_subgraph(g: ResolutionGraph, keep) -> ResolutionGraph:
    """The subgraph on the given (connected) set of vertices. Its matrix is
    a principal submatrix, so it is known negative definite when g is."""
    return _derived(tuple(vert for vert in g.vertices if vert.id in keep),
                    tuple((u, v) for u, v in g.edges if u in keep and v in keep),
                    {_negative_definite: True} if _negative_definite(g) else {})


class IntersectionMatrix(Record):
    __slots__ = ("ids", "rows", "_position")
    _fields = ("ids", "rows")

    def __init__(self, ids: tuple[str, ...], rows: tuple[tuple[int, ...], ...]):
        super().__init__(ids, rows, {vid: i for i, vid in enumerate(ids)})

    def entry(self, u: str, v: str) -> int:
        return self.rows[_lookup(self._position, u)][_lookup(self._position, v)]

    def negated(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(-x for x in row) for row in self.rows)


class BlowUpMap(Record):
    """Total-transform data for a single blow-up."""

    # `locus` is a vertex id or an (id, id) edge
    __slots__ = ("source", "target", "locus", "new_id")


@per_graph
def intersection_matrix(g: ResolutionGraph) -> IntersectionMatrix:
    """Symmetric matrix with Euler numbers on the diagonal and edge
    multiplicities off it."""
    ids, pos = g.ids, g._position
    rows = [[0] * len(ids) for _ in ids]
    for i, vert in enumerate(g.vertices):
        rows[i][i] = vert.euler
    for u, v in g.edges:
        rows[pos[u]][pos[v]] += 1
        rows[pos[v]][pos[u]] += 1
    return IntersectionMatrix(ids, tuple(tuple(row) for row in rows))


def is_negative_definite(m: IntersectionMatrix) -> bool:
    """Exact test: all leading principal minors of -M are positive."""
    pivots, _ = linalg.eliminate(m.negated())
    return all(p > 0 for p in pivots)


@per_graph
def _elimination(g: ResolutionGraph) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The pivots of one Gauss-Jordan pass on [-M | I] and adj(-M). No row
    swap comes before the first pivot that is not positive, so up to there
    they are leading minors; the last pivot is det(-M) on every graph."""
    neg = intersection_matrix(g).negated()
    pivots, adj = linalg.eliminate(neg, linalg.identity(len(neg)))
    return tuple(pivots), tuple(map(tuple, adj))


@per_graph
def _negative_definite(g: ResolutionGraph) -> bool:
    return all(p > 0 for p in _elimination(g)[0])


def require_negative_definite(g: ResolutionGraph) -> None:
    if not _negative_definite(g):
        raise PreconditionError("intersection form is not negative definite")


def lattice_determinant(g: ResolutionGraph) -> int:
    """det(-M); equals the order of the discriminant group when positive."""
    return _elimination(g)[0][-1]


def adjugate(g: ResolutionGraph) -> tuple[tuple[int, ...], ...]:
    """adj(-M) = det(-M) (-M)^-1 of a negative-definite graph: a symmetric
    integer matrix whose column v is det(-M) times the dual cycle E_v^*."""
    require_negative_definite(g)
    return _elimination(g)[1]


def cycle_vector(g: ResolutionGraph, cycle: RatCycle) -> tuple[list[int], int]:
    """A cycle's integer numerators in vertex order over its denominator, the
    lcm of its coefficients' denominators, and that denominator: a plain read
    of the `RatCycle`, which stores exactly these, building no `Fraction`."""
    num, position = cycle._num, g._position  # the stored numerators, read as they are
    if not num.keys() <= position.keys():
        unknown = min(vid for vid in num if vid not in position)
        raise InputError(f"cycle mentions unknown vertex id {unknown!r}")
    return [num.get(vid, 0) for vid in g.ids], cycle.denominator


def vector_cycle(g: ResolutionGraph, vec, scale: int) -> RatCycle:
    """The cycle with integer numerators `vec` over `scale` in vertex order:
    the inverse of `cycle_vector`. The `RatCycle` takes the numerators as
    they are and reduces them by one gcd, building no `Fraction`."""
    return RatCycle(zip(g.ids, vec), scale)


def sparse_pairings(diag, rows, vec: list[int]) -> list[int]:
    """(D, E_i) at every position i, for the integral cycle D with the given
    coefficient vector and the form with the given diagonal and `neighbours`
    rows: O(vertices + edges) integer work."""
    return [d * x + sum(m * vec[j] for j, m in row) for d, x, row in zip(diag, vec, rows)]


def diagonal(g: ResolutionGraph) -> list[int]:
    return [vert.euler for vert in g.vertices]


def pairing(g: ResolutionGraph, a: RatCycle, b: RatCycle) -> Fraction:
    """Intersection pairing extended bilinearly to rational cycles."""
    va, scale_a = cycle_vector(g, a)
    vb, scale_b = cycle_vector(g, b)
    pairings = sparse_pairings(diagonal(g), neighbours(g), vb)
    return Fraction(sum(x * y for x, y in zip(va, pairings) if x), scale_a * scale_b)


def pairing_vector(g: ResolutionGraph, cycle: RatCycle) -> list[Fraction]:
    """Pairings of the cycle with every vertex basis element, in order."""
    vec, scale = cycle_vector(g, cycle)
    return [Fraction(p, scale) for p in sparse_pairings(diagonal(g), neighbours(g), vec)]


def dual_coordinates(g: ResolutionGraph, vec: list[int], scale: int, name: str = "cycle") -> list[int]:
    """-(l, E_v) at every vertex, in integers: the dual-basis coordinates of
    the dual-lattice cycle l = vec / scale. A fractional pairing raises, naming its vertex."""
    pairings = sparse_pairings(diagonal(g), neighbours(g), vec)
    for vid, p in zip(g.ids, pairings):
        if p % scale:
            raise PreconditionError(
                f"{name} is not in the dual lattice: pairing with {vid} is {Fraction(p, scale)}")
    return [-(p // scale) for p in pairings]


def dual_cycle(g: ResolutionGraph, vid: str) -> RatCycle:
    """The rational cycle pairing -1 with the given vertex and 0 with the rest.

    Its coefficients form the corresponding column of (-M)^-1 and are all
    strictly positive on a connected negative-definite graph.
    """
    col = g.index(vid)  # adj(-M) is symmetric: row col is the column
    return vector_cycle(g, adjugate(g)[col], lattice_determinant(g))


def dual_basis(g: ResolutionGraph) -> dict[str, RatCycle]:
    return {vid: dual_cycle(g, vid) for vid in g.ids}


def adjunction_targets(g: ResolutionGraph) -> list[int]:
    """Required pairings of the canonical cycle: E_v^2 + 2 - 2g(E_v)."""
    return [v.euler + 2 - 2 * v.genus for v in g.vertices]


@per_graph
def canonical_numerators(g: ResolutionGraph) -> tuple[int, ...]:
    """The numerators over det(-M), in vertex order, of the canonical cycle
    K, the rational cycle with the adjunction pairings: M K = t, so
    K = -adj(-M) t / det(-M). No remainder is the numerically Gorenstein condition."""
    t = adjunction_targets(g)
    return tuple(-sum(a * x for a, x in zip(row, t)) for row in adjugate(g))


def canonical_cycle(g: ResolutionGraph) -> RatCycle:
    """The canonical cycle K, from `canonical_numerators`."""
    return vector_cycle(g, canonical_numerators(g), lattice_determinant(g))


def chi(g: ResolutionGraph, cycle: RatCycle) -> Fraction:
    """Riemann-Roch expression -(l, l - K)/2 against the canonical cycle."""
    vec, scale = cycle_vector(g, cycle)
    return Fraction(chi_numerator(g, vec, scale), 2 * scale * scale)


def chi_numerator(g: ResolutionGraph, vec: list[int], scale: int) -> int:
    """2 scale^2 chi(l) for the cycle l with integer numerators `vec` over
    `scale`: one pairing pass on g's rows, then `chi_from_self_pairing`."""
    require_negative_definite(g)
    pairings = sparse_pairings(diagonal(g), neighbours(g), vec)
    return chi_from_self_pairing(adjunction_targets(g), vec, scale,
                                 sum(x * p for x, p in zip(vec, pairings)))


def chi_from_self_pairing(targets, vec: list[int], scale: int, self_pairing: int) -> int:
    """The one chi formula: 2 scale^2 chi(l) for l = vec / scale, given
    scale^2 (l, l). (l, K) is read off the adjunction targets: no solve."""
    return sum(x * t for x, t in zip(vec, targets)) * scale - self_pairing


def blow_up(g: ResolutionGraph, locus: Union[str, tuple[str, str]]) -> tuple[ResolutionGraph, BlowUpMap]:
    """Blow up a generic point of a vertex, or the point of an existing edge.

    The new vertex has Euler number -1 and genus 0; touched vertices have
    their Euler number dropped by one, and an edge locus loses one copy of
    that edge. Total transforms through the returned map preserve all
    pairings, hence det(-M). Refuses a form that is not negative definite.
    """
    require_negative_definite(g)
    new_id = g.fresh_id("new")
    if isinstance(locus, str):
        g.vertex(locus)
        ends, edges = (locus,), g.edges
    else:
        u, v = locus
        g.vertex(u)
        g.vertex(v)
        match = next((i for i, e in enumerate(g.edges) if set(e) == {u, v}), None)
        if match is None:
            raise InputError(f"no edge between {u!r} and {v!r}")
        locus = ends = (u, v)
        edges = g.edges[:match] + g.edges[match + 1:]
    verts = tuple(Vertex(w.id, w.euler - 1 if w.id in ends else w.euler, w.genus)
                  for w in g.vertices) + (Vertex(new_id, -1, 0),)
    target = ResolutionGraph(verts, edges + tuple((w, new_id) for w in ends))
    if not _negative_definite(target):  # pragma: no cover - blow-up is unimodular
        raise InternalError("blow-up target is not negative definite")
    return target, BlowUpMap(g, target, locus, new_id)


def transform_numerators(bmap: BlowUpMap, vec) -> tuple[int, ...]:
    """The total transform of numerators `vec` in the source's vertex order:
    the new vertex, last in the target's, takes their sum over the locus."""
    ends = (bmap.locus,) if isinstance(bmap.locus, str) else bmap.locus
    return tuple(vec) + (sum(vec[bmap.source.index(w)] for w in ends),)


def total_transform(bmap: BlowUpMap, cycle: RatCycle) -> RatCycle:
    """Pull a cycle back through a blow-up; pairings are preserved."""
    vec, scale = cycle_vector(bmap.source, cycle)
    return vector_cycle(bmap.target, transform_numerators(bmap, vec), scale)


def _extended(g: ResolutionGraph, vid: str, new_id: str, euler: int, known: dict) -> ResolutionGraph:
    verts = g.vertices + (Vertex(new_id, euler, 0),)
    return _derived(verts, g.edges + ((vid, new_id),), {_negative_definite: True, **known})


def extend_graph(g: ResolutionGraph, vid: str, euler: int | None = None) -> ResolutionGraph:
    """Glue one genus-zero vertex of the given Euler number onto a vertex.

    The extension with Euler number k is negative definite exactly when
    k det(-M) < -adj_v, adj_v / det(-M) being the vertex's diagonal entry of
    (-M)^-1 (a Schur complement), so no extended graph is built to decide it
    and none runs an elimination.

    With the Euler number omitted, it is found in closed form. Z_min of any
    extension restricts to an anti-nef cycle on g, so it is at least
    Z_min(g) + E_new. Let Z' be the least integral x >= Z_min(g) with
    (x, E_w) <= -delta_vw on g. Any such x minus E_v^* is anti-nef and in
    the class of -E_v^*, so at least its minimal cycle s. Conversely,
    E_v^* + s is integral, anti-nef and nonzero, hence at least Z_min(g):
    Z' = E_v^* + s, column v of adj(-M) over det(-M) plus one class-table
    entry (E_v^*'s class read off U). E_new has multiplicity one exactly when
    k <= -z'_v, and for every such k, Z_min(ext) = Z' + E_new, whose chi,
    chi(Z') + 1 - z'_v, does not depend on k: neither the multiplicity nor
    the rationality verdict moves below -z'_v. The extension takes k =
    min(-2, first negative-definite value, -z'_v), the first of that stable
    range, built once knowing its Z_min and chi(Z_min) (one pass on Z').
    """
    adj, det = adjugate(g), lattice_determinant(g)
    position = g.index(vid)
    column = adj[position]  # adj(-M) is symmetric
    new_id = g.fresh_id("ext")
    if euler is not None:
        if not euler * det < -column[position]:
            raise PreconditionError(
                f"extension at {vid!r} with Euler number {euler} is not negative definite")
        return _extended(g, vid, new_id, euler, {})

    from . import lattice, laufer  # local import: both build on this module

    cg = lattice.class_group(g)
    h = lattice.dual_class(cg, position)
    end = [a + s for a, s in zip(column, laufer.minimal_numerators(g, cg, cg.neg(h)))]
    if any(x % det for x in end):  # pragma: no cover - cross-check
        raise InternalError(f"Z' at {vid!r} is not integral")
    z_prime = [x // det for x in end]
    chi = chi_numerator(g, z_prime, 1) + 2 - 2 * z_prime[position]  # 2 chi(Z' + E_new)
    return _extended(g, vid, new_id, min(-2, -(column[position] // det) - 1, -z_prime[position]),
                     {laufer._z_min: ((*z_prime, 1), chi)})
