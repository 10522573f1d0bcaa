"""Computation sequences and the singularity-type classification.

The core loop repeatedly adds a base vertex that still pairs positively
with the running cycle. On a negative-definite graph this terminates at the
unique minimal anti-nef cycle lying above the start in its congruence class
modulo the integral lattice. The endpoint is independent of tie-breaking;
only the path varies, and tests exercise randomized policies to confirm it.

Each step costs O(deg) integer work on numerators over one scale: the
positive vertices sit in a min-heap, and a step updates only the chosen
vertex and its neighbours. A climb runs one pairing pass, on its start, and
hands back its end's pairings, so the class table keeps each minimal cycle's
self-pairing and each graph keeps 2 chi(Z_min) beside Z_min. Only
`antinef_closure` and `fundamental_cycle` build a sequence object. As
chi(x + E_v) = chi(x) + 1 - (x, E_v) on genus-zero vertices (Laufer, Amer.
J. Math. 94, 1972), an h1 sum is chi(start) - chi(end), which `classify`
reads off the class table with no pass. The minimally elliptic cycle is a
canonical cycle on a subgraph found by rationality tests on the graph's own
rows, on every resolution; no grid of cycles is walked, and the verdict
reads its integer coefficients, building no cycle object.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Callable, Optional

from .cycles import RatCycle
from .errors import InternalError, PreconditionError
from .graph import (ResolutionGraph, adjugate, adjunction_targets, canonical_numerators,
                    chi_from_self_pairing, chi_numerator, cycle_vector, diagonal,
                    dual_coordinates, induced_subgraph, lattice_determinant, neighbours,
                    per_graph, require_negative_definite, sparse_pairings, vector_cycle,
                    vertex_components)
from .lattice import ClassElement, ClassGroup, reduced_numerators
from .record import Record

TieBreak = Callable[[tuple[str, ...]], str]


class LauferStep(Record):
    # `value` is the running cycle's pairing with the vertex
    __slots__ = ("vertex", "value")


class ComputationSequence(Record):
    __slots__ = ("start", "steps", "end")

    def __len__(self) -> int:
        return len(self.steps)


def _climb(diag, rows, vec: list[int], scale: int, level: list[int], choose, cap: int):
    """Laufer's loop on the form with the given diagonal and `neighbours`
    rows, from the cycle with integer numerators `vec` and pairings `level`
    over `scale`; O(deg) per step and no pairing pass. Off-diagonal entries
    are nonnegative, so a step can only make neighbours positive and only
    the chosen vertex can stop being positive: a min-heap of the positive
    positions needs no lazy deletion, and its top is the lowest position.
    `choose` picks from the positive positions in order; None takes the
    lowest. Returns the steps as (position, pairing times scale) pairs and
    the end's numerators and pairings (`level`, updated in place)."""
    end = list(vec)
    positive = [i for i, value in enumerate(level) if value > 0]  # sorted, so a heap
    steps = []
    while positive:
        i = positive[0] if choose is None else choose(sorted(positive))
        steps.append((i, level[i]))
        end[i] += scale
        level[i] += diag[i] * scale
        if level[i] <= 0:
            if positive[0] == i:
                heapq.heappop(positive)
            else:
                positive.remove(i)
                heapq.heapify(positive)
        for j, m in rows[i]:
            if level[j] <= 0 < level[j] + m * scale:
                heapq.heappush(positive, j)
            level[j] += m * scale
        if len(steps) > cap:
            raise InternalError(
                f"computation sequence exceeded its step cap of {cap}; "
                "this indicates a broken invariant, not bad input")
    return steps, end, level


def _chooser(g: ResolutionGraph, tie_break):
    """The tie-break turned into `_climb`'s chooser of positions."""
    if tie_break is None:
        return None

    def choose(positions: list[int]) -> int:
        candidates = tuple(g.ids[i] for i in positions)
        chosen = tie_break(candidates)
        if chosen not in candidates:
            raise InternalError(f"tie-break returned {chosen!r}, not a candidate")
        return positions[candidates.index(chosen)]
    return choose


def _sequence(g: ResolutionGraph, vec: list[int], scale: int, tie_break, cap=None):
    """`_climb` on g from the cycle vec / scale, after one pairing pass; the
    cap defaults to `_step_cap`."""
    diag, rows = diagonal(g), neighbours(g)
    level = sparse_pairings(diag, rows, vec)
    if cap is None:
        cap = _step_cap(g, level, scale)
    return _climb(diag, rows, vec, scale, level, _chooser(g, tie_break), cap)


def _run_sequence(g: ResolutionGraph, start: RatCycle, tie_break: Optional[TieBreak],
                  cap: Optional[int]) -> ComputationSequence:
    vec, scale = cycle_vector(g, start)
    steps, end, _level = _sequence(g, vec, scale, tie_break, cap)
    ids = g.ids
    return ComputationSequence(
        start, tuple(LauferStep(ids[i], Fraction(value, scale)) for i, value in steps),
        vector_cycle(g, end, scale))


# Generous fallback used only while the fundamental cycle itself is unknown.
_BOOTSTRAP_CAP = 1_000_000


def _fundamental(diag, rows, targets) -> tuple[tuple[int, ...], int]:
    """Z_min of the form with the given diagonal, `neighbours` rows and
    adjunction targets, from its first vertex, and 2 chi(Z_min) off the final pairings."""
    start = [1] + [0] * (len(rows) - 1)
    _steps, end, level = _climb(diag, rows, start, 1, sparse_pairings(diag, rows, start), None,
                                _BOOTSTRAP_CAP)
    if min(end) < 1:  # pragma: no cover - theory
        raise InternalError("fundamental cycle has a coefficient below one")
    self_pairing = sum(x * p for x, p in zip(end, level))
    return tuple(end), chi_from_self_pairing(targets, end, 1, self_pairing)


@per_graph
def _z_min(g: ResolutionGraph) -> tuple[tuple[int, ...], int]:
    """Z_min's integer coefficients in vertex order (no sequence is built)
    and 2 chi(Z_min); `graph.extend_graph` seeds both on an extension."""
    return _fundamental(diagonal(g), neighbours(g), adjunction_targets(g))


def z_min_numerators(g: ResolutionGraph) -> tuple[int, ...]:
    """Z_min's integer coefficients in vertex order, from `_z_min`."""
    return _z_min(g)[0]


def z_min_chi_numerator(g: ResolutionGraph) -> int:
    """2 chi(Z_min), from `_z_min`: no pairing pass."""
    return _z_min(g)[1]


def z_min_cycle(g: ResolutionGraph) -> RatCycle:
    """The fundamental cycle Z_min, from `z_min_numerators`."""
    return vector_cycle(g, z_min_numerators(g), 1)


def fundamental_cycle(g: ResolutionGraph, start_vertex: str | None = None,
                      tie_break: Optional[TieBreak] = None) -> ComputationSequence:
    """Minimal nonzero anti-nef integral cycle, as a computation sequence.

    The endpoint does not depend on the start vertex or on tie-breaking.
    Each call climbs afresh; no command calls it, as Z_min comes from
    `z_min_numerators`.
    """
    require_negative_definite(g)
    start = RatCycle.unit(start_vertex if start_vertex is not None else g.ids[0])
    return _run_sequence(g, start, tie_break, _BOOTSTRAP_CAP)


@per_graph
def _adjugate_column_sums(g: ResolutionGraph) -> tuple[int, ...]:
    return tuple(map(sum, adjugate(g)))  # adj(-M) is symmetric


def _step_cap(g: ResolutionGraph, levels: list[int], scale: int) -> int:
    """A proven bound on the steps of a climb from x, read off its start
    pairings times scale, `levels` (no pass of its own): with
    a_v = ceil(max(0, (x, E_v)) / det(-M)), y = x + sum a_v det(-M) E_v^* is
    anti-nef, at least x and in x's class, as det(-M) E_v^* is column v of
    adj(-M). The climb stays below y: at most sum a_v (column sum v) steps."""
    unit = scale * lattice_determinant(g)
    return sum(-(-level // unit) * total
               for level, total in zip(levels, _adjugate_column_sums(g)) if level > 0)


def antinef_closure(g: ResolutionGraph, start: RatCycle,
                    tie_break: Optional[TieBreak] = None) -> ComputationSequence:
    """Minimal anti-nef cycle >= start and congruent to it mod the lattice."""
    require_negative_definite(g)
    return _run_sequence(g, start, tie_break, None)


@per_graph
def laufer_rational(g: ResolutionGraph) -> bool:
    """Rationality by Artin's criterion (Amer. J. Math. 88, 1966): a tree of
    genus-zero curves with chi(Z_min) = 1.

    It is Laufer's sequence criterion: as chi(E_v) = 1 and chi(Z + E_v) =
    chi(Z) + 1 - (Z, E_v), a sequence from any vertex to Z_min gives
    chi(Z_min) = 1 + sum(1 - value), and every step's value is at least one.
    """
    require_negative_definite(g)
    return g.is_tree and g.all_genus_zero and z_min_chi_numerator(g) == 2


@per_graph
def _minimal_cycles(g: ResolutionGraph) -> dict[tuple[int, ...], tuple[tuple[int, ...], int]]:
    """The graph's one table of minimal cycles: per class coordinates, the
    `minimal_cycle` entry under the default policy, filled one class at a time."""
    return {}


def minimal_cycle(g: ResolutionGraph, cg: ClassGroup, h: ClassElement,
                  tie_break: Optional[TieBreak] = None, *,
                  start: Optional[list[int]] = None) -> tuple[tuple[int, ...], int]:
    """The numerators over det(-M) of the class's minimal anti-nef cycle s
    (the closure of its reduced representative, zero for the zero class) and
    det(-M)^2 (s, s), off the climb's final pairings. Each other class climbs
    once per graph by default; a tie-break policy climbs afresh and leaves
    the table alone. A caller holding `lattice.reduced_numerators(cg, h)` passes it as `start`."""
    if cg.graph is not g and cg.graph != g:
        raise PreconditionError("the class group given is not the one of this graph")
    table = _minimal_cycles(g)
    if tie_break is None and h.coords in table:
        return table[h.coords]
    if h.is_zero:  # the zero cycle is anti-nef already
        cg.validate(h)
        return (0,) * len(g.ids), 0
    if start is None:
        start = reduced_numerators(cg, h)
    _steps, end, level = _sequence(g, start, cg.order, tie_break)
    if not any(end):  # pragma: no cover - cross-check
        raise InternalError("a nonzero class produced the zero cycle")
    entry = tuple(end), sum(x * p for x, p in zip(end, level))
    if tie_break is None:
        table[h.coords] = entry
    return entry


def minimal_numerators(g: ResolutionGraph, cg: ClassGroup, h: ClassElement,
                       tie_break: Optional[TieBreak] = None, *,
                       start: Optional[list[int]] = None) -> tuple[int, ...]:
    """The numerators of the class's minimal anti-nef cycle, from `minimal_cycle`."""
    return minimal_cycle(g, cg, h, tie_break, start=start)[0]


def minimal_antinef_rep(g: ResolutionGraph, cg: ClassGroup, h: ClassElement,
                        tie_break: Optional[TieBreak] = None) -> RatCycle:
    """The unique minimal anti-nef cycle in the given class; zero exactly
    for the zero class. Read from `minimal_numerators`."""
    return vector_cycle(g, minimal_numerators(g, cg, h, tie_break), cg.order)


def h1_rational(g: ResolutionGraph, chern: RatCycle,
                tie_break: Optional[TieBreak] = None) -> int:
    """First cohomology of the line bundle with the given first Chern class
    on a rational graph: sum of (pairing - 1) along the sequence started at
    the negated class. Independent of the vertex choices made."""
    if not laufer_rational(g):
        raise PreconditionError("the h1 sequence formula requires a rational graph")
    vec, scale = cycle_vector(g, chern)
    # the negated class pairs to c * scale where its dual coordinate is c
    level = [c * scale for c in dual_coordinates(g, vec, scale, "Chern class")]
    steps, _end, _level = _climb(diagonal(g), neighbours(g), [-x for x in vec], scale, level,
                                 _chooser(g, tie_break), _step_cap(g, level, scale))
    return sum(value // scale - 1 for _, value in steps)


def _rational_part(g: ResolutionGraph, part: set[str]) -> bool:
    """`laufer_rational(induced_subgraph(g, part))` for a connected vertex
    set of the negative-definite graph g, read off g's own rows, so no graph
    is built: the part is a tree when its edge multiplicities sum to
    2(|part| - 1), and then rational when its genera are zero and
    2 chi(Z_min) = 2, both from `_fundamental` as in `_z_min`."""
    positions = [i for i, vid in enumerate(g.ids) if vid in part]
    local = {i: k for k, i in enumerate(positions)}
    all_rows = neighbours(g)
    rows = [tuple((local[j], m) for j, m in all_rows[i] if j in local) for i in positions]
    if sum(m for row in rows for _j, m in row) != 2 * (len(rows) - 1):
        return False
    vertices = g.vertices
    if any(vertices[i].genus for i in positions):
        return False
    diag = [vertices[i].euler for i in positions]
    return _fundamental(diag, rows, [d + 2 for d in diag])[1] == 2  # genus zero: t = E^2 + 2


def _minimal_non_rational_subgraph(g: ResolutionGraph) -> ResolutionGraph:
    """Drop each vertex in turn, keeping only a non-rational connected
    component of what is left whenever there is one: O(n) rationality tests,
    each on g's own rows (`_rational_part`). On an elliptic graph this ends
    on the unique minimal non-rational connected subgraph, as every kept
    subgraph contains it. The one graph built is that subgraph, and only
    when a vertex was dropped; otherwise it is g."""
    core = set(g.ids)
    for vid in g.ids:
        if vid in core:
            rest = [other for other in g.ids if other in core and other != vid]
            core = next((part for part in vertex_components(rest, g.edges)
                         if not _rational_part(g, part)), core)
    return g if len(core) == len(g.ids) else induced_subgraph(g, core)


def _elliptic_cycle(g: ResolutionGraph) -> tuple[int, ...]:
    """`minimally_elliptic_cycle`'s integer coefficients in vertex order; no
    precondition is checked and no cycle object is built."""
    z_min = z_min_numerators(g)
    core = _minimal_non_rational_subgraph(g)
    det = lattice_determinant(core)
    on_core = dict(zip(core.ids, canonical_numerators(core)))
    cycle = [on_core.get(vid, 0) for vid in g.ids]
    if not (any(cycle) and all(x % det == 0 and x <= z * det for x, z in zip(cycle, z_min))
            and chi_numerator(g, cycle, det) == 0):
        raise InternalError(
            f"canonical cycle {vector_cycle(g, cycle, det)} of the minimal non-rational "
            "subgraph is not a nonzero integral chi-zero cycle below the fundamental cycle")
    return tuple(x // det for x in cycle)


def minimally_elliptic_cycle(g: ResolutionGraph) -> RatCycle:
    """The minimal nonzero effective cycle E with chi zero on an elliptic
    graph, minimal resolution or not: the canonical cycle of the unique
    minimal non-rational connected subgraph S.

    supp E = S. A connected subgraph is non-rational iff it carries an
    effective cycle with chi <= 0 (Artin, Amer. J. Math. 88, 1966); chi >= 0
    on an elliptic graph (Wagreich, Amer. J. Math. 92, 1970), so iff it
    carries a chi-zero cycle, and every chi-zero cycle is >= E (Laufer,
    Amer. J. Math. 99, 1977): iff it contains supp E.

    E = Z_K(S). If E = E_w then chi(E_w) = 1 - g_w = 0, so g_w = 1 and
    Z_K({w}) = E_w. Otherwise every E - E_v (v in S) is nonzero, effective
    and below E, so chi(E - E_v) >= 1, and as chi(E) = 0,
    chi(E - E_v) = (E, E_v) - E_v^2 - 1 + g_v. Summing with weights e_v gives
    sum e_v chi(E - E_v) = sum e_v (1 - g_v) <= sum e_v, so every
    chi(E - E_v) = 1 and g_v = 0: (E, E_v) = E_v^2 + 2 - 2 g_v on S.

    The result must be integral, nonzero, of chi zero on g and below Z_min.
    """
    require_negative_definite(g)
    if laufer_rational(g):
        raise PreconditionError("rational graphs have no minimally elliptic cycle")
    if z_min_chi_numerator(g):
        raise PreconditionError("graph is not elliptic: chi of the fundamental cycle is nonzero")
    return vector_cycle(g, _elliptic_cycle(g), 1)


class SingularityType(Record):
    # `kind`: rational | elliptic | minimally-elliptic | cusp | other;
    # `elliptic`: chi(Z_min) = 0 and not rational; `geometric_genus`: 0
    # rational, 1 minimally elliptic, else unknown (None)
    __slots__ = ("kind", "rational", "elliptic", "minimally_elliptic", "cusp", "minimal_resolution",
                 "numerically_gorenstein", "tree_all_genus_zero", "elliptic_cycle_support_is_all",
                 "geometric_genus", "warnings")


@per_graph
def classify_singularity(g: ResolutionGraph) -> SingularityType:
    """Decide the singularity class supported by the lattice data alone.

    Rationality is Artin's criterion, chi(Z_min) = 1 on a tree of genus-zero
    curves, which is Laufer's: chi(Z_min) = 1 + sum(1 - value) along any
    computation sequence from a vertex to Z_min. Ellipticity is chi of the
    fundamental cycle vanishing. The minimally elliptic verdict asks for an
    integral canonical cycle equal to the elliptic cycle, plus equality
    with the fundamental cycle on minimal resolutions; on non-minimal
    resolutions the verdict is kept but flagged, since the defining
    equality only holds after blowing down. The elliptic cycle is read in
    integers from `_elliptic_cycle`, on every resolution.
    Cusps are minimal cycle-shaped graphs of genus-zero curves.
    """
    require_negative_definite(g)
    warnings: list[str] = []
    minimal = g.is_minimal_resolution
    tree_genus0 = g.is_tree and g.all_genus_zero
    det = lattice_determinant(g)
    z_k = canonical_numerators(g)
    gorenstein = not any(x % det for x in z_k)
    rational = laufer_rational(g)
    z_min = z_min_numerators(g)
    elliptic = (not rational) and z_min_chi_numerator(g) == 0
    cusp_shape = g.is_cycle_graph and g.all_genus_zero

    minimally_elliptic = False
    support_all: bool | None = None
    if elliptic:
        cycle = _elliptic_cycle(g)
        support_all = all(cycle)
        core = gorenstein and [x * det for x in cycle] == list(z_k)
        minimally_elliptic = core and (cycle == z_min or not minimal)
        if core and not minimal:
            warnings.append(
                "non-minimal resolution: minimally elliptic verdict rests on "
                "the elliptic cycle matching the canonical cycle only")

    cusp = cusp_shape and minimal
    if cusp_shape and not minimal:
        warnings.append("cycle-shaped but not minimal; cusp verdict withheld")

    if rational:
        kind = "rational"
    elif cusp:
        kind = "cusp"
    elif minimally_elliptic:
        kind = "minimally-elliptic"
    elif elliptic:
        kind = "elliptic"
    else:
        kind = "other"

    if rational:
        p_g = 0
    elif minimally_elliptic:
        p_g = 1
    else:
        p_g = None

    return SingularityType(
        kind=kind,
        rational=rational,
        elliptic=elliptic,
        minimally_elliptic=minimally_elliptic,
        cusp=cusp,
        minimal_resolution=minimal,
        numerically_gorenstein=gorenstein,
        tree_all_genus_zero=tree_genus0,
        elliptic_cycle_support_is_all=support_all,
        geometric_genus=p_g,
        warnings=tuple(warnings),
    )
