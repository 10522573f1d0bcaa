"""Computation sequences and the singularity-type classification.

The core loop repeatedly adds a base vertex that still pairs positively
with the running cycle. On a negative-definite graph this terminates at the
unique minimal anti-nef cycle lying above the start in its congruence class
modulo the integral lattice. The endpoint is independent of tie-breaking;
only the path varies, and tests exercise randomized policies to confirm it.

Each step costs O(deg) integer work: the pairings are scaled to integers
once per sequence, the positive vertices sit in a min-heap, and a step
updates only the chosen vertex and its neighbours.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .cycles import RatCycle
from .errors import InternalError, PreconditionError
from .graph import (ResolutionGraph, _coefficient_vector, adjunction_targets,
                    canonical_cycle, chi, diagonal, induced_subgraph, integer_vector,
                    neighbours, pairing_vector, per_graph,
                    require_negative_definite, sparse_pairings)
from .lattice import ClassElement, ClassGroup, reduced_rep

TieBreak = Callable[[tuple[str, ...]], str]


@dataclass(frozen=True)
class LauferStep:
    vertex: str
    value: Fraction  # pairing of the running cycle with the chosen vertex


@dataclass(frozen=True)
class ComputationSequence:
    start: RatCycle
    steps: tuple[LauferStep, ...]
    end: RatCycle

    def __len__(self) -> int:
        return len(self.steps)


def _climb(diag: list[int], rows, coeffs: list, choose, cap: int):
    """Laufer's loop on the form with the given diagonal and `neighbours`
    rows, from the cycle with the given coefficients; O(deg) per step.

    The start's pairings are scaled to integers by the lcm of their
    denominators. Off-diagonal entries are nonnegative, so a step can only
    make neighbours positive and only the chosen vertex can stop being
    positive: a min-heap of the positive positions needs no lazy deletion,
    and its top is the lowest position. `choose` picks from the positive
    positions in order; None takes the lowest. Returns the steps as
    (position, scaled pairing) pairs, the number of times each position was
    added, and the scale.
    """
    vec, scale = integer_vector(coeffs)
    level = sparse_pairings(diag, rows, vec)
    common = math.gcd(scale, *level)
    scale //= common
    level = [value // common for value in level]
    positive = [i for i, value in enumerate(level) if value > 0]  # sorted, so a heap
    added = [0] * len(level)
    steps = []
    while positive:
        i = positive[0] if choose is None else choose(sorted(positive))
        steps.append((i, level[i]))
        added[i] += 1
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
    return steps, added, scale


def _run_sequence(g: ResolutionGraph, start: RatCycle, tie_break: Optional[TieBreak],
                  cap: int) -> ComputationSequence:
    ids = g.ids
    coeffs = _coefficient_vector(g, start)
    choose = None
    if tie_break is not None:
        def choose(positions: list[int]) -> int:
            candidates = tuple(ids[i] for i in positions)
            chosen = tie_break(candidates)
            if chosen not in candidates:
                raise InternalError(f"tie-break returned {chosen!r}, not a candidate")
            return positions[candidates.index(chosen)]
    steps, added, scale = _climb(diagonal(g), neighbours(g), coeffs, choose, cap)
    return ComputationSequence(
        start, tuple(LauferStep(ids[i], Fraction(value, scale)) for i, value in steps),
        RatCycle({vid: c + a for vid, c, a in zip(ids, coeffs, added)}))


# Generous fallback used only while the fundamental cycle itself is unknown.
_BOOTSTRAP_CAP = 1_000_000


def climb_end(diag: list[int], rows, coeffs: list[int]) -> list[int]:
    """Coefficients of the minimal anti-nef cycle above an integral start,
    on a negative-definite form given by its diagonal and `neighbours` rows."""
    _steps, added, _scale = _climb(diag, rows, coeffs, None, _BOOTSTRAP_CAP)
    return [c + a for c, a in zip(coeffs, added)]


@per_graph
def _fundamental_cycle_default(g: ResolutionGraph) -> ComputationSequence:
    seq = _run_sequence(g, RatCycle.unit(g.ids[0]), None, _BOOTSTRAP_CAP)
    end = seq.end
    if any(end.coefficient(vid) < 1 for vid in g.ids):  # pragma: no cover - theory
        raise InternalError("fundamental cycle has a coefficient below one")
    return seq


@per_graph
def z_min_cycle(g: ResolutionGraph) -> RatCycle:
    """The fundamental cycle Z_min, the end of `fundamental_cycle(g)`.

    A probe of `graph.extend_graph` is built knowing it from a warm start;
    only this cycle is seeded, never the sequence `fundamental_cycle`
    reports, whose start and steps differ.
    """
    return _fundamental_cycle_default(g).end


def fundamental_cycle(g: ResolutionGraph, start_vertex: str | None = None,
                      tie_break: Optional[TieBreak] = None) -> ComputationSequence:
    """Minimal nonzero anti-nef integral cycle, as a computation sequence.

    The endpoint does not depend on the start vertex or on tie-breaking.
    """
    require_negative_definite(g)
    if start_vertex is None and tie_break is None:
        return _fundamental_cycle_default(g)
    start = RatCycle.unit(start_vertex if start_vertex is not None else g.ids[0])
    return _run_sequence(g, start, tie_break, _BOOTSTRAP_CAP)


def _step_cap(g: ResolutionGraph, start: RatCycle) -> int:
    # A cap proportional to |start| + 2*Z_min alone is too tight: a start
    # near -2*Z_min makes it vanish while the honest climb back into the
    # anti-nef cone is long. Scale with the start and the fundamental cycle
    # separately; any runaway loop still overshoots this immediately.
    vec, scale = integer_vector(_coefficient_vector(g, start))
    z_min_total = sum(int(q) for _, q in z_min_cycle(g).items())
    return 64 + 16 * (z_min_total - (-sum(map(abs, vec)) // scale))


def antinef_closure(g: ResolutionGraph, start: RatCycle,
                    tie_break: Optional[TieBreak] = None) -> ComputationSequence:
    """Minimal anti-nef cycle >= start and congruent to it mod the lattice."""
    require_negative_definite(g)
    return _run_sequence(g, start, tie_break, _step_cap(g, start))


@per_graph
def laufer_rational(g: ResolutionGraph) -> bool:
    """Rationality by Artin's criterion (Amer. J. Math. 88, 1966): a tree of
    genus-zero curves with chi(Z_min) = 1.

    It is Laufer's sequence criterion: as chi(E_v) = 1 and chi(Z + E_v) =
    chi(Z) + 1 - (Z, E_v), a sequence from any vertex to Z_min gives
    chi(Z_min) = 1 + sum(1 - value), and every step's value is at least one.
    """
    require_negative_definite(g)
    return g.is_tree and g.all_genus_zero and chi(g, z_min_cycle(g)) == 1


def minimal_antinef_rep(g: ResolutionGraph, cg: ClassGroup, h: ClassElement,
                        tie_break: Optional[TieBreak] = None) -> RatCycle:
    """The unique minimal anti-nef cycle in the given class.

    Computed as the closure of the fractional representative; zero exactly
    for the zero class.
    """
    rep = reduced_rep(cg, h)
    end = antinef_closure(g, rep, tie_break).end
    if h.is_zero and end:  # pragma: no cover - cross-check
        raise InternalError("the zero class produced a nonzero minimal cycle")
    if not h.is_zero and not end:  # pragma: no cover - cross-check
        raise InternalError("a nonzero class produced the zero cycle")
    return end


def h1_rational(g: ResolutionGraph, chern: RatCycle,
                tie_break: Optional[TieBreak] = None) -> int:
    """First cohomology of the line bundle with the given first Chern class
    on a rational graph: sum of (pairing - 1) along the sequence started at
    the negated class. Independent of the vertex choices made."""
    if not laufer_rational(g):
        raise PreconditionError("the h1 sequence formula requires a rational graph")
    values = pairing_vector(g, chern)
    for vid, value in zip(g.ids, values):
        if value.denominator != 1:
            raise PreconditionError(
                f"Chern class is not in the dual lattice: pairing with {vid} is {value}")
    seq = antinef_closure(g, -chern, tie_break)
    return sum(int(step.value) - 1 for step in seq.steps)


# Largest grid below Z_min that the exhaustive elliptic-cycle scan walks.
MAX_ELLIPTIC_GRID = 100_000


def _elliptic_grid(g: ResolutionGraph) -> int:
    """Number of integral cycles 0 <= D <= Z_min, the scan's grid."""
    z_min = fundamental_cycle(g).end
    return math.prod(int(z_min.coefficient(vid)) + 1 for vid in g.ids)


def _two_chi_grid(g: ResolutionGraph, bound: RatCycle):
    """Every nonzero integral cycle 0 < D <= bound, in `itertools.product`
    order over the vertex order, as (coefficients, 2 chi(D)).

    The grid is walked odometer-style and 2 chi(D) = (D, K) - (D, D) is
    kept up to date through the pairings (D, E_j), so each point costs
    O(n) integer work. The yielded list is reused by the next point.
    """
    diag, rows = diagonal(g), neighbours(g)
    targets = adjunction_targets(g)
    top = [int(bound.coefficient(vid)) for vid in g.ids]
    coeffs = [0] * len(top)
    pairings = [0] * len(top)
    two_chi = 0

    def add(i: int, c: int) -> None:  # D += c E_i
        nonlocal two_chi
        two_chi += c * targets[i] - 2 * c * pairings[i] - c * c * diag[i]
        pairings[i] += c * diag[i]
        for j, m in rows[i]:
            pairings[j] += c * m
        coeffs[i] += c

    while True:
        pos = len(top) - 1
        while pos >= 0 and coeffs[pos] == top[pos]:
            add(pos, -coeffs[pos])
            pos -= 1
        if pos < 0:
            return
        add(pos, 1)
        yield coeffs, two_chi


def _scan_elliptic_cycle(g: ResolutionGraph) -> RatCycle:
    """Coefficient-wise minimum of the nonzero integral cycles below Z_min
    with chi zero, by walking the whole grid.

    Exponential in the coefficients of Z_min. Callers require chi(Z_min) =
    0, so Z_min itself is a witness. The minimum must itself have chi zero,
    and no cycle below it may have chi <= 0.
    """
    best = None
    for coeffs, two_chi in _two_chi_grid(g, fundamental_cycle(g).end):
        if two_chi == 0:
            best = list(coeffs) if best is None else [min(a, b) for a, b in zip(best, coeffs)]
    if best is None:
        raise InternalError("no chi-zero cycle below the fundamental cycle, not even itself")
    candidate = RatCycle(dict(zip(g.ids, best)))
    if not candidate or chi(g, candidate) != 0:
        raise InternalError("chi-zero witnesses have no minimum below the fundamental cycle")
    for coeffs, two_chi in _two_chi_grid(g, candidate):
        if two_chi <= 0 and coeffs != best:
            d = RatCycle(dict(zip(g.ids, coeffs)))
            raise InternalError(f"cycle {d} below the elliptic cycle has chi {chi(g, d)} <= 0")
    return candidate


def _components(g: ResolutionGraph, keep: list[str]) -> list[ResolutionGraph]:
    """The connected components of the subgraph on the given vertices."""
    adjacent: dict[str, list[str]] = {vid: [] for vid in keep}
    for u, v in g.edges:
        if u in adjacent and v in adjacent:
            adjacent[u].append(v)
            adjacent[v].append(u)
    parts, seen = [], set()
    for vid in keep:
        if vid in seen:
            continue
        reached, frontier = {vid}, [vid]
        while frontier:
            for nb in adjacent[frontier.pop()]:
                if nb not in reached:
                    reached.add(nb)
                    frontier.append(nb)
        seen |= reached
        parts.append(induced_subgraph(g, reached))
    return parts


def _laufer_elliptic_cycle(g: ResolutionGraph) -> RatCycle:
    """Laufer's characterization (Amer. J. Math. 99, 1977) on an elliptic
    graph: the support of the minimally elliptic cycle is the unique
    minimal non-rational connected subgraph, and on a minimal resolution
    the cycle is that subgraph's fundamental cycle.

    A connected subgraph is non-rational exactly when it contains the
    support, so dropping each vertex in turn and keeping the non-rational
    component whenever one is left ends on the support: O(n) rationality
    tests on subgraphs and one fundamental cycle.
    """
    core = g
    for vid in g.ids:
        if vid not in core.ids:
            continue
        rest = [other for other in core.ids if other != vid]
        core = next((part for part in _components(core, rest)
                     if not laufer_rational(part)), core)
    cycle = fundamental_cycle(core).end
    if chi(g, cycle) != 0 or not cycle <= fundamental_cycle(g).end:
        raise InternalError(
            f"fundamental cycle {cycle} of the minimal non-rational subgraph is not "
            "a chi-zero cycle below the fundamental cycle")
    return cycle


def minimally_elliptic_cycle(g: ResolutionGraph) -> RatCycle:
    """The unique minimal nonzero effective integral cycle with chi zero.

    On a minimal resolution this is the fundamental cycle of the minimal
    non-rational subgraph (Laufer). Elsewhere that can fail, and the cycle
    is searched below the fundamental cycle, which is itself a witness on
    an elliptic graph; a grid above MAX_ELLIPTIC_GRID points is refused.
    """
    require_negative_definite(g)
    if laufer_rational(g):
        raise PreconditionError("rational graphs have no minimally elliptic cycle")
    z_min = fundamental_cycle(g).end
    if chi(g, z_min) != 0:
        raise PreconditionError("graph is not elliptic: chi of the fundamental cycle is nonzero")
    if g.is_minimal_resolution:
        return _laufer_elliptic_cycle(g)
    grid = _elliptic_grid(g)
    if grid > MAX_ELLIPTIC_GRID:
        raise PreconditionError(
            f"the elliptic cycle search below the fundamental cycle has {grid} points; "
            f"it is refused above {MAX_ELLIPTIC_GRID}")
    return _scan_elliptic_cycle(g)


@dataclass(frozen=True)
class SingularityType:
    kind: str                      # rational | elliptic | minimally-elliptic | cusp | other
    rational: bool
    elliptic: bool                 # chi(Z_min) = 0 and not rational
    minimally_elliptic: bool
    cusp: bool
    minimal_resolution: bool
    numerically_gorenstein: bool
    tree_all_genus_zero: bool
    elliptic_cycle_support_is_all: bool | None
    geometric_genus: int | None    # 0 rational, 1 minimally elliptic, else unknown
    warnings: tuple[str, ...]


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
    equality only holds after blowing down, and it is withheld when the
    elliptic cycle's grid scan there exceeds MAX_ELLIPTIC_GRID points.
    Cusps are minimal cycle-shaped graphs of genus-zero curves.
    """
    require_negative_definite(g)
    warnings: list[str] = []
    minimal = g.is_minimal_resolution
    tree_genus0 = g.is_tree and g.all_genus_zero
    z_k = canonical_cycle(g)
    gorenstein = z_k.is_integral
    rational = laufer_rational(g)
    z_min = fundamental_cycle(g).end
    elliptic = (not rational) and chi(g, z_min) == 0
    cusp_shape = g.is_cycle_graph and g.all_genus_zero

    minimally_elliptic = False
    support_all: bool | None = None
    if elliptic:
        grid = 0 if minimal else _elliptic_grid(g)
        if grid > MAX_ELLIPTIC_GRID:
            warnings.append(f"elliptic cycle search needs {grid} points below the "
                            f"fundamental cycle, over the budget of {MAX_ELLIPTIC_GRID}; "
                            "minimally elliptic verdict withheld")
        else:
            cycle = minimally_elliptic_cycle(g)
            support_all = set(cycle.support) == set(g.ids)
            core = gorenstein and cycle == z_k
            if minimal:
                minimally_elliptic = core and cycle == z_min
            else:
                minimally_elliptic = core
                if core:
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
