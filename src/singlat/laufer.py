"""Computation sequences and the singularity-type classification.

The core loop repeatedly adds a base vertex that still pairs positively
with the running cycle. On a negative-definite graph this terminates at the
unique minimal anti-nef cycle lying above the start in its congruence class
modulo the integral lattice. The endpoint is independent of tie-breaking;
only the path varies, and tests exercise randomized policies to confirm it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .cycles import RatCycle, cycle_min
from .errors import InternalError, PreconditionError
from .graph import (ResolutionGraph, canonical_cycle, chi, intersection_matrix,
                    pairing_vector, per_graph, require_negative_definite)
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


def _run_sequence(g: ResolutionGraph, start: RatCycle, tie_break: Optional[TieBreak],
                  cap: int) -> ComputationSequence:
    rows = intersection_matrix(g).rows
    ids = g.ids
    index = {vid: i for i, vid in enumerate(ids)}
    coeffs = {vid: start.coefficient(vid) for vid in ids}
    pairings = pairing_vector(g, start)
    steps = []
    while True:
        candidates = tuple(vid for vid, value in zip(ids, pairings) if value > 0)
        if not candidates:
            break
        if tie_break is None:
            chosen = candidates[0]
        else:
            chosen = tie_break(candidates)
            if chosen not in candidates:
                raise InternalError(f"tie-break returned {chosen!r}, not a candidate")
        i = index[chosen]
        steps.append(LauferStep(chosen, pairings[i]))
        coeffs[chosen] += 1
        for j in range(len(ids)):
            pairings[j] += rows[i][j]
        if len(steps) > cap:
            raise InternalError(
                f"computation sequence exceeded its step cap of {cap}; "
                "this indicates a broken invariant, not bad input")
    return ComputationSequence(start, tuple(steps), RatCycle(coeffs))


# Generous fallback used only while the fundamental cycle itself is unknown.
_BOOTSTRAP_CAP = 1_000_000


@per_graph
def _fundamental_cycle_default(g: ResolutionGraph) -> ComputationSequence:
    seq = _run_sequence(g, RatCycle.unit(g.ids[0]), None, _BOOTSTRAP_CAP)
    end = seq.end
    if any(end.coefficient(vid) < 1 for vid in g.ids):  # pragma: no cover - theory
        raise InternalError("fundamental cycle has a coefficient below one")
    return seq


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
    z_min = _fundamental_cycle_default(g).end
    total = sum(abs(start.coefficient(vid)) + z_min.coefficient(vid) for vid in g.ids)
    return 64 + 16 * math.ceil(total)


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
    return g.is_tree and g.all_genus_zero and chi(g, fundamental_cycle(g).end) == 1


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


def _integral_cycles_below(bound: RatCycle, ids: tuple[str, ...]):
    """All integral cycles 0 <= D <= bound, the zero cycle included."""
    ranges = [range(int(bound.coefficient(vid)) + 1) for vid in ids]
    for combo in itertools.product(*ranges):
        yield RatCycle(dict(zip(ids, combo)))


def minimally_elliptic_cycle(g: ResolutionGraph) -> RatCycle | None:
    """The unique minimal nonzero effective integral cycle with chi zero.

    Searched below the fundamental cycle, which is itself a witness on an
    elliptic graph; absence below that bound is reported, never silently
    widened away.
    """
    require_negative_definite(g)
    if laufer_rational(g):
        raise PreconditionError("rational graphs have no minimally elliptic cycle")
    z_min = fundamental_cycle(g).end
    if chi(g, z_min) != 0:
        raise PreconditionError("graph is not elliptic: chi of the fundamental cycle is nonzero")
    witnesses = [d for d in _integral_cycles_below(z_min, g.ids) if d and chi(g, d) == 0]
    if not witnesses:
        return None
    candidate = witnesses[0]
    for w in witnesses[1:]:
        candidate = cycle_min(candidate, w)
    if candidate not in witnesses:
        raise InternalError("chi-zero witnesses have no minimum below the fundamental cycle")
    for d in _integral_cycles_below(candidate, g.ids):
        if d and d != candidate and chi(g, d) <= 0:
            raise InternalError(
                f"cycle {d} below the elliptic cycle has chi {chi(g, d)} <= 0")
    return candidate


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
    equality only holds after blowing down. Cusps are minimal cycle-shaped
    graphs of genus-zero curves.
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
        cycle = minimally_elliptic_cycle(g)
        if cycle is None:
            warnings.append("elliptic graph without a chi-zero cycle below the "
                            "fundamental cycle; minimally elliptic verdict withheld")
        else:
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
