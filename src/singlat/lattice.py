"""The integral cycle lattice, its dual, and the finite quotient between them.

The dual lattice is realised inside the rational cycles as those pairing
integrally with every vertex; its quotient by the integral lattice is a
finite abelian group presented here in Smith normal form coordinates, which
keeps class arithmetic polynomial even for large discriminants.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .cycles import RatCycle, cycle_min
from .errors import InternalError, PreconditionError
from .graph import (ResolutionGraph, adjugate, intersection_matrix, lattice_determinant,
                    pairing_vector, per_graph, require_negative_definite)

__all__ = ["ClassElement", "ClassGroup", "class_group", "class_of",
           "reduced_rep", "in_lipman_cone", "cycle_min"]

# Most classes `ClassGroup.elements()` walks; every caller does work per class.
MAX_ENUMERATED_CLASSES = 100_000


@dataclass(frozen=True)
class ClassElement:
    """Residue coordinates with respect to the invariant factors."""

    coords: tuple[int, ...]

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)


@dataclass(frozen=True)
class ClassGroup:
    """The quotient of the dual lattice by the integral lattice."""

    graph: ResolutionGraph
    order: int
    factors: tuple[int, ...]            # invariant factors > 1, divisibility chain
    generators: tuple[RatCycle, ...]    # one dual-lattice cycle per factor
    _u_rows: tuple[tuple[int, ...], ...]
    _factor_positions: tuple[int, ...]

    def zero(self) -> ClassElement:
        return ClassElement((0,) * len(self.factors))

    def elements(self):
        """All classes, in lexicographic coordinate order; refuses, before
        the first class, more than MAX_ENUMERATED_CLASSES of them."""
        if self.order > MAX_ENUMERATED_CLASSES:
            raise PreconditionError(
                f"the class group has {self.order} classes; enumerating them is "
                f"refused above {MAX_ENUMERATED_CLASSES}")
        for coords in itertools.product(*(range(d) for d in self.factors)):
            yield ClassElement(coords)

    def validate(self, h: ClassElement) -> None:
        if len(h.coords) != len(self.factors) or \
                any(not 0 <= c < d for c, d in zip(h.coords, self.factors)):
            raise PreconditionError(f"class {h.coords} is not valid for factors {self.factors}")

    def add(self, a: ClassElement, b: ClassElement) -> ClassElement:
        self.validate(a)
        self.validate(b)
        return ClassElement(tuple((x + y) % d for x, y, d in zip(a.coords, b.coords, self.factors)))

    def neg(self, a: ClassElement) -> ClassElement:
        self.validate(a)
        return ClassElement(tuple((-x) % d for x, d in zip(a.coords, self.factors)))

    def element_order(self, a: ClassElement) -> int:
        self.validate(a)
        order = 1
        for c, d in zip(a.coords, self.factors):
            if c:
                step = d // math.gcd(c, d)
                order = order * step // math.gcd(order, step)
        return order


def _dual_coordinates(cg_graph: ResolutionGraph, cycle: RatCycle) -> list[int]:
    """Coordinates of a dual-lattice cycle in the dual basis: -(l, E_v)."""
    pairings = pairing_vector(cg_graph, cycle)
    coords = []
    for vid, value in zip(cg_graph.ids, pairings):
        if value.denominator != 1:
            raise PreconditionError(
                f"cycle is not in the dual lattice: pairing with {vid} is {value}")
        coords.append(-int(value))
    return coords


@per_graph
def class_group(g: ResolutionGraph) -> ClassGroup:
    """Present the discriminant group by invariant factors.

    The Smith normal form of -M diagonalises the inclusion of the integral
    lattice into its dual (written in the dual basis); unit factors are
    dropped and each surviving factor receives a generator pulled back
    through the inverse row transform: sum over v of uinv[v][i] E_v^*, whose
    numerators over det(-M) are the same combination of rows of adj(-M).
    """
    require_negative_definite(g)
    neg = [list(row) for row in intersection_matrix(g).negated()]
    d, u, uinv, _v = linalg.smith_normal_form(neg)
    det = lattice_determinant(g)
    product = math.prod(d)
    if product != det:  # pragma: no cover - cross-check
        raise InternalError(f"smith form product {product} != determinant {det}")
    positions = tuple(i for i, x in enumerate(d) if x != 1)
    factors = tuple(d[i] for i in positions)
    adj = adjugate(g)
    generators = tuple(RatCycle({vid: Fraction(sum(r[i] * a[w] for r, a in zip(uinv, adj)), det)
                                 for w, vid in enumerate(g.ids)}) for i in positions)
    cg = ClassGroup(g, det, factors, generators,
                    tuple(tuple(row) for row in u), positions)
    for k, gen in enumerate(cg.generators):
        expected = tuple(1 if j == k else 0 for j in range(len(factors)))
        if class_of(cg, gen).coords != expected:  # pragma: no cover - cross-check
            raise InternalError("class group generator does not map to a unit coordinate")
    return cg


def class_of(cg: ClassGroup, cycle: RatCycle) -> ClassElement:
    """Class of a dual-lattice cycle; raises when a pairing is non-integral."""
    coords = _dual_coordinates(cg.graph, cycle)
    transformed = [sum(row[j] * coords[j] for j in range(len(coords))) for row in cg._u_rows]
    return ClassElement(tuple(transformed[i] % d for i, d in zip(cg._factor_positions, cg.factors)))


def reduced_rep(cg: ClassGroup, h: ClassElement) -> RatCycle:
    """The representative of a class with all coefficients in [0, 1).

    Independent of the chosen lift: any two representatives differ by an
    integral cycle, leaving the fractional parts untouched.
    """
    cg.validate(h)
    lift = RatCycle()
    for c, gen in zip(h.coords, cg.generators):
        if c:
            lift = lift + c * gen
    rep = lift.frac()
    if class_of(cg, rep) != h:  # pragma: no cover - cross-check
        raise InternalError("reduced representative landed in the wrong class")
    return rep


def in_lipman_cone(g: ResolutionGraph, cycle: RatCycle) -> bool:
    """Anti-nef test: the cycle pairs non-positively with every vertex."""
    return all(value <= 0 for value in pairing_vector(g, cycle))
