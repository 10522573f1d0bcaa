"""The integral cycle lattice, its dual, and the finite quotient between them.

The dual lattice is realised inside the rational cycles as those pairing
integrally with every vertex; its quotient by the integral lattice is a
finite abelian group presented here in Smith normal form coordinates, which
keeps class arithmetic polynomial even for large discriminants. The class
map and the reduced representatives run on integer numerators over det(-M).
"""

from __future__ import annotations

import itertools
import math

from . import linalg
from .cycles import RatCycle, cycle_min
from .errors import InternalError, PreconditionError
from .graph import (ResolutionGraph, cycle_vector, dual_coordinates, intersection_matrix,
                    lattice_determinant, pairing_vector, per_graph, require_negative_definite,
                    vector_cycle)
from .record import Record

__all__ = ["ClassElement", "ClassGroup", "class_group", "class_of", "dual_class",
           "reduced_numerators", "reduced_rep", "in_lipman_cone", "cycle_min"]

# Most classes `ClassGroup.elements()` walks; every caller does work per class.
MAX_ENUMERATED_CLASSES = 100_000


class ClassElement(Record):
    """Residue coordinates with respect to the invariant factors."""

    __slots__ = ("coords",)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)


class ClassGroup(Record):
    """The quotient of the dual lattice by the integral lattice."""

    # `factors`: the invariant factors > 1, a divisibility chain; `_u_rows`:
    # the rows of U at the factors; `_numerators`: per factor, its generator's
    # coefficients times det(-M) (= `order`), in vertex order
    __slots__ = ("graph", "order", "factors", "_u_rows", "_numerators")
    _fields = ("graph", "order", "factors", "generators", "_u_rows")

    @property
    def generators(self) -> tuple[RatCycle, ...]:
        """One dual-lattice cycle per factor, built from `_numerators` on read."""
        return tuple(vector_cycle(self.graph, num, self.order) for num in self._numerators)

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
        return math.lcm(*(d // math.gcd(c, d) for c, d in zip(a.coords, self.factors)))


@per_graph
def class_group(g: ResolutionGraph) -> ClassGroup:
    """Present the discriminant group by invariant factors.

    The Smith form U(-M)V = D diagonalises the inclusion of the integral
    lattice into its dual (written in the dual basis); unit factors are
    dropped and each factor d_i receives sum over v of U^-1[v][i] E_v^*.
    As (-M) V e_i = d_i U^-1 e_i, that is the integral cycle V e_i over d_i:
    its numerators over det(-M) are V[w][i] * (det // d_i).
    """
    require_negative_definite(g)
    neg = [list(row) for row in intersection_matrix(g).negated()]
    d, u, v = linalg.smith_normal_form(neg)
    det = lattice_determinant(g)
    product = math.prod(d)
    if product != det:  # pragma: no cover - cross-check
        raise InternalError(f"smith form product {product} != determinant {det}")
    positions = tuple(i for i, x in enumerate(d) if x != 1)
    factors = tuple(d[i] for i in positions)
    numerators = tuple(tuple(row[i] * (det // d[i]) for row in v) for i in positions)
    cg = ClassGroup(g, det, factors, tuple(tuple(u[i]) for i in positions), numerators)
    for k, num in enumerate(numerators):
        expected = tuple(1 if j == k else 0 for j in range(len(factors)))
        if _class_of(cg, num, det) != expected:  # pragma: no cover - cross-check
            raise InternalError("class group generator does not map to a unit coordinate")
    return cg


def _class_of(cg: ClassGroup, vec, scale: int) -> tuple[int, ...]:
    """Class coordinates of the dual-lattice cycle with numerators `vec` over `scale`."""
    coords = dual_coordinates(cg.graph, vec, scale)
    return tuple(sum(u * c for u, c in zip(row, coords)) % d
                 for row, d in zip(cg._u_rows, cg.factors))


def dual_class(cg: ClassGroup, position: int) -> ClassElement:
    """Class of E_v^*, v the vertex at `position`, with no pairing: its dual
    coordinates are e_v, so it is column v of U's factor rows mod the factors."""
    return ClassElement(tuple(row[position] % d for row, d in zip(cg._u_rows, cg.factors)))


def class_of(cg: ClassGroup, cycle: RatCycle) -> ClassElement:
    """Class of a dual-lattice cycle; raises when a pairing is non-integral."""
    return ClassElement(_class_of(cg, *cycle_vector(cg.graph, cycle)))


def reduced_numerators(cg: ClassGroup, h: ClassElement) -> list[int]:
    """The numerators over det(-M) of the representative of a class with all
    coefficients in [0, 1), in vertex order.

    Independent of the chosen lift: any two representatives differ by an
    integral cycle, leaving the fractional parts untouched. No run-time check
    maps it back to h: the class map is additive, and `class_group` checks
    each generator; the oracle and a corpus test replay it on every class.
    """
    cg.validate(h)
    det = cg.order
    return [sum(c * num[i] for c, num in zip(h.coords, cg._numerators)) % det
            for i in range(len(cg.graph.ids))]


def reduced_rep(cg: ClassGroup, h: ClassElement) -> RatCycle:
    """The representative of a class with all coefficients in [0, 1)."""
    return vector_cycle(cg.graph, reduced_numerators(cg, h), cg.order)


def in_lipman_cone(g: ResolutionGraph, cycle: RatCycle) -> bool:
    """Anti-nef test: the cycle pairs non-positively with every vertex."""
    return all(value <= 0 for value in pairing_vector(g, cycle))
