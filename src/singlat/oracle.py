"""Brute-force verifiers, independent of the algorithmic paths they check.

Everything here is box-bounded: claims are certified inside an explicit
per-vertex coefficient box (by default three times the fundamental cycle)
and labelled as such. Anti-nef points are enumerated as nonnegative
integer combinations of the dual cycles, which is exactly the anti-nef
part of the dual lattice; minima per class therefore never consult the
computation-sequence machinery they are meant to audit.

Points are integer numerators over det(-M) in vertex order, from one
enumerator (`_antinef_numerators`): the box checks of `verify_all` compare,
shift and take minima on those tuples, and each cycle a check samples
becomes numerators once per check. Path independence compares the
numerators its climbs end on with Z_min's and each class's, h1 takes its
chi difference from `chi_numerator`, and blow-up invariance compares two
integer Gram matrices. A `RatCycle` is built only at the public API
(`antinef_points`, `brute_lipman_minima`, `brute_fundamental_cycle`), by
the checks that audit the public `RatCycle` adapters (`pairing` in
`dual-basis-pairings` and `chi-quadratic`, `chi` in `chi-quadratic`,
`minimal_antinef_rep` in the minimal-cycle, cone and h1 checks), and in
failure messages.

The chi minimum (`brute_min_chi`) is a Fincke-Pohst walk (Math. Comp. 44,
1985): 4*chi is written as a sum of weighted squares by the oracle's own
fraction-free elimination of the bordered form, so each prefix of
coordinates bounds chi on everything below it, and the walk visits the
ellipsoid below its best value instead of the whole box. Its cost does not
grow with the box, so the chi check walks the one box `verify_all` builds
and reports that scale. It calls nothing in `linalg` or `laufer`, nor
`adjugate`, whose elimination the dual-basis check audits.
"""

from __future__ import annotations

import math
import operator
import random
from fractions import Fraction
from typing import Optional

from . import laufer, linalg
from .cycles import RatCycle
from .errors import InputError, InternalError, PreconditionError
from .graph import (ResolutionGraph, adjunction_targets, blow_up, canonical_cycle, chi,
                    chi_numerator, cycle_vector, diagonal, dual_basis, extend_graph,
                    intersection_matrix, lattice_determinant, neighbours, pairing,
                    pairing_vector, require_negative_definite, sparse_pairings, total_transform,
                    vector_cycle)
from .lattice import (ClassElement, _class_of, class_group, class_of, reduced_numerators,
                      reduced_rep)
from .laufer import (antinef_closure, h1_rational, laufer_rational, minimal_antinef_rep,
                     minimal_numerators, z_min_cycle, z_min_numerators)
from .record import Record

# The most vertices `verify_all` accepts and the seed of its samples (fixed
# so transcripts repeat).
VERIFY_SIZE_LIMIT = 8
VERIFY_SEED = 0


class Box(Record):
    """Per-vertex nonnegative coefficient bounds for bounded enumeration."""

    __slots__ = ("bounds", "_by_vertex")
    _fields = ("bounds",)

    def __init__(self, bounds: tuple[tuple[str, int], ...]):
        super().__init__(bounds, dict(bounds))

    @classmethod
    def for_graph(cls, g: ResolutionGraph, scale: int = 3) -> "Box":
        require_negative_definite(g)
        return cls(tuple(zip(g.ids, (scale * z for z in z_min_numerators(g)))))

    def bound(self, vid: str) -> int:
        try:
            return self._by_vertex[vid]
        except KeyError:
            raise InternalError(f"box has no bound for vertex {vid!r}") from None

    def contains(self, cycle: RatCycle) -> bool:
        """Every coefficient within its bound; a vertex with no bound holds none."""
        den = cycle.denominator
        vec = cycle.numerators(self._by_vertex)
        return (self._by_vertex.keys() >= set(cycle.support)
                and all(0 <= x <= b * den for x, b in zip(vec, self._by_vertex.values())))


def _resolve_box(g: ResolutionGraph, box: Optional[Box]) -> Box:
    return box if box is not None else Box.for_graph(g)


def _require_positive_scale(scale: int) -> None:
    if scale < 1:
        raise InputError("box scale must be a positive integer")


def _antinef_numerators(g: ResolutionGraph, box: Optional[Box] = None
                        ) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every anti-nef dual-lattice point inside the box as its class's
    coordinates and its numerators over det(-M) in vertex order.

    Enumerates nonnegative combinations of the dual cycles depth-first in
    lexicographic order; partial sums only grow, so pruning against the box
    is sound. The one enumeration behind `verify_all` and the public
    wrappers below. The dual cycles come from the dense elimination of
    [-M | I], not from `adjugate`, whose tree pass the dual-basis check
    audits: an error there cannot move the points.
    """
    require_negative_definite(g)
    box = _resolve_box(g, box)
    ids = g.ids
    n = len(ids)
    pivots, dual_num = linalg.eliminate(intersection_matrix(g).negated(), linalg.identity(n))
    det = pivots[-1]  # row v of adj(-M): det * (E_v^* coefficient at w), as it is symmetric
    limits = [box.bound(vid) * det for vid in ids]
    cg = class_group(g)
    factors = cg.factors
    dual_coords = [_class_of(cg, column, det) for column in dual_num]
    out: list[tuple[tuple[int, ...], tuple[int, ...]]] = []

    def rec(v: int, point: tuple[int, ...], cls: tuple[int, ...]):
        if v == n:
            out.append((cls, point))
            return
        column, step = dual_num[v], dual_coords[v]
        while all(map(operator.le, point, limits)):
            rec(v + 1, point, cls)
            point = tuple(map(operator.add, point, column))
            cls = tuple((a + b) % d for a, b, d in zip(cls, step, factors))

    rec(0, (0,) * n, cg.zero().coords)
    return out


def _by_class(points) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
    """Points grouped by class coordinates, each group in enumeration order."""
    by_class: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for cls, point in points:
        by_class.setdefault(cls, []).append(point)
    return by_class


def _minimum(points) -> tuple[int, ...]:
    """Coefficient-wise minimum of a nonempty list of numerator tuples."""
    return tuple(map(min, zip(*points)))


def _gram(g: ResolutionGraph, cycles: list[RatCycle]) -> tuple[list[list[int]], int]:
    """Every pairing (a, b) of the cycles as an integer numerator over one
    scale, and that scale: each cycle becomes numerators once, over the lcm
    of their denominators."""
    vectors = [cycle_vector(g, c) for c in cycles]
    common = math.lcm(*(scale for _vec, scale in vectors))
    vecs = [[x * (common // scale) for x in vec] for vec, scale in vectors]
    diag, rows = diagonal(g), neighbours(g)
    columns = [sparse_pairings(diag, rows, vec) for vec in vecs]
    return [[sum(map(operator.mul, vec, col)) for col in columns] for vec in vecs], common * common


def _least_nonzero_integral(zero_points, det: int) -> Optional[tuple[int, ...]]:
    """The least nonzero integral point of the zero class, or None."""
    candidates = [p for p in zero_points if any(p) and not any(x % det for x in p)]
    if not candidates:
        return None
    minimum = _minimum(candidates)
    if minimum not in candidates:  # pragma: no cover - monoid closure under min
        raise InternalError("integral anti-nef points are not closed under minimum")
    return minimum


def antinef_points(g: ResolutionGraph, box: Optional[Box] = None) -> list[tuple[ClassElement, RatCycle]]:
    """Every anti-nef dual-lattice point inside the box, with its class, in
    enumeration order."""
    points = _antinef_numerators(g, box)
    det = lattice_determinant(g)
    return [(ClassElement(cls), vector_cycle(g, point, det)) for cls, point in points]


def brute_lipman_minima(g: ResolutionGraph, box: Optional[Box] = None) -> dict[ClassElement, RatCycle]:
    """Coefficient-wise minimum of the boxed anti-nef points, per class."""
    by_class = _by_class(_antinef_numerators(g, box))
    det = lattice_determinant(g)
    return {ClassElement(cls): vector_cycle(g, _minimum(group), det)
            for cls, group in by_class.items()}


def brute_lipman_min(g: ResolutionGraph, h: ClassElement,
                     box: Optional[Box] = None) -> Optional[RatCycle]:
    """Coefficient-wise minimum over the anti-nef representatives of one
    class inside the box; absent when the box contains none."""
    cg = class_group(g)
    cg.validate(h)
    return brute_lipman_minima(g, box).get(h)


def _chi_squares(rows, targets) -> tuple[list[list[int]], list[int], int, int]:
    """4*chi as a sum of weighted squares, from one fraction-free (Bareiss)
    elimination of the bordered matrix B = [[-2M, t], [t^T, 0]] that pivots
    on the last vertex first: 4*chi(y) = (y, 1)^T B (y, 1) for the
    intersection rows M and the adjunction targets t.

    Returns (forms, weights, constant, scale) such that, for every integral y,
    scale * 4*chi(y) = constant + sum_v weights[v] * s_v(y)^2 with
    s_v(y) = forms[v][v] y_v + sum_{u<v} forms[v][u] y_u + forms[v][-1].
    Each s_v depends on y_0..y_v only, and forms[v][v], a principal minor of
    -2M, is positive. Row v is the pivot row as elimination reaches it; its
    square enters over the product of its pivot and the one before.
    """
    n = len(rows)
    a = [[-2 * x for x in row] + [t] for row, t in zip(rows, targets)]
    corner = 0  # B's last diagonal entry; its row is its column, column n of `a`
    forms, denominators, prev = [[]] * n, [0] * n, 1
    for k in range(n - 1, -1, -1):
        pivot, edge = a[k][k], a[k][n]
        forms[k] = a[k][:k + 1] + [edge]
        for i in range(k):
            f = a[i][k]
            a[i] = [(pivot * x - f * y) // prev for x, y in zip(a[i], a[k])]
        corner = (pivot * corner - edge * edge) // prev
        denominators[k], prev = prev * pivot, pivot
    scale = math.lcm(*denominators)
    return forms, [scale // d for d in denominators], scale // prev * corner, scale


def brute_min_chi(g: ResolutionGraph, box: Optional[Box] = None) -> tuple[int, RatCycle]:
    """Minimum of chi over nonzero effective integral cycles in the box.

    A depth-first walk over the coordinates in vertex order, each ascending,
    so points come in lexicographic order and the witness returned is the
    lexicographically least minimiser: a later point replaces it only with a
    strictly lower value. With y_0..y_v fixed, the squares of `_chi_squares`
    up to v plus its constant bound 4*chi from below on the whole subtree,
    which is skipped once that bound reaches the best value so far. Along
    y_v the bound is a convex quadratic in s_v: past its centre (s_v >= 0)
    a failed bound ends the coordinate, before it the walk moves on. The
    last coordinate is solved in closed form: one of the two integers around
    the centre, clamped to the box, the lower on a tie. All arithmetic is
    in integers; the node count depends on the ellipsoid below the best
    value, not on the box, and an unpruned walk costs O(n) per grid line.
    The value is re-evaluated on the witness straight from the intersection
    rows before it is returned.
    """
    require_negative_definite(g)
    box = _resolve_box(g, box)
    ids = g.ids
    limits = [box.bound(vid) for vid in ids]
    if max(limits) == 0:
        raise PreconditionError("empty box: no nonzero cycles to scan")
    rows, targets = intersection_matrix(g).rows, adjunction_targets(g)
    forms, weights, constant, scale = _chi_squares(rows, targets)
    n = len(ids)
    # s_w's terms from the coordinates fixed so far, and where y_v enters them
    offsets = [form[-1] for form in forms]
    columns = [[(w, forms[w][v]) for w in range(v + 1, n) if forms[w][v]] for v in range(n)]
    point = [0] * n
    best = witness = None  # least scale * 4*chi so far and its point

    def walk(v: int, bound: int, nonzero: bool) -> None:
        nonlocal best, witness
        p, offset, weight, limit = forms[v][v], offsets[v], weights[v], limits[v]
        if v == n - 1:
            low = 0 if nonzero else 1  # the zero cycle is no candidate
            c = min(max(-offset // p, low), limit)
            if c < limit and abs(p * (c + 1) + offset) < abs(p * c + offset):
                c += 1
            value = bound + weight * (p * c + offset) ** 2
            if c >= low and (best is None or value < best):
                best, witness = value, point[:v] + [c]
            return
        applied = 0  # the y_v that `offsets` holds
        for c in range(limit + 1):
            s = p * c + offset
            here = bound + weight * s * s
            if best is not None and here >= best:
                if s >= 0:
                    break
                continue
            for w, x in columns[v]:
                offsets[w] += (c - applied) * x
            applied = point[v] = c
            walk(v + 1, here, nonzero or c > 0)
        for w, x in columns[v]:
            offsets[w] -= applied * x

    walk(0, constant, False)
    two_chi = (sum(map(operator.mul, targets, witness))
               - sum(c * sum(map(operator.mul, row, witness)) for c, row in zip(witness, rows)))
    if best != 2 * scale * two_chi:
        raise InternalError(f"the chi walk gives 4*chi = {Fraction(best, scale)} at {witness}, "
                            f"the intersection rows give {2 * two_chi}")
    if two_chi % 2:  # pragma: no cover - chi is integral on integral cycles
        raise InternalError("chi evaluated to a half-integer on an integral cycle")
    return two_chi // 2, vector_cycle(g, witness, 1)


def brute_fundamental_cycle(g: ResolutionGraph, box: Optional[Box] = None) -> Optional[RatCycle]:
    """Minimal nonzero integral anti-nef cycle found inside the box."""
    zero_points = _by_class(_antinef_numerators(g, box)).get(class_group(g).zero().coords, [])
    det = lattice_determinant(g)
    least = _least_nonzero_integral(zero_points, det)
    return None if least is None else vector_cycle(g, least, det)


class CheckResult(Record):
    __slots__ = ("name", "passed", "detail")


class VerificationTranscript(Record):
    __slots__ = ("checks",)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_text(self) -> str:
        lines = [f"{'PASS' if c.passed else 'FAIL'}  {c.name}: {c.detail}" for c in self.checks]
        lines.append(f"{'PASS' if self.passed else 'FAIL'}  overall")
        return "\n".join(lines)


def verify_all(g: ResolutionGraph, scale: int = 3) -> VerificationTranscript:
    """Run the cross-module consistency checks at enumeration scale.

    Refuses graphs that are not negative definite or are too large for the
    boxed enumerations, and boxes too small to hold a cycle a check audits:
    the precondition error then names the smallest scale that holds it.
    Every check reports pass/fail with a witness in the failure message;
    the transcript order is fixed.
    """
    _require_positive_scale(scale)
    require_negative_definite(g)
    if len(g.vertices) > VERIFY_SIZE_LIMIT:
        raise PreconditionError(
            f"graph has {len(g.vertices)} vertices; the bounded verifier accepts at most "
            f"{VERIFY_SIZE_LIMIT}. Raise the limit only with a corresponding time budget.")
    box = Box.for_graph(g, scale)
    checks: list[CheckResult] = []

    def run(name: str, fn):
        try:
            detail = fn()
            checks.append(CheckResult(name, True, detail or "ok"))
        except InternalError as exc:
            checks.append(CheckResult(name, False, str(exc)))

    ids = g.ids
    det = lattice_determinant(g)
    duals = dual_basis(g)
    cg = class_group(g)
    z_min = z_min_cycle(g)
    z_k = canonical_cycle(g)

    def check_dual_basis():
        for u in ids:
            for v in ids:
                expected = -1 if u == v else 0
                got = pairing(g, duals[u], RatCycle.unit(v))
                if got != expected:
                    raise InternalError(f"(dual {u}, {v}) = {got}, expected {expected}")
        return f"{len(ids)}^2 pairings exact"

    def check_canonical():
        values = pairing_vector(g, z_k)
        for vert, got in zip(g.vertices, values):
            expected = vert.euler + 2 - 2 * vert.genus
            if got != expected:
                raise InternalError(f"(K, {vert.id}) = {got}, expected {expected}")
        return "adjunction residuals all zero"

    def check_chi_quadratic():
        rng = random.Random(VERIFY_SEED)
        sample = [RatCycle.unit(v) for v in ids] + [duals[v] for v in ids] + [z_min, z_k]
        for _ in range(10):
            a, b = rng.choice(sample), rng.choice(sample)
            lhs = chi(g, a + b)
            rhs = chi(g, a) + chi(g, b) - pairing(g, a, b)
            if lhs != rhs:
                raise InternalError(f"chi not quadratic at {a} + {b}")
        return "quadratic identity holds on sampled pairs"

    def check_class_order():
        if cg.order != det:
            raise InternalError(f"order {cg.order} != determinant {det}")
        product = math.prod(cg.factors)
        if product != det:
            raise InternalError(f"factor product {product} != determinant {det}")
        return f"order {det}, factors {list(cg.factors)}"

    def check_generator_orders():
        for k, gen in enumerate(cg.generators):
            expected = cg.factors[k]
            if cg.element_order(class_of(cg, gen)) != expected:
                raise InternalError(f"generator {k} has wrong order")
        return f"{len(cg.factors)} generator orders match"

    def check_homomorphism():
        rng = random.Random(VERIFY_SEED + 1)
        sample = [duals[v] for v in ids]
        for _ in range(10):
            a, b = rng.choice(sample), rng.choice(sample)
            if class_of(cg, a + b) != cg.add(class_of(cg, a), class_of(cg, b)):
                raise InternalError("class map is not additive")
        return "class map additive on sampled pairs"

    def check_reduced_reps():
        for h in cg.elements():
            rep = reduced_rep(cg, h)
            vec, den = cycle_vector(g, rep)
            if not all(0 <= x < den for x in vec):
                raise InternalError(f"reduced representative of {h.coords} leaves [0,1)")
            if class_of(cg, rep) != h:
                raise InternalError(f"reduced representative of {h.coords} misclassified")
        for v in ids:
            diff = duals[v] - reduced_rep(cg, class_of(cg, duals[v]))
            if not diff.is_integral:
                raise InternalError(f"dual {v} minus its reduced representative is not integral")
        return f"{cg.order} classes reduced"

    # one enumeration feeds every check that compares against the box; its
    # points are numerators over det, and a RatCycle is built only for chi
    # and for a failure message
    points = _antinef_numerators(g, box)
    by_class = _by_class(points)
    zero_points = by_class.get(cg.zero().coords, [])
    minima = {cls: _minimum(group) for cls, group in by_class.items()}
    limits = [box.bound(v) * det for v in ids]
    diag, rows = diagonal(g), neighbours(g)

    def as_cycle(point: tuple[int, ...]) -> RatCycle:
        return vector_cycle(g, point, det)

    def over_det(cycle: RatCycle) -> Optional[tuple[int, ...]]:
        # a fast-path cycle over det, or None off that grid: then it is no
        # dual-lattice cycle and equals no enumerated point
        vec, denominator = cycle_vector(g, cycle)
        if det % denominator:
            return None
        return tuple(x * (det // denominator) for x in vec)

    def antinef(point) -> bool:
        return all(p <= 0 for p in sparse_pairings(diag, rows, point))

    def require_in_box(cycle: RatCycle, h: ClassElement) -> None:
        # a fast-path cycle outside the box cannot be audited by it: that is
        # a limit of the box, not a disagreement
        if not box.contains(cycle):
            vec, den = cycle_vector(g, cycle)
            needed = max(-(-x // (den * z)) for x, z in zip(vec, z_min_numerators(g)))
            raise PreconditionError(
                f"the cycle {cycle} of class {h.coords} lies outside the scale-{scale} "
                f"box; scale {needed} is the smallest that covers it")

    def check_minimal_reps():
        for h in cg.elements():
            rep = minimal_antinef_rep(g, cg, h)
            require_in_box(rep, h)
            brute = minima.get(h.coords)
            if brute is None:
                raise InternalError(f"box missed class {h.coords} entirely")
            if over_det(rep) != brute:
                raise InternalError(f"class {h.coords}: sequence gives {rep}, "
                                    f"enumeration gives {as_cycle(brute)}")
        return f"agreement on all {cg.order} classes"

    def check_cone_vertex():
        # The reverse inclusion (every anti-nef representative = minimal cycle
        # + an anti-nef integral cycle) fails in general; see the ledgered
        # counterexamples. What is checked: the shifted monoid stays inside
        # the class, and the minimal cycle sits below everything.
        for h in cg.elements():
            rep = minimal_antinef_rep(g, cg, h)
            vec = over_det(rep)
            # off the grid, rep + 0 is already outside every class
            if vec is None:
                raise InternalError(f"{rep} + 0 escaped the anti-nef part of class {h.coords}")
            group = by_class.get(h.coords, [])
            actual = set(group)
            for s in zero_points:
                shifted = tuple(map(operator.add, vec, s))
                if all(0 <= x <= b for x, b in zip(shifted, limits)) and shifted not in actual:
                    raise InternalError(f"{rep} + {as_cycle(s)} escaped the anti-nef part "
                                        f"of class {h.coords}")
            for p in group:
                if not all(map(operator.le, vec, p)):
                    raise InternalError(f"{as_cycle(p)} in class {h.coords} is not above "
                                        f"the minimal cycle")
        return "minimal cycle + monoid stays in each class; minimality confirmed"

    def check_closure_endpoints():
        # the closure endpoint from a general start is the least enumerated
        # anti-nef point above the start in its congruence class
        starts = [RatCycle.unit(ids[0]), -duals[ids[0]], duals[ids[-1]].frac()]
        if len(ids) > 1:
            starts.append(duals[ids[0]].frac() - RatCycle.unit(ids[1]))
        for start in starts:
            end = antinef_closure(g, start).end
            require_in_box(end, class_of(cg, start))
            low = over_det(start)
            eligible = [p for _cls, p in points
                        if all(x >= y and (x - y) % det == 0 for x, y in zip(p, low))]
            end_vec = over_det(end)
            if end_vec not in eligible:
                raise InternalError(f"closure endpoint of {start} escaped the box")
            best = _minimum(eligible)
            if best != end_vec:
                raise InternalError(f"closure from {start} gave {end}, "
                                    f"enumeration minimum is {as_cycle(best)}")
        return f"{len(starts)} starts confirmed against the enumeration"

    def check_fundamental():
        brute = _least_nonzero_integral(zero_points, det)
        if brute is None:
            raise InternalError("box missed every nonzero integral anti-nef cycle")
        if brute != over_det(z_min):
            raise InternalError(f"sequence gives {z_min}, enumeration gives {as_cycle(brute)}")
        if not all(z_min.coefficient(v) >= 1 for v in ids):
            raise InternalError("a coefficient is below one")
        return f"fundamental cycle confirmed: {z_min}"

    def check_path_independence():
        # each vertex climbs from its unit vector in integers, through the
        # `laufer` module so a patched `_sequence` reaches it
        rng = random.Random(VERIFY_SEED + 2)
        starts = [(h, reduced_numerators(cg, h)) for h in cg.elements()]
        units = [[int(u == v) for u in ids] for v in ids]
        z_min_vec = list(z_min_numerators(g))
        for trial in range(5):
            policy = (lambda r: (lambda cands: r.choice(cands)))(random.Random(rng.randrange(10 ** 6)))
            for v, unit in zip(ids, units):
                if laufer._sequence(g, unit, 1, policy, laufer._BOOTSTRAP_CAP)[1] != z_min_vec:
                    raise InternalError(f"fundamental cycle changed from start {v}")
            for h, start in starts:
                if (minimal_numerators(g, cg, h, tie_break=policy, start=start)
                        != minimal_numerators(g, cg, h)):
                    raise InternalError(f"minimal cycle of {h.coords} changed")
        return "endpoints stable under randomized tie-breaking"

    def check_rationality_chi():
        value, witness = brute_min_chi(g, box)
        rational = laufer_rational(g)
        if rational:
            if value != 1:
                raise InternalError(f"rational graph but bounded min chi = {value} at {witness}")
        else:
            if value > 0:
                raise InternalError(f"non-rational graph but bounded min chi = {value}")
            elliptic = chi(g, z_min) == 0
            if elliptic != (value == 0):
                raise InternalError(f"chi(Z_min) = {chi(g, z_min)} but bounded min chi = {value}")
        return f"bounded min chi = {value} at {witness} (box scale {scale})"

    def check_specialness():
        if not laufer_rational(g):
            return "skipped: graph is not rational"
        from .classify import special_full_sheaves
        records = special_full_sheaves(g)  # raises InternalError on disagreement
        specials = [r.class_coords for r in records if r.special]
        return f"triple agreement on {len(records)} classes; special: {specials}"

    def check_h1_chi_formula():
        if not laufer_rational(g):
            return "skipped: graph is not rational"
        for h in cg.elements():
            rep = minimal_antinef_rep(g, cg, h)
            vec = over_det(rep)
            if vec is None:
                raise InternalError(f"class {h.coords}: minimal cycle {rep} is off the dual lattice")
            neg_class = cg.neg(h)
            end = minima.get(neg_class.coords)  # its minimal cycle is in the box (check_minimal_reps)
            if end is None:
                raise InternalError(f"box missed class {neg_class.coords}")
            expected = Fraction(chi_numerator(g, [-x for x in vec], det)
                                - chi_numerator(g, end, det), 2 * det * det)
            got = h1_rational(g, rep)
            if got != expected:
                raise InternalError(
                    f"class {h.coords}: h1 sequence value {got}, chi difference {expected}")
        return "sequence h1 equals the chi difference on every class"

    def check_min_closure():
        rng = random.Random(VERIFY_SEED + 3)
        for h, group in by_class.items():
            for _ in range(min(10, len(group))):
                a, b = rng.choice(group), rng.choice(group)
                if not antinef(tuple(map(min, a, b))):
                    raise InternalError(f"min of two anti-nef cycles of {h} is not anti-nef")
                if any((x - y) % det for x, y in zip(a, b)):
                    raise InternalError("two points of one class differ non-integrally")
        return "sampled minima stay anti-nef within each class"

    def check_monoid():
        integral = [p for p in zero_points if not any(x % det for x in p)]
        for p in integral:
            if any(p) and not all(x > 0 for x in p):
                raise InternalError(
                    f"nonzero integral anti-nef cycle {as_cycle(p)} has a zero coefficient")
        rng = random.Random(VERIFY_SEED + 4)
        for _ in range(10):
            a, b = rng.choice(integral), rng.choice(integral)
            if not antinef(tuple(map(operator.add, a, b))):
                raise InternalError("sum of integral anti-nef cycles is not anti-nef")
        return f"{len(integral)} integral points checked"

    def check_blow_up():
        loci = [ids[0]]
        if g.edges:
            loci.append(g.edges[0])
        sample = ([RatCycle.unit(v) for v in ids] + [z_min, z_k] + [duals[v] for v in ids])[:6]
        source, source_scale = _gram(g, sample)
        for locus in loci:
            target, bmap = blow_up(g, locus)
            if lattice_determinant(target) != det:
                raise InternalError(f"determinant changed at locus {locus!r}")
            image, image_scale = _gram(target, [total_transform(bmap, a) for a in sample])
            for source_row, image_row in zip(source, image):
                for x, y in zip(source_row, image_row):
                    if y * source_scale != x * image_scale:
                        raise InternalError(f"pairing not preserved at locus {locus!r}")
        return f"{len(loci)} loci: determinant and pairings preserved"

    def check_extension():
        # `ext` knows its Z_min from a warm start: climb cold through `laufer`
        ext = extend_graph(g, ids[0])
        new_id = ext.ids[-1]
        first_unit = [1] + [0] * len(ids)
        mult = laufer._sequence(ext, first_unit, 1, None, laufer._BOOTSTRAP_CAP)[1][-1]
        if mult != 1:
            raise InternalError(f"extension vertex has multiplicity {mult}")
        return f"stable extension at {ids[0]!r} with Euler number {ext.vertex(new_id).euler}"

    run("dual-basis-pairings", check_dual_basis)
    run("canonical-cycle-adjunction", check_canonical)
    run("chi-quadratic", check_chi_quadratic)
    run("class-group-order", check_class_order)
    run("class-generator-orders", check_generator_orders)
    run("class-homomorphism", check_homomorphism)
    run("reduced-representatives", check_reduced_reps)
    run("minimal-cycles-vs-enumeration", check_minimal_reps)
    run("class-cone-vertex", check_cone_vertex)
    run("closure-endpoints-vs-enumeration", check_closure_endpoints)
    run("fundamental-cycle-vs-enumeration", check_fundamental)
    run("sequence-path-independence", check_path_independence)
    run("rationality-chi-criterion", check_rationality_chi)
    run("specialness-triple-agreement", check_specialness)
    run("h1-chi-formula", check_h1_chi_formula)
    run("lipman-min-closure", check_min_closure)
    run("monoid-positivity", check_monoid)
    run("blow-up-invariance", check_blow_up)
    run("extension-stability", check_extension)
    return VerificationTranscript(tuple(checks))
