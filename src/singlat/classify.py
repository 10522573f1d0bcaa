"""Classification of rank-one full sheaves at the Chern-class level.

On a rational graph the full sheaves of rank one are exactly the bundles
whose negated first Chern class is the minimal anti-nef cycle of its class,
and every one of them is flat. On a minimally elliptic graph whose elliptic
cycle is supported everywhere, the nonzero classes each contribute a
one-dimensional family, the zero class contributes the family over the
fundamental cycle minus one analytically distinguished bundle, plus the
trivial sheaf. Flat counts are annotated per family; the excluded bundle is
recorded symbolically and never computed.
"""

from __future__ import annotations

from .errors import InternalError, PreconditionError
from .graph import (ResolutionGraph, adjugate, adjunction_targets, chi_from_self_pairing, diagonal,
                    extend_graph, neighbours, sparse_pairings)
from .lattice import ClassElement, ClassGroup, class_group, dual_class
from .laufer import (SingularityType, classify_singularity, laufer_rational, minimal_cycle,
                     minimal_numerators, z_min_numerators)
from .record import Record

FLAT_ALL = "all"
FLAT_EXACTLY_ONE = "exactly-one"
FLAT_ZERO_KNOWN = "zero-known"
FLAT_UNKNOWN = "unknown"


class FullSheafFamily(Record):
    # `chern_class` is the negated first Chern class, an anti-nef cycle, as
    # integer numerators over det(-M) (the report's `class_order`) in vertex order
    __slots__ = ("class_coords", "chern_class", "family_dim", "exceptions", "special", "flat_count")
    _defaults = {"exceptions": (), "special": None, "flat_count": FLAT_UNKNOWN}


class SpecialnessRecord(Record):
    # `min_rep` is over det(-M), as `chern_class`; `pairing_with_fundamental` is
    # (-min_rep, Z_min); `witness_vertex`'s dual cycle is min_rep, with multiplicity one
    __slots__ = ("class_coords", "min_rep", "pairing_with_fundamental", "witness_vertex",
                 "h1_value", "special")


class VertexRecord(Record):
    # `dual` (column v of adj(-M)) and its class's `min_rep` are over det(-M)
    __slots__ = ("vertex", "multiplicity", "dual", "class_coords", "min_rep", "dual_is_min_rep",
                 "special", "extended_rational")


class ClassificationReport(Record):
    __slots__ = ("graph", "singularity", "class_order", "class_factors", "families",
                 "vertex_table", "notes", "inclusion_only")
    _defaults = {"notes": (), "inclusion_only": False}


def _flag_notes(g: ResolutionGraph, st: SingularityType) -> tuple[str, ...]:
    notes = [
        f"minimal resolution: {'yes' if st.minimal_resolution else 'no'}",
        f"all genera zero: {'yes' if g.all_genus_zero else 'no'}",
    ]
    if st.elliptic_cycle_support_is_all is not None:
        notes.append("elliptic cycle supported on every vertex: "
                     f"{'yes' if st.elliptic_cycle_support_is_all else 'no'}")
    notes.extend(st.warnings)
    return tuple(notes)


def _class_h1(g: ResolutionGraph, cg: ClassGroup, h: ClassElement) -> int:
    """h1 of the bundle whose negated Chern class is the minimal cycle s_h,
    on a rational graph: chi(-s_h) - chi(s_[-h]), to which the sum of
    (pairing - 1) along the climb from -s_h to s_[-h] telescopes. Both
    cycles and their self-pairings come from the class table, with no pass;
    each chi is taken times 2 det^2."""
    det, targets = cg.order, adjunction_targets(g)
    end, self_pairing = minimal_cycle(g, cg, h)
    top = chi_from_self_pairing(targets, [-x for x in end], det, self_pairing)
    end, self_pairing = minimal_cycle(g, cg, cg.neg(h))
    bottom = chi_from_self_pairing(targets, end, det, self_pairing)
    h1, rest = divmod(top - bottom, 2 * det * det)
    if rest:  # pragma: no cover - the climb adds integer steps
        raise InternalError(f"class {h.coords}: the chi difference is not an integer")
    return h1


def special_full_sheaves(g: ResolutionGraph) -> tuple[SpecialnessRecord, ...]:
    """Specialness of every nonzero-class family, triple-checked.

    Three verdicts must agree for each class: the minimal cycle s_h pairs to
    one against the fundamental cycle; s_h is the dual of a vertex of
    multiplicity one; and h1 = chi(-s_h) - chi(s_[-h]) vanishes.
    Disagreement is an internal bug, never user error. All three run on
    numerators over det(-M) from the class table, with no climb of their
    own: the dual of vertex v has column v of adj(-M) as its numerators, so
    the witness is a lookup.
    """
    if not laufer_rational(g):
        raise PreconditionError("specialness is defined here for rational graphs only")
    cg = class_group(g)
    det = cg.order
    z_vec = z_min_numerators(g)
    z_pairings = sparse_pairings(diagonal(g), neighbours(g), z_vec)
    # adj(-M) is symmetric: its row v is the column of the dual of v
    witnesses = {column: vid for vid, column, z in zip(g.ids, adjugate(g), z_vec) if z == 1}
    records = []
    for h in cg.elements():
        if h.is_zero:
            continue
        end = minimal_numerators(g, cg, h)
        value, rest = divmod(-sum(x * p for x, p in zip(end, z_pairings)), det)
        if rest:  # pragma: no cover - the minimal cycle is in the dual lattice
            raise InternalError("minimal cycle pairs fractionally with the fundamental cycle")
        witness = witnesses.get(end)
        h1 = _class_h1(g, cg, h)
        verdicts = (value == 1, witness is not None, h1 == 0)
        if len(set(verdicts)) != 1:
            raise InternalError(
                f"specialness tests disagree for class {h.coords}: pairing={value}, "
                f"witness={witness!r}, h1={h1}")
        records.append(SpecialnessRecord(h.coords, end, value, witness, h1, verdicts[0]))
    return tuple(records)


def _dual_classes(g: ResolutionGraph, cg: ClassGroup):
    """Per vertex: its id, its dual (column v of adj(-M)), the dual's class
    (read off U), whether the dual is its class's minimal cycle, and that cycle."""
    for position, (vid, column) in enumerate(zip(g.ids, adjugate(g))):
        h = dual_class(cg, position)
        end = minimal_numerators(g, cg, h)
        yield vid, column, h, end == column, end


def wunram_table(g: ResolutionGraph) -> tuple[VertexRecord, ...]:
    """Per-vertex correspondence data for a rational graph.

    On a minimal resolution the three statements "multiplicity one",
    "extension stays rational" and "the dual cycle is minimal in its class
    with multiplicity one" are equivalent and checked against each other.
    On non-minimal resolutions only the last is tied to the existence of a
    nontrivial special full sheaf with that Chern class.
    """
    if not laufer_rational(g):
        raise PreconditionError("the per-vertex table is defined for rational graphs only")
    cg = class_group(g)
    minimal = g.is_minimal_resolution
    rows = []
    for mult, (vid, dual, h, dual_is_min, rep) in zip(z_min_numerators(g), _dual_classes(g, cg)):
        ext_rational = laufer_rational(extend_graph(g, vid))
        is_special_full = dual_is_min and mult == 1
        if minimal:
            if not ((mult == 1) == ext_rational == is_special_full):
                raise InternalError(
                    f"vertex {vid!r}: minimal-resolution equivalences disagree "
                    f"(multiplicity {mult}, extension rational {ext_rational}, "
                    f"special full {is_special_full})")
        else:
            sheaf_exists = dual_is_min and _class_h1(g, cg, h) == 0 and not h.is_zero
            if is_special_full != sheaf_exists:
                raise InternalError(
                    f"vertex {vid!r}: special-full criteria disagree off the minimal resolution")
        rows.append(VertexRecord(
            vertex=vid, multiplicity=mult, dual=dual, class_coords=h.coords, min_rep=rep,
            dual_is_min_rep=dual_is_min, special=is_special_full, extended_rational=ext_rational))
    return tuple(rows)


def full_sheaf_classes_rational(g: ResolutionGraph) -> ClassificationReport:
    """One family per class, carried by its minimal anti-nef cycle.

    Families are zero-dimensional and all flat; the trivial class carries
    the trivial sheaf, which is special.
    """
    st = classify_singularity(g)
    if not st.rational:
        raise PreconditionError(f"graph is not rational (classified as {st.kind})")
    cg = class_group(g)
    specials = {rec.class_coords: rec for rec in special_full_sheaves(g)}
    families = []
    for h in cg.elements():
        if h.is_zero:
            families.append(FullSheafFamily(h.coords, (0,) * len(g.ids), 0,
                                            special=True, flat_count=FLAT_ALL))
        else:
            rec = specials[h.coords]
            families.append(FullSheafFamily(h.coords, rec.min_rep, 0,
                                            special=rec.special, flat_count=FLAT_ALL))
    cherns = {fam.chern_class for fam in families}
    if len(cherns) != cg.order:  # pragma: no cover - cross-check
        raise InternalError("duplicate Chern classes across distinct classes")
    return ClassificationReport(
        graph=g, singularity=st, class_order=cg.order, class_factors=cg.factors,
        families=tuple(families), vertex_table=wunram_table(g), notes=_flag_notes(g, st))


def full_sheaf_classes_min_elliptic(g: ResolutionGraph) -> ClassificationReport:
    """Families for a minimally elliptic graph with fully supported elliptic cycle.

    Each nonzero class contributes a one-dimensional family over its minimal
    cycle; the zero class contributes the family over the fundamental cycle
    minus one analytically distinguished member (recorded symbolically),
    plus the trivial sheaf. With a positive-genus vertex the equality is not
    available and the report is marked as an inclusion only.
    """
    st = classify_singularity(g)
    if not st.minimally_elliptic:
        raise PreconditionError(f"graph is not minimally elliptic (classified as {st.kind})")
    if st.elliptic_cycle_support_is_all is not True:
        raise PreconditionError(
            "the elliptic cycle is not supported on every vertex; "
            "this classifier requires full support (as in the minimal resolution)")
    cg = class_group(g)
    families = []
    for h in cg.elements():
        if h.is_zero:
            continue
        families.append(FullSheafFamily(h.coords, minimal_numerators(g, cg, h), 1))
    zero = cg.zero()
    families.append(FullSheafFamily(
        zero.coords, tuple(cg.order * z for z in z_min_numerators(g)), 1,
        exceptions=("one analytically distinguished bundle with this Chern class "
                    "is excluded; which one is not a lattice question",)))
    families.append(FullSheafFamily(zero.coords, (0,) * len(g.ids), 0))
    inclusion_only = not g.all_genus_zero
    notes = _flag_notes(g, st)
    if inclusion_only:
        notes = notes + ("a positive-genus curve is present: the family list is an "
                         "upper bound (inclusion), not an equality",)
    table = tuple(VertexRecord(
        vertex=vid, multiplicity=mult, dual=dual, class_coords=h.coords,
        min_rep=rep, dual_is_min_rep=None, special=None, extended_rational=None,
    ) for mult, (vid, dual, h, _, rep) in zip(z_min_numerators(g), _dual_classes(g, cg)))
    return ClassificationReport(
        graph=g, singularity=st, class_order=cg.order, class_factors=cg.factors,
        families=tuple(families), vertex_table=table, notes=notes, inclusion_only=inclusion_only)


def flat_annotation(g: ResolutionGraph, report: ClassificationReport) -> ClassificationReport:
    """Fill in how many members of each family carry a flat connection.

    Rational: every family. Cusps: every family. Minimally elliptic with a
    rational-homology-sphere link (a tree of genus-zero curves): exactly one
    member per nonzero class, none known in the fundamental-cycle family,
    and the trivial sheaf itself. Anything else stays unknown.
    """
    st = report.singularity
    # read only by the minimally elliptic tree branch
    z_min = (tuple(report.class_order * z for z in z_min_numerators(g))
             if st.minimally_elliptic and st.tree_all_genus_zero else None)

    def flat_count(fam: FullSheafFamily) -> str:
        if st.rational or st.cusp:
            return FLAT_ALL
        if st.minimally_elliptic and st.tree_all_genus_zero:
            if not any(fam.chern_class):
                return FLAT_ALL
            if fam.chern_class == z_min and not any(fam.class_coords):
                return FLAT_ZERO_KNOWN
            return FLAT_EXACTLY_ONE
        return FLAT_UNKNOWN

    families = tuple(FullSheafFamily(f.class_coords, f.chern_class, f.family_dim, f.exceptions,
                                     f.special, flat_count(f)) for f in report.families)
    return ClassificationReport(report.graph, report.singularity, report.class_order,
                                report.class_factors, families, report.vertex_table,
                                report.notes, report.inclusion_only)
