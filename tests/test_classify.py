import io
from fractions import Fraction

import pytest

from singlat import (PreconditionError, RatCycle, blow_up, catalog, class_group,
                     class_of, dual_basis, flat_annotation,
                     full_sheaf_classes_min_elliptic, full_sheaf_classes_rational,
                     fundamental_cycle, h1_rational, minimal_antinef_rep,
                     special_full_sheaves, total_transform, wunram_table)
from singlat.classify import FLAT_ALL, FLAT_EXACTLY_ONE, FLAT_UNKNOWN, FLAT_ZERO_KNOWN
from singlat.cli import main
from singlat.dsl import GraphDocument, serialize
from singlat.graph import vector_cycle
from singlat.lattice import reduced_numerators

from conftest import graph


@pytest.fixture(scope="module")
def z7():
    return catalog("paper-z7")


# --- rational classification ---

def test_rational_families_a1():
    g = graph([("v", -2)])
    report = full_sheaf_classes_rational(g)
    cherns = {vector_cycle(g, fam.chern_class, report.class_order) for fam in report.families}
    assert cherns == {RatCycle.zero(), RatCycle({"v": Fraction(1, 2)})}
    assert all(fam.family_dim == 0 for fam in report.families)
    assert all(fam.flat_count == FLAT_ALL for fam in report.families)
    assert all(not fam.exceptions for fam in report.families)


def test_rational_families_z7(z7):
    report = full_sheaf_classes_rational(z7)
    assert len(report.families) == 7
    cherns = {vector_cycle(z7, fam.chern_class, 7) for fam in report.families}
    duals = dual_basis(z7)
    assert duals["E1"] in cherns
    assert duals["E3"] in cherns
    assert duals["E4"] in cherns
    assert duals["E2"] not in cherns
    assert len(cherns) == 7


def test_rational_families_e8():
    g = catalog("E8")
    report = full_sheaf_classes_rational(g)
    assert len(report.families) == 1
    assert vector_cycle(g, report.families[0].chern_class, 1) == RatCycle.zero()
    assert report.families[0].special is True


def test_rational_rejects_others():
    with pytest.raises(PreconditionError):
        full_sheaf_classes_rational(catalog("cusp-3x3"))


# --- specialness ---

def test_special_a1():
    records = special_full_sheaves(graph([("v", -2)]))
    assert len(records) == 1
    assert records[0].special
    assert records[0].pairing_with_fundamental == 1


def test_special_z7(z7):
    records = special_full_sheaves(z7)
    cg = class_group(z7)
    duals = dual_basis(z7)
    special = {r.class_coords for r in records if r.special}
    expected = {class_of(cg, duals["E1"]).coords, class_of(cg, duals["E4"]).coords}
    assert special == expected
    by_class = {r.class_coords: r for r in records}
    e3 = by_class[class_of(cg, duals["E3"]).coords]
    assert not e3.special
    assert e3.h1_value >= 1
    assert e3.pairing_with_fundamental == 2


def test_special_agreement_corpus(rational_corpus):
    # raising is the failure mode; the h1 read from the class table must
    # also match the sequence sum, as an int
    for g in rational_corpus[:25]:
        det = class_group(g).order
        for rec in special_full_sheaves(g):
            assert type(rec.h1_value) is int
            assert rec.h1_value == h1_rational(g, vector_cycle(g, rec.min_rep, det)), (g, rec)


def test_special_climbs_once_per_class(monkeypatch):
    """On a fresh graph, `special_full_sheaves` climbs for Z_min and for each
    nonzero class's minimal cycle, and for no h1 sum."""
    from singlat import laufer
    g = catalog("paper-z7")
    climbs = []
    climb = laufer._climb
    monkeypatch.setattr(laufer, "_climb", lambda *args: climbs.append(args) or climb(*args))
    special_full_sheaves(g)
    assert len(climbs) == class_group(g).order


def test_wunram_table_climbs_nothing_after_special(z7, monkeypatch):
    """Once `special_full_sheaves` has filled the class table, the per-vertex
    table climbs nothing: each extension's Z' is a dual cycle plus a table
    entry, and the zero class needs no climb."""
    from singlat import laufer
    blown_up, _ = blow_up(z7, "E4")
    climb = laufer._climb
    for g in (catalog("A40"), catalog("D40"), catalog("E8"), z7, blown_up):
        special_full_sheaves(g)
        climbs = []
        monkeypatch.setattr(laufer, "_climb", lambda *args: climbs.append(args) or climb(*args))
        table = wunram_table(g)
        monkeypatch.undo()
        assert climbs == [] and len(table) == len(g.ids), g
    assert not blown_up.is_minimal_resolution


# --- per-vertex table ---

def test_wunram_z7(z7):
    table = {row.vertex: row for row in wunram_table(z7)}
    assert table["E1"].multiplicity == 1
    assert table["E1"].dual_is_min_rep and table["E1"].special
    assert table["E1"].extended_rational
    assert table["E2"].multiplicity == 2
    assert not table["E2"].dual_is_min_rep
    assert vector_cycle(z7, table["E2"].min_rep, 7) == dual_basis(z7)["E4"]
    assert not table["E2"].extended_rational
    assert table["E3"].multiplicity == 2 and not table["E3"].special
    assert table["E4"].multiplicity == 1 and table["E4"].special
    assert (table["E1"].class_coords != table["E4"].class_coords)


def test_wunram_blown_up(z7, rational_corpus):
    target, _ = blow_up(z7, "E4")
    table = {row.vertex: row for row in wunram_table(target)}
    new_row = table["new"]
    assert new_row.multiplicity == 1
    assert not new_row.dual_is_min_rep   # not full with that Chern class
    assert not new_row.special
    # the non-minimal branch cross-checks its verdicts, raising on a disagreement
    for g in rational_corpus[:10]:
        target, _ = blow_up(g, g.ids[-1])
        assert not target.is_minimal_resolution
        rows = wunram_table(target)
        assert [row.vertex for row in rows] == list(target.ids)
        assert sum(row.special for row in rows) == sum(
            rec.special for rec in special_full_sheaves(target))


# --- minimally elliptic classification ---

def test_min_elliptic_gamma():
    g = catalog("gamma-2-3-7")
    report = flat_annotation(g, full_sheaf_classes_min_elliptic(g))
    assert len(report.families) == 2
    z_min = fundamental_cycle(g).end
    cherns = [vector_cycle(g, f.chern_class, report.class_order) for f in report.families]
    main = next(f for f, c in zip(report.families, cherns) if c == z_min)
    trivial = next(f for f, c in zip(report.families, cherns) if not c)
    assert main.family_dim == 1 and main.exceptions
    assert main.flat_count == FLAT_ZERO_KNOWN
    assert trivial.flat_count == FLAT_ALL
    assert not report.inclusion_only


def test_min_elliptic_cusp():
    g = catalog("cusp-3x3")
    report = flat_annotation(g, full_sheaf_classes_min_elliptic(g))
    assert report.class_order == 16
    nonzero = [f for f in report.families if any(c != 0 for c in f.class_coords)]
    assert len(nonzero) == 15
    assert len(report.families) == 17
    assert all(f.flat_count == FLAT_ALL for f in report.families)
    assert all(f.family_dim == 1 for f in nonzero)


def test_min_elliptic_simply_elliptic():
    g = catalog("simply-elliptic-d3")
    report = flat_annotation(g, full_sheaf_classes_min_elliptic(g))
    assert report.inclusion_only
    assert all(f.flat_count == FLAT_UNKNOWN for f in report.families)


def test_flat_annotation_builds_z_min_only_for_minimally_elliptic_trees(monkeypatch):
    # A9 is rational and cusp-3x3 a cusp: neither branch reads Z_min
    import singlat.classify as classify
    reports = {"A9": full_sheaf_classes_rational(catalog("A9")),
               "cusp-3x3": full_sheaf_classes_min_elliptic(catalog("cusp-3x3"))}

    def forbidden(g):
        raise AssertionError("flat_annotation built an unread Z_min")

    monkeypatch.setattr(classify, "z_min_numerators", forbidden)
    for name, report in reports.items():
        annotated = flat_annotation(catalog(name), report)
        assert all(f.flat_count == FLAT_ALL for f in annotated.families)


def test_min_elliptic_rejects_rational(z7):
    with pytest.raises(PreconditionError):
        full_sheaf_classes_min_elliptic(z7)


def test_min_elliptic_rejects_partial_support():
    # blowing up a generic point leaves the elliptic cycle unsupported there
    g = catalog("cusp-3x3")
    target, _ = blow_up(g, "E1")
    with pytest.raises(PreconditionError, match="support"):
        full_sheaf_classes_min_elliptic(target)


def test_flat_annotation_qhs_families():
    # star with a nontrivial class group: tree, all genus zero, minimally
    # elliptic; every nonzero class family gets exactly one flat member
    g = graph([("c", -1), ("l0", -2), ("l1", -4), ("l2", -5)],
              [("c", "l0"), ("c", "l1"), ("c", "l2")])
    from singlat import classify_singularity
    st = classify_singularity(g)
    assert st.minimally_elliptic and st.tree_all_genus_zero
    report = flat_annotation(g, full_sheaf_classes_min_elliptic(g))
    assert report.class_order == 2
    nonzero = [f for f in report.families if any(c != 0 for c in f.class_coords)]
    assert len(nonzero) == 1
    assert all(f.flat_count == FLAT_EXACTLY_ONE for f in nonzero)
    z_min = fundamental_cycle(g).end
    zero_main = next(f for f in report.families if not any(f.class_coords)
                     and vector_cycle(g, f.chern_class, report.class_order) == z_min)
    assert zero_main.flat_count == FLAT_ZERO_KNOWN


# --- blow-up equivariance ---

def test_blow_up_equivariance(z7, rational_corpus):
    samples = [(z7, "E4"), (z7, ("E2", "c"))]
    samples += [(g, g.ids[0]) for g in rational_corpus[:6]]
    for g, locus in samples:
        target, bmap = blow_up(g, locus)
        cg = class_group(g)
        cg_new = class_group(target)
        pushed = {total_transform(bmap, minimal_antinef_rep(g, cg, h))
                  for h in cg.elements()}
        fresh = {minimal_antinef_rep(target, cg_new, h) for h in cg_new.elements()}
        assert pushed == fresh
        # and the pushforward lands in the matching class
        for h in cg.elements():
            rep = minimal_antinef_rep(g, cg, h)
            moved = total_transform(bmap, rep)
            assert minimal_antinef_rep(target, cg_new, class_of(cg_new, moved)) == moved


def test_classify_climbs_each_minimal_cycle_once(rational_corpus, capsys, monkeypatch):
    """One `classify` run reads every class's minimal cycle from one climb,
    though both the family list and the per-vertex table ask for it."""
    from singlat import laufer
    graphs = [catalog("paper-z7"), catalog("A7"), catalog("D6"), *rational_corpus[:20]]
    climb = laufer._climb
    for g in graphs:
        cg = class_group(g)
        starts = {tuple(reduced_numerators(cg, h)): h for h in cg.elements()}
        climbs = []
        monkeypatch.setattr(laufer, "_climb", lambda diag, rows, vec, scale, *rest: (
            climbs.append((tuple(vec), scale)) or climb(diag, rows, vec, scale, *rest)))
        monkeypatch.setattr("sys.stdin", io.StringIO(serialize(GraphDocument(None, g.vertices,
                                                                            g.edges))))
        assert main(["classify", "-"]) == 0, capsys.readouterr().err
        monkeypatch.undo()
        counts = {h: 0 for h in cg.elements()}
        for vec, scale in climbs:
            if scale == cg.order and vec in starts:
                counts[starts[vec]] += 1
        assert counts.pop(cg.zero()) <= 1 and set(counts.values()) <= {1}, (g, counts)
