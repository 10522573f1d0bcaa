"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
All checks are exact (integer/rational arithmetic); enumeration-backed
claims state their box.
"""

import contextlib

from singlat import (blow_up, canonical_cycle, catalog, chi, class_group,
                     class_of, classify_singularity, dual_basis, extend_graph,
                     flat_annotation, full_sheaf_classes_min_elliptic,
                     full_sheaf_classes_rational, fundamental_cycle, h1_rational,
                     laufer_rational, minimal_antinef_rep, minimally_elliptic_cycle,
                     pairing, reduced_rep, special_full_sheaves, total_transform)
from singlat.classify import FLAT_ALL, FLAT_UNKNOWN, FLAT_ZERO_KNOWN
from singlat.graph import vector_cycle
from singlat.oracle import Box, brute_lipman_minima, brute_min_chi

from conftest import tie_break_policies


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


CATALOG_NAMES = ("paper-z7", "gamma-2-3-7", "cusp-3x3", "simply-elliptic-d3",
                 "A1", "A2", "D4", "E6", "E7", "E8")


def test_criterion_1_z7_worked_example():
    with criterion(1, "Z7 worked example reproduced exactly"):
        g = catalog("paper-z7")
        cg = class_group(g)
        assert cg.order == 7 and cg.factors == (7,)

        duals = dual_basis(g)
        h = {v: class_of(cg, duals[v]) for v in ("E1", "E2", "E3", "E4")}
        s = {v: minimal_antinef_rep(g, cg, h[v]) for v in ("E1", "E2", "E3", "E4")}
        assert s["E1"] == duals["E1"]
        assert s["E4"] == duals["E4"] and reduced_rep(cg, h["E4"]) == duals["E4"]
        assert s["E2"] == duals["E4"]
        assert s["E3"] == duals["E3"]
        all_min_reps = {minimal_antinef_rep(g, cg, x) for x in cg.elements()}
        assert duals["E2"] not in all_min_reps

        z_min = fundamental_cycle(g).end
        assert [z_min.coefficient(v) for v in ("E1", "E2", "E3", "E4")] == [1, 2, 2, 1]

        records = special_full_sheaves(g)
        special = {r.class_coords for r in records if r.special}
        assert special == {h["E1"].coords, h["E4"].coords}

        arm_rational = {v: laufer_rational(extend_graph(g, v))
                        for v in ("E1", "E2", "E3", "E4")}
        assert arm_rational == {"E1": True, "E2": False, "E3": False, "E4": True}


def test_criterion_2_blow_up_case():
    with criterion(2, "blow-up at a generic point: transform bijection and the non-full dual"):
        g = catalog("paper-z7")
        target, bmap = blow_up(g, "E4")
        new_id = bmap.new_id
        cg = class_group(g)
        cg_new = class_group(target)

        z_min_new = fundamental_cycle(target).end
        assert z_min_new.coefficient(new_id) == 1

        duals_new = dual_basis(target)
        h_new = class_of(cg_new, duals_new[new_id])
        s_new = minimal_antinef_rep(target, cg_new, h_new)
        pushed_e4 = total_transform(bmap, dual_basis(g)["E4"])
        assert s_new == pushed_e4
        assert s_new != duals_new[new_id]

        pushed = {total_transform(bmap, minimal_antinef_rep(g, cg, x))
                  for x in cg.elements()}
        fresh = {minimal_antinef_rep(target, cg_new, x) for x in cg_new.elements()}
        assert pushed == fresh and len(pushed) == cg.order


def test_criterion_3_rational_classification_vs_brute_force(rational_corpus):
    with criterion(3, f"minimal cycles match brute-force Lipman minima on "
                      f"{len(rational_corpus)} random rational graphs (box scale 3)"):
        assert len(rational_corpus) >= 100
        for g in rational_corpus:
            cg = class_group(g)
            minima = brute_lipman_minima(g, Box.for_graph(g, 3))
            for h in cg.elements():
                rep = minimal_antinef_rep(g, cg, h)
                assert minima.get(h) == rep, \
                    f"disagreement on {g.vertices} at class {h.coords}"


def test_criterion_4_specialness_triple_agreement(rational_corpus):
    with criterion(4, "pairing, vertex-witness and h1 specialness tests agree on the corpus"):
        for g in rational_corpus:
            cg = class_group(g)
            z_min = fundamental_cycle(g).end
            duals = dual_basis(g)
            for h in cg.elements():
                if h.is_zero:
                    continue
                rep = minimal_antinef_rep(g, cg, h)
                pairing_test = -pairing(g, rep, z_min) == 1
                witness_test = any(duals[v] == rep and z_min.coefficient(v) == 1
                                   for v in g.ids)
                h1_test = h1_rational(g, rep) == 0
                assert pairing_test == witness_test == h1_test, \
                    f"triple disagreement on {g.vertices} at {h.coords}"


def test_criterion_5_rationality_ellipticity_vs_chi(rational_corpus):
    with criterion(5, "sequence criterion matches bounded chi minima on corpus + catalog"):
        graphs = list(rational_corpus) + [catalog(name) for name in CATALOG_NAMES]
        for g in graphs:
            value, witness = brute_min_chi(g, Box.for_graph(g, 3))
            rational = laufer_rational(g)
            assert rational == (value == 1), \
                f"rationality mismatch on {g.vertices}: min chi {value} at {witness}"
            if not rational:
                elliptic = chi(g, fundamental_cycle(g).end) == 0
                assert elliptic == (value == 0), \
                    f"ellipticity mismatch on {g.vertices}: min chi {value}"


def test_criterion_6_minimally_elliptic_catalog():
    with criterion(6, "minimally elliptic catalog: families, flatness, genus gate"):
        # integral-homology-sphere star
        g = catalog("gamma-2-3-7")
        st = classify_singularity(g)
        assert class_group(g).order == 1
        assert st.minimally_elliptic
        cycle = minimally_elliptic_cycle(g)
        z_k = canonical_cycle(g)
        z_min = fundamental_cycle(g).end
        assert cycle == z_k          # the defining equality on this resolution
        assert cycle <= z_min        # equality with Z_min belongs to the blown-down model
        assert st.elliptic_cycle_support_is_all
        report = flat_annotation(g, full_sheaf_classes_min_elliptic(g))
        assert len(report.families) == 2
        cherns = [vector_cycle(g, f.chern_class, report.class_order) for f in report.families]
        main = next(f for f, c in zip(report.families, cherns) if c == z_min)
        trivial = next(f for f, c in zip(report.families, cherns) if not c)
        assert main.family_dim == 1 and main.exceptions
        assert main.flat_count == FLAT_ZERO_KNOWN
        assert trivial.flat_count == FLAT_ALL

        # cusp: cycle graph, sixteen classes, everything flat
        g = catalog("cusp-3x3")
        st = classify_singularity(g)
        assert st.kind == "cusp" and st.minimally_elliptic
        assert canonical_cycle(g) == fundamental_cycle(g).end == minimally_elliptic_cycle(g)
        report = flat_annotation(g, full_sheaf_classes_min_elliptic(g))
        assert report.class_order == 16
        assert len(report.families) == 17
        assert all(f.flat_count == FLAT_ALL for f in report.families)

        # positive genus gates the equality
        g = catalog("simply-elliptic-d3")
        report = flat_annotation(g, full_sheaf_classes_min_elliptic(g))
        assert report.inclusion_only
        assert all(f.flat_count == FLAT_UNKNOWN for f in report.families)


def test_criterion_7_sequence_order_invariance(rational_corpus):
    with criterion(7, "endpoints and h1 sums invariant under 10 randomized tie-breaks "
                      "on 20 graphs"):
        graphs = rational_corpus[:20]
        policies = tie_break_policies(10)
        for g in graphs:
            cg = class_group(g)
            z_min = fundamental_cycle(g).end
            expected = {h.coords: minimal_antinef_rep(g, cg, h) for h in cg.elements()}
            expected_h1 = {h.coords: h1_rational(g, expected[h.coords])
                           for h in cg.elements()}
            for policy in policies:
                assert fundamental_cycle(g, tie_break=policy).end == z_min
                for h in cg.elements():
                    rep = minimal_antinef_rep(g, cg, h, tie_break=policy)
                    assert rep == expected[h.coords]
                    assert h1_rational(g, rep, tie_break=policy) == expected_h1[h.coords]


def test_criterion_8_analytic_facts_stay_symbolic():
    with criterion(8, "analytic content appears only as symbolic annotations"):
        # the excluded member of the fundamental-cycle family is recorded as
        # text, never as a computed bundle
        g = catalog("gamma-2-3-7")
        report = flat_annotation(g, full_sheaf_classes_min_elliptic(g))
        main = next(f for f in report.families if any(f.chern_class))
        assert main.exceptions and all(isinstance(e, str) for e in main.exceptions)
        # the only dimension annotations ever claimed are 0 and 1
        dims = {f.family_dim for f in report.families}
        rational_report = flat_annotation(
            catalog("paper-z7"), full_sheaf_classes_rational(catalog("paper-z7")))
        dims |= {f.family_dim for f in rational_report.families}
        assert dims <= {0, 1}
        # geometric genus is annotated only where the classification pins it
        assert classify_singularity(catalog("paper-z7")).geometric_genus == 0
        assert classify_singularity(g).geometric_genus == 1
        st_other = classify_singularity(
            __import__("conftest").graph([("v", -1, 2)]))
        assert st_other.geometric_genus is None
