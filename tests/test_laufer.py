from fractions import Fraction

import pytest

from singlat import (PreconditionError, RatCycle, antinef_closure, canonical_cycle,
                     catalog, catalog_names, class_group, class_of, classify_singularity,
                     dual_basis, extend_graph, fundamental_cycle, h1_rational,
                     in_lipman_cone, laufer_rational, minimal_antinef_rep,
                     minimally_elliptic_cycle, reduced_rep)

from conftest import graph, tie_break_policies


@pytest.fixture(scope="module")
def z7():
    return catalog("paper-z7")


# --- closure runs ---

def test_closure_of_antinef_is_identity(z7):
    dual4 = dual_basis(z7)["E4"]
    seq = antinef_closure(z7, dual4)
    assert len(seq) == 0
    assert seq.end == dual4


def test_closure_case_b(z7):
    cg = class_group(z7)
    h = class_of(cg, dual_basis(z7)["E4"])
    rep = reduced_rep(cg, h)
    seq = antinef_closure(z7, rep)
    assert len(seq) == 0 and seq.end == dual_basis(z7)["E4"]


def test_closure_case_c(z7):
    # the classes of the second and fourth arm duals agree, so they share
    # the fractional representative, which is already anti-nef
    cg = class_group(z7)
    h = class_of(cg, dual_basis(z7)["E2"])
    seq = antinef_closure(z7, reduced_rep(cg, h))
    assert seq.end == dual_basis(z7)["E4"]
    assert len(seq) == 0


def test_closure_with_steps(z7):
    cg = class_group(z7)
    h = class_of(cg, dual_basis(z7)["E1"])
    seq = antinef_closure(z7, reduced_rep(cg, h))
    assert seq.end == dual_basis(z7)["E1"]
    assert len(seq) > 0


def test_closure_structure(z7, negdef_corpus):
    for g in [z7] + negdef_corpus[:6]:
        duals = dual_basis(g)
        start = duals[g.ids[0]].frac()
        seq = antinef_closure(g, start)
        assert in_lipman_cone(g, seq.end)
        assert seq.end >= seq.start
        assert (seq.end - seq.start).is_integral
        total = RatCycle.zero()
        for step in seq.steps:
            assert step.value >= 1
            total = total + RatCycle.unit(step.vertex)
        assert seq.start + total == seq.end


# --- fundamental cycle ---

def test_fundamental_cycle_a1():
    assert fundamental_cycle(graph([("v", -2)])).end == RatCycle.unit("v")


def test_fundamental_cycle_z7(z7):
    end = fundamental_cycle(z7).end
    assert end == RatCycle({"E1": 1, "E2": 2, "c": 3, "E3": 2, "E4": 1, "f": 2})


def test_fundamental_cycle_cusp():
    cusp = catalog("cusp-3x3")
    assert fundamental_cycle(cusp).end == RatCycle({"E1": 1, "E2": 1, "E3": 1})


def test_fundamental_cycle_gamma():
    g = catalog("gamma-2-3-7")
    assert fundamental_cycle(g).end == RatCycle({"c": 6, "a2": 3, "a3": 2, "a7": 1})


def test_fundamental_cycle_start_independence(z7, rational_corpus):
    for g in [z7] + rational_corpus[:10]:
        default = fundamental_cycle(g).end
        for v in g.ids:
            assert fundamental_cycle(g, start_vertex=v).end == default


def test_fundamental_cycle_tie_break_independence(rational_corpus):
    policies = tie_break_policies(4)
    for g in rational_corpus[:8]:
        default = fundamental_cycle(g).end
        for policy in policies:
            assert fundamental_cycle(g, tie_break=policy).end == default


# --- minimal class representatives ---

def test_minimal_rep_zero_class(z7):
    cg = class_group(z7)
    assert minimal_antinef_rep(z7, cg, cg.zero()) == RatCycle.zero()


def test_minimal_rep_z7_cases(z7):
    cg = class_group(z7)
    duals = dual_basis(z7)
    for v, expected in (("E1", duals["E1"]), ("E3", duals["E3"]), ("E4", duals["E4"])):
        assert minimal_antinef_rep(z7, cg, class_of(cg, duals[v])) == expected
    assert minimal_antinef_rep(z7, cg, class_of(cg, duals["E2"])) == duals["E4"]
    assert all(minimal_antinef_rep(z7, cg, h) for h in cg.elements() if not h.is_zero)


# --- h1 ---

def test_h1_trivial_cases(z7):
    assert h1_rational(z7, RatCycle.zero()) == 0
    duals = dual_basis(z7)
    assert h1_rational(z7, duals["E1"]) == 0
    assert h1_rational(z7, duals["E4"]) == 0
    # negated class already anti-nef: empty sequence
    assert h1_rational(z7, -duals["E2"]) == 0


def test_h1_nonspecial_value(z7):
    # derived by running the sequence; cross-checked against the chi
    # difference in the oracle suite
    assert h1_rational(z7, dual_basis(z7)["E3"]) == 1


def test_h1_requires_rational():
    with pytest.raises(PreconditionError):
        h1_rational(catalog("cusp-3x3"), RatCycle.zero())


def test_h1_requires_dual_lattice(z7):
    with pytest.raises(PreconditionError):
        h1_rational(z7, RatCycle({"E1": Fraction(1, 3)}))


def test_h1_policy_independence(z7):
    duals = dual_basis(z7)
    for policy in tie_break_policies(5):
        assert h1_rational(z7, duals["E3"], tie_break=policy) == 1


# --- minimally elliptic cycle ---

def test_elliptic_cycle_cusp():
    cusp = catalog("cusp-3x3")
    assert minimally_elliptic_cycle(cusp) == RatCycle({"E1": 1, "E2": 1, "E3": 1})


def test_elliptic_cycle_simply_elliptic():
    g = catalog("simply-elliptic-d3")
    assert minimally_elliptic_cycle(g) == RatCycle.unit("E")


def test_elliptic_cycle_gamma():
    g = catalog("gamma-2-3-7")
    cycle = minimally_elliptic_cycle(g)
    assert cycle == canonical_cycle(g)
    assert cycle == RatCycle({"c": 2, "a2": 1, "a3": 1, "a7": 1})
    assert cycle <= fundamental_cycle(g).end


def test_elliptic_cycle_rejects_rational(z7):
    with pytest.raises(PreconditionError):
        minimally_elliptic_cycle(z7)


# --- classification ---

def test_classify_z7(z7):
    st = classify_singularity(z7)
    assert st.kind == "rational"
    assert st.rational and not st.elliptic
    assert st.geometric_genus == 0
    assert st.tree_all_genus_zero


def test_classify_gamma():
    st = classify_singularity(catalog("gamma-2-3-7"))
    assert st.kind == "minimally-elliptic"
    assert st.minimally_elliptic and st.elliptic and not st.rational
    assert st.elliptic_cycle_support_is_all is True
    assert not st.minimal_resolution
    assert st.warnings
    assert st.geometric_genus == 1
    assert st.numerically_gorenstein


def test_classify_cusp():
    st = classify_singularity(catalog("cusp-3x3"))
    assert st.kind == "cusp"
    assert st.cusp and st.minimally_elliptic
    assert st.minimal_resolution
    assert not st.tree_all_genus_zero


def test_classify_simply_elliptic():
    st = classify_singularity(catalog("simply-elliptic-d3"))
    assert st.kind == "minimally-elliptic"
    assert not st.tree_all_genus_zero
    assert st.minimal_resolution


def test_classify_ade_rational():
    for name in ("A1", "A4", "D4", "D6", "E6", "E7", "E8"):
        assert classify_singularity(catalog(name)).kind == "rational"


def test_classify_other():
    g = graph([("v", -1, 2)])  # genus 2: chi(Z_min) < 0
    st = classify_singularity(g)
    assert st.kind == "other"
    assert not st.rational and not st.elliptic


def test_classify_blown_up_cusp_downgrades():
    from singlat import blow_up
    cusp = catalog("cusp-3x3")
    target, _ = blow_up(cusp, ("E1", "E2"))
    st = classify_singularity(target)
    assert not st.cusp
    assert st.minimally_elliptic  # verdict survives with a warning
    assert any("cusp" in w for w in st.warnings)
    assert not st.minimal_resolution


def test_classify_parallel_edge_cusp():
    # a two-vertex cycle realised by a doubled edge
    g = graph([("a", -3), ("b", -3)], [("a", "b"), ("a", "b")])
    st = classify_singularity(g)
    assert st.kind == "cusp"
    assert st.minimally_elliptic
    from singlat import verify_all
    assert verify_all(g).passed


def test_corpus_is_rational(rational_corpus):
    for g in rational_corpus[:20]:
        assert classify_singularity(g).rational


# --- rationality: Artin's criterion against Laufer's sequence criterion ---

def sequence_rational(g):
    """Reference: a tree of genus-zero curves on which the computation
    sequence from every start vertex pairs to one at every step."""
    if not (g.is_tree and g.all_genus_zero):
        return False
    return all(step.value == 1
               for vid in g.ids for step in fundamental_cycle(g, start_vertex=vid).steps)


def test_rationality_matches_sequence_criterion(rational_corpus, negdef_corpus):
    names = [name for name in catalog_names() if "<" not in name] + ["A1", "A9", "D7"]
    graphs = rational_corpus + negdef_corpus + [catalog(name) for name in names]
    for g in rational_corpus[:20] + negdef_corpus[:20]:
        for vid in g.ids:
            for euler in range(-2, -7, -1):
                try:
                    graphs.append(extend_graph(g, vid, euler))
                except PreconditionError:  # extension not negative definite
                    pass
    verdicts = []
    for g in graphs:
        verdict = laufer_rational(g)
        assert verdict == sequence_rational(g), g
        verdicts.append(verdict)
    assert any(verdicts) and not all(verdicts)
