from fractions import Fraction

import pytest

from singlat import (PreconditionError, RatCycle, ResolutionGraph, catalog, catalog_names,
                     class_group, class_of, cycle_min, dual_basis, h1_rational,
                     in_lipman_cone, intersection_matrix, lattice_determinant, linalg,
                     reduced_rep)
from singlat import classify, cli, graph as graph_module, lattice, laufer, oracle
from singlat.graph import extend_graph, pairing_vector
from singlat.laufer import minimal_antinef_rep

from conftest import graph


@pytest.fixture(scope="module")
def z7():
    return catalog("paper-z7")


def test_class_group_a1():
    cg = class_group(graph([("v", -2)]))
    assert cg.order == 2
    assert cg.factors == (2,)


def test_class_group_z7(z7):
    cg = class_group(z7)
    assert cg.order == 7
    assert cg.factors == (7,)
    assert len(list(cg.elements())) == 7


def test_class_group_builds_no_rational_cycle(monkeypatch):
    """`class_group` keeps each generator as numerators over det(-M); the
    public `generators` are built from them only when read."""
    graphs = [catalog(name) for name in ("paper-z7", "E8", "D7", "A40")]

    def forbidden(*_args, **_kwargs):
        raise AssertionError("a RatCycle built by class_group")

    monkeypatch.setattr(RatCycle, "__init__", forbidden)
    groups = [class_group(g) for g in graphs]
    monkeypatch.undo()
    for g, cg in zip(graphs, groups):
        assert len(cg.generators) == len(cg.factors) == len(cg._numerators)
        assert cg.generators == tuple(graph_module.vector_cycle(g, num, cg.order)
                                      for num in cg._numerators), g


def test_class_group_trivial():
    cg = class_group(catalog("gamma-2-3-7"))
    assert cg.order == 1
    assert cg.factors == ()
    assert list(cg.elements()) == [cg.zero()]


def test_class_group_cusp():
    cg = class_group(catalog("cusp-3x3"))
    assert cg.order == 16
    product = 1
    for f in cg.factors:
        product *= f
    assert product == 16


def test_class_of_lattice_elements(z7):
    cg = class_group(z7)
    for v in z7.ids:
        assert class_of(cg, RatCycle.unit(v)).is_zero


def test_class_of_z7_cases(z7):
    cg = class_group(z7)
    duals = dual_basis(z7)
    assert class_of(cg, duals["E2"]) == class_of(cg, duals["E4"])
    assert class_of(cg, 7 * duals["E1"]).is_zero
    assert not class_of(cg, duals["E1"]).is_zero


def test_class_of_homomorphism(z7):
    cg = class_group(z7)
    duals = dual_basis(z7)
    a, b = duals["E1"], duals["E3"]
    assert class_of(cg, a + b) == cg.add(class_of(cg, a), class_of(cg, b))


def test_class_of_rejects_non_dual(z7):
    cg = class_group(z7)
    with pytest.raises(PreconditionError, match="pairing with"):
        class_of(cg, RatCycle({"E1": Fraction(1, 3)}))


def test_generator_orders(negdef_corpus):
    for g in negdef_corpus[:10]:
        cg = class_group(g)
        assert cg.order == lattice_determinant(g)
        for k, gen in enumerate(cg.generators):
            assert cg.element_order(class_of(cg, gen)) == cg.factors[k]


def test_reduced_rep_examples(z7):
    a1 = graph([("v", -2)])
    cg1 = class_group(a1)
    assert reduced_rep(cg1, cg1.zero()) == RatCycle.zero()
    nonzero = next(h for h in cg1.elements() if not h.is_zero)
    assert reduced_rep(cg1, nonzero) == RatCycle({"v": Fraction(1, 2)})

    cg = class_group(z7)
    dual4 = dual_basis(z7)["E4"]
    assert reduced_rep(cg, class_of(cg, dual4)) == dual4


def test_reduced_rep_congruence(z7):
    cg = class_group(z7)
    for v in z7.ids:
        dual = dual_basis(z7)[v]
        diff = dual - reduced_rep(cg, class_of(cg, dual))
        assert diff.is_integral


def test_lipman_cone_examples(z7):
    a1 = graph([("v", -2)])
    assert in_lipman_cone(a1, RatCycle.zero())
    assert not in_lipman_cone(a1, RatCycle({"v": -1}))
    for v in z7.ids:
        assert in_lipman_cone(z7, dual_basis(z7)[v])


def test_cycle_min_examples(z7):
    a = RatCycle({"E1": 2})
    assert cycle_min(a, a) == a
    assert cycle_min(RatCycle.zero(), RatCycle.unit("E1")) == RatCycle.zero()
    assert cycle_min(RatCycle({"E1": -1}), RatCycle.zero()) == RatCycle({"E1": -1})
    cg = class_group(z7)
    elements = list(cg.elements())
    for h1, h2 in [(elements[1], elements[3]), (elements[2], elements[5])]:
        m = cycle_min(minimal_antinef_rep(z7, cg, h1), minimal_antinef_rep(z7, cg, h2))
        assert in_lipman_cone(z7, m)


# --- the Fraction references: the class map, generators and reduced
# representatives in rational arithmetic, from the Smith form and the dual
# basis directly ---

def reference_dual_coordinates(g, cycle):
    coords = []
    for vid, value in zip(g.ids, pairing_vector(g, cycle)):
        if value.denominator != 1:
            raise PreconditionError(
                f"cycle is not in the dual lattice: pairing with {vid} is {value}")
        coords.append(-int(value))
    return coords


class ReferenceClassGroup:
    def __init__(self, g):
        neg = [list(row) for row in intersection_matrix(g).negated()]
        d, self.u, _v = linalg.smith_normal_form(neg)
        uinv = linalg.invert(self.u)  # the classical pullback, not the V columns
        self.graph = g
        self.positions = [i for i, x in enumerate(d) if x != 1]
        self.factors = [d[i] for i in self.positions]
        duals = dual_basis(g)
        self.generators = []
        for i in self.positions:
            gen = RatCycle()
            for row, vid in zip(uinv, g.ids):
                gen = gen + row[i] * duals[vid]
            self.generators.append(gen)

    def class_of(self, cycle):
        coords = reference_dual_coordinates(self.graph, cycle)
        transformed = [sum(row[j] * coords[j] for j in range(len(coords))) for row in self.u]
        return tuple(transformed[i] % d for i, d in zip(self.positions, self.factors))

    def reduced_rep(self, coords):
        lift = RatCycle()
        for c, gen in zip(coords, self.generators):
            if c:
                lift = lift + c * gen
        return lift.frac()


def outcome(fn, *args):
    try:
        return "value", fn(*args)
    except PreconditionError as exc:
        return "refused", str(exc)


def reference_graphs(rational_corpus, negdef_corpus):
    named = [catalog(name) for name in catalog_names()]
    named += [catalog(f"A{n}") for n in range(1, 20)] + [catalog(f"D{n}") for n in range(4, 20)]
    return list(rational_corpus) + list(negdef_corpus) + named


def test_integer_class_map_matches_the_fraction_reference(rational_corpus, negdef_corpus):
    classes = duals_seen = refusals = 0
    for g in reference_graphs(rational_corpus, negdef_corpus):
        cg, ref = class_group(g), ReferenceClassGroup(g)
        assert list(cg.factors) == ref.factors
        assert list(cg.generators) == ref.generators
        for h in cg.elements():
            rep = reduced_rep(cg, h)
            assert rep == ref.reduced_rep(h.coords)
            assert class_of(cg, rep).coords == ref.class_of(rep) == h.coords
            classes += 1
        for dual in dual_basis(g).values():
            assert class_of(cg, dual).coords == ref.class_of(dual)
            duals_seen += 1
        det = lattice_determinant(g)
        for vid in g.ids:
            for cycle in (RatCycle({vid: Fraction(1, 2 * det + 1)}),
                          dual_basis(g)[vid] + RatCycle({g.ids[-1]: Fraction(1, 2)})):
                got = outcome(lambda c: class_of(cg, c).coords, cycle)
                assert got == outcome(ref.class_of, cycle)
                refusals += got[0] == "refused"
    assert classes > 3000 and duals_seen > 900 and refusals > 1800


def test_class_map_runs_without_rational_cycle_arithmetic(rational_corpus, monkeypatch):
    graphs = [ResolutionGraph(g.vertices, g.edges) for g in rational_corpus]  # empty memos

    def forbidden(*_args, **_kwargs):
        raise AssertionError("rational cycle arithmetic on the integer class path")

    for name in ("__add__", "__mul__", "__rmul__", "floor", "frac"):
        monkeypatch.setattr(RatCycle, name, forbidden)
    for module in (graph_module, lattice, laufer, oracle, classify, cli):
        if hasattr(module, "pairing_vector"):
            monkeypatch.setattr(module, "pairing_vector", forbidden)
    for g in graphs:
        cg = class_group(g)
        for k, gen in enumerate(cg.generators):
            assert class_of(cg, gen).coords == tuple(int(j == k) for j in range(len(cg.factors)))
        for h in cg.elements():
            rep = reduced_rep(cg, h)
            assert class_of(cg, rep) == h
            assert h1_rational(g, rep) >= 0


def test_non_dual_cycle_messages(z7):
    cycle = RatCycle({"E1": Fraction(1, 3)})
    with pytest.raises(PreconditionError) as exc:
        class_of(class_group(z7), cycle)
    assert str(exc.value) == "cycle is not in the dual lattice: pairing with E1 is -2/3"
    with pytest.raises(PreconditionError) as exc:
        h1_rational(z7, cycle)
    assert str(exc.value) == "Chern class is not in the dual lattice: pairing with E1 is -2/3"
    # the first vertex with a fractional pairing is named, not the cycle's support
    with pytest.raises(PreconditionError) as exc:
        class_of(class_group(z7), RatCycle({"E2": Fraction(1, 2)}))
    assert str(exc.value) == "cycle is not in the dual lattice: pairing with E1 is 1/2"


def test_tabled_pairings_and_dual_classes_match_a_fresh_pass(rational_corpus, negdef_corpus):
    """What the pairing-free paths read matches a fresh pass: the
    self-pairing tabled beside each minimal cycle, 2 chi(Z_min) kept beside
    Z_min (climbed, or seeded on an extension), and the class `dual_class`
    reads off U against `_class_of` on the adjugate column. Every reduced
    representative maps back to its own class: `reduced_numerators` runs no
    such check itself."""
    named = [catalog(name) for name in catalog_names()]
    graphs = [*rational_corpus, *negdef_corpus, *named]
    for g in graphs:
        cg = class_group(g)
        det = cg.order
        diag, rows = graph_module.diagonal(g), graph_module.neighbours(g)
        for h in cg.elements():
            end, self_pairing = laufer.minimal_cycle(g, cg, h)
            pairings = graph_module.sparse_pairings(diag, rows, list(end))
            assert self_pairing == sum(x * p for x, p in zip(end, pairings)), (g, h)
            assert lattice._class_of(cg, lattice.reduced_numerators(cg, h), det) == h.coords
        for position, column in enumerate(graph_module.adjugate(g)):
            assert lattice.dual_class(cg, position).coords == lattice._class_of(cg, column, det)
    for g in [*graphs, *(extend_graph(g, vid) for g in named for vid in g.ids)]:
        z_min = laufer.z_min_numerators(g)
        assert laufer.z_min_chi_numerator(g) == graph_module.chi_numerator(g, z_min, 1), g
