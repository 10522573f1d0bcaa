import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from singlat import laufer
from singlat import (InternalError, PreconditionError, RatCycle, ResolutionGraph,
                     antinef_closure, blow_up, canonical_cycle,
                     catalog, catalog_names, chi, class_group, class_of, classify_singularity,
                     dual_basis, extend_graph, fundamental_cycle, h1_rational,
                     in_lipman_cone, is_negative_definite, intersection_matrix,
                     laufer_rational, minimal_antinef_rep, minimally_elliptic_cycle,
                     reduced_rep)
from singlat.graph import (adjunction_targets, diagonal, induced_subgraph, neighbours,
                           pairing_vector, vertex_components)
from singlat.laufer import (_BOOTSTRAP_CAP, ComputationSequence, LauferStep,
                            _minimal_non_rational_subgraph, _run_sequence)

from conftest import CORPUS_SEED, graph, tie_break_policies


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


def test_h1_pairs_its_chern_class_once(z7, monkeypatch):
    # the climb starts from the pairings `dual_coordinates` already made
    from singlat import graph as graph_module
    duals = dual_basis(z7)
    assert laufer_rational(z7)
    calls = []
    pairings = graph_module.sparse_pairings
    for module in (graph_module, laufer):
        monkeypatch.setattr(module, "sparse_pairings",
                            lambda *args: calls.append(args) or pairings(*args))
    for chern, expected in ((duals["E3"], 1), (duals["E1"], 0), (-duals["E2"], 0)):
        calls.clear()
        assert h1_rational(z7, chern) == expected
        assert len(calls) == 1


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


# --- the exhaustive scan, kept as the oracle of the elliptic cycle ---

def _elliptic_grid(g):
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


def _is_elliptic(g):
    return (is_negative_definite(intersection_matrix(g)) and not laufer_rational(g)
            and chi(g, fundamental_cycle(g).end) == 0)


_ELLIPTIC_EULERS = (-2, -2, -2, -2, -3, -3, -4, -5, -6, -7)


def minimal_elliptic_corpus(seed=CORPUS_SEED + 3, max_grid=3000):
    """Seeded elliptic graphs on 1-9 vertices with Euler numbers -2 to -7,
    hence minimal resolutions: genus-zero trees, trees with one genus-1
    vertex, and genus-zero graphs with one edge added to a tree."""
    rng = random.Random(seed)
    out = []
    for genus_one, extra_edge, quota in ((False, False, 160), (True, False, 80),
                                         (False, True, 80)):
        found = 0
        while found < quota:
            n = rng.randint(1, 9)
            ids = [f"v{i}" for i in range(n)]
            genera = [0] * n
            if genus_one:
                genera[rng.randrange(n)] = 1
            edges = [(ids[rng.randrange(i)], ids[i]) for i in range(1, n)]
            if extra_edge and n > 1:
                edges.append(tuple(rng.sample(ids, 2)))
            g = graph([(vid, rng.choice(_ELLIPTIC_EULERS), genus)
                       for vid, genus in zip(ids, genera)], edges)
            if not _is_elliptic(g) or _elliptic_grid(g) > max_grid:
                continue
            out.append(g)
            found += 1
    return out


_ARMS = ((-2,), (-3,), (-4,), (-5,), (-6,), (-7,), (-2, -2), (-3, -2), (-2, -3), (-7, -2))


def non_minimal_elliptic_corpus(minimal, seed=CORPUS_SEED + 4, max_grid=60_000):
    """Seeded elliptic graphs with a genus-zero (-1)-curve and at most
    `max_grid` points below Z_min: one- or two-fold blow-ups of the given
    minimal graphs, three-armed stars with a -1 centre (one arm the chain
    (-7, -2) in about a third of them), and trees on 2-9 vertices with a
    (-1)-curve and either genus zero, one genus-1 vertex or one extra edge."""
    rng = random.Random(seed)
    blown, stars, trees = [], [], []
    while len(blown) < 300:
        g = rng.choice(minimal)
        for _ in range(rng.randint(1, 2)):
            g, _bmap = blow_up(g, rng.choice(g.ids + g.edges))
        if _elliptic_grid(g) <= max_grid:
            blown.append(g)
    while len(stars) < 120:
        arms = [rng.choice(_ARMS) for _ in range(3)]
        if rng.random() < 0.3:
            arms[0] = (-7, -2)
        vertices, edges = [("c", -1)], []
        for a, arm in enumerate(arms):
            previous = "c"
            for k, euler in enumerate(arm):
                vertices.append((f"a{a}{k}", euler))
                edges.append((previous, f"a{a}{k}"))
                previous = f"a{a}{k}"
        g = graph(vertices, edges)
        if _is_elliptic(g) and _elliptic_grid(g) <= max_grid:
            stars.append(g)
    while len(trees) < 240:
        n = rng.randint(2, 9)
        ids = [f"v{i}" for i in range(n)]
        genera, eulers = [0] * n, [rng.choice(_ELLIPTIC_EULERS) for _ in ids]
        eulers[rng.randrange(n)] = -1
        edges = [(ids[rng.randrange(i)], ids[i]) for i in range(1, n)]
        kind = rng.randrange(3)
        if kind == 1:
            genera[rng.randrange(n)] = 1
        elif kind == 2 and n > 2:
            edges.append(tuple(rng.sample(ids, 2)))
        g = graph(list(zip(ids, eulers, genera)), edges)
        if g.is_minimal_resolution or not _is_elliptic(g) or _elliptic_grid(g) > max_grid:
            continue
        trees.append(g)
    return blown + stars + trees


@pytest.fixture(scope="module")
def minimal_elliptic():
    return minimal_elliptic_corpus()


@pytest.fixture(scope="module")
def non_minimal_elliptic(minimal_elliptic):
    return non_minimal_elliptic_corpus(minimal_elliptic)


def test_chi_grid_walk_matches_chi():
    for g in (catalog("gamma-2-3-7"), catalog("cusp-3x3"), catalog("simply-elliptic-d3"),
              graph([("a", -2), ("b", -3), ("c", -2)], [("a", "b"), ("b", "c")])):
        bound = fundamental_cycle(g).end + RatCycle.unit(g.ids[0])
        expected = [c for c in itertools.product(
            *(range(int(bound.coefficient(vid)) + 1) for vid in g.ids)) if any(c)]
        walked = [(tuple(c), two_chi) for c, two_chi in _two_chi_grid(g, bound)]
        assert [c for c, _ in walked] == expected
        for c, two_chi in walked:
            assert two_chi == 2 * chi(g, RatCycle(dict(zip(g.ids, c))))


def test_laufer_elliptic_cycle_matches_scan(minimal_elliptic):
    assert len(minimal_elliptic) >= 300
    assert max(_elliptic_grid(g) for g in minimal_elliptic) > 2000
    assert any(g.is_tree and g.all_genus_zero and len(g.ids) == 9 for g in minimal_elliptic)
    for g in minimal_elliptic:
        assert g.is_minimal_resolution
        assert minimally_elliptic_cycle(g) == _scan_elliptic_cycle(g), g


def test_elliptic_cycle_matches_scan_on_non_minimal_resolutions(non_minimal_elliptic):
    assert len(non_minimal_elliptic) >= 600
    assert max(_elliptic_grid(g) for g in non_minimal_elliptic) > 20_000
    assert any([(v.id, v.euler) for v in g.vertices[:3]] == [("c", -1), ("a00", -7), ("a01", -2)]
               for g in non_minimal_elliptic)
    full = proper = 0
    for g in non_minimal_elliptic:
        assert not g.is_minimal_resolution
        cycle = minimally_elliptic_cycle(g)
        assert cycle == _scan_elliptic_cycle(g), g
        if set(cycle.support) == set(g.ids):
            full += 1
        else:
            proper += 1
    assert full and proper


def test_elliptic_cycle_non_minimal_is_canonical_not_fundamental():
    # on this star (centre -1) the support is every vertex, and the
    # fundamental cycle of the support is Z_min, not the elliptic cycle
    g = catalog("gamma-2-3-7")
    assert not g.is_minimal_resolution
    support = _minimal_non_rational_subgraph(g)
    assert set(support.ids) == set(g.ids)
    assert fundamental_cycle(support).end == fundamental_cycle(g).end
    cycle = minimally_elliptic_cycle(g)
    assert cycle == RatCycle({"c": 2, "a2": 1, "a3": 1, "a7": 1}) == _scan_elliptic_cycle(g)
    assert cycle != fundamental_cycle(g).end


def test_elliptic_cycle_support_is_the_minimal_non_rational_subgraph(
        minimal_elliptic, non_minimal_elliptic):
    for g in minimal_elliptic + non_minimal_elliptic:
        support = _minimal_non_rational_subgraph(g)
        assert set(minimally_elliptic_cycle(g).support) == set(support.ids), g
        assert not laufer_rational(support)
        for vid in support.ids:
            rest = [other for other in support.ids if other != vid]
            parts = vertex_components(rest, support.edges)
            assert all(laufer_rational(induced_subgraph(support, part)) for part in parts), (g, vid)


def _row_test_graphs(seed=CORPUS_SEED + 8, count=150):
    """Seeded negative-definite graphs on 1-6 vertices with (-1)-curves,
    genus-1 vertices, extra and parallel edges, plus two catalog graphs
    with a cycle and a (-1)-centre."""
    rng = random.Random(seed)
    out = [catalog("cusp-3x3"), catalog("gamma-2-3-7")]
    while len(out) < count:
        n = rng.randint(1, 6)
        ids = [f"v{i}" for i in range(n)]
        vertices = [(vid, rng.choice((-1, -2, -2, -2, -3, -4, -5)), rng.choice((0, 0, 0, 1)))
                    for vid in ids]
        edges = [(ids[rng.randrange(i)], ids[i]) for i in range(1, n)]
        if n > 1:
            edges += [tuple(rng.sample(ids, 2)) for _ in range(rng.choice((0, 0, 1, 2)))]
        g = graph(vertices, edges)
        if is_negative_definite(intersection_matrix(g)):
            out.append(g)
    return out


def test_row_rationality_test_matches_laufer_rational_on_every_connected_part():
    verdicts, kinds = set(), set()
    for g in _row_test_graphs():
        for size in range(1, len(g.ids) + 1):
            for keep in itertools.combinations(g.ids, size):
                if len(vertex_components(keep, g.edges)) > 1:
                    continue
                sub = induced_subgraph(g, set(keep))
                verdict = laufer._rational_part(g, set(keep))
                assert verdict == laufer_rational(sub), (g, keep)
                verdicts.add(verdict)
                kinds.add((sub.is_tree, sub.all_genus_zero, sub.is_minimal_resolution, verdict))
    assert verdicts == {True, False}
    assert {(False, True), (True, False)} <= {kind[:2] for kind in kinds}
    assert (True, True, False, True) in kinds and (True, True, True, False) in kinds


def test_elliptic_cycle_builds_at_most_one_graph(monkeypatch):
    # the pass decides rationality on the graph's own rows; only the
    # minimal non-rational subgraph, when proper, becomes a graph
    trees = [large_elliptic_tree(), blow_up(large_elliptic_tree(), ("v0", "v1"))[0]]
    fresh = [catalog("gamma-2-3-7")] + [ResolutionGraph(g.vertices, g.edges) for g in trees]
    built = []
    init = ResolutionGraph.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ResolutionGraph, "__init__", counting)
    for g in fresh:
        built.clear()
        minimally_elliptic_cycle(g)
        assert len(built) <= 1, g
    assert len(built) == 1  # the blown-up tree's support is proper


def test_elliptic_cycle_is_the_canonical_cycle_of_its_support(
        minimal_elliptic, non_minimal_elliptic):
    single = multi = 0
    for g in minimal_elliptic + non_minimal_elliptic:
        cycle = minimally_elliptic_cycle(g)
        if len(cycle.support) == 1:
            (vid,) = cycle.support
            assert cycle == RatCycle.unit(vid) and g.vertex(vid).genus == 1, g
            single += 1
            continue
        for vid in cycle.support:
            assert chi(g, cycle - RatCycle.unit(vid)) == 1, (g, vid)
            assert g.vertex(vid).genus == 0, (g, vid)
        multi += 1
    assert single and multi


def large_elliptic_tree():
    # Z_min = (2,5,1,5,2,3,1,1,3): a 41,472-point grid below it
    eulers = (-4, -2, -2, -2, -3, -2, -7, -7, -2)
    edges = ((0, 1), (0, 2), (1, 3), (3, 4), (1, 5), (5, 6), (4, 7), (3, 8))
    return graph([(f"v{i}", e) for i, e in enumerate(eulers)],
                 [(f"v{a}", f"v{b}") for a, b in edges])


def test_elliptic_cycle_large_tree_time_bound():
    g = large_elliptic_tree()
    start = time.perf_counter()
    st = classify_singularity(g)
    assert time.perf_counter() - start < 1
    assert st.kind == "elliptic" and not st.warnings
    assert minimally_elliptic_cycle(g) == RatCycle(
        {"v0": 1, "v1": 2, "v3": 2, "v4": 1, "v5": 1, "v8": 1})


def test_elliptic_grid_budget():
    # the blow-up at v0-v1: a 331,776-point grid below Z_min, which only the
    # scan oracle walks
    g, _ = blow_up(large_elliptic_tree(), ("v0", "v1"))
    assert _elliptic_grid(g) == 331_776
    start = time.perf_counter()
    st = classify_singularity(g)
    cycle = minimally_elliptic_cycle(g)
    assert time.perf_counter() - start < 1
    assert st.kind == "elliptic" and not st.warnings
    assert st.elliptic_cycle_support_is_all is False
    assert cycle == RatCycle(
        {"new": 2, "v0": 1, "v1": 2, "v3": 2, "v4": 1, "v5": 1, "v8": 1}) == _scan_elliptic_cycle(g)


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


def test_gorenstein_verdict_is_integrality_of_the_canonical_cycle(rational_corpus, negdef_corpus):
    """The verdict reads K's numerators mod det(-M); the public cycle agrees,
    also where K is integral at some vertices and not at others."""
    partial = 0
    for g in rational_corpus + negdef_corpus:
        k = canonical_cycle(g)
        integral = [k.coefficient(vid).denominator == 1 for vid in g.ids]
        partial += any(integral) and not all(integral)
        assert classify_singularity(g).numerically_gorenstein == all(integral), g
    assert partial >= 1


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
    names = list(catalog_names()) + ["A1", "A9", "D7"]
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


# --- the integer kernel against the dense Fraction loop it replaced ---

def reference_run_sequence(g, start, tie_break, cap):
    """The dense-`Fraction` computation sequence: every step adds the whole
    matrix row, zeros included, to all n pairings."""
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


def _kernel_cases(rational_corpus, negdef_corpus):
    names = list(catalog_names()) + ["A1", "A9", "D7"]
    for g in rational_corpus + negdef_corpus + [catalog(name) for name in names]:
        cg = class_group(g)
        duals = dual_basis(g)
        starts = [RatCycle.unit(vid) for vid in g.ids]
        starts += [reduced_rep(cg, h) for h in cg.elements()]
        starts += [-duals[vid] for vid in g.ids]
        yield g, starts


def test_kernel_matches_dense_reference(rational_corpus, negdef_corpus):
    runs = steps = 0
    for g, starts in _kernel_cases(rational_corpus, negdef_corpus):
        for start in starts:
            want = reference_run_sequence(g, start, None, _BOOTSTRAP_CAP)
            got = _run_sequence(g, start, None, _BOOTSTRAP_CAP)
            assert got.steps == want.steps and got.end == want.end, (g, start)
            assert all(type(step.value) is Fraction for step in got.steps)
            runs += 1
            steps += len(got)
    assert runs > 3000 and steps > 8000


def test_kernel_matches_dense_reference_under_tie_breaks(rational_corpus, negdef_corpus):
    def recording(policies, seen):
        def wrap(policy):
            def choose(candidates):
                seen.append(candidates)
                return policy(candidates)
            return choose
        return [wrap(policy) for policy in policies]

    seen_ref, seen_new = [], []
    ref_policies = recording(tie_break_policies(), seen_ref)
    new_policies = recording(tie_break_policies(), seen_new)
    for g, starts in _kernel_cases(rational_corpus, negdef_corpus):
        for k, start in enumerate(starts):
            which = k % len(ref_policies)
            want = reference_run_sequence(g, start, ref_policies[which], _BOOTSTRAP_CAP)
            got = _run_sequence(g, start, new_policies[which], _BOOTSTRAP_CAP)
            assert seen_new == seen_ref and got.end == want.end, (g, start)
            assert got.steps == want.steps
    assert sum(len(c) > 1 for c in seen_new) > 1000


def test_kernel_rejects_a_foreign_tie_break_choice(z7):
    with pytest.raises(InternalError, match="not a candidate"):
        fundamental_cycle(z7, tie_break=lambda candidates: "nowhere")


def test_scan_without_witness_is_internal_error():
    with pytest.raises(InternalError, match="no chi-zero cycle"):
        _scan_elliptic_cycle(catalog("A1"))


# --- minimal class cycles and h1 sums climb from integers ---

def _class_graphs(rational_corpus, negdef_corpus):
    names = list(catalog_names())
    names += [f"A{n}" for n in range(1, 20)] + [f"D{n}" for n in range(4, 20)]
    return list(rational_corpus) + list(negdef_corpus) + [catalog(name) for name in names]


def test_minimal_reps_match_the_closure_of_reduced_reps(rational_corpus, negdef_corpus):
    """Every class's minimal cycle, climbed from integer numerators, is the
    end of the closure of its reduced representative, and under each
    tie-break both ask the same questions in the same order."""
    seen_new, seen_old = [], []

    def recording(seen):
        return [None] + [lambda cands, p=policy: seen.append(cands) or p(cands)
                         for policy in tie_break_policies()]

    new_policies, old_policies = recording(seen_new), recording(seen_old)
    classes = ties = 0
    for g in _class_graphs(rational_corpus, negdef_corpus):
        cg = class_group(g)
        for h in cg.elements():
            for new, old in zip(new_policies, old_policies):
                got = minimal_antinef_rep(g, cg, h, new)
                want = antinef_closure(g, reduced_rep(cg, h), old).end
                assert got == want and seen_new == seen_old, (g, h)
                ties += sum(len(cands) > 1 for cands in seen_new)
                seen_new.clear()
                seen_old.clear()
            classes += 1
    assert classes > 3000 and ties > 1000


def test_h1_sums_match_the_closure_steps(rational_corpus):
    cases = 0
    for g in rational_corpus:
        cg = class_group(g)
        cherns = [minimal_antinef_rep(g, cg, h) for h in cg.elements()]
        for c in cherns + list(dual_basis(g).values()):
            assert h1_rational(g, c) == sum(int(s.value) - 1 for s in antinef_closure(g, -c).steps)
            cases += 1
    assert cases > 1000


def test_class_cycles_and_h1_climb_in_integers(rational_corpus, monkeypatch):
    from singlat import classify, cli, graph as graph_module, lattice, laufer, oracle
    expected = []
    for g in rational_corpus:
        cg = class_group(g)
        reps = [minimal_antinef_rep(g, cg, h) for h in cg.elements()]
        expected.append([(rep, h1_rational(g, rep)) for rep in reps])
    graphs = [ResolutionGraph(g.vertices, g.edges) for g in rational_corpus]  # empty memos
    for g in graphs:  # the per-graph bootstrap runs before the spies
        class_group(g)
        laufer_rational(g)

    def forbidden(*_args, **_kwargs):
        raise AssertionError("a RatCycle or a sequence object on the integer closure path")

    calls = []
    cycle_vector = graph_module.cycle_vector

    def counting(*args):
        calls.append(args)
        return cycle_vector(*args)

    monkeypatch.setattr(laufer, "_run_sequence", forbidden)
    monkeypatch.setattr(laufer, "LauferStep", forbidden)
    for name in ("__add__", "__neg__", "__mul__", "__rmul__"):
        monkeypatch.setattr(RatCycle, name, forbidden)
    for module in (graph_module, lattice, laufer, oracle, classify, cli):
        if hasattr(module, "reduced_rep"):
            monkeypatch.setattr(module, "reduced_rep", forbidden)
        if hasattr(module, "cycle_vector"):
            monkeypatch.setattr(module, "cycle_vector", counting)
    for g, want in zip(graphs, expected):
        cg = class_group(g)
        reps = [minimal_antinef_rep(g, cg, h) for h in cg.elements()]
        assert calls == []
        for rep, (want_rep, want_h1) in zip(reps, want):
            assert rep == want_rep
            assert h1_rational(g, rep) == want_h1
            assert len(calls) == 1
            calls.clear()


def test_minimal_rep_refuses_a_class_group_of_another_graph():
    a4 = catalog("A4")
    h = next(iter(class_group(a4).elements()))
    other = graph([("v1", -3), ("v2", -2), ("v3", -2), ("v4", -2)],
                  [("v1", "v2"), ("v2", "v3"), ("v3", "v4")])
    for g in (catalog("A3"), other):
        with pytest.raises(PreconditionError, match="not the one of this graph"):
            minimal_antinef_rep(g, class_group(a4), h)
    assert minimal_antinef_rep(catalog("A4"), class_group(a4), h) == RatCycle.zero()
