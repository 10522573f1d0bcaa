import ast
import gc
import math
import pathlib
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import singlat
from singlat import (InputError, InternalError, PreconditionError, RatCycle, ResolutionGraph,
                     Vertex, blow_up, canonical_cycle, catalog, catalog_names, chi, class_group,
                     classify_singularity, dual_basis, dual_cycle, extend_graph,
                     fundamental_cycle, intersection_matrix, is_negative_definite,
                     lattice_determinant, pairing, special_full_sheaves, total_transform)
from singlat import graph as graph_module
from singlat import laufer, linalg
from singlat.graph import (IntersectionMatrix, induced_subgraph, neighbours, require_negative_definite,
                           vertex_components)
from singlat.laufer import laufer_rational

from conftest import CORPUS_SEED, count_eliminations, graph


@pytest.fixture(scope="module")
def z7():
    return catalog("paper-z7")


# --- construction and validation ---

def test_rejects_empty_and_loops_and_dangling():
    with pytest.raises(InputError):
        graph([])
    with pytest.raises(InputError):
        graph([("v", -2)], [("v", "v")])
    with pytest.raises(InputError):
        graph([("v", -2)], [("v", "w")])
    with pytest.raises(InputError):
        graph([("v", -2), ("v", -3)])


def test_rejects_disconnected():
    with pytest.raises(InputError):
        graph([("a", -2), ("b", -2)])


# --- intersection matrix ---

def test_matrix_single_vertex():
    m = intersection_matrix(graph([("v", -2)]))
    assert m.rows == ((-2,),)


def test_matrix_z7(z7):
    m = intersection_matrix(z7)
    assert m.ids == ("E1", "E2", "c", "E3", "E4", "f")
    assert tuple(m.rows[i][i] for i in range(6)) == (-2, -2, -2, -2, -3, -2)
    ones = {(u, v) for u in m.ids for v in m.ids if u < v and m.entry(u, v) == 1}
    assert ones == {("E1", "E2"), ("E2", "c"), ("E3", "c"), ("E3", "E4"), ("c", "f")}


def test_matrix_triangle():
    t = graph([("a", -3), ("b", -3), ("c", -3)], [("a", "b"), ("b", "c"), ("c", "a")])
    assert intersection_matrix(t).rows == ((-3, 1, 1), (1, -3, 1), (1, 1, -3))


def test_parallel_edges_accumulate():
    g = graph([("a", -3), ("b", -3)], [("a", "b"), ("a", "b")])
    assert intersection_matrix(g).entry("a", "b") == 2


# --- negative definiteness ---

def test_negdef_examples(z7):
    assert is_negative_definite(IntersectionMatrix(("v",), ((-2,),)))
    assert not is_negative_definite(IntersectionMatrix(("v",), ((0,),)))
    assert is_negative_definite(intersection_matrix(z7))
    assert lattice_determinant(z7) == 7


def test_negdef_fails_on_indefinite():
    g = graph([("a", -1), ("b", -1)], [("a", "b")])
    assert not is_negative_definite(intersection_matrix(g))


# --- pairing ---

def test_pairing_examples(z7):
    a1 = graph([("v", -2)])
    e = RatCycle.unit("v")
    assert pairing(a1, RatCycle.zero(), e) == 0
    assert pairing(a1, e, e) == -2
    dual4 = dual_cycle(z7, "E4")
    assert pairing(z7, dual4, RatCycle.unit("E4")) == -1
    for other in ("E1", "E2", "c", "E3", "f"):
        assert pairing(z7, dual4, RatCycle.unit(other)) == 0


def test_pairing_unknown_vertex():
    with pytest.raises(InputError):
        pairing(graph([("v", -2)]), RatCycle.unit("w"), RatCycle.unit("v"))


# --- cycle_vector and vector_cycle ---

CHAIN = graph([(f"v{i}", -2) for i in range(4)], [(f"v{i}", f"v{i + 1}") for i in range(3)])


@given(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=4, max_size=4), st.integers(1, 10 ** 6))
def test_cycle_vector_round_trip_is_lowest_terms(vec, scale):
    """Numerators over the lcm of the reduced denominators, as Fractions give them."""
    coeffs = [Fraction(x, scale) for x in vec]
    lcm = math.lcm(*(q.denominator for q in coeffs))
    expected = ([q.numerator * (lcm // q.denominator) for q in coeffs], lcm)
    cycle = graph_module.vector_cycle(CHAIN, vec, scale)
    assert graph_module.cycle_vector(CHAIN, cycle) == expected
    assert cycle == RatCycle(zip(CHAIN.ids, coeffs))


def test_conversions_build_no_fraction(z7, monkeypatch):
    """`RatCycle` stores the numerators, so neither direction builds a Fraction."""
    cycles = list(dual_basis(z7).values()) + [canonical_cycle(z7), RatCycle({"E1": "-3/4"})]
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    assert Fraction(1, 2) and built == [(1, 2)]  # the spy sees a build
    built.clear()
    for cycle in cycles:
        vec, scale = graph_module.cycle_vector(z7, cycle)
        assert graph_module.vector_cycle(z7, vec, scale) == cycle
    assert built == []


def test_every_build_passes_through_init(z7, monkeypatch):
    """`vector_cycle` and the arithmetic build through `RatCycle.__init__`,
    once per cycle, so a spy on it sees every build."""
    a, b = dual_cycle(z7, "E4"), dual_cycle(z7, "E1")
    inits = []
    init = RatCycle.__init__

    def counting(self, *args, **kwargs):
        inits.append(None)
        init(self, *args, **kwargs)

    monkeypatch.setattr(RatCycle, "__init__", counting)
    graph_module.vector_cycle(z7, graph_module.adjugate(z7)[0], 7)
    assert len(inits) == 1
    for build in (lambda: a + b, lambda: a - b, lambda: -a, lambda: 3 * a, a.floor, a.frac,
                  lambda: singlat.cycle_min(a, b)):
        inits.clear()
        build()
        assert len(inits) == 1


# --- dual cycles ---

def test_dual_cycle_a1():
    g = graph([("v", -2)])
    assert dual_cycle(g, "v") == RatCycle({"v": Fraction(1, 2)})


def test_dual_cycle_z7(z7):
    dual4 = dual_cycle(z7, "E4")
    assert dual4.coefficient("E4") == Fraction(4, 7)
    assert all(0 <= dual4.coefficient(v) < 1 for v in z7.ids)
    for v in z7.ids:
        assert all(q > 0 for _i, q in dual_cycle(z7, v).items())


def test_dual_cycle_requires_negdef():
    g = graph([("v", 0)])
    with pytest.raises(PreconditionError):
        dual_cycle(g, "v")


def test_dual_basis_deltas(z7, negdef_corpus):
    for g in [z7] + negdef_corpus[:8]:
        duals = dual_basis(g)
        for u in g.ids:
            for v in g.ids:
                assert pairing(g, duals[u], RatCycle.unit(v)) == (-1 if u == v else 0)


# --- canonical cycle and chi ---

def test_canonical_cycle_examples():
    assert canonical_cycle(graph([("v", -2)])) == RatCycle.zero()
    cusp = catalog("cusp-3x3")
    assert canonical_cycle(cusp) == RatCycle({"E1": 1, "E2": 1, "E3": 1})
    assert canonical_cycle(cusp).is_integral
    se = catalog("simply-elliptic-d3")
    assert canonical_cycle(se) == RatCycle.unit("E")


def test_canonical_defining_system(negdef_corpus):
    for g in negdef_corpus[:10]:
        z_k = canonical_cycle(g)
        for vert in g.vertices:
            assert pairing(g, z_k, RatCycle.unit(vert.id)) == vert.euler + 2 - 2 * vert.genus


def test_chi_examples():
    a1 = graph([("v", -2)])
    assert chi(a1, RatCycle.zero()) == 0
    assert chi(a1, RatCycle.unit("v")) == 1
    cusp = catalog("cusp-3x3")
    assert chi(cusp, RatCycle({"E1": 1, "E2": 1, "E3": 1})) == 0


small_coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=7)


@given(st.lists(small_coeffs, min_size=6, max_size=6),
       st.lists(small_coeffs, min_size=6, max_size=6))
def test_chi_is_quadratic(avals, bvals):
    g = catalog("paper-z7")
    a = RatCycle(dict(zip(g.ids, avals)))
    b = RatCycle(dict(zip(g.ids, bvals)))
    assert chi(g, a + b) == chi(g, a) + chi(g, b) - pairing(g, a, b)


# --- blow-up ---

def test_blow_up_a1():
    g = graph([("v", -2)])
    target, bmap = blow_up(g, "v")
    assert [(x.id, x.euler) for x in target.vertices] == [("v", -3), ("new", -1)]
    assert target.edges == (("v", "new"),)
    assert bmap.new_id == "new"


def test_blow_up_z7_generic_point(z7):
    target, _ = blow_up(z7, "E4")
    assert len(target.vertices) == 7
    assert target.vertex("E4").euler == -4
    assert target.vertex("new").euler == -1
    assert ("E4", "new") in target.edges
    assert lattice_determinant(target) == 7


def test_blow_up_edge():
    cusp = catalog("cusp-3x3")
    target, bmap = blow_up(cusp, ("E1", "E2"))
    assert target.vertex("E1").euler == -4
    assert target.vertex("E2").euler == -4
    assert target.is_cycle_graph
    assert lattice_determinant(target) == lattice_determinant(cusp)
    with pytest.raises(InputError):
        blow_up(cusp, ("E1", "E1"))


def test_blow_up_unknown_locus(z7):
    with pytest.raises(InputError):
        blow_up(z7, "nope")


def test_repeated_blow_up_gets_fresh_ids(z7):
    once, _ = blow_up(z7, "E4")
    twice, bmap = blow_up(once, "new")
    assert bmap.new_id == "new2"
    assert lattice_determinant(twice) == 7


@given(st.lists(small_coeffs, min_size=6, max_size=6),
       st.lists(small_coeffs, min_size=6, max_size=6),
       st.sampled_from(["E1", "E4", "c", ("E1", "E2"), ("c", "f")]))
def test_total_transform_preserves_pairings(avals, bvals, locus):
    g = catalog("paper-z7")
    target, bmap = blow_up(g, locus)
    a = RatCycle(dict(zip(g.ids, avals)))
    b = RatCycle(dict(zip(g.ids, bvals)))
    assert pairing(target, total_transform(bmap, a), total_transform(bmap, b)) \
        == pairing(g, a, b)


def test_total_transform_examples(z7):
    target, bmap = blow_up(z7, "E4")
    assert total_transform(bmap, RatCycle.zero()) == RatCycle.zero()
    pushed = total_transform(bmap, dual_cycle(z7, "E4"))
    assert pushed.coefficient("new") == Fraction(4, 7)
    with pytest.raises(InputError):
        total_transform(bmap, RatCycle.unit("new"))


# --- extend ---

def test_extend_a1_explicit():
    g = graph([("v", -2)])
    ext = extend_graph(g, "v", -2)
    assert [(x.id, x.euler) for x in ext.vertices] == [("v", -2), ("ext", -2)]
    assert laufer_rational(ext)


def test_extend_z7_arms(z7):
    assert laufer_rational(extend_graph(z7, "E1"))
    assert not laufer_rational(extend_graph(z7, "E3"))


def test_extend_rejects_bad_euler():
    g = graph([("v", -2)])
    with pytest.raises(PreconditionError):
        extend_graph(g, "v", 5)


def test_extended_graph_is_negdef(negdef_corpus):
    for g in negdef_corpus[:6]:
        ext = extend_graph(g, g.ids[0])
        assert is_negative_definite(intersection_matrix(ext))


def _glued(g, vid, euler):
    new_id = g.fresh_id("ext")
    return ResolutionGraph(g.vertices + (Vertex(new_id, euler, 0),), g.edges + ((vid, new_id),))


def reference_extend(g, vid, euler=None):
    """The extension search decided by a Bareiss pass on every extended
    graph, probing from -2 down; each Euler number is probed once."""
    require_negative_definite(g)
    g.vertex(vid)
    if euler is not None:
        ext = _glued(g, vid, euler)
        if not is_negative_definite(intersection_matrix(ext)):
            raise PreconditionError(
                f"extension at {vid!r} with Euler number {euler} is not negative definite")
        return ext
    probes = {}

    def verdicts(k):
        if k not in probes:
            ext = _glued(g, vid, k)
            if not is_negative_definite(intersection_matrix(ext)):
                probes[k] = None
            else:
                mult = fundamental_cycle(ext).end.coefficient(ext.ids[-1])
                probes[k] = ext, (laufer_rational(ext), mult == 1)
        return probes[k]

    inv_self = dual_cycle(g, vid).coefficient(vid)
    lower_limit = -(math.floor(inv_self) + 12)
    k = -2
    while k >= lower_limit:
        probe = verdicts(k)
        if probe is not None and probe[1][1]:
            nxt, nxt2 = verdicts(k - 1), verdicts(k - 2)
            if nxt is not None and nxt2 is not None and probe[1] == nxt[1] == nxt2[1]:
                return probe[0]
        k -= 1
    raise InternalError(f"no stable negative-definite extension found at {vid!r}")


def _outcome(fn, *args):
    try:
        ext = fn(*args)
    except (PreconditionError, InternalError) as exc:
        return type(exc), str(exc)
    return ext.vertices, ext.edges


def _extension_graphs(rational_corpus, negdef_corpus):
    names = [*catalog_names(), "A1", "A4", "A9", "D4", "D7"]
    return [catalog(name) for name in names] + rational_corpus + negdef_corpus


def test_extend_matches_reference_search(rational_corpus, negdef_corpus):
    refusals = calls = 0
    for g in _extension_graphs(rational_corpus, negdef_corpus):
        for vid in g.ids:
            for euler in (None, -1, -2, -3, -5):
                want = _outcome(reference_extend, g, vid, euler)
                assert _outcome(extend_graph, g, vid, euler) == want, (g, vid, euler)
                calls += 1
                refusals += isinstance(want[0], type)
    assert calls > 2000 and refusals > 0


def test_schur_threshold_matches_bareiss(rational_corpus, negdef_corpus):
    for g in _extension_graphs(rational_corpus, negdef_corpus):
        for vid in g.ids:
            inv_self = dual_cycle(g, vid).coefficient(vid)
            first = -math.floor(inv_self) - 1
            for k in range(first - 3, first + 4):
                negdef = is_negative_definite(intersection_matrix(_glued(g, vid, k)))
                assert (k < -inv_self) == negdef, (g, vid, k)


def _cold_verdicts(g, vid, euler):
    """Multiplicity one of the new vertex and rationality, on an extension
    built with no value seeded."""
    ext = _glued(g, vid, euler)
    return fundamental_cycle(ext).end.coefficient(ext.ids[-1]) == 1, laufer_rational(ext)


def test_warm_probes_match_cold_fundamental_cycles(rational_corpus, negdef_corpus, monkeypatch):
    """Each search builds exactly one extension, from g's dual cycle and one
    class-table entry, with no cold sequence and no elimination, and seeds
    it with the cold Z_min."""
    graphs = _extension_graphs(rational_corpus, negdef_corpus)
    for g in graphs:  # the input graphs' own values, computed before counting
        fundamental_cycle(g)
        dual_basis(g)
    built, cold_runs, bareiss_runs = [], [], []
    extended, run_sequence = graph_module._extended, laufer._run_sequence
    monkeypatch.setattr(graph_module, "_extended",
                        lambda *args: built.append(extended(*args)) or built[-1])
    monkeypatch.setattr(laufer, "_run_sequence",
                        lambda *args: cold_runs.append(args[0]) or run_sequence(*args))
    count_eliminations(monkeypatch, bareiss_runs)
    returned = []
    for g in graphs:
        for vid in g.ids:
            returned.append(extend_graph(g, vid))
            assert built == returned, (g, vid)
    assert cold_runs == [] and bareiss_runs == []
    monkeypatch.undo()
    assert len(returned) > 500
    for ext in returned:
        fresh = ResolutionGraph(ext.vertices, ext.edges)
        assert laufer.z_min_cycle(ext) == fundamental_cycle(fresh).end, ext
        assert neighbours(ext) == neighbours(fresh)
        assert is_negative_definite(intersection_matrix(fresh))
        seq = fundamental_cycle(ext)
        assert seq.start == RatCycle.unit(ext.ids[0])
        assert seq == fundamental_cycle(fresh)


def test_extension_builds_no_rational_cycle(rational_corpus, monkeypatch):
    """The search reads Z' off the class table in integers and seeds the
    extension's Z_min as integers, so neither it nor the extension's
    rationality test builds a `RatCycle`; nor does the cold class group."""
    graphs = [catalog("D7"), catalog("E8"), *rational_corpus[:30]]

    def forbidden(*_args, **_kwargs):
        raise AssertionError("a RatCycle built while extending")

    monkeypatch.setattr(RatCycle, "__init__", forbidden)
    for g in graphs:
        for vid in g.ids:
            ext = extend_graph(g, vid)
            assert laufer.z_min_numerators(ext)[-1] >= 1
            laufer_rational(ext)


def test_extension_where_the_reference_search_gives_up():
    """The bounded reference search raises past its window on the middle of
    A49 and the short arms of D52; the closed form's extension there gives
    the new vertex multiplicity one, with the same verdicts one and two
    values lower, and one value higher the multiplicity is above one."""
    for name, vid in (("A49", "v25"), ("D52", "v51")):
        g = catalog(name)
        with pytest.raises(InternalError, match="no stable"):
            reference_extend(g, vid)
        k = extend_graph(g, vid).vertex("ext").euler
        verdicts = [_cold_verdicts(g, vid, euler) for euler in (k, k - 1, k - 2)]
        assert verdicts[0][0] and verdicts[0] == verdicts[1] == verdicts[2], (name, vid)
        assert not _cold_verdicts(g, vid, k + 1)[0], (name, vid)


def test_induced_subgraphs_are_known_negative_definite(negdef_corpus, monkeypatch):
    parts = []
    for g in negdef_corpus:
        require_negative_definite(g)
        for vid in g.ids:
            rest = [other for other in g.ids if other != vid]
            parts += [induced_subgraph(g, part) for part in vertex_components(rest, g.edges)]
    bareiss_runs = []
    count_eliminations(monkeypatch, bareiss_runs)
    for part in parts:
        require_negative_definite(part)
    assert bareiss_runs == [] and len(parts) > 100
    for part in parts:
        assert is_negative_definite(intersection_matrix(part))


def _seeded_graphs_of_every_sign(seed=CORPUS_SEED + 7, count=300):
    """Random trees and graphs with cycles whose Euler numbers reach +1, so
    that indefinite and singular forms are common, plus the affine A~_n (a
    cycle of -2 curves, det(-M) = 0)."""
    rng = random.Random(seed)
    out = [graph([(f"c{i}", -2) for i in range(n)],
                 [(f"c{i}", f"c{(i + 1) % n}") for i in range(n)]) for n in range(2, 9)]
    while len(out) < count:
        n = rng.randint(1, 6)
        vertices = [(f"v{i}", rng.choice((-4, -3, -2, -2, -2, -1, 0, 1)), rng.choice((0, 0, 0, 1)))
                    for i in range(n)]
        edges = [(f"v{rng.randrange(i)}", f"v{i}") for i in range(1, n)]
        if n > 1 and rng.random() < 0.3:
            u, v = rng.sample(range(n), 2)
            edges.append((f"v{u}", f"v{v}"))
        out.append(graph(vertices, edges))
    return out


def test_one_elimination_matches_the_dense_references(rational_corpus, negdef_corpus):
    named = [catalog(name) for name in catalog_names()]
    named += [catalog(f"A{n}") for n in range(1, 20)] + [catalog(f"D{n}") for n in range(4, 20)]
    kinds = {"negdef": 0, "indefinite": 0, "singular": 0}
    for g in [*rational_corpus, *negdef_corpus, *named, *_seeded_graphs_of_every_sign()]:
        neg = intersection_matrix(g).negated()
        pivots, adj = graph_module._elimination(g)
        det = linalg.determinant(neg)
        negdef = linalg.is_positive_definite(neg)
        assert graph_module._negative_definite(g) == negdef == \
            is_negative_definite(intersection_matrix(g)), g
        assert lattice_determinant(g) == pivots[-1] == det, g
        if det:
            inverse = linalg.invert(neg)
            assert [[Fraction(x, det) for x in row] for row in adj] == inverse, g
        if negdef:
            for col, vid in enumerate(g.ids):
                assert dual_cycle(g, vid) == RatCycle(
                    {wid: row[col] for wid, row in zip(g.ids, inverse)}), (g, vid)
            targets = [v.euler + 2 - 2 * v.genus for v in g.vertices]
            assert canonical_cycle(g) == RatCycle(
                dict(zip(g.ids, linalg.solve(intersection_matrix(g).rows, targets)))), g
        else:
            for read in (lambda: dual_cycle(g, g.ids[0]), lambda: canonical_cycle(g)):
                with pytest.raises(PreconditionError):
                    read()
        kinds["negdef" if negdef else "singular" if det == 0 else "indefinite"] += 1
    assert min(kinds.values()) >= 20, kinds


def test_degrees_and_matrix_entries(z7):
    m = intersection_matrix(z7)
    for i, u in enumerate(z7.ids):
        assert z7.degree(u) == sum(1 for a, b in z7.edges if u in (a, b))
        for j, v in enumerate(z7.ids):
            assert m.entry(u, v) == m.rows[i][j]
    parallel = graph([("a", -3), ("b", -3)], [("a", "b"), ("a", "b")])
    assert parallel.degree("a") == 2 and parallel.is_cycle_graph
    with pytest.raises(InputError):
        z7.degree("nowhere")


# --- per-graph memo ---

def test_derived_values_die_with_their_graph():
    g = catalog("paper-z7")
    classify_singularity(g)
    class_group(g)
    special_full_sheaves(g)
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None


def test_rationality_is_decided_once_per_graph(monkeypatch):
    """chi(Z_min) is taken once per graph, off the Z_min climb's final
    pairings, and no pass of `chi_numerator` recomputes it."""
    g = catalog("A16")
    kernel_calls, pass_calls = [], []
    kernel, chi_pass = laufer.chi_from_self_pairing, laufer.chi_numerator
    monkeypatch.setattr(laufer, "chi_from_self_pairing",
                        lambda *args: kernel_calls.append(args) or kernel(*args))
    monkeypatch.setattr(laufer, "chi_numerator",
                        lambda *args: pass_calls.append(args) or chi_pass(*args))
    assert len(special_full_sheaves(g)) == 16
    assert len(kernel_calls) == 1 and pass_calls == []


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id == "functools":
            yield node.attr


def test_no_module_caches_outside_the_graph():
    """Per-graph values are kept by `graph.per_graph` alone: no module may
    hold them in a functools cache, which outlives the graphs."""
    src = pathlib.Path(singlat.__file__).parent
    modules = sorted(src.glob("*.py"))
    assert len(modules) > 10
    for path in modules:
        names = set(_imported_names(ast.parse(path.read_text(), str(path))))
        assert not names & {"lru_cache", "cache"}, path.name


def test_matrix_entry_unknown_id_is_input_error(z7):
    m = intersection_matrix(z7)
    for u, v in (("zz", "E1"), ("E1", "zz")):
        with pytest.raises(InputError) as exc:
            m.entry(u, v)
        assert str(exc.value) == "unknown vertex id 'zz'"
    with pytest.raises(InputError):
        m.entry(["E1"], "E1")
