import math
from fractions import Fraction

import pytest

from singlat import (InputError, InternalError, PreconditionError, RatCycle, catalog, class_group,
                     class_of, dual_basis, fundamental_cycle, minimal_antinef_rep, verify_all)
from singlat.oracle import (Box, antinef_points, brute_fundamental_cycle, brute_lipman_min,
                            brute_lipman_minima, brute_min_chi)

from conftest import graph


@pytest.fixture(scope="module")
def z7():
    return catalog("paper-z7")


def test_box_default(z7):
    box = Box.for_graph(z7, 3)
    z_min = fundamental_cycle(z7).end
    for vid, bound in box.bounds:
        assert bound == 3 * z_min.coefficient(vid)
    assert math.prod(b + 1 for _, b in box.bounds) > 0


def test_antinef_points_are_antinef(z7):
    from singlat import in_lipman_cone
    pts = antinef_points(z7, Box.for_graph(z7, 1))
    assert pts
    for cls, p in pts:
        assert in_lipman_cone(z7, p)
        assert class_of(class_group(z7), p) == cls


def test_brute_min_zero_class(z7):
    cg = class_group(z7)
    assert brute_lipman_min(z7, cg.zero()) == RatCycle.zero()


def test_brute_min_case_c(z7):
    cg = class_group(z7)
    duals = dual_basis(z7)
    h = class_of(cg, duals["E2"])
    assert brute_lipman_min(z7, h) == duals["E4"]


def test_brute_min_a1():
    g = graph([("v", -2)])
    cg = class_group(g)
    nonzero = next(h for h in cg.elements() if not h.is_zero)
    assert brute_lipman_min(g, nonzero) == RatCycle({"v": Fraction(1, 2)})


def test_brute_min_absent_for_tiny_box(z7):
    cg = class_group(z7)
    duals = dual_basis(z7)
    h = class_of(cg, duals["E1"])
    tiny = Box(tuple((vid, 0) for vid in z7.ids))
    assert brute_lipman_min(z7, h, tiny) is None


def test_brute_min_chi_examples(z7):
    a1 = graph([("v", -2)])
    value, witness = brute_min_chi(a1)
    assert (value, witness) == (1, RatCycle.unit("v"))
    value, _ = brute_min_chi(z7)
    assert value == 1
    cusp = catalog("cusp-3x3")
    value, witness = brute_min_chi(cusp)
    assert value == 0
    assert witness == RatCycle({"E1": 1, "E2": 1, "E3": 1})


def plain_min_chi(g, box):
    """The first least 2*chi over every nonzero grid point in product order,
    each evaluated in integers from the intersection rows and the adjunction
    targets: (2*chi, point), or None for an empty box."""
    import itertools

    from singlat import intersection_matrix
    rows = intersection_matrix(g).rows
    targets = [v.euler + 2 - 2 * v.genus for v in g.vertices]
    best = None
    for y in itertools.product(*(range(b + 1) for _vid, b in box.bounds)):
        if not any(y):
            continue
        value = (sum(t * c for t, c in zip(targets, y))
                 - sum(c * sum(x * d for x, d in zip(row, y)) for c, row in zip(y, rows)))
        if best is None or value < best[0]:
            best = value, y
    return best


def test_brute_min_chi_matches_a_point_by_point_scan():
    # the pruned walk must return the value and the witness of a plain walk
    # over every grid point, first minimiser in product order; genus and
    # (-1)-curves make lines with two least points, and extra edges make
    # cycles and double edges
    import random

    from singlat import chi, intersection_matrix, is_negative_definite

    rng = random.Random(11)
    scanned = 0
    while scanned < 150:
        n = rng.randint(1, 5)
        edges = [(f"v{rng.randrange(i)}", f"v{i}") for i in range(1, n)]
        if n > 1:
            edges += [tuple(f"v{i}" for i in rng.sample(range(n), 2))
                      for _ in range(rng.choice((0, 0, 1, 2)))]
        g = graph([(f"v{i}", rng.choice((-1, -2, -2, -3, -5, -7)), rng.choice((0, 0, 1, 2)))
                   for i in range(n)], edges)
        if not is_negative_definite(intersection_matrix(g)):
            continue
        box = Box(tuple((vid, rng.randint(0, 4)) for vid in g.ids))
        scanned += 1
        plain = plain_min_chi(g, box)
        if plain is None:
            with pytest.raises(PreconditionError):
                brute_min_chi(g, box)
            continue
        value, witness = brute_min_chi(g, box)
        assert (2 * value, witness) == (plain[0], RatCycle(zip(g.ids, plain[1])))
        assert chi(g, witness) == value


def test_brute_min_chi_matches_a_plain_walk_on_catalog_boxes():
    checked = []
    for g in small_catalog_graphs():
        box = Box.for_graph(g, 3)
        if math.prod(b + 1 for _, b in box.bounds) > 60_000:
            continue
        value, witness = brute_min_chi(g, box)
        least, point = plain_min_chi(g, box)
        assert (2 * value, witness) == (least, RatCycle(zip(g.ids, point)))
        checked.append(g)
    assert len(checked) >= 12


def test_brute_min_chi_does_not_depend_on_the_box_scale():
    # 251,742,400 grid points at scale 3 and about 7.1e17 at scale 50: the
    # walk visits the ellipsoid below its best value, not the box
    import time

    e8 = catalog("E8")
    for scale in (3, 50):
        box = Box.for_graph(e8, scale)
        start = time.perf_counter()
        assert brute_min_chi(e8, box) == (1, RatCycle.unit("v7"))
        assert time.perf_counter() - start < 5


def test_brute_min_chi_runs_without_linalg_or_the_sequence_kernel(monkeypatch):
    from singlat import graph as graph_module
    from singlat import laufer, linalg, oracle
    from singlat.graph import require_negative_definite

    def forbidden(*args):
        raise AssertionError("the chi walk called the code it audits")

    genus_one = graph([("e", -1, 1)])
    boxes = {g: Box.for_graph(g) for g in (catalog("paper-z7"), catalog("D4"),
                                           catalog("cusp-3x3"), genus_one)}
    for g in boxes:
        require_negative_definite(g)
    for module, name in ((linalg, "eliminate"), (laufer, "_climb"),
                         (graph_module, "adjugate"), (oracle, "adjugate")):
        monkeypatch.setattr(module, name, forbidden)
    assert brute_min_chi(genus_one, boxes[genus_one]) == (0, RatCycle.unit("e"))
    for g, box in boxes.items():
        assert brute_min_chi(g, box)[0] in (0, 1)


def test_brute_min_chi_checks_its_value_on_the_witness(monkeypatch):
    from singlat import oracle
    squares = oracle._chi_squares

    def shifted(rows, targets):
        forms, weights, constant, scale = squares(rows, targets)
        return forms, weights, constant - 1, scale

    monkeypatch.setattr(oracle, "_chi_squares", shifted)
    with pytest.raises(InternalError, match="the intersection rows give 4$"):
        brute_min_chi(catalog("A3"))


def test_brute_fundamental(z7):
    assert brute_fundamental_cycle(z7) == fundamental_cycle(z7).end


def test_verify_all_passes(z7):
    for g in (z7, graph([("v", -2)])):
        transcript = verify_all(g)
        assert transcript.passed, transcript.to_text()
        assert len(transcript.checks) >= 15


def test_verify_all_refuses_indefinite():
    g = graph([("v", 0)])
    with pytest.raises(PreconditionError):
        verify_all(g)


def test_verify_all_refuses_oversize():
    verts = [(f"v{i}", -2) for i in range(9)]
    edges = [(f"v{i}", f"v{i+1}") for i in range(8)]
    with pytest.raises(PreconditionError, match="at most"):
        verify_all(graph(verts, edges))


def test_verify_all_corpus_samples(rational_corpus, negdef_corpus):
    for g in rational_corpus[:5] + negdef_corpus[:5]:
        transcript = verify_all(g)
        assert transcript.passed, transcript.to_text()


def test_transcript_text_format(z7):
    text = verify_all(z7).to_text()
    assert "PASS" in text and "overall" in text


def test_minima_cover_all_classes(rational_corpus):
    for g in rational_corpus[:10]:
        cg = class_group(g)
        minima = brute_lipman_minima(g)
        assert set(minima) == set(cg.elements())


VERIFY_CHECKS = (
    "dual-basis-pairings", "canonical-cycle-adjunction", "chi-quadratic",
    "class-group-order", "class-generator-orders", "class-homomorphism",
    "reduced-representatives", "minimal-cycles-vs-enumeration", "class-cone-vertex",
    "closure-endpoints-vs-enumeration", "fundamental-cycle-vs-enumeration",
    "sequence-path-independence", "rationality-chi-criterion",
    "specialness-triple-agreement", "h1-chi-formula", "lipman-min-closure",
    "monoid-positivity", "blow-up-invariance", "extension-stability",
)


def test_verify_all_enumerates_once(z7, monkeypatch):
    import singlat.oracle as oracle
    calls = []
    original = oracle._antinef_numerators

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(oracle, "_antinef_numerators", counting)
    transcript = verify_all(z7)
    assert len(calls) == 1
    assert tuple(c.name for c in transcript.checks) == VERIFY_CHECKS
    assert transcript.passed, transcript.to_text()


def test_extension_stability_recomputes_cold(z7, monkeypatch):
    """The returned extension knows its Z_min from a warm start; the check
    still climbs once, in integers, from the extension's first unit vector,
    and builds no computation sequence."""
    from singlat import laufer
    sequence, run_sequence = laufer._sequence, laufer._run_sequence
    starts, built = [], []
    monkeypatch.setattr(laufer, "_sequence",
                        lambda g, vec, *rest: starts.append((g.ids, list(vec)))
                        or sequence(g, vec, *rest))
    monkeypatch.setattr(laufer, "_run_sequence",
                        lambda g, *rest: built.append(g.ids) or run_sequence(g, *rest))
    transcript = verify_all(z7)
    assert transcript.passed
    ext_ids = z7.ids + (z7.fresh_id("ext"),)
    assert [vec for ids, vec in starts if ids == ext_ids] == [[1] + [0] * len(z7.ids)]
    assert ext_ids not in built


def test_enumerations_never_run_the_sequence_kernel(z7, monkeypatch):
    from singlat import laufer

    def forbidden(*args):
        raise AssertionError("an oracle enumeration ran the sequence kernel")

    boxes = {g: Box.for_graph(g) for g in (z7, catalog("D4"), catalog("cusp-3x3"))}
    monkeypatch.setattr(laufer, "_climb", forbidden)
    for g, box in boxes.items():
        assert antinef_points(g, box)
        brute_min_chi(g, box)
        brute_lipman_minima(g, box)
        assert brute_fundamental_cycle(g, box) is not None


def test_box_bound_lookup(z7):
    box = Box.for_graph(z7, 2)
    assert [box.bound(vid) for vid in z7.ids] == [b for _, b in box.bounds]
    with pytest.raises(InternalError, match="no bound"):
        box.bound("nowhere")


def test_cycle_outside_the_box_is_a_precondition_not_a_failure(z7):
    for g in (catalog("A4"), z7):
        with pytest.raises(PreconditionError,
                           match=r"class \(2,\) lies outside the scale-1 box; scale 2 is"):
            verify_all(g, scale=1)
        assert verify_all(g, scale=2).passed


def test_cycle_inside_the_box_missed_by_the_enumeration_still_fails(z7, monkeypatch):
    from singlat import oracle
    cg = class_group(z7)
    missed = class_of(cg, dual_basis(z7)["E1"])
    enumerate_points = oracle._antinef_numerators
    monkeypatch.setattr(oracle, "_antinef_numerators", lambda g, box: [
        (cls, point) for cls, point in enumerate_points(g, box) if cls != missed.coords])
    transcript = verify_all(z7)
    failed = {c.name: c.detail for c in transcript.checks if not c.passed}
    assert failed["minimal-cycles-vs-enumeration"] == \
        f"box missed class {missed.coords} entirely"


def test_box_scale_below_one_is_refused_through_the_api():
    indefinite = graph([("a", -1), ("b", -1)], [("a", "b")])
    for scale in (0, -1):
        # before every other refusal: definiteness, and the size limit (A9)
        for g in (catalog("A1"), indefinite, catalog("A9")):
            with pytest.raises(InputError) as exc:
                verify_all(g, scale=scale)
            assert str(exc.value) == "box scale must be a positive integer"


def reference_antinef_points(g, box):
    """The enumeration as it was before the integer kernel: each point a
    `RatCycle` of `Fraction`s, each class by `ClassGroup.add`."""
    from singlat.graph import adjugate, lattice_determinant
    det = lattice_determinant(g)
    ids = g.ids
    n = len(ids)
    dual_num = adjugate(g)
    limits = [box.bound(vid) * det for vid in ids]
    cg = class_group(g)
    dual_classes = [class_of(cg, dual) for dual in dual_basis(g).values()]
    out = []
    partial = [[0] * n for _ in range(n + 1)]

    def rec(v, cls):
        if v == n:
            out.append((cls, RatCycle({ids[w]: Fraction(partial[n][w], det) for w in range(n)})))
            return
        base = partial[v]
        count = 0
        current = cls
        while True:
            row = [base[w] + count * dual_num[v][w] for w in range(n)]
            if any(row[w] > limits[w] for w in range(n)):
                break
            partial[v + 1] = row
            rec(v + 1, current)
            count += 1
            current = cg.add(current, dual_classes[v])

    rec(0, cg.zero())
    return out


def small_catalog_graphs():
    from singlat import dsl
    names = list(dsl.catalog_names())
    names += [f"A{n}" for n in range(1, 9)] + [f"D{n}" for n in range(4, 9)]
    return [g for g in map(catalog, names) if len(g.vertices) <= 8]


@pytest.mark.parametrize("scale", (1, 2, 3))
def test_integer_kernel_replays_the_reference_enumeration(scale, rational_corpus, negdef_corpus):
    import functools

    from singlat import ClassElement, cycle_min, oracle
    from singlat.graph import lattice_determinant, vector_cycle

    for g in rational_corpus + negdef_corpus + small_catalog_graphs():
        box = Box.for_graph(g, scale)
        want = reference_antinef_points(g, box)
        det = lattice_determinant(g)
        got = oracle._antinef_numerators(g, box)
        assert [(ClassElement(cls), vector_cycle(g, point, det)) for cls, point in got] == want
        assert antinef_points(g, box) == want
        groups = {}
        for cls, point in want:
            groups.setdefault(cls, []).append(point)
        minima = {cls: RatCycle({v: min(p.coefficient(v) for p in group) for v in g.ids})
                  for cls, group in groups.items()}
        assert brute_lipman_minima(g, box) == minima
        integral = [p for p in groups[class_group(g).zero()] if p and p.is_integral]
        least = functools.reduce(cycle_min, integral) if integral else None
        assert brute_fundamental_cycle(g, box) == least


def _shifted(original, shift):
    """A fast path whose cycles come back moved by `shift(cycle)`."""
    return lambda *args, **kwargs: shift(original(*args, **kwargs))


def _failed(g):
    return {c.name: c.detail for c in verify_all(g).checks if not c.passed}


@pytest.fixture()
def z7_class(z7):
    """A nonzero class of paper-z7 and its minimal cycle, the dual cycle of E4."""
    duals = dual_basis(z7)
    return class_of(class_group(z7), duals["E2"]), duals["E4"]


def test_minimal_cycle_moved_up_fails_the_minimal_and_cone_checks(z7, z7_class, monkeypatch):
    from singlat import oracle
    h, least = z7_class
    z_min = fundamental_cycle(z7).end
    wrong = least + z_min  # anti-nef, in the class and in the box, but not least
    monkeypatch.setattr(oracle, "minimal_antinef_rep", _shifted(
        oracle.minimal_antinef_rep, lambda rep: wrong if rep == least else rep))
    failed = _failed(z7)
    assert failed["minimal-cycles-vs-enumeration"] == \
        f"class {h.coords}: sequence gives {wrong}, enumeration gives {least}"
    below = next(p for cls, p in antinef_points(z7) if cls == h and not wrong <= p)
    assert failed["class-cone-vertex"] == \
        f"{below} in class {h.coords} is not above the minimal cycle"
    assert "closure-endpoints-vs-enumeration" not in failed


def test_minimal_cycle_off_the_cone_fails_the_cone_check(z7, z7_class, monkeypatch):
    from singlat import oracle
    h, least = z7_class
    wrong = least + RatCycle.unit("E1")  # in the class and the box, not anti-nef
    monkeypatch.setattr(oracle, "minimal_antinef_rep", _shifted(
        oracle.minimal_antinef_rep, lambda rep: wrong if rep == least else rep))
    failed = _failed(z7)
    assert failed["minimal-cycles-vs-enumeration"] == \
        f"class {h.coords}: sequence gives {wrong}, enumeration gives {least}"
    assert failed["class-cone-vertex"] == \
        f"{wrong} + 0 escaped the anti-nef part of class {h.coords}"


def test_minimal_cycle_off_the_dual_lattice_fails_the_cone_check(monkeypatch):
    # cusp-3x3 is not rational, so the h1 check skips the cycle
    from singlat import oracle
    cusp = catalog("cusp-3x3")
    wrong = RatCycle({"E1": Fraction(1, 3)})  # off the 1/16 grid of the dual lattice
    monkeypatch.setattr(oracle, "minimal_antinef_rep", _shifted(
        oracle.minimal_antinef_rep, lambda rep: rep or wrong))
    failed = _failed(cusp)
    zero = class_group(cusp).zero().coords
    assert failed["minimal-cycles-vs-enumeration"] == \
        f"class {zero}: sequence gives {wrong}, enumeration gives 0"
    assert failed["class-cone-vertex"] == f"{wrong} + 0 escaped the anti-nef part of class {zero}"


def test_minimal_cycle_off_the_dual_lattice_fails_the_h1_check(z7, z7_class, monkeypatch, capsys):
    # on a rational graph the h1 check sees the cycle too: it fails with a
    # witness instead of refusing the graph, and `verify` exits 3, not 2
    from singlat import oracle
    from singlat.cli import main
    h, least = z7_class
    wrong = least + RatCycle({"E1": Fraction(1, 2)})  # off the 1/det grid of the dual lattice
    monkeypatch.setattr(oracle, "minimal_antinef_rep", _shifted(
        oracle.minimal_antinef_rep, lambda rep: wrong if rep == least else rep))
    failed = _failed(z7)
    assert failed["h1-chi-formula"] == f"class {h.coords}: minimal cycle {wrong} is off the dual lattice"
    assert failed["minimal-cycles-vs-enumeration"] == \
        f"class {h.coords}: sequence gives {wrong}, enumeration gives {least}"
    assert failed["class-cone-vertex"] == f"{wrong} + 0 escaped the anti-nef part of class {h.coords}"
    assert main(["verify", "--catalog", "paper-z7"]) == 3
    assert "FAIL  h1-chi-formula: " in capsys.readouterr().out


_RAISE_NONZERO_MINIMAL_CYCLES = """
from singlat import RatCycle, catalog, oracle, verify_all
minimal = oracle.minimal_antinef_rep
oracle.minimal_antinef_rep = lambda g, cg, h, **kwargs: (
    minimal(g, cg, h, **kwargs) + (RatCycle() if h.is_zero else RatCycle.unit("E1")))
print(verify_all(catalog("paper-z7")).to_text())
"""


def test_injected_fault_fails_under_python_optimize():
    # the checks must not be `assert`s, which `python -O` strips
    import os
    import subprocess
    import sys

    import singlat
    src = os.path.dirname(os.path.dirname(singlat.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    transcripts = [subprocess.run([sys.executable, *flags, "-c", _RAISE_NONZERO_MINIMAL_CYCLES],
                                  check=True, capture_output=True, text=True, env=env).stdout
                   for flags in ((), ("-O",))]
    assert transcripts[0] == transcripts[1]
    failed = [line.split(":")[0] for line in transcripts[1].splitlines() if line.startswith("FAIL")]
    assert failed == ["FAIL  minimal-cycles-vs-enumeration", "FAIL  class-cone-vertex",
                      "FAIL  overall"]


def test_closure_endpoint_moved_fails_the_closure_check(z7, monkeypatch):
    from singlat import ComputationSequence, oracle
    z_min = fundamental_cycle(z7).end
    closure = oracle.antinef_closure
    for shift, message in (
            (z_min, "closure from E1 gave {moved}, enumeration minimum is {end}"),
            (RatCycle.unit("E1"), "closure endpoint of E1 escaped the box"),
            (RatCycle({"E1": Fraction(1, 2)}), "closure endpoint of E1 escaped the box")):
        monkeypatch.setattr(oracle, "antinef_closure", _shifted(
            closure, lambda seq: ComputationSequence(seq.start, seq.steps, seq.end + shift)))
        failed = _failed(z7)
        moved = z_min + shift  # the closure from E1 ends at Z_min
        assert failed["closure-endpoints-vs-enumeration"] == message.format(moved=moved, end=z_min)
        assert "minimal-cycles-vs-enumeration" not in failed


def test_blow_up_image_moved_fails_the_blow_up_check(z7, monkeypatch):
    from singlat import oracle
    transform = oracle.total_transform
    monkeypatch.setattr(oracle, "total_transform", lambda bmap, cycle: (
        transform(bmap, cycle) + RatCycle.unit(bmap.new_id)))
    assert _failed(z7) == {"blow-up-invariance": "pairing not preserved at locus 'E1'"}


def test_tie_break_climb_moved_fails_path_independence(z7, monkeypatch):
    # a policy climb of a nonzero class ends one unit of the first vertex
    # higher; the zero class is left alone, as its own guard would trip first
    from singlat import laufer
    from singlat.graph import lattice_determinant
    sequence = laufer._sequence

    def moved(g, vec, scale, tie_break, cap=None):
        steps, end, level = sequence(g, vec, scale, tie_break, cap)
        if tie_break is not None and scale == lattice_determinant(g) and any(vec):
            end = [end[0] + scale, *end[1:]]
        return steps, end, level

    monkeypatch.setattr(laufer, "_sequence", moved)
    first = next(h for h in class_group(z7).elements() if not h.is_zero)
    assert _failed(z7) == {"sequence-path-independence": f"minimal cycle of {first.coords} changed"}


def test_fundamental_tie_break_climb_moved_fails_path_independence(z7, monkeypatch):
    # a scale-1 policy climb is a climb from a vertex to Z_min: it ends one
    # unit of the first vertex higher, and only path independence sees it
    from singlat import laufer
    sequence = laufer._sequence

    def moved(g, vec, scale, tie_break, cap=None):
        steps, end, level = sequence(g, vec, scale, tie_break, cap)
        if tie_break is not None and scale == 1:
            end = [end[0] + 1, *end[1:]]
        return steps, end, level

    monkeypatch.setattr(laufer, "_sequence", moved)
    assert _failed(z7) == {"sequence-path-independence":
                           f"fundamental cycle changed from start {z7.ids[0]}"}


def test_h1_moved_fails_the_h1_check(z7, monkeypatch):
    from singlat import chi, oracle
    h1 = oracle.h1_rational
    monkeypatch.setattr(oracle, "h1_rational", lambda g, chern, *rest: h1(g, chern, *rest) + 1)
    cg = class_group(z7)
    h = next(iter(cg.elements()))
    rep = minimal_antinef_rep(z7, cg, h)
    expected = chi(z7, -rep) - chi(z7, minimal_antinef_rep(z7, cg, cg.neg(h)))
    assert _failed(z7) == {
        "h1-chi-formula": f"class {h.coords}: h1 sequence value {expected + 1}, "
                          f"chi difference {expected}"}


def test_pairing_adapter_runs_only_in_its_audits(z7, monkeypatch):
    # n^2 pairings in dual-basis-pairings and one per sample in chi-quadratic;
    # the blow-up check compares integer Gram matrices instead
    from singlat import oracle
    pairing = oracle.pairing
    calls = []
    monkeypatch.setattr(oracle, "pairing", lambda *args: calls.append(args) or pairing(*args))
    assert verify_all(z7).passed
    assert len(calls) == len(z7.ids) ** 2 + 10


def test_path_independence_derives_each_reduced_start_once(monkeypatch):
    # with the default-policy table full, only the tie-break climbs of
    # sequence-path-independence need a class's reduced numerators, and
    # they share one derivation per class across the five trials
    from singlat import laufer, lattice, oracle
    g = catalog("paper-z7")
    cg = class_group(g)
    for h in cg.elements():
        laufer.minimal_numerators(g, cg, h)
    reduced = lattice.reduced_numerators
    calls = []

    def counting(cg, h):
        calls.append(h.coords)
        return reduced(cg, h)

    monkeypatch.setattr(laufer, "reduced_numerators", counting)
    monkeypatch.setattr(oracle, "reduced_numerators", counting, raising=False)
    assert verify_all(g).passed
    assert sorted(calls) == sorted(h.coords for h in cg.elements())
