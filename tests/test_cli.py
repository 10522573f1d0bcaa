import hashlib
import json
import time

import pytest

from singlat import blow_up, class_group, dsl, graph, laufer
from singlat.cli import main
from singlat.dsl import catalog_source
from singlat.schema import validate

from conftest import count_eliminations
from test_laufer import large_elliptic_tree


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    doc = json.loads(out) if out else None
    if doc is not None:
        validate(doc)
    return code, doc, err


def test_check_a1(capsys):
    code, out, _ = run(capsys, "check", "--catalog", "A1")
    assert code == 0
    assert "rational" in out


def test_check_not_negdef(capsys, tmp_path):
    path = tmp_path / "bad.graph"
    path.write_text("vertex v euler=0\n")
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0
    assert "negative definite: no" in out


def test_invariants_z7_json(capsys):
    code, doc, _ = run_json(capsys, "invariants", "--catalog", "paper-z7")
    assert code == 0
    assert doc["class_group"]["order"] == "7"
    cycle = doc["fundamental_cycle"]
    ids = [v["id"] for v in doc["graph"]["vertices"]]
    arms = [cycle[ids.index(v)]["num"] for v in ("E1", "E2", "E3", "E4")]
    assert arms == ["1", "2", "2", "1"]


def test_sh_table(capsys):
    code, doc, _ = run_json(capsys, "sh", "--catalog", "A1")
    assert code == 0
    assert len(doc["rows"]) == 2


def test_classify_rational(capsys):
    code, doc, _ = run_json(capsys, "classify", "--catalog", "paper-z7")
    assert code == 0
    assert doc["singularity"]["kind"] == "rational"
    assert len(doc["families"]) == 7
    assert all(f["flat_count"] == "all" for f in doc["families"])


def test_classify_min_elliptic(capsys):
    code, doc, _ = run_json(capsys, "classify", "--catalog", "gamma-2-3-7")
    assert code == 0
    assert doc["singularity"]["kind"] == "minimally-elliptic"
    assert len(doc["families"]) == 2


def test_classify_refuses_other(capsys, tmp_path):
    path = tmp_path / "other.graph"
    path.write_text("vertex v euler=-1 genus=2\n")
    code, out, err = run(capsys, "classify", str(path))
    assert code == 2
    assert out == ""
    assert "neither rational nor minimally elliptic" in err


def test_special_table(capsys):
    code, doc, _ = run_json(capsys, "special", "--catalog", "paper-z7")
    assert code == 0
    specials = [r for r in doc["rows"] if r["special"]]
    assert {r["vertex"] for r in specials} == {"E1", "E4"}


@pytest.mark.parametrize("name, specials", [(f"A{n}", n) for n in range(50, 81, 10)]
                         + [(f"D{n}", 3) for n in range(52, 81, 4)])
def test_classify_and_special_on_long_a_and_d(capsys, name, specials):
    """Middle vertices of A_n and the short arms of D_n need an extension
    Euler number far below the first negative-definite one."""
    code, out, err = run(capsys, "classify", "--catalog", name, "--format", "json")
    assert code == 0, err
    nonzero = [fam for fam in json.loads(out)["families"] if set(fam["class"]) != {"0"}]
    assert sum(fam["special"] for fam in nonzero) == specials
    code, out, err = run(capsys, "special", "--catalog", name, "--format", "json")
    assert code == 0, err
    doc = json.loads(out)
    assert sum(row["special"] for row in doc["classes"]) == specials
    assert sum(row["special"] for row in doc["rows"]) == specials


def test_sh_past_the_old_step_cap(capsys):
    """D148's class climbs outgrow a cap linear in the cycles' size; the
    proven cap from the adjugate lets them finish."""
    code, doc, err = run_json(capsys, "sh", "--catalog", "D148")
    assert code == 0, err
    assert len(doc["rows"]) == 4


def test_special_refuses_cusp(capsys):
    code, _out, err = run(capsys, "special", "--catalog", "cusp-3x3")
    assert code == 2
    assert "rational" in err


def test_extend(capsys):
    code, doc, _ = run_json(capsys, "extend", "--catalog", "paper-z7",
                            "--vertex", "E3")
    assert code == 0
    assert doc["extension_rational"] is False
    code, doc, _ = run_json(capsys, "extend", "--catalog", "paper-z7",
                            "--vertex", "E1")
    assert doc["extension_rational"] is True


def fibonacci_chain(n):
    """A1 blown up at v1, then at the edge between the two newest curves
    until n vertices: a chain of (-3)-curves whose Z' grows as Fibonacci
    numbers, so the Euler number `extend` finds at its end is about -F_2n."""
    g = blow_up(dsl.catalog("A1"), "v1")[0]
    while len(g.ids) < n:
        g = blow_up(g, g.ids[-2:])[0]  # each new curve comes last
    return g


def test_extend_reads_the_seeded_z_min_on_a_fibonacci_chain(capsys, tmp_path, monkeypatch):
    """`extend_graph` seeds the extension's Z_min from Z'. Climbed cold,
    Z_min of this extension would need more steps than the bootstrap cap."""
    g = fibonacci_chain(24)
    assert g.ids[-1] == "new23"
    path = tmp_path / "fib24.graph"
    path.write_text(dsl.serialize(dsl.GraphDocument(None, g.vertices, g.edges)))
    code, doc, err = run_json(capsys, "extend", str(path), "--vertex", "new23")
    assert code == 0, err
    assert doc["new_vertex_multiplicity"] == "1" and doc["extension_rational"] is False
    ext = graph.extend_graph(g, "new23")

    def forbidden(*_args, **_kwargs):
        raise AssertionError("a climb on the seeded extension")

    monkeypatch.setattr(laufer, "_climb", forbidden)
    z_min = laufer.z_min_numerators(ext)
    assert z_min[-1] == 1 and sum(z_min) > laufer._BOOTSTRAP_CAP
    assert laufer.laufer_rational(ext) is False


def test_verify_walks_the_chi_box_of_an_eight_vertex_fibonacci_chain(capsys, tmp_path):
    # Z_min grows as Fibonacci numbers, so even the scale-1 coefficient grid
    # holds 798,336 points; the chi walk's cost does not depend on the grid
    g = fibonacci_chain(8)
    path = tmp_path / "fib8.graph"
    path.write_text(dsl.serialize(dsl.GraphDocument(None, g.vertices, g.edges)))
    code, out, err = run(capsys, "verify", str(path))
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == 20 and all(line.startswith("PASS  ") for line in lines)
    assert "PASS  rationality-chi-criterion: bounded min chi = 1 at new7 (box scale 3)" in lines


@pytest.mark.parametrize("name, scale, witness", (
    ("E7", 3, "v6"), ("E8", 3, "v7"), ("D8", 3, "v8"), ("E8", 2, "v7"), ("paper-z7", 5, "f")))
def test_verify_chi_criterion_reports_the_requested_scale(capsys, name, scale, witness):
    code, doc, err = run_json(capsys, "verify", "--catalog", name, "--box", str(scale))
    assert (code, err) == (0, "")
    detail = next(c["detail"] for c in doc["checks"] if c["name"] == "rationality-chi-criterion")
    assert detail == f"bounded min chi = 1 at {witness} (box scale {scale})"


def test_blowup_vertex(capsys):
    code, doc, _ = run_json(capsys, "blowup", "--catalog", "paper-z7",
                            "--vertex", "E4")
    assert code == 0
    assert doc["new_vertex"] == "new"
    assert all(row["transform_is_min"] for row in doc["transform_table"])


def test_blowup_needs_exactly_one_locus(capsys):
    code, _out, err = run(capsys, "blowup", "--catalog", "paper-z7")
    assert code == 1
    assert "exactly one" in err


def test_catalog_list_and_source(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    assert "paper-z7" in out
    code, out, _ = run(capsys, "catalog", "cusp-3x3")
    assert out == catalog_source("cusp-3x3")


def test_catalog_unknown(capsys):
    code, _out, err = run(capsys, "catalog", "nope")
    assert code == 1
    assert "known names" in err


@pytest.mark.parametrize("name", ["D٥", "A٣", "A03", "D05", "A0", "D0", "A", "A-1",
                                  "A３", "D3"])
def test_catalog_family_names_are_ascii_without_leading_zeros(capsys, name):
    for argv in (("catalog", name), ("invariants", "--catalog", name)):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert f"unknown catalog graph {name!r}" in err and "known names" in err


def test_verify_subcommand(capsys):
    code, out, _ = run(capsys, "verify", "--catalog", "A2")
    assert code == 0
    assert "overall" in out


def test_verify_flag_on_invariants(capsys):
    code, _out, _err = run(capsys, "invariants", "--catalog", "A1", "--verify")
    assert code == 0


def test_stdin_input(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO("vertex v euler=-2\n"))
    code, out, _ = run(capsys, "check", "-")
    assert code == 0
    assert "rational" in out


def test_file_input(capsys, tmp_path):
    path = tmp_path / "g.graph"
    path.write_text(catalog_source("cusp-3x3"))
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0
    assert "cusp" in out


def test_missing_file(capsys):
    code, _out, err = run(capsys, "check", "/does/not/exist.graph")
    assert code == 1
    assert "cannot read" in err


def test_undecodable_file_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "bad.graph"
    path.write_bytes(b"vertex v1 euler=-2\xff")
    code, out, err = run(capsys, "check", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: cannot read ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_parse_error_exit(capsys, tmp_path):
    path = tmp_path / "bad.graph"
    path.write_text("vertex v euler=-2\nedge v v\n")
    code, _out, err = run(capsys, "check", str(path))
    assert code == 1
    assert "line 2" in err


def test_requires_one_source(capsys):
    code, _out, err = run(capsys, "check")
    assert code == 1
    assert "exactly one input source" in err
    code, _out, err = run(capsys, "check", "-", "--catalog", "A1")
    assert code == 1


@pytest.mark.parametrize("value", ["x", "0"])
def test_box_environment_variable_is_ignored(capsys, monkeypatch, value):
    # `--box` is the one box setting: SINGLAT_BOX neither moves nor refuses it
    monkeypatch.setenv("SINGLAT_BOX", value)
    code, out, err = run(capsys, "verify", "--catalog", "A1")
    assert (code, err) == (0, "")
    assert "(box scale 3)" in out


def test_catalog_takes_no_box(capsys):
    # `catalog` loads no graph and verifies none, so `--box` is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["catalog", "--box", "3"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --box" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["catalog", "--help"])
    assert exc.value.code == 0
    assert "--box" not in capsys.readouterr().out


def test_box_below_one_is_input_error(capsys):
    for argv in (("verify", "--catalog", "A1", "--box", "0"),
                 ("check", "--catalog", "A1", "--verify", "--box", "-1"),
                 ("sh", "--catalog", "A4", "--box", "-2")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == "error: box scale must be a positive integer\n"


def test_usage_error_is_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 1


def test_classify_refuses_partial_support(capsys, tmp_path):
    # blow up the cusp at a generic point: still minimally elliptic, but the
    # elliptic cycle no longer covers the new vertex
    path = tmp_path / "blown.graph"
    path.write_text(
        "vertex E1 euler=-4\nvertex E2 euler=-3\nvertex E3 euler=-3\n"
        "edge E1 E2\nedge E2 E3\nedge E3 E1\nvertex n euler=-1\nedge E1 n\n")
    code, out, err = run(capsys, "classify", str(path))
    assert code == 2
    assert "support" in err


def test_byte_identical_outputs(capsys):
    _, out1, _ = run(capsys, "classify", "--catalog", "paper-z7", "--format", "json")
    _, out2, _ = run(capsys, "classify", "--catalog", "paper-z7", "--format", "json")
    assert out1 == out2


@pytest.mark.parametrize("name", ["paper-z7", "A9", "D9", "E8", "A40"])
def test_special_pairs_each_cycle_once(name, capsys, monkeypatch):
    """`special` on a fresh graph runs one pairing pass per cycle: the Z_min
    climb, each nonzero class's climb, each extension's Z', each class-group
    generator's check, and Z_min's pairings for the specialness test. Climbs
    hand back their final pairings and dual cycles' classes come off U."""
    from singlat import classify, laufer
    g = dsl.catalog(name)
    cg = class_group(g)
    calls = []
    pairings = graph.sparse_pairings
    for module in (graph, laufer, classify):
        monkeypatch.setattr(module, "sparse_pairings",
                            lambda *args: calls.append(args) or pairings(*args))
    code, _out, err = run(capsys, "special", "--catalog", name)
    assert code == 0, err
    assert len(calls) <= (cg.order - 1) + len(g.ids) + len(cg.factors) + 2, len(calls)


def test_class_enumeration_budget(capsys, tmp_path):
    # det 61305790721611591: the invariants are cheap, the classes are not
    path = tmp_path / "chain40.graph"
    path.write_text("".join(f"vertex v{i} euler=-3\n" for i in range(40))
                    + "".join(f"edge v{i} v{i + 1}\n" for i in range(39)))
    start = time.perf_counter()
    code, out, err = run(capsys, "sh", str(path))
    assert time.perf_counter() - start < 10
    assert code == 2
    assert out == ""
    assert "classes" in err
    code, out, _ = run(capsys, "invariants", str(path))
    assert code == 0
    assert "order 61305790721611591" in out


def test_elliptic_grid_budget(capsys, tmp_path):
    # an elliptic tree blown up at the edge v0-v1: a 331,776-point grid below
    # Z_min, which the elliptic cycle's computation never walks
    eulers = (-5, -3, -2, -2, -3, -2, -7, -7, -2)
    edges = ((0, 2), (1, 3), (3, 4), (1, 5), (5, 6), (4, 7), (3, 8))
    path = tmp_path / "blown-up.graph"
    path.write_text("".join(f"vertex v{i} euler={e}\n" for i, e in enumerate(eulers))
                    + "vertex new euler=-1\nedge v0 new\nedge v1 new\n"
                    + "".join(f"edge v{a} v{b}\n" for a, b in edges))
    start = time.perf_counter()
    code, out, err = run(capsys, "check", str(path))
    assert time.perf_counter() - start < 1
    assert (code, err) == (0, "")
    assert "type: elliptic" in out
    assert "note:" not in out
    code, doc, _ = run_json(capsys, "check", str(path))
    assert code == 0
    singularity = doc["singularity"]
    assert singularity["kind"] == "elliptic" and singularity["warnings"] == []
    assert singularity["elliptic_cycle_support_is_all"] is False


def test_verify_box_that_misses_a_cycle_is_a_precondition(capsys):
    # at scale 1 the box misses the minimal cycle of class (2,): a limit of
    # the box, named with the scale that covers it, not a failed check
    for name in ("A4", "paper-z7"):
        code, out, err = run(capsys, "verify", "--catalog", name, "--box", "1")
        assert (code, out) == (2, "")
        assert err.startswith("precondition not met: the cycle ")
        assert "of class (2,) lies outside the scale-1 box; scale 2 is the smallest" in err
        code, out, _ = run(capsys, "verify", "--catalog", name, "--box", "2")
        assert code == 0 and out.endswith("PASS  overall\n")


def test_parser_is_built_once_and_keeps_no_state(capsys, monkeypatch):
    """Consecutive in-process calls share one parser; no option of one call
    (format, box, verify) carries over into the next."""
    from singlat import cli, oracle
    verified = []
    verify_all = oracle.verify_all
    monkeypatch.setattr(oracle, "verify_all",
                        lambda g, scale: verified.append(scale) or verify_all(g, scale=scale))
    calls = [
        ("verify", "--catalog", "A4", "--box", "1"),
        ("verify", "--catalog", "A4"),
        ("check", "--catalog", "paper-z7", "--format", "json", "--verify", "--box", "2"),
        ("check", "--catalog", "paper-z7"),
        ("sh", "--catalog", "A4", "--format", "json"),
        ("sh", "--catalog", "A4"),
        ("invariants", "--catalog", "D4", "--verify"),
        ("invariants", "--catalog", "D4"),
    ]
    shared, parsers = [], set()
    for argv in calls:
        shared.append(run(capsys, *argv))
        parsers.add(id(cli._PARSER))
    assert len(parsers) == 1 and cli._PARSER is not None
    shared_verified = list(verified)
    verified.clear()
    fresh = []
    for argv in calls:
        monkeypatch.setattr(cli, "_PARSER", None)
        fresh.append(run(capsys, *argv))
    assert shared == fresh
    assert shared_verified == verified == [1, 3, 2, 3]
    assert [code for code, _, _ in shared] == [2, 0, 0, 0, 0, 0, 0, 0]
    assert shared[2][1].startswith("{") and not shared[3][1].startswith("{")


NOT_NEGATIVE_DEFINITE = "vertex a euler=-1\nvertex b euler=-1\nedge a b\n"


def test_verify_audits_the_graph_the_command_names(capsys, tmp_path, monkeypatch):
    """`--verify` audits the extension for `extend`, the blown-up graph for
    `blowup` and the input otherwise, once; `check` skips a form that is not
    negative definite, and `verify` runs the oracle only once."""
    from singlat import oracle
    audited = []
    verify_all = oracle.verify_all
    monkeypatch.setattr(oracle, "verify_all",
                        lambda g, scale: audited.append(g) or verify_all(g, scale=scale))
    path = tmp_path / "not-negdef.graph"
    path.write_text(NOT_NEGATIVE_DEFINITE)
    a4 = dsl.catalog("A4")
    extension, blown_up = graph.extend_graph(a4, "v1"), blow_up(a4, "v1")[0]
    assert len(extension.ids) == len(blown_up.ids) == 5
    cases = ((("extend", "--catalog", "A4", "--vertex", "v1"), [extension]),
             (("blowup", "--catalog", "A4", "--vertex", "v1"), [blown_up]),
             (("sh", "--catalog", "A4"), [a4]),
             (("check", str(path)), []),
             (("verify", "--catalog", "A2"), [dsl.catalog("A2")]))
    for argv, expected in cases:
        audited.clear()
        code, _out, err = run(capsys, *argv, "--verify")
        assert (code, err, audited) == (0, "", expected), argv


def test_failed_cross_check_exits_three(capsys, monkeypatch):
    """`verify` writes a failing transcript and exits 3; `--verify` on any
    other command writes it to stderr instead of the command's output."""
    from singlat import oracle
    failed = oracle.VerificationTranscript((oracle.CheckResult("planted", False, "witness"),))
    monkeypatch.setattr(oracle, "verify_all", lambda g, scale: failed)
    for fmt in ("text", "json"):
        code, out, err = run(capsys, "verify", "--catalog", "A2", "--verify", "--format", fmt)
        assert (code, err) == (3, "") and "witness" in out
    code, out, err = run(capsys, "invariants", "--catalog", "A2", "--verify")
    assert (code, out) == (3, "")
    assert err == ("FAIL  planted: witness\nFAIL  overall\n"
                   "internal consistency failure: oracle cross-checks failed\n")


@pytest.mark.parametrize("locus", [("--vertex", "a"), ("--edge", "a", "b")],
                         ids=("vertex", "edge"))
def test_blowup_refuses_a_form_that_is_not_negative_definite(capsys, monkeypatch, locus):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(NOT_NEGATIVE_DEFINITE))
    assert run(capsys, "blowup", "-", *locus) == (
        2, "", "precondition not met: intersection form is not negative definite\n")


def test_one_elimination_per_input_graph(capsys, tmp_path, monkeypatch):
    rational = [dsl.catalog(name) for name in ("A4", "D5", "E6", "E8", "paper-z7")]
    elliptic = [dsl.catalog(name) for name in ("cusp-3x3", "gamma-2-3-7", "simply-elliptic-d3")]
    elliptic += [large_elliptic_tree(), blow_up(large_elliptic_tree(), ("v0", "v1"))[0],
                 blow_up(dsl.catalog("cusp-3x3"), ("E1", "E2"))[0]]
    cases = [(cmd, g) for cmd in ("invariants", "sh", "classify", "special") for g in rational]
    cases += [("check", g) for g in elliptic]
    runs = []
    count_eliminations(monkeypatch, runs)
    for k, (cmd, g) in enumerate(cases):
        path = tmp_path / f"g{k}.graph"
        path.write_text(dsl.serialize(dsl.GraphDocument(None, g.vertices, g.edges)))
        m = graph.intersection_matrix(g)
        forms = ([list(row) for row in m.rows], [list(row) for row in m.negated()])
        for fmt in ("text", "json"):
            runs.clear()
            code, _, err = run(capsys, cmd, str(path), "--format", fmt)
            assert code == 0, err
            assert sum(map(runs.count, forms)) == 1, (cmd, g, fmt, runs)


Z7_CHECKS = (
    ("dual-basis-pairings", "6^2 pairings exact"),
    ("canonical-cycle-adjunction", "adjunction residuals all zero"),
    ("chi-quadratic", "quadratic identity holds on sampled pairs"),
    ("class-group-order", "order 7, factors [7]"),
    ("class-generator-orders", "1 generator orders match"),
    ("class-homomorphism", "class map additive on sampled pairs"),
    ("reduced-representatives", "7 classes reduced"),
    ("minimal-cycles-vs-enumeration", "agreement on all 7 classes"),
    ("class-cone-vertex", "minimal cycle + monoid stays in each class; minimality confirmed"),
    ("closure-endpoints-vs-enumeration", "4 starts confirmed against the enumeration"),
    ("fundamental-cycle-vs-enumeration",
     "fundamental cycle confirmed: E1 + 2*E2 + 2*E3 + E4 + 3*c + 2*f"),
    ("sequence-path-independence", "endpoints stable under randomized tie-breaking"),
    ("rationality-chi-criterion", "bounded min chi = 1 at f (box scale {scale})"),
    ("specialness-triple-agreement", "triple agreement on 6 classes; special: [(3,), (6,)]"),
    ("h1-chi-formula", "sequence h1 equals the chi difference on every class"),
    ("lipman-min-closure", "sampled minima stay anti-nef within each class"),
    ("monoid-positivity", "{integral} integral points checked"),
    ("blow-up-invariance", "2 loci: determinant and pairings preserved"),
    ("extension-stability", "stable extension at 'E1' with Euler number -2"),
)


@pytest.mark.parametrize("scale, integral", ((2, 7), (3, 21)))
def test_verify_paper_z7_transcript_is_pinned(capsys, scale, integral):
    checks = [(name, detail.format(scale=scale, integral=integral)) for name, detail in Z7_CHECKS]
    code, out, err = run(capsys, "verify", "--catalog", "paper-z7", "--box", str(scale))
    assert (code, err) == (0, "")
    assert out == "".join(f"PASS  {name}: {detail}\n" for name, detail in checks) + "PASS  overall\n"
    code, out, err = run(capsys, "verify", "--catalog", "paper-z7", "--box", str(scale),
                         "--format", "json")
    assert (code, err) == (0, "")
    assert out == json.dumps({
        "schema": "singlat/1", "type": "verification",
        "checks": [{"name": name, "passed": True, "detail": detail} for name, detail in checks],
        "passed": True}, indent=2) + "\n"


def test_sh_derives_each_reduced_representative_once(capsys, monkeypatch):
    from singlat import cli, laufer, lattice
    calls = []
    reduced = lattice.reduced_numerators

    def counting(cg, h):
        calls.append(h)
        return reduced(cg, h)

    monkeypatch.setattr(cli, "reduced_numerators", counting)
    monkeypatch.setattr(laufer, "reduced_numerators", counting)
    for name, order in (("A4", 5), ("paper-z7", 7), ("D6", 4)):
        calls.clear()
        code, doc, _ = run_json(capsys, "sh", "--catalog", name)
        assert code == 0 and len(doc["rows"]) == order
        assert len(calls) == len(set(calls)) == order


@pytest.fixture
def cycle_inits(monkeypatch):
    """A list that gains one entry per `RatCycle` built while the test runs."""
    from singlat import RatCycle
    calls = []
    init = RatCycle.__init__

    def counting(self, *args, **kwargs):
        calls.append(None)
        init(self, *args, **kwargs)

    monkeypatch.setattr(RatCycle, "__init__", counting)
    return calls


@pytest.mark.parametrize("command", [("sh",), ("blowup", "--vertex", "v1"),
                                     ("extend", "--vertex", "v1"), ("invariants",),
                                     ("classify",), ("special",), ("check",)],
                         ids=lambda command: command[0])
def test_sh_builds_no_cycle_per_class(capsys, cycle_inits, command):
    # rows and cycles stay numerators: neither A4 nor A9, with twice its
    # classes and more than twice its vertices, builds a `RatCycle`
    for name, order in (("A4", 5), ("A9", 10)):
        cycle_inits.clear()
        code, doc, _ = run_json(capsys, *command, "--catalog", name)
        if "classes" in doc:  # `special`: rows per vertex, one entry per nonzero class
            table, order = doc["classes"], order - 1
        else:
            table = doc.get("rows", doc.get("transform_table", doc.get("families")))
        assert code == 0 and (table is None or len(table) == order)
        assert cycle_inits == []


@pytest.mark.parametrize("name", ["gamma-2-3-7", "cusp-3x3", "simply-elliptic-d3"])
def test_classify_builds_only_the_elliptic_cycle(capsys, cycle_inits, name):
    # the minimally elliptic verdict reads the elliptic cycle in integers, so
    # no command but `verify` builds a `RatCycle`, that cycle included
    code, doc, _ = run_json(capsys, "classify", "--catalog", name)
    assert code == 0 and doc["singularity"]["minimally_elliptic"]
    first = dsl.catalog(name).ids[0]
    for command in (("check",), ("invariants",), ("sh",), ("special",),
                    ("extend", "--vertex", first), ("blowup", "--vertex", first)):
        code, _doc, _ = run_json(capsys, *command, "--catalog", name)
        assert code == (2 if command == ("special",) else 0)  # special: rational only
    assert cycle_inits == []


GOLDEN_GRAPHS = ("A1", "A4", "D6", "E6", "E8", "paper-z7", "gamma-2-3-7", "cusp-3x3",
                 "simply-elliptic-d3", "A30", "D25")


def golden_runs():
    """Every command on every golden graph in both formats, keyed by its
    `graph command... format` words; `verify` only up to 8 vertices."""
    for name in GOLDEN_GRAPHS:
        g = dsl.catalog(name)
        first, last = g.ids[0], g.ids[-1]
        runs = [("check",), ("invariants",), ("sh",), ("classify",), ("special",),
                *(("extend", "--vertex", vid) for vid in dict.fromkeys((first, last))),
                ("blowup", "--vertex", first)]
        if g.edges:
            runs.append(("blowup", "--edge", *g.edges[0]))
        if len(g.ids) <= 8:
            runs.append(("verify",))
        for fmt in ("text", "json"):
            for argv in runs:
                yield (" ".join((name, *argv, fmt)),
                       [argv[0], "--catalog", name, *argv[1:], "--format", fmt])


def test_golden_outputs(capsys):
    # SHA-256 of repr((exit code, stdout, stderr)) per run, refusals included,
    # recorded while cycles were still printed through `RatCycle`s
    seen = {}
    for key, argv in golden_runs():
        seen[key] = hashlib.sha256(repr(run(capsys, *argv)).encode()).hexdigest()
    assert seen == GOLDEN


GOLDEN = {
    "A1 check text": "f75d1c1fb9feb7fc3d2e03e0147b07400e6cfd22dc5d0b56d11d08f5a64b3f75",
    "A1 invariants text": "1cc11fad189560db4e3d4d10a8d97dd97380d0cc741e7f3aa8b6a01b2242f7fa",
    "A1 sh text": "cd6c00d42724552213aebf2d112eb8e1b94c42907d4bcfd81747011873bad62d",
    "A1 classify text": "075ad28a6ebe4cce1291d5ac391e837fd3f147bea0de1d6412c8da988a0076c3",
    "A1 special text": "e315622af498b211aa404585df60183fbde47abdc3f76aacfd657117f14717f2",
    "A1 extend --vertex v1 text": "53acf3aed5d580e01a9f098501e01fc222c839985c5c1abef9bfc1dafb9d3aa5",
    "A1 blowup --vertex v1 text": "9705657d1c1a9d6072fc8bf79e964d1e78d8c57c881b1cbcb4a87fdfd1304a6b",
    "A1 verify text": "d9493d3e7d271e6d89ca020137249645b7a7d8e38b8d356c9c0c40ce8210dadc",
    "A1 check json": "bfd9bf991efa8621351d46e1c0226d4d2113bd830ac8651aa4900b21e6dbf527",
    "A1 invariants json": "8e13c14125c90f71802ba23b6523b2634d3183864918b87149a99ff0153b939d",
    "A1 sh json": "44aa1db53a30a978a8958456066e369dfc4c58d5059e6870a91d4d8636c40a2a",
    "A1 classify json": "5a95109fdbef42c9f31b799a4771c0fecbffb762a8b6bd05f4961bfe6cdce7d8",
    "A1 special json": "82a7207ecac3ffdae0109a3492f5f1ab609e4db59de1085e7e00bc54a18dc995",
    "A1 extend --vertex v1 json": "2df70725660114e8ada10506b5cc1411eaccdd332a84fb35498481bc9174b26f",
    "A1 blowup --vertex v1 json": "a8c7a0a360e95e1b9e47acb9bf6923b285285af903c984c249241c5ef51ec941",
    "A1 verify json": "d821bbf018a1f89ed4e7084fcade4072d45b0befd10e2d22ee26e135b81e9af3",
    "A4 check text": "f75d1c1fb9feb7fc3d2e03e0147b07400e6cfd22dc5d0b56d11d08f5a64b3f75",
    "A4 invariants text": "6dd512634e9aef797cdc127c6adafa1f98a6ef415bf1bdfe86ad42381086e33f",
    "A4 sh text": "c69174e9cc5363b070b285c2e5729f9eb3707abe5405e1e358c8b1b1e84b80c0",
    "A4 classify text": "600a755ec598ee0f44865a7ca1ddb1b82a4d23f24a6d56083c440aa66eceead5",
    "A4 special text": "1992fc7965e59126b8c80aa37c84026dfba62a64901357e8b34c41740086eeaf",
    "A4 extend --vertex v1 text": "bc80a973212d4d2e89fe9c901412e340c8c0109c6bfc615b71a3c45e1818a8eb",
    "A4 extend --vertex v4 text": "ff8af7ee39f4878553d55e55b8b785a6c74113a6df2cd929b4fb4b7fce252ce5",
    "A4 blowup --vertex v1 text": "d56ae5d142abb93adeeaa6e0fd2ff3a18efad55927b6b8eb0b0eb55d1c2b4b49",
    "A4 blowup --edge v1 v2 text": "b64353b44526ba42f667456f41f1b2ba3b36ba9a95db1bd4dcbeb273cf673cb9",
    "A4 verify text": "0ce1b2c6e28ecd35e8662716c00c3e368510e6ed7b804080f15ab1045657bc46",
    "A4 check json": "bfd9bf991efa8621351d46e1c0226d4d2113bd830ac8651aa4900b21e6dbf527",
    "A4 invariants json": "12896b61ed1b8511d8637bf644ffc48fbd6552b1ab66e9391a0d25ac86a10529",
    "A4 sh json": "312951e00cea38d329985dcd7ac3f75940dd7252b4c88a7e70ffaf7f4d78ce8a",
    "A4 classify json": "afb98251bd4d4c69856b96bf2be0ae6fc5b847c688b9af4fa9a689ce2602a460",
    "A4 special json": "2cecfc791f5fe5c2909d9a442c2d702f1ecdc3e7aec762f67741fb00668e36a6",
    "A4 extend --vertex v1 json": "a1058d252918e84d3d387bd12be5297ead0982e224819c055d779bda8d5c5539",
    "A4 extend --vertex v4 json": "721242278d62e5684fc34eb64632d7f8cc85898d3ef1f37b0f133c75009f72fe",
    "A4 blowup --vertex v1 json": "4a9e874d246f0faa302690c1dbaca7e61bcb4f6f8ee56bbb4e45efc0bbe701b7",
    "A4 blowup --edge v1 v2 json": "1928816d3be1265c98acaa0ee0ddccad9031b5a18b3e528a8aeed270377c1b68",
    "A4 verify json": "00045ef4a4c07fe7c553134839a0a760b121681bf7aca4ed2b432cc995ab666e",
    "D6 check text": "f75d1c1fb9feb7fc3d2e03e0147b07400e6cfd22dc5d0b56d11d08f5a64b3f75",
    "D6 invariants text": "12aff55fc46032c68f456c2a3ce6de7e347a01d4ba58a15dbe14aae392323527",
    "D6 sh text": "f1e4139a4da59a554aeb45ec3da162030f95529c64c65ea9295a54fa2f3854de",
    "D6 classify text": "4f437319f56a763ba7edbb37ea51f5d3df1131653ab255e2d2c63870ec5ed3d1",
    "D6 special text": "05b721d8484769dc213ff7f314ab986dd3ff2c8cdfa8c2fe7d6e283b40180ffd",
    "D6 extend --vertex v1 text": "7535c95629a2f6d6a8fb00637cf045a08763c23e01de72b6a9dcb358b71c95c2",
    "D6 extend --vertex v6 text": "4de7fbeba7dad542e7f6296f0418ef6785321cf6022d7a55ce645a0426dd04d4",
    "D6 blowup --vertex v1 text": "44b811543ca515b2eff4e8317722957632b3be4d73075b96e8e026cd782c292f",
    "D6 blowup --edge v1 v2 text": "3625ba09a190094f1db087239bf39bfb06217d30121e944b50384195bdc163ca",
    "D6 verify text": "ffa93498b2b79ece9aaa275245963cc36d56ac879bef52ea1d17b75cd4d614a0",
    "D6 check json": "bfd9bf991efa8621351d46e1c0226d4d2113bd830ac8651aa4900b21e6dbf527",
    "D6 invariants json": "e9f1e386aef45bb4bf5f0f254e425f789ce0350c94c8d41a0a387fa901c5ae76",
    "D6 sh json": "e83a34db7ee97cddddad12c94cd58c9f2ee7a8bd8cae9869a513bfea906ed131",
    "D6 classify json": "58f5c9cb6efd13511566ad434d337606757fd3456547a506911f79cb87b7d238",
    "D6 special json": "0348473709b59560423e27ccf0bf4a84702ba8e8965082afb98b2a3ae7eb66c4",
    "D6 extend --vertex v1 json": "2283ef22292a819a73ac2287329571d268b38503ba7b5f576eef4e71040402a4",
    "D6 extend --vertex v6 json": "8d70a8a5804585a4b3e8d95d885157b1382ba1b68a2ac04a4fae8225c54d8a3c",
    "D6 blowup --vertex v1 json": "1b892dcbdf2c2aec453602624a3acc1f61bce0a0108aabdb702c6bfbd33c28fa",
    "D6 blowup --edge v1 v2 json": "35ed4d87bacfaa4cf0d762432d70105f19d986b95ae56eff239cea97db3237c1",
    "D6 verify json": "a44a0b149d9e110843e19ae6ee1483d6bcdd2d63f5acb59899069c52ad24f77a",
    "E6 check text": "f75d1c1fb9feb7fc3d2e03e0147b07400e6cfd22dc5d0b56d11d08f5a64b3f75",
    "E6 invariants text": "7c4e473d4371b0f861aa39db13927c29350748ae768ca57e27c3d4f4f66f8227",
    "E6 sh text": "53ee09a0da8589d4985f116624905748712c9ad26a5379cb13f2d7ed44e94386",
    "E6 classify text": "c565f865715db29ac159fb37e07fe676af3663b071a2406e02c51a3b0685b59e",
    "E6 special text": "1c9838002750d5a2d2e2b320975b4d506d485a924013a08720c38fad0c564a7f",
    "E6 extend --vertex v1 text": "373d5e630017ab035d3b570a10ea9c0ccb18e8319882f0f73c404003892fc026",
    "E6 extend --vertex v5 text": "427e235fbc2fda78624f418ea54e3bc109290d60e167fd4fb256da2175a03990",
    "E6 blowup --vertex v1 text": "9abb17f9b4add774f0b8a07e236e29e72a34c9fd1242e32aa62e13d96361a6a1",
    "E6 blowup --edge v1 v2 text": "cdc8ffc5929a51ea14e22f521de38d470268b31f1ec4ff290efcdb5926e6e052",
    "E6 verify text": "e255e37a5f787d988af2a077cb8e98b53d96c106d990a93cc9bf2f43e36fa4ae",
    "E6 check json": "bfd9bf991efa8621351d46e1c0226d4d2113bd830ac8651aa4900b21e6dbf527",
    "E6 invariants json": "a3561cb77a99e7ff4844abb6a19943720ab42fd7b00336099add47ae4bc00122",
    "E6 sh json": "0f1d320d8b99306e88424e43c8ec24c138dbcac21e802cfc9364f21531166ecf",
    "E6 classify json": "6b4384f51e2e68b65ba9fa3145ffddb747640482369de171acea4656c71d3a16",
    "E6 special json": "487508fba18eb445d778ead82853d3ec5e87a5423330579f989319459e0c3434",
    "E6 extend --vertex v1 json": "5ed58f4454af697628ce17f586981a4896e81a6a90a4cbb71c495d434338e0aa",
    "E6 extend --vertex v5 json": "d4c2e82f8021618db5673421871ccdd0ee6e5ef6126531317d9c4fa08b0e9b8c",
    "E6 blowup --vertex v1 json": "b8976e464048fb37d42a5375e64d2dfef2d0106888ca10d0d0313dff82c7f709",
    "E6 blowup --edge v1 v2 json": "22f30ccfd71c76e6176943a6e6731cdd5e3b5bd815fe37fe972982d8bd7cc51d",
    "E6 verify json": "68df10919cf4639cdd80688273346c4166214ae0127cdb96c1f0b1c62ad41d78",
    "E8 check text": "f75d1c1fb9feb7fc3d2e03e0147b07400e6cfd22dc5d0b56d11d08f5a64b3f75",
    "E8 invariants text": "9ba745595d31de9a5b8ee4ae74fe8b6723a17bc84e608de138617e2c2d3560d0",
    "E8 sh text": "27b2d6ae13f405b6ebb39f16637e9ae452685737343ea27d29732de7cd34c3a6",
    "E8 classify text": "2e101cf1d15da67dcd8bb6dccb2aa70f96f3831d5f53eb3016a2f9cdc56692b3",
    "E8 special text": "9992b9f5c7152072d351b5ee358c8e425f0a60a70054b299004d4913f481f711",
    "E8 extend --vertex v1 text": "93f2d301d91a6aa8eabff86711b6419f1026692c90d0391e7ba7a615d65ec8f2",
    "E8 extend --vertex v7 text": "35d3205961cb09b3b49a5910467e22770c038bad5381dda117c89fda142e634e",
    "E8 blowup --vertex v1 text": "65783a0334b9272dbbcbbb96b5809bd6a96f777c76edf756ebcc73ffa0a526e4",
    "E8 blowup --edge v1 v2 text": "11b11a5b181772348a9fd9be81f4444894e1debeb7aaba978b2e78990a771e8c",
    "E8 verify text": "f9a5320cb2c8a34df6d1e5716590b3c448a547042fae34c9554e8635e6169303",
    "E8 check json": "bfd9bf991efa8621351d46e1c0226d4d2113bd830ac8651aa4900b21e6dbf527",
    "E8 invariants json": "95e845324d489970c5c4336af42a7caefff67e5e8ae992b6fb7e0bd81de45c7f",
    "E8 sh json": "e9785f1a205311b43c6c0910c9e6ac8c395d781da6382dd5d15f1154ae5b15e0",
    "E8 classify json": "460a45545a4ed76cf8aa4c85f40182891e08c139f2615a89a8a51e4234d1f8a7",
    "E8 special json": "019d095e032211a219f8671e0ec61f3b7bbb83234434b955341eada52065b3f5",
    "E8 extend --vertex v1 json": "fa64807e6bdc5842a5ec3a94c79a6ee319f3a8461ff3bb8fde1c306bbd4acf90",
    "E8 extend --vertex v7 json": "845470ac6f91f854d63ee0e2ef5a6e7bfa2183242e4f16b59a96f6ef3d79a289",
    "E8 blowup --vertex v1 json": "bcea7043eb8654985a2255c7b338330181a256560e43e6e18a8cec1ce47d5ae0",
    "E8 blowup --edge v1 v2 json": "e010c04e9032459b69c73262e2d674a7218cda0b89cea5c76294e7f0c58ff676",
    "E8 verify json": "f8972df5f69f4feb36900de871bc2b0773a2d302ad0b687e70c9deb4a02f65ad",
    "paper-z7 check text": "3c292cfc7de184bc0138f2ec1c4016002becb55c935c5e370e95e28e34fa6acf",
    "paper-z7 invariants text": "59f8b4e6bca505db12156af22e21bdf6998b54a569026dc9f98f5bde67048274",
    "paper-z7 sh text": "31d9304d51bdf03f144a36e1b2f1b2bbdc79941ca468f63ca0dd84c210f044e6",
    "paper-z7 classify text": "bebc31a551e34d5853e1b2eabb14ae08cb8ab4c70ef5d56ae2cd98a6ebb4ad73",
    "paper-z7 special text": "f33d51dfc7bfc344c2a04e0dfb8ede99e70e883067ff33f22623a9e67fa9da04",
    "paper-z7 extend --vertex E1 text": "d2a4b98c2c1f0cef15b6265cef0669ad00b34b85d9efafbcb6a68d3338790dd8",
    "paper-z7 extend --vertex f text": "81a16a84214bd8a6c2262934e6f59fabc92151ed5af7e9b0a10570c8ba9e8a28",
    "paper-z7 blowup --vertex E1 text": "769fadb88469bde1b7f573d0c7673b9c6851afb7bce856a421135765362d00dd",
    "paper-z7 blowup --edge E1 E2 text": "6590a1d6816d46b765807c50492c7e8b7263e87d3d9762f1c57abda7ce99216c",
    "paper-z7 verify text": "4de725ef5655aaaa1353d7434fa60b15f85c4a7823dd4e701e1360fe27d4eee4",
    "paper-z7 check json": "3233cecb553aea116a2dda9e38dede25b3ea7c1a2942961dd7a84d4e746cd279",
    "paper-z7 invariants json": "5caed3509dd8221a2d3a4bbcb0066e6eeca0fa52323228b20772927c572d8ef2",
    "paper-z7 sh json": "c7d11a3797867a6ba8f3784c479dd1e98732224d10454c43a4c838af7d646976",
    "paper-z7 classify json": "53536f36126dd98f1ad32ad4eea2e35ddad8961df926af7a40e566d86ca2c298",
    "paper-z7 special json": "b14fab4adfbb80dda5b4c2cc7940b3c1d249589be751fd9e48c1400c01034e71",
    "paper-z7 extend --vertex E1 json": "ad18d54ec1116e81191ac2e104fbdacf2f046e6c372c749bd92e440b4f300987",
    "paper-z7 extend --vertex f json": "eda92a0e8e33b7ebc283f2c62160c04cc63f82bf86e77d6d7b2d1960f97670b0",
    "paper-z7 blowup --vertex E1 json": "9802136c567011fcc77640a2d6d6e5a863d53e1125d1ad2adfbe13a37fccb3dd",
    "paper-z7 blowup --edge E1 E2 json": "2b465264973121ff04e0b6c04d6bb8213d083234f96f56a88a6338e0ec118002",
    "paper-z7 verify json": "bdf17fe8495afbca69b21d093e3f7b5f497fc085d5b1e699d0a19d8b1e8185c2",
    "gamma-2-3-7 check text": "901f6d3e3d74298bb507388c10c74a59335dce88ddb63c9e40422f659b940de0",
    "gamma-2-3-7 invariants text": "358c3d226512181e33cb8da9fc04a07bd14e034ba4c57c81356347075f07b07f",
    "gamma-2-3-7 sh text": "27b2d6ae13f405b6ebb39f16637e9ae452685737343ea27d29732de7cd34c3a6",
    "gamma-2-3-7 classify text": "fd4c3ac2a44e54f919087a3378f20f51aab08f7170f89a8bab136c3a95c23c31",
    "gamma-2-3-7 special text": "11bed9ae7be4b6c587d460998d4d7ad256d29e7c4cc2148ea81d192e7193385a",
    "gamma-2-3-7 extend --vertex c text": "c077530de6a3cc7c62798c2e60b24d1d2a7ead218843c9ba959b129b8b4ab169",
    "gamma-2-3-7 extend --vertex a7 text": "2def511bd4d5f90e4f213ce10c7eb712ad8f9bdc968d4c0a507f3e525f460a1b",
    "gamma-2-3-7 blowup --vertex c text": "4a0d862370c2160f27281b0c1e7bf4b98a9c26b2a3834e95a7f16ec2987b0009",
    "gamma-2-3-7 blowup --edge c a2 text": "9be970e48cfce40374b3f119773376e112c572667763428acee2ddd67fa5e203",
    "gamma-2-3-7 verify text": "8a2bc5bd2b0887c3d963293f03251d8a5772e8689773d28619ce3bfe5c87d6cf",
    "gamma-2-3-7 check json": "c81c4653f70ca350b6c3525c7367d0b2051a6dbbd3c4f9419603cdf799f8fd93",
    "gamma-2-3-7 invariants json": "67e948e8851af4bcb2f684768d2904b069e951fa158e0695bfdfbf1fb29d2b67",
    "gamma-2-3-7 sh json": "1c46d7aba9721018e0b848505c34e436007b3a062a688b6c8b63a88bcfad8ecd",
    "gamma-2-3-7 classify json": "b2e47ffed414ba7ca446b548594124907996215695df7d55bb17ae9df2f60698",
    "gamma-2-3-7 special json": "11bed9ae7be4b6c587d460998d4d7ad256d29e7c4cc2148ea81d192e7193385a",
    "gamma-2-3-7 extend --vertex c json": "3f7e2a103956e01e82025d9d8f5a81d750622c0c4cb7a379fe7d598b22dc61e9",
    "gamma-2-3-7 extend --vertex a7 json": "a0aff25e3733bd583cc8222998c277ef3abf7830306664b48828169d6d6fb56a",
    "gamma-2-3-7 blowup --vertex c json": "cc4cca12b1b2df519927d25612aa7901e7da4fdeb3592beac862a3d3ea509bc9",
    "gamma-2-3-7 blowup --edge c a2 json": "f9e59f635b477053a9a263b86e614f82155372e705860c033419a2695c7be73c",
    "gamma-2-3-7 verify json": "0548b00e014aaf934af21e13ca5ac533beb25185cc4528abef85f6264652fa41",
    "cusp-3x3 check text": "6d0c06a3a8994f5740df847ada731e09ce5dddd7527bb692f9e8f6fcd847f517",
    "cusp-3x3 invariants text": "2495e4895b1f3dfaf19d1ee1056b6ac48c9bbde45651fa39a95514266fe29ae8",
    "cusp-3x3 sh text": "592895048aa97ac4e546115117b3d498e601c00e6fa775e3694b18de6a3bbcee",
    "cusp-3x3 classify text": "43d08e35edc0b84635b3c8ead665def1b3878a60137d7886d248109d68aadf89",
    "cusp-3x3 special text": "11bed9ae7be4b6c587d460998d4d7ad256d29e7c4cc2148ea81d192e7193385a",
    "cusp-3x3 extend --vertex E1 text": "f4701ab6f840114e3bafec70d09d959b1d3956a81191dac92066cba7e462fc80",
    "cusp-3x3 extend --vertex E3 text": "6419f5cafe9017879bcec43b85a30ddfe3c260ddaeef9d0c7e8c0ba5864b9a85",
    "cusp-3x3 blowup --vertex E1 text": "d905d173f0dc106be236bd18989a813fbea8dfcdb0908c5b7dea3152136804b1",
    "cusp-3x3 blowup --edge E1 E2 text": "9e4ea2014e6bd33d99e4ee8d1eb844d2911bf90b453f0836dd51e7be563f4064",
    "cusp-3x3 verify text": "6e31b4d0f264c735d0af4e33ce191400d3446d86b92fe6920c6255ebfc698867",
    "cusp-3x3 check json": "a88ca08b01fdcda1173068215d34fbfd9b8580aae06c85e21100d8e34b15a1f8",
    "cusp-3x3 invariants json": "1fe58ec26a04eaf657214e14a00f71b3412d70f91a0e85395a1afa48fccc0bbf",
    "cusp-3x3 sh json": "1b3e72038c9599e636cd40d7bc6b42eeeacc5f245a47bc217eee8eceb44b3946",
    "cusp-3x3 classify json": "0c6d9dd0a2f343d49ccba7d3fdbe459ab18df01492ae0ffa8daed2b2ce38531a",
    "cusp-3x3 special json": "11bed9ae7be4b6c587d460998d4d7ad256d29e7c4cc2148ea81d192e7193385a",
    "cusp-3x3 extend --vertex E1 json": "7d2a992da9160cbf7a5ae4e901f53780dbc9243c84adae257b0f60d7f96d8a61",
    "cusp-3x3 extend --vertex E3 json": "cc4d1b4d0102d31ce7564303501591364a6e120209d225d60f53f156bbb8c033",
    "cusp-3x3 blowup --vertex E1 json": "c97114b257013f6d7f94f30442db3799b7b94e29561b9a2fbce3bea3b6fbceca",
    "cusp-3x3 blowup --edge E1 E2 json": "f6741da4b996c34d1403e1e14d9685781d5b7145535e7f1b9e37a7e00e5943cd",
    "cusp-3x3 verify json": "37268e1ed269267c05735ed58f68232c2bbebe918acc611654a76ac0893f0cb4",
    "simply-elliptic-d3 check text": "a07c439814913f8248226831976346b4861a8d5cd5294dcbf8b6c1053e0352ec",
    "simply-elliptic-d3 invariants text": "07521fb8a4bd881cce587823437db285c7d4483c062590d6ac31ebd8e01c3ba4",
    "simply-elliptic-d3 sh text": "c3e5b1e835438bc02c28faaaaefb4fa8b5993f8135de576465ad1258e14929db",
    "simply-elliptic-d3 classify text": "06bde4aef4d7e4123afd7c967188d7ada78ef48614c323a86050fb930ec35bc5",
    "simply-elliptic-d3 special text": "11bed9ae7be4b6c587d460998d4d7ad256d29e7c4cc2148ea81d192e7193385a",
    "simply-elliptic-d3 extend --vertex E text": "9c0c4be69c4f1984abe7f2485e00fa55546d199b113c0eccfa6d050963d32fed",
    "simply-elliptic-d3 blowup --vertex E text": "09541bc67680dc0fd4025e5429552d2ecd88e14760778cf1f86c56966cd808b8",
    "simply-elliptic-d3 verify text": "8a8a0e7ffb4205fcca1924533f6137eef078fa15480863af9e575cab80c9a29f",
    "simply-elliptic-d3 check json": "c03a1593eaa2530ce8fce98d3d14d2412455d047c427c2ba0a3dcfaba6bb26d1",
    "simply-elliptic-d3 invariants json": "4458eda97a73e587e9d46149210127a4e5364b716f6f278f64a0c7d7260ed4a0",
    "simply-elliptic-d3 sh json": "c3bdd95bad6b6858ada4453c5a09581386fcfbcc0c8768050f301b15f2d11fa2",
    "simply-elliptic-d3 classify json": "c8abfd13a56cc912ab43d96736db40c68ac41cf651816462eee15dc7997f8cba",
    "simply-elliptic-d3 special json": "11bed9ae7be4b6c587d460998d4d7ad256d29e7c4cc2148ea81d192e7193385a",
    "simply-elliptic-d3 extend --vertex E json": "4e73058f13273d0e10e50cc79b9731f807ad34ccc3a2114fc6266299108c823d",
    "simply-elliptic-d3 blowup --vertex E json": "f3e15f2ebc6e798b6fe0f50fd6539bec8bbfbcfb0d6e128bb17e5c9d42f98f17",
    "simply-elliptic-d3 verify json": "723ef6017ee8b611508d02c8ab452b9bdaba95d3c78eb59fe0156cc6c369affb",
    "A30 check text": "f75d1c1fb9feb7fc3d2e03e0147b07400e6cfd22dc5d0b56d11d08f5a64b3f75",
    "A30 invariants text": "8240e23d59a71dba7d8b316983c947220cb67b92e4cdb3b17db88c2e7ec38184",
    "A30 sh text": "f831998bc7f882d27305892d45a728e81b7ffeda07d6ebd57adbc4a88dc6d71e",
    "A30 classify text": "dc945abd968e3b45153f995838ce7a23698a5b4ed8336c77d4cf616e7cff3266",
    "A30 special text": "54637773d5fe59cccae9282e1225c75e07d6c4623966334bbfe2c943d7da7c56",
    "A30 extend --vertex v1 text": "be861d9bfd79d60e5ccbd7a6adc1917b92b4851b81dd732e0e7e90b31f9dda63",
    "A30 extend --vertex v30 text": "49b79532c219875501bb8769520c887378beba5f3b969ab30248b0c68ea0090c",
    "A30 blowup --vertex v1 text": "d71dc2ed18c5a9bddb56ddeb95fecad60b22fb6a9cb651dbf8e3e80fec8fd250",
    "A30 blowup --edge v1 v2 text": "bf8e68af2262cb8ec3ca83a0a2d66816e063e279442002da369d88209a6bf59c",
    "A30 check json": "bfd9bf991efa8621351d46e1c0226d4d2113bd830ac8651aa4900b21e6dbf527",
    "A30 invariants json": "0b5acfba26b92eb414c68bad51820c2212ac383773cead15ee04b82a2abf7b3e",
    "A30 sh json": "bab266429b66c1a469dd8c80469ce4b19249f736f99af768388c1fa7964a0a82",
    "A30 classify json": "8ef2ed2255d32bfa89f350b0081894bfc066cc6bc6dd067435bf42093e819c7c",
    "A30 special json": "8fbdd92fbab59c07323afc0738b3aec0be511029321c3de6d6ce33d36ca4793d",
    "A30 extend --vertex v1 json": "07f2f3e45f78be295827a0d768c7eb791e2fd869428a172f930c9918708dff83",
    "A30 extend --vertex v30 json": "37259afdb5b0543f44715a85f8f6ba16a3a187f52894333bcdff9a3329950ec8",
    "A30 blowup --vertex v1 json": "0e61beba8dd67c4d65db1c6207560047a1200d0e70df96730d40ac26b9add594",
    "A30 blowup --edge v1 v2 json": "cb357470276470417919547a097219e0957bdf875f501e824786eaaa8d370007",
    "D25 check text": "f75d1c1fb9feb7fc3d2e03e0147b07400e6cfd22dc5d0b56d11d08f5a64b3f75",
    "D25 invariants text": "c6df531aaa3a606a1984808d84d72760d9fa99d74da7397b8c878c98d4b9ba15",
    "D25 sh text": "93167bbf018fd96838d83ad6b4ac650820cd7c212e98325ca5e557d96191ceac",
    "D25 classify text": "55990a756cecd5a10c4ec0b753deba670fe3aac7ad732acc987c64859d60f431",
    "D25 special text": "6cc44f0c36e731fa79b5629c2f3d4dcacbbca8c0500415a45832025ac548cbc9",
    "D25 extend --vertex v1 text": "1cc070857c864c77fff26736d3a81a63cad82d5416710b87eaf55331d238b5d2",
    "D25 extend --vertex v25 text": "ddc66a0427d2d2eb5b40eab11be590d7e9944709d4cbfc8b83e659f04c6f4ea0",
    "D25 blowup --vertex v1 text": "021f988fef7bafb246cec6e6eb6c65ffe1b5b3875a9e374b75054215aeae40d7",
    "D25 blowup --edge v1 v2 text": "00a1f27117020f0aa044e61a249c289518507f154d984545472db9ca54117186",
    "D25 check json": "bfd9bf991efa8621351d46e1c0226d4d2113bd830ac8651aa4900b21e6dbf527",
    "D25 invariants json": "e6a1ee5aa2919ed1fffeda0cd1e70e5fd7b5bc7b379f5186bca31b23e18d62c8",
    "D25 sh json": "ce2f010279f9ec01094f91fa8d9ce4f53e46ade5d78458be394735747e06dfef",
    "D25 classify json": "7e1d1d7ef852cf58577abfe048567a0fdf28e845968dbbf2175b7913f2585328",
    "D25 special json": "ce592bc5155ecd1194900b3dab65bdc0360eb1fc23f1ce9a77b3bc5fc4cef2cd",
    "D25 extend --vertex v1 json": "fba5c1c9c5122c5b4d8ab8f1eb11fdb6eafdced1ffbacfe5ed653d159c9c22bc",
    "D25 extend --vertex v25 json": "138d2b9e1656752c59c89c376275e43d8616393c92e6b53000d7266bc7ead724",
    "D25 blowup --vertex v1 json": "8766a41cc4eae5e366b965011fb263e464208094b616d46f4e4a3359da9accfa",
    "D25 blowup --edge v1 v2 json": "1d24210b189aa19b420eb71e5f8ced3074fc74d9e1f40e81a8a707b07bc45024",
}
