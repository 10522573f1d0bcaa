import json
import time

import pytest

from singlat import blow_up, dsl, graph
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


def test_box_env(capsys, monkeypatch):
    monkeypatch.setenv("SINGLAT_BOX", "2")
    code, _out, _err = run(capsys, "verify", "--catalog", "A1")
    assert code == 0
    monkeypatch.setenv("SINGLAT_BOX", "x")
    code, _out, err = run(capsys, "verify", "--catalog", "A1")
    assert code == 1
    assert "SINGLAT_BOX" in err


def test_box_below_one_is_input_error(capsys, monkeypatch):
    for argv in (("verify", "--catalog", "A1", "--box", "0"),
                 ("check", "--catalog", "A1", "--verify", "--box", "-1")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == "error: box scale must be a positive integer\n"
    for value in ("0", "-2"):
        monkeypatch.setenv("SINGLAT_BOX", value)
        code, _out, err = run(capsys, "verify", "--catalog", "A1")
        assert code == 1
        assert err == "error: box scale must be a positive integer\n"
    monkeypatch.setenv("SINGLAT_BOX", "0")
    code, _out, _err = run(capsys, "verify", "--catalog", "A1", "--box", "2")
    assert code == 0


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
    monkeypatch.delenv("SINGLAT_BOX", raising=False)
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
