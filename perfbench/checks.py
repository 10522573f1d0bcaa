"""Judges the program's JSON outputs against `facts` and known values.

Each `check_<command>` takes the graph spec, the decoded document and the
expectations recorded when the input was made, and raises `Mismatch` on
the first disagreement. None of it imports `singlat`.
"""

from __future__ import annotations

from fractions import Fraction

import facts
from facts import Spec

ORACLE_CHECKS = 19


class Mismatch(Exception):
    pass


def ensure(condition, message):
    if not condition:
        raise Mismatch(message)


def rational(doc) -> Fraction:
    return Fraction(int(doc["num"]), int(doc["den"]))


def cycle(doc) -> list[Fraction]:
    return [rational(c) for c in doc]


def integral(values) -> list[int]:
    ensure(all(q.denominator == 1 for q in values), f"cycle {values} is not integral")
    return [int(q) for q in values]


def same_graph(spec: Spec, doc: dict) -> None:
    ids = [v["id"] for v in doc["vertices"]]
    eulers = [int(v["euler"]) for v in doc["vertices"]]
    genera = [int(v["genus"]) for v in doc["vertices"]]
    ensure(ids == list(spec.ids) and eulers == list(spec.eulers)
           and genera == list(spec.genera), "output graph differs from the input")
    ensure(sorted(tuple(sorted(e)) for e in doc["edges"])
           == sorted(tuple(sorted(e)) for e in spec.edges), "output edges differ from the input")


def expected_det(spec: Spec, expect: dict) -> int:
    d = facts.det(spec)
    ensure(d == expect["det"], f"own determinant {d} != known {expect['det']}")
    if "continuant" in expect:
        ensure(d == expect["continuant"], f"determinant {d} != continuant {expect['continuant']}")
    return d


def expected_fundamental(spec: Spec, expect: dict) -> list[int]:
    z = facts.fundamental_cycle(spec)
    if expect.get("highest_root") is not None:
        ensure(z == expect["highest_root"], f"own Z_min {z} != highest root")
    return z


def check_check(spec, doc, expect):
    ensure(doc["type"] == "check" and doc["well_formed"], "not a well-formed check document")
    ensure(doc["negative_definite"] is facts.negative_definite(spec) is True,
           "negative definiteness disagrees")
    verdict = facts.singularity_kind(spec)
    st = doc["singularity"]
    ensure(st["kind"] == verdict["kind"],
           f"kind {st['kind']!r}, expected {verdict['kind']!r}")
    ensure(st["minimal_resolution"] is spec.is_minimal, "minimal resolution flag disagrees")
    ensure(st["numerically_gorenstein"] is verdict["gorenstein"], "Gorenstein flag disagrees")
    if verdict["kind"] in ("minimally-elliptic", "cusp") and spec.is_minimal:
        z = verdict["fundamental"]
        ensure(verdict["chi"] == 0 and z == verdict["canonical"],
               "minimally elliptic on a minimal resolution, yet Z_min is not Z_K")
        ensure(st["elliptic_cycle_support_is_all"] is True, "elliptic cycle support disagrees")


def check_invariants(spec, doc, expect):
    same_graph(spec, doc["graph"])
    d = expected_det(spec, expect)
    ensure(int(doc["determinant"]) == d, f"determinant {doc['determinant']} != {d}")
    cg = doc["class_group"]
    ensure(int(cg["order"]) == d, f"class group order {cg['order']} != {d}")
    product = 1
    for f in cg["factors"]:
        product *= int(f)
    ensure(product == d, "invariant factors do not multiply to the determinant")
    z = expected_fundamental(spec, expect)
    ensure(integral(cycle(doc["fundamental_cycle"])) == z, "fundamental cycle disagrees")
    k = facts.canonical_cycle(spec)
    ensure(cycle(doc["canonical_cycle"]) == k, "canonical cycle disagrees")
    ensure(doc["canonical_is_integral"] is all(q.denominator == 1 for q in k),
           "canonical integrality disagrees")
    ensure(rational(doc["chi_fundamental"]) == facts.chi(spec, z), "chi(Z_min) disagrees")
    for i, vid in enumerate(spec.ids):
        p = facts.pairings(spec, cycle(doc["dual_cycles"][vid]))
        ensure(p == [-1 if j == i else 0 for j in range(spec.n)], f"dual cycle of {vid} is wrong")


def _check_min_reps(spec, reps, d):
    ensure(len(reps) == d, f"{len(reps)} classes, determinant {d}")
    for rep in reps:
        ensure(facts.is_antinef(spec, rep), f"minimal cycle {rep} is not anti-nef")
    ensure(len({tuple(r) for r in reps}) == len(reps), "minimal cycles repeat across classes")


def check_sh(spec, doc, expect):
    same_graph(spec, doc["graph"])
    d = expected_det(spec, expect)
    rows = doc["rows"]
    ensure(len({tuple(r["class"]) for r in rows}) == len(rows), "a class is listed twice")
    reps = [cycle(r["min_rep"]) for r in rows]
    _check_min_reps(spec, reps, d)
    for row, rep in zip(rows, reps):
        reduced = cycle(row["reduced_rep"])
        ensure(all(0 <= q < 1 for q in reduced), "reduced representative leaves [0, 1)")
        diff = [a - b for a, b in zip(rep, reduced)]
        ensure(all(q.denominator == 1 and q >= 0 for q in diff),
               "minimal cycle is not an integral shift up of the reduced representative")
        zero_class = all(c == "0" for c in row["class"])
        ensure(zero_class == (not any(rep)), "only the zero class has the zero minimal cycle")


def check_classify(spec, doc, expect):
    same_graph(spec, doc["graph"])
    d = expected_det(spec, expect)
    verdict = facts.singularity_kind(spec)
    kind = doc["singularity"]["kind"]
    ensure(kind == verdict["kind"], f"kind {kind!r}, expected {verdict['kind']!r}")
    families = doc["families"]
    ensure(int(doc["class_group"]["order"]) == d, "class group order disagrees")
    cherns = [cycle(f["chern_class_negated"]) for f in families]
    for c in cherns:
        ensure(facts.is_antinef(spec, c), f"family Chern class {c} is not anti-nef")
    if kind == "rational":
        ensure(len(families) == d, f"{len(families)} families on a rational graph, det {d}")
        ensure(all(f["flat_count"] == "all" for f in families), "a rational family is not all flat")
        _check_min_reps(spec, cherns, d)
    else:
        ensure(verdict["minimally_elliptic"], "classified a graph that is not minimally elliptic")
        ensure(len(families) == d + 1, f"{len(families)} families, expected det + 1 = {d + 1}")
        if spec.is_minimal:
            z = verdict["fundamental"]
            ensure(verdict["chi"] == 0 and z == verdict["canonical"], "Z_min is not Z_K")
        if kind == "cusp":
            ensure(all(f["flat_count"] == "all" for f in families),
                   "a cusp family is not all flat")


def check_special(spec, doc, expect):
    same_graph(spec, doc["graph"])
    d = expected_det(spec, expect)
    z = expected_fundamental(spec, expect)
    rows = doc["rows"]
    ensure([int(r["multiplicity"]) for r in rows] == z, "vertex multiplicities disagree")
    classes = doc["classes"]
    ensure(len(classes) == d - 1, f"{len(classes)} nonzero classes, determinant {d}")
    specials = sum(1 for c in classes if c["special"])
    if spec.is_minimal:
        ones = sum(1 for c in z if c == 1)
        ensure(specials == ones, f"{specials} special classes, {ones} multiplicity-one vertices")


def check_verify(spec, doc, expect):
    d = expected_det(spec, expect)
    checks = doc["checks"]
    ensure(len(checks) == ORACLE_CHECKS, f"{len(checks)} oracle checks, expected {ORACLE_CHECKS}")
    failed = [c["name"] for c in checks if not c["passed"]]
    ensure(not failed and doc["passed"], f"oracle checks failed: {failed}")
    order = next(c["detail"] for c in checks if c["name"] == "class-group-order")
    ensure(order.startswith(f"order {d},"), f"oracle reports {order!r}, determinant {d}")


def check_blowup(spec, doc, expect):
    d = expected_det(spec, expect)
    target = doc["graph"]
    new = doc["new_vertex"]
    ids = [v["id"] for v in target["vertices"]]
    ensure(ids == list(spec.ids) + [new], "blow-up did not append one vertex")
    eulers = {v["id"]: int(v["euler"]) for v in target["vertices"]}
    ensure(eulers[new] == -1, "the exceptional curve of a blow-up is not a (-1)-curve")
    t = Spec("target", ids, [eulers[i] for i in ids], [tuple(e) for e in target["edges"]],
             [int(v["genus"]) for v in target["vertices"]])
    ensure(facts.det(t) == d, "blow-up changed the determinant")
    ensure(len(doc["transform_table"]) == d, "transform table does not cover every class")
    for row in doc["transform_table"]:
        ensure(facts.is_antinef(t, cycle(row["target_min_rep"])),
               "target minimal cycle is not anti-nef")


def check_extend(spec, doc, expect):
    target = doc["graph"]
    new = doc["new_vertex"]
    ids = [v["id"] for v in target["vertices"]]
    ensure(ids == list(spec.ids) + [new], "extension did not append one vertex")
    eulers = [int(v["euler"]) for v in target["vertices"]]
    t = Spec("target", ids, eulers, [tuple(e) for e in target["edges"]],
             [int(v["genus"]) for v in target["vertices"]])
    ensure(facts.negative_definite(t), "extension is not negative definite")
    z = facts.fundamental_cycle(t)
    ensure(z[-1] == 1 and int(doc["new_vertex_multiplicity"]) == 1,
           "the new vertex does not have multiplicity one")
    rational_ext = t.is_tree and all(g == 0 for g in t.genera) and facts.chi(t, z) == 1
    ensure(doc["extension_rational"] is rational_ext, "extension rationality disagrees")


def check_transcript(spec, transcript, expect):
    """The in-process form of `check_verify`, on a `VerificationTranscript`."""
    check_verify(spec, {"checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                                   for c in transcript.checks],
                        "passed": transcript.passed}, expect)


CHECKS = {"check": check_check, "invariants": check_invariants, "sh": check_sh,
          "classify": check_classify, "special": check_special, "verify": check_verify,
          "blowup": check_blowup, "extend": check_extend}
