"""Command-line front end. Results go to stdout, diagnostics to stderr.

`main` runs every command through one pipeline: unless the command is
`catalog`, it refuses a `--box` below 1 and loads the graph; it calls the
command, runs `oracle.verify_all` at scale `--box` on the graph the command
names if `--verify` was given, then writes the JSON document or the text
that `--format` asks for. A command `cmd_*(args, g)` only computes: it
returns its document type, its `payload` and `lines` functions (only the
one `--format` asks for is called), the graph `--verify` audits (None for
none) and its exit code.

Exit codes: 0 success, 1 user or input error, 2 precondition unmet,
3 internal consistency failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction

from . import dsl, jsonio, laufer, oracle
from .classify import (flat_annotation, full_sheaf_classes_min_elliptic,
                       full_sheaf_classes_rational, special_full_sheaves, wunram_table)
from .errors import InputError, InternalError, PreconditionError, SinglatError
from .graph import (ResolutionGraph, _negative_definite, adjugate, blow_up, canonical_numerators,
                    extend_graph, transform_numerators)
from .lattice import ClassElement, _class_of, class_group, reduced_numerators
from .laufer import classify_singularity, laufer_rational, minimal_numerators, z_min_numerators


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are user errors, not preconditions
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def format_cycle(g: ResolutionGraph, vec, scale: int) -> str:
    """The cycle with integer numerators `vec` over `scale` in vertex order,
    as text: each nonzero coefficient in lowest terms, a bare id for 1."""
    terms = []
    for vid, x in zip(g.ids, vec):
        if x:
            d = math.gcd(x, scale)
            q = str(x // d) if d == scale else f"{x // d}/{scale // d}"
            terms.append(vid if x == scale else f"{q}*{vid}")
    return " + ".join(terms) or "0"


def _load_graph(args) -> ResolutionGraph:
    sources = [s for s in (args.input, args.catalog) if s is not None]
    if len(sources) != 1:
        raise InputError("exactly one input source is required: a path, '-', or --catalog")
    if args.catalog is not None:
        return dsl.catalog(args.catalog)
    if args.input == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.input, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read {args.input!r}: {exc}") from None
    return dsl.parse(text).graph()


def cmd_check(args, g):
    negdef = _negative_definite(g)
    st = classify_singularity(g) if negdef else None

    def payload():
        doc = {"well_formed": True, "negative_definite": negdef}
        if negdef:
            doc["singularity"] = jsonio.encode_singularity(st)
        return doc

    def lines():
        out = ["well-formed: yes", f"negative definite: {'yes' if negdef else 'no'}"]
        if negdef:
            out.append(f"type: {st.kind}")
            out.append(f"minimal resolution: {'yes' if st.minimal_resolution else 'no'}")
            out.append(f"numerically Gorenstein: {'yes' if st.numerically_gorenstein else 'no'}")
            out += [f"note: {w}" for w in st.warnings]
        return out

    return "check", payload, lines, g if negdef else None, 0


def cmd_invariants(args, g):
    cg = class_group(g)
    z_min, z_k = z_min_numerators(g), canonical_numerators(g)
    chi_min = Fraction(laufer.z_min_chi_numerator(g), 2)
    # column v of adj(-M) over det(-M) is the dual cycle E_v^*
    duals, det = tuple(zip(g.ids, adjugate(g))), cg.order
    integral = not any(x % det for x in z_k)

    def payload():
        return {
            "graph": jsonio.encode_graph(g),
            "determinant": str(det),
            "class_group": jsonio.encode_class_group(cg),
            "fundamental_cycle": jsonio.encode_numerators(z_min, 1),
            "canonical_cycle": jsonio.encode_numerators(z_k, det),
            "canonical_is_integral": integral,
            "chi_fundamental": jsonio.encode_rational(chi_min),
            "dual_cycles": {vid: jsonio.encode_numerators(col, det) for vid, col in duals},
        }

    def lines():
        factors = " x ".join(f"Z/{f}" for f in cg.factors) or "trivial"
        return [
            f"determinant: {det}",
            f"class group: {factors} (order {cg.order})",
            f"graph betti_1: {g.betti1}",
            f"fundamental cycle: {format_cycle(g, z_min, 1)}",
            f"canonical cycle: {format_cycle(g, z_k, det)}"
            + (" (integral)" if integral else " (not integral)"),
            f"chi(fundamental cycle): {chi_min}",
            "dual cycles:",
        ] + [f"  {vid}*: {format_cycle(g, col, det)}" for vid, col in duals]

    return "invariants", payload, lines, g, 0


def cmd_sh(args, g):
    cg = class_group(g)
    det = cg.order
    rows = []
    for h in cg.elements():
        start = reduced_numerators(cg, h)
        end = minimal_numerators(g, cg, h, start=start)
        # each step of the climb from start to end adds det(-M) to one numerator
        rows.append((h, start, end, (sum(end) - sum(start)) // det))

    def payload():
        return {"graph": jsonio.encode_graph(g), "rows": [{
            "class": [str(c) for c in h.coords],
            "reduced_rep": jsonio.encode_numerators(rep, det),
            "min_rep": jsonio.encode_numerators(end, det),
            "steps": str(steps),
        } for h, rep, end, steps in rows]}

    def lines():
        return [f"classes: {cg.order}"] + [
            f"h={h.coords}: r = {format_cycle(g, rep, det)}; s = {format_cycle(g, end, det)}; "
            f"steps = {steps}" for h, rep, end, steps in rows]

    return "sh-table", payload, lines, g, 0


def cmd_classify(args, g):
    st = classify_singularity(g)
    if st.rational:
        report = full_sheaf_classes_rational(g)
    elif st.minimally_elliptic:
        report = full_sheaf_classes_min_elliptic(g)
    else:
        chi_min = Fraction(laufer.z_min_chi_numerator(g), 2)
        raise PreconditionError(
            f"graph is neither rational nor minimally elliptic (classified as {st.kind}; "
            f"chi of the fundamental cycle is {chi_min})")
    report = flat_annotation(g, report)

    def lines():
        out = [f"type: {report.singularity.kind}",
               f"classes: {report.class_order}",
               f"families: {len(report.families)}"]
        if report.inclusion_only:
            out.append("inclusion-only: the family list is an upper bound")
        for fam in report.families:
            desc = [f"h={fam.class_coords}",
                    f"-c1 = {format_cycle(g, fam.chern_class, report.class_order)}",
                    f"dim {fam.family_dim}",
                    f"flat: {fam.flat_count}"]
            if fam.special is not None:
                desc.append("special" if fam.special else "not special")
            if fam.exceptions:
                desc.append("; ".join(fam.exceptions))
            out.append("  " + " | ".join(desc))
        return out + [f"note: {note}" for note in report.notes]

    return "classification", lambda: jsonio.encode_report(report), lines, g, 0


def cmd_special(args, g):
    records = special_full_sheaves(g)
    table = wunram_table(g)

    def payload():
        return {
            "graph": jsonio.encode_graph(g),
            "rows": [jsonio.encode_vertex_record(g, rec) for rec in table],
            "classes": [jsonio.encode_specialness(g, r) for r in records],
        }

    def lines():
        return ["vertex | mult | dual is minimal | extension rational | special"] + [
            f"{rec.vertex} | {rec.multiplicity} | {rec.dual_is_min_rep} | "
            f"{rec.extended_rational} | {rec.special}" for rec in table] + [
            f"special nonzero classes: {[r.class_coords for r in records if r.special]}"]

    return "special-table", payload, lines, g, 0


def cmd_extend(args, g):
    ext = extend_graph(g, args.vertex, args.euler)
    new_id = ext.ids[-1]
    text_doc = dsl.serialize(dsl.GraphDocument(None, ext.vertices, ext.edges))
    mult = z_min_numerators(ext)[-1]
    rational = laufer_rational(ext)

    def payload():
        return {
            "graph": jsonio.encode_graph(ext),
            "source_text": text_doc,
            "new_vertex": new_id,
            "euler": str(ext.vertex(new_id).euler),
            "extension_rational": rational,
            "new_vertex_multiplicity": str(mult),
        }

    def lines():
        return [text_doc.rstrip("\n"),
                f"# new vertex {new_id} with euler {ext.vertex(new_id).euler}; "
                f"rational: {rational}; multiplicity in fundamental cycle: {mult}"]

    return "extend", payload, lines, ext, 0


def cmd_blowup(args, g):
    if (args.vertex is None) == (args.edge is None):
        raise InputError("choose exactly one of --vertex or --edge")
    locus = args.vertex if args.vertex is not None else tuple(args.edge)
    target, bmap = blow_up(g, locus)
    cg = class_group(g)
    cg_new = class_group(target)
    det = cg.order  # a blow-up keeps det(-M): every row is numerators over it
    source_text = dsl.serialize(dsl.GraphDocument(None, target.vertices, target.edges))
    rows = []
    for h in cg.elements():
        rep = minimal_numerators(g, cg, h)
        pushed = transform_numerators(bmap, rep)
        h_new = ClassElement(_class_of(cg_new, pushed, det))
        rows.append((h, rep, pushed, h_new, minimal_numerators(target, cg_new, h_new)))

    def payload():
        return {
            "graph": jsonio.encode_graph(target),
            "source_text": source_text,
            "new_vertex": bmap.new_id,
            "transform_table": [{
                "class": [str(c) for c in h.coords],
                "min_rep": jsonio.encode_numerators(rep, det),
                "transform": jsonio.encode_numerators(pushed, det),
                "target_class": [str(c) for c in h_new.coords],
                "target_min_rep": jsonio.encode_numerators(rep_new, det),
                "transform_is_min": pushed == rep_new,
            } for h, rep, pushed, h_new, rep_new in rows],
        }

    def lines():
        return [source_text.rstrip("\n"),
                "class | s | total transform | s of transformed class | equal"] + [
            f"{h.coords} | {format_cycle(g, rep, det)} | {format_cycle(target, pushed, det)} | "
            f"{format_cycle(target, rep_new, det)} | {pushed == rep_new}"
            for h, rep, pushed, h_new, rep_new in rows]

    return "blowup", payload, lines, target, 0


def cmd_catalog(args, g):
    if args.name is None:
        names = dsl.catalog_names() + dsl._KNOWN_PATTERNS
        return "catalog-list", lambda: {"names": list(names)}, lambda: names, None, 0
    source = dsl.catalog_source(args.name)
    return ("catalog-source", lambda: {"name": args.name, "source_text": source},
            lambda: [source], None, 0)


def cmd_verify(args, g):
    transcript = oracle.verify_all(g, scale=args.box)
    return ("verification", lambda: jsonio.encode_transcript(transcript),
            lambda: [transcript.to_text()], None, 0 if transcript.passed else 3)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="singlat",
                     description="Lattice invariants and rank-one full-sheaf "
                                 "classification for resolution graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, with_input=True):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        if with_input:
            p.add_argument("input", nargs="?", default=None,
                           help="path to a graph file, or - for stdin")
            p.add_argument("--catalog", metavar="NAME", help="use a built-in graph")
            p.add_argument("--verify", dest="run_verify", action="store_true",
                           help="run the oracle cross-checks after computing")
            p.add_argument("--box", type=int, default=3,
                           help="oracle enumeration box scale, a positive integer (default 3)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        return p

    add("check", cmd_check, "well-formedness, definiteness, singularity type")
    add("invariants", cmd_invariants, "determinant, class group, key cycles")
    add("sh", cmd_sh, "minimal anti-nef cycle of every class")
    add("classify", cmd_classify, "full-sheaf families with flat annotations")
    add("special", cmd_special, "per-vertex specialness table (rational graphs)")
    p_ext = add("extend", cmd_extend, "glue a test vertex onto the graph")
    p_ext.add_argument("--vertex", required=True, help="vertex to extend at")
    p_ext.add_argument("--euler", type=int, default=None,
                       help="Euler number of the new vertex (default: searched)")
    p_blow = add("blowup", cmd_blowup, "blow up a vertex or an edge")
    p_blow.add_argument("--vertex", default=None, help="blow up a generic point of this vertex")
    p_blow.add_argument("--edge", nargs=2, metavar=("U", "V"), default=None,
                        help="blow up the intersection point on this edge")
    p_cat = add("catalog", cmd_catalog, "list built-in graphs or print one", with_input=False)
    p_cat.add_argument("name", nargs="?", default=None)
    add("verify", cmd_verify, "run every oracle cross-check")
    return parser


_PARSER = None  # built on the first call of `main`, then reused


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        if args.command != "catalog":  # refused whether or not it verifies
            oracle._require_positive_scale(args.box)
        g = None if args.command == "catalog" else _load_graph(args)
        doc_type, payload, lines, audited, code = args.func(args, g)
        if audited is not None and args.run_verify:
            transcript = oracle.verify_all(audited, scale=args.box)
            if not transcript.passed:
                sys.stderr.write(transcript.to_text() + "\n")
                raise InternalError("oracle cross-checks failed")
        text = (jsonio.dumps(jsonio.document(doc_type, payload())) if args.format == "json"
                else "\n".join(lines()))
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
        return code
    except (InputError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except PreconditionError as exc:
        sys.stderr.write(f"precondition not met: {exc}\n")
        return 2
    except InternalError as exc:
        sys.stderr.write(f"internal consistency failure: {exc}\n")
        return 3
    except SinglatError as exc:  # pragma: no cover - defensive
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
