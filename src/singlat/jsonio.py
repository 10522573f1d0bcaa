"""Stable JSON encoding for graphs, cycles, groups, reports and transcripts.

Integers are serialised as strings so consumers never face 64-bit overflow;
rationals are {"num", "den"} string pairs with positive denominator; cycle
coefficients are arrays ordered like the graph's vertex list. Cycles come
as integer numerators over a scale, the program's one cycle format (over
det(-M) in the classification records), and `encode_numerators` turns
them into one leaf, a `Numerators` tuple of the numerators and the scale,
with no dict per rational; a `RatCycle`, met only in public arguments,
goes through `cycle_vector` once, in `encode_cycle`. Every top-level
document carries the schema version.
`dumps` is the one writer. It writes a document in the `indent=2` form of
the standard library by itself, as that form sends `json.dumps` to its
pure-Python encoder, and renders each leaf by template as the array of
its rationals in lowest terms: `dumps(doc)` is `json.dumps` of the
document with every leaf expanded to its list of {"num", "den"} dicts.
"""

from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring
from math import gcd

from .classify import ClassificationReport, FullSheafFamily, SpecialnessRecord, VertexRecord
from .cycles import RatCycle
from .dsl import GraphDocument
from .errors import InputError
from .graph import ResolutionGraph, cycle_vector, lattice_determinant
from .lattice import ClassGroup
from .laufer import ComputationSequence, SingularityType
from .oracle import VerificationTranscript

SCHEMA_VERSION = "singlat/1"


def encode_rational(q) -> dict:
    """The {"num", "den"} pair of an int, a Fraction or an exact string; a
    float raises `TypeError`, as its binary fraction is not what it prints."""
    if isinstance(q, float):
        raise TypeError(f"cannot encode the float {q!r} as a rational: "
                        "give an int, a Fraction or an exact string")
    if not isinstance(q, Fraction):
        q = Fraction(q)
    return {"num": str(q.numerator), "den": str(q.denominator)}


class Numerators(tuple):
    """A cycle leaf of a document: the pair (numerators, scale) standing for
    the rationals x / scale, which `dumps` writes in lowest terms."""

    __slots__ = ()


def encode_numerators(vec, scale: int) -> Numerators:
    """The leaf of the rationals x / scale for x in `vec`: how cycles, which
    leave the program as numerators, enter a document."""
    return Numerators((tuple(vec), scale))


def encode_cycle(g: ResolutionGraph, cycle: RatCycle) -> Numerators:
    return encode_numerators(*cycle_vector(g, cycle))


def encode_graph(g: ResolutionGraph, name: str | None = None) -> dict:
    doc = {
        "vertices": [{"id": v.id, "euler": str(v.euler), "genus": str(v.genus)}
                     for v in g.vertices],
        "edges": [[u, v] for u, v in g.edges],
    }
    if name is not None:
        doc["name"] = name
    return doc


def encode_class_group(cg: ClassGroup) -> dict:
    return {
        "order": str(cg.order),
        "factors": [str(f) for f in cg.factors],
        "generators": [encode_numerators(num, cg.order) for num in cg._numerators],
        "graph_betti1": str(cg.graph.betti1),
    }


def encode_singularity(st: SingularityType) -> dict:
    return {
        "kind": st.kind,
        "rational": st.rational,
        "elliptic": st.elliptic,
        "minimally_elliptic": st.minimally_elliptic,
        "cusp": st.cusp,
        "minimal_resolution": st.minimal_resolution,
        "numerically_gorenstein": st.numerically_gorenstein,
        "tree_all_genus_zero": st.tree_all_genus_zero,
        "elliptic_cycle_support_is_all": st.elliptic_cycle_support_is_all,
        "geometric_genus": None if st.geometric_genus is None else str(st.geometric_genus),
        "warnings": list(st.warnings),
    }


def encode_sequence(g: ResolutionGraph, seq: ComputationSequence) -> dict:
    return {
        "start": encode_cycle(g, seq.start),
        "steps": [{"vertex": s.vertex, "value": encode_rational(s.value)} for s in seq.steps],
        "end": encode_cycle(g, seq.end),
    }


def encode_family(g: ResolutionGraph, fam: FullSheafFamily) -> dict:
    return {
        "class": [str(c) for c in fam.class_coords],
        "chern_class_negated": encode_numerators(fam.chern_class, lattice_determinant(g)),
        "family_dim": str(fam.family_dim),
        "exceptions": list(fam.exceptions),
        "special": fam.special,
        "flat_count": fam.flat_count,
    }


def encode_vertex_record(g: ResolutionGraph, rec: VertexRecord) -> dict:
    det = lattice_determinant(g)
    return {
        "vertex": rec.vertex,
        "multiplicity": str(rec.multiplicity),
        "dual_cycle": encode_numerators(rec.dual, det),
        "class": [str(c) for c in rec.class_coords],
        "min_rep": encode_numerators(rec.min_rep, det),
        "dual_is_min_rep": rec.dual_is_min_rep,
        "special": rec.special,
        "extended_rational": rec.extended_rational,
    }


def encode_specialness(g: ResolutionGraph, rec: SpecialnessRecord) -> dict:
    return {
        "class": [str(c) for c in rec.class_coords],
        "min_rep": encode_numerators(rec.min_rep, lattice_determinant(g)),
        "pairing_with_fundamental": str(rec.pairing_with_fundamental),
        "witness_vertex": rec.witness_vertex,
        "h1": str(rec.h1_value),
        "special": rec.special,
    }


def encode_report(report: ClassificationReport) -> dict:
    g = report.graph
    return {
        "graph": encode_graph(g),
        "singularity": encode_singularity(report.singularity),
        "class_group": {"order": str(report.class_order),
                        "factors": [str(f) for f in report.class_factors]},
        "families": [encode_family(g, fam) for fam in report.families],
        "vertex_table": [encode_vertex_record(g, rec) for rec in report.vertex_table],
        "notes": list(report.notes),
        "inclusion_only": report.inclusion_only,
    }


def encode_transcript(t: VerificationTranscript) -> dict:
    return {
        "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail} for c in t.checks],
        "passed": t.passed,
    }


def document(doc_type: str, payload: dict) -> dict:
    return {"schema": SCHEMA_VERSION, "type": doc_type, **payload}


def to_json(obj, graph: ResolutionGraph | None = None) -> str:
    """Serialise a supported object as a versioned JSON document."""
    if isinstance(obj, ClassificationReport):
        doc = document("classification", encode_report(obj))
    elif isinstance(obj, ClassGroup):
        doc = document("class-group", encode_class_group(obj))
    elif isinstance(obj, VerificationTranscript):
        doc = document("verification", encode_transcript(obj))
    elif isinstance(obj, SingularityType):
        doc = document("singularity", encode_singularity(obj))
    elif isinstance(obj, ResolutionGraph):
        doc = document("graph", encode_graph(obj))
    elif isinstance(obj, GraphDocument):
        doc = document("graph", encode_graph(obj.graph(), name=obj.name))
    elif isinstance(obj, RatCycle):
        if graph is None:
            raise InputError("serialising a bare cycle needs the graph for vertex order")
        # its one `cycle_vector` refuses a coefficient off the graph
        doc = document("cycle", {"vertices": list(graph.ids),
                                 "coefficients": encode_cycle(graph, obj)})
    elif isinstance(obj, ComputationSequence):
        if graph is None:
            raise InputError("serialising a sequence needs the graph for vertex order")
        # start plus one unit per step keeps start's denominators, so its
        # (numerators, scale) pair equals the end's exactly when the cycles do
        climbed, scale = cycle_vector(graph, obj.start)
        for step in obj.steps:
            climbed[graph.index(step.vertex)] += scale
        if cycle_vector(graph, obj.end) != (climbed, scale):
            raise InputError("sequence end is not its start plus one unit per step")
        doc = document("sequence", encode_sequence(graph, obj))
    else:
        raise InputError(f"cannot serialise objects of type {type(obj).__name__}")
    return dumps(doc)


_LITERALS = {True: "true", False: "false", None: "null"}


def dumps(doc: dict) -> str:
    """The text of `json.dumps(doc, indent=2, ensure_ascii=False) + "\\n"`
    for a document of dicts with string keys, lists, strings, booleans,
    None and `Numerators` leaves, each leaf read as its list of lowest-terms
    {"num", "den"} dicts; any other value, numbers included, raises
    TypeError."""
    parts: list[str] = []
    _write(doc, "\n", parts)
    parts.append("\n")
    return "".join(parts)


def _write(value, newline: str, parts: list[str]) -> None:
    """Append the pieces of one value whose lines start after `newline`;
    a leaf goes out as one piece, by template."""
    if isinstance(value, str):
        parts.append(encode_basestring(value))
    elif value is None or value is True or value is False:
        parts.append(_LITERALS[value])
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        separator, inner = "{" + newline + "  ", newline + "  "
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            parts.append(separator + encode_basestring(key) + ": ")
            _write(item, inner, parts)
            separator = "," + inner
        parts.append(newline + "}")
    elif isinstance(value, list):
        if not value:
            parts.append("[]")
            return
        separator, inner = "[" + newline + "  ", newline + "  "
        for item in value:
            parts.append(separator)
            _write(item, inner, parts)
            separator = "," + inner
        parts.append(newline + "]")
    elif isinstance(value, Numerators):
        vec, scale = value
        if not vec:
            parts.append("[]")
            return
        # each rational is {"num": .., "den": ..} one level in, its keys two
        inner = newline + "  "
        head, mid, tail = "{" + inner + '  "num": "', '",' + inner + '  "den": "', '"' + inner + "}"
        parts.append("[" + inner + ("," + inner).join(
            [f"{head}{x // (d := gcd(x, scale))}{mid}{scale // d}{tail}" for x in vec])
            + newline + "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
