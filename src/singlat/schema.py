"""JSON Schemas for the versioned wire documents (draft 2020-12).

`validate` needs the optional `jsonschema` package and is used by the test
suite; the encoders themselves have no third-party dependencies.
"""

from __future__ import annotations

_INT_STRING = {"type": "string", "pattern": "^-?[0-9]+$"}
_RATIONAL = {
    "type": "object",
    "required": ["num", "den"],
    "properties": {"num": _INT_STRING, "den": {"type": "string", "pattern": "^[0-9]+$"}},
    "additionalProperties": False,
}
_CYCLE_ARRAY = {"type": "array", "items": _RATIONAL}
_STRINGS = {"type": "array", "items": {"type": "string"}}

_GRAPH_PAYLOAD = {
    "type": "object",
    "required": ["vertices", "edges"],
    "properties": {
        "name": {"type": "string"},
        "vertices": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["id", "euler", "genus"],
                "properties": {"id": {"type": "string"}, "euler": _INT_STRING,
                               "genus": _INT_STRING},
            },
        },
        "edges": {"type": "array",
                  "items": {"type": "array", "items": {"type": "string"},
                            "minItems": 2, "maxItems": 2}},
    },
}

_CLASS_GROUP = {
    "type": "object",
    "required": ["order", "factors"],
    "properties": {
        "order": _INT_STRING,
        "factors": {"type": "array", "items": _INT_STRING},
        "generators": {"type": "array", "items": _CYCLE_ARRAY},
        "graph_betti1": _INT_STRING,
    },
}

_SINGULARITY = {
    "type": "object",
    "required": ["kind", "rational", "elliptic", "minimally_elliptic", "cusp",
                 "minimal_resolution", "numerically_gorenstein", "warnings"],
    "properties": {
        "kind": {"enum": ["rational", "elliptic", "minimally-elliptic", "cusp", "other"]},
        "rational": {"type": "boolean"},
        "elliptic": {"type": "boolean"},
        "minimally_elliptic": {"type": "boolean"},
        "cusp": {"type": "boolean"},
        "minimal_resolution": {"type": "boolean"},
        "numerically_gorenstein": {"type": "boolean"},
        "tree_all_genus_zero": {"type": "boolean"},
        "elliptic_cycle_support_is_all": {"type": ["boolean", "null"]},
        "geometric_genus": {"anyOf": [_INT_STRING, {"type": "null"}]},
        "warnings": _STRINGS,
    },
}

_FAMILY = {
    "type": "object",
    "required": ["class", "chern_class_negated", "family_dim", "flat_count"],
    "properties": {
        "class": {"type": "array", "items": _INT_STRING},
        "chern_class_negated": _CYCLE_ARRAY,
        "family_dim": _INT_STRING,
        "exceptions": _STRINGS,
        "special": {"type": ["boolean", "null"]},
        "flat_count": {"enum": ["all", "exactly-one", "zero-known", "unknown"]},
    },
}

_VERTEX_RECORD = {
    "type": "object",
    "required": ["vertex", "multiplicity", "dual_cycle", "class"],
    "properties": {
        "vertex": {"type": "string"},
        "multiplicity": _INT_STRING,
        "dual_cycle": _CYCLE_ARRAY,
        "class": {"type": "array", "items": _INT_STRING},
        "min_rep": _CYCLE_ARRAY,
        "dual_is_min_rep": {"type": ["boolean", "null"]},
        "special": {"type": ["boolean", "null"]},
        "extended_rational": {"type": ["boolean", "null"]},
    },
}

_PAYLOADS = {
    "graph": _GRAPH_PAYLOAD,
    "cycle": {
        "type": "object",
        "required": ["vertices", "coefficients"],
        "properties": {"vertices": _STRINGS, "coefficients": _CYCLE_ARRAY},
    },
    "sequence": {
        "type": "object",
        "required": ["start", "steps", "end"],
        "properties": {
            "start": _CYCLE_ARRAY,
            "end": _CYCLE_ARRAY,
            "steps": {"type": "array",
                      "items": {"type": "object",
                                "required": ["vertex", "value"],
                                "properties": {"vertex": {"type": "string"},
                                               "value": _RATIONAL}}},
        },
    },
    "class-group": _CLASS_GROUP,
    "singularity": _SINGULARITY,
    "classification": {
        "type": "object",
        "required": ["graph", "singularity", "class_group", "families", "vertex_table"],
        "properties": {
            "graph": _GRAPH_PAYLOAD,
            "singularity": _SINGULARITY,
            "class_group": _CLASS_GROUP,
            "families": {"type": "array", "items": _FAMILY},
            "vertex_table": {"type": "array", "items": _VERTEX_RECORD},
            "notes": _STRINGS,
            "inclusion_only": {"type": "boolean"},
        },
    },
    "verification": {
        "type": "object",
        "required": ["checks", "passed"],
        "properties": {
            "passed": {"type": "boolean"},
            "checks": {"type": "array",
                       "items": {"type": "object",
                                 "required": ["name", "passed", "detail"],
                                 "properties": {"name": {"type": "string"},
                                                "passed": {"type": "boolean"},
                                                "detail": {"type": "string"}}}},
        },
    },
    # CLI composites
    "check": {"type": "object", "required": ["well_formed", "negative_definite"]},
    "invariants": {
        "type": "object",
        "required": ["determinant", "class_group", "fundamental_cycle", "canonical_cycle"],
    },
    "sh-table": {"type": "object", "required": ["rows"]},
    "special-table": {"type": "object", "required": ["rows"]},
    "blowup": {"type": "object", "required": ["graph", "source_text", "transform_table"]},
    "extend": {"type": "object", "required": ["graph", "source_text", "new_vertex"]},
    "catalog-list": {"type": "object", "required": ["names"]},
    "catalog-source": {"type": "object", "required": ["name", "source_text"]},
}


def schema_for(doc_type: str) -> dict:
    base = {
        "$schema": "https://json-schema.org/draft/2020-12/schema",
        "type": "object",
        "required": ["schema", "type"],
        "properties": {
            "schema": {"const": "singlat/1"},
            "type": {"const": doc_type},
        },
    }
    payload = _PAYLOADS[doc_type]
    merged = dict(base)
    merged["required"] = base["required"] + payload.get("required", [])
    merged["properties"] = {**base["properties"], **payload.get("properties", {})}
    return merged


def validate(doc: dict) -> None:
    """Validate a decoded document against its declared type's schema."""
    import jsonschema

    doc_type = doc.get("type")
    if doc_type not in _PAYLOADS:
        raise ValueError(f"unknown document type {doc_type!r}")
    jsonschema.validate(doc, schema_for(doc_type))
