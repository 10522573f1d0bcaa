"""The record classes behave as the frozen dataclasses they replace did.

Equality, hashing and repr are pinned per class; construction binds by
position or keyword with the same defaults and errors; assignment and
deletion raise; and the CLI's import path never loads `dataclasses` or
`inspect`.
"""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

import singlat
from singlat import (Box, Vertex, VerificationTranscript, blow_up, catalog, class_group, class_of,
                     classify_singularity, dual_basis, flat_annotation, full_sheaf_classes_rational,
                     fundamental_cycle, intersection_matrix, lattice_determinant, parse,
                     special_full_sheaves, verify_all, wunram_table)
from singlat.classify import FLAT_UNKNOWN, ClassificationReport, FullSheafFamily
from singlat.graph import vector_cycle
from singlat.oracle import CheckResult
from singlat.record import Record

# The records with slots derived from their arguments, which keep their own
# `__init__`; every other record is built by `Record.__init__`.
DERIVED = {"ResolutionGraph", "IntersectionMatrix", "Box"}


def samples(n):
    """One record of each class, built from the catalog graph A_n."""
    g = catalog(f"A{n}")
    cg = class_group(g)
    report = flat_annotation(g, full_sheaf_classes_rational(g))
    doc = parse(f"graph t\nvertex a euler=-{n}\nvertex b euler=-3 genus=1\nedge a b\n"
                f"cycle z E: a=1/{n} b=1\n")
    transcript = verify_all(g)
    return {
        "Vertex": Vertex("E1", -n),
        "ResolutionGraph": g,
        "IntersectionMatrix": intersection_matrix(g),
        "BlowUpMap": blow_up(catalog(f"A{n - 1}"), "v1")[1],
        "ClassElement": class_of(cg, dual_basis(g)["v1"]),
        "ClassGroup": cg,
        "LauferStep": fundamental_cycle(g).steps[-1],
        "ComputationSequence": fundamental_cycle(g),
        "SingularityType": classify_singularity(g),
        "FullSheafFamily": report.families[1],
        "SpecialnessRecord": special_full_sheaves(g)[1],
        "VertexRecord": wunram_table(g)[0],
        "ClassificationReport": ClassificationReport(g, report.singularity, report.class_order,
                                                     report.class_factors, report.families[:2],
                                                     report.vertex_table[:1], report.notes),
        "CycleDef": doc.cycles[0],
        "GraphDocument": doc,
        "Box": Box.for_graph(g, 2),
        "CheckResult": transcript.checks[n],
        "VerificationTranscript": VerificationTranscript(transcript.checks[:2]),
    }


# Per record class: the fields that ==, hash and repr use, whether the A2
# and A3 samples compare equal, and the repr of the A2 sample, all as the
# `dataclasses` versions of these classes gave them.
PINNED = {
    'Vertex': (
        ('id', 'euler', 'genus'),
        False,
        "Vertex(id='E1', euler=-2, genus=0)"),
    'ResolutionGraph': (
        ('vertices', 'edges'),
        False,
        "ResolutionGraph(vertices=(Vertex(id='v1', euler=-2, genus=0), Vertex(id='v2', euler="
        "-2, genus=0)), edges=(('v1', 'v2'),))"),
    'IntersectionMatrix': (
        ('ids', 'rows'),
        False,
        "IntersectionMatrix(ids=('v1', 'v2'), rows=((-2, 1), (1, -2)))"),
    'BlowUpMap': (
        ('source', 'target', 'locus', 'new_id'),
        False,
        "BlowUpMap(source=ResolutionGraph(vertices=(Vertex(id='v1', euler=-2, genus=0),), edg"
        "es=()), target=ResolutionGraph(vertices=(Vertex(id='v1', euler=-3, genus=0), Vertex("
        "id='new', euler=-1, genus=0)), edges=(('v1', 'new'),)), locus='v1', new_id='new')"),
    'ClassElement': (
        ('coords',),
        False,
        'ClassElement(coords=(2,))'),
    'ClassGroup': (
        ('graph', 'order', 'factors', 'generators', '_u_rows'),
        False,
        "ClassGroup(graph=ResolutionGraph(vertices=(Vertex(id='v1', euler=-2, genus=0), Verte"
        "x(id='v2', euler=-2, genus=0)), edges=(('v1', 'v2'),)), order=3, factors=(3,), gener"
        "ators=(RatCycle({'v1': Fraction(1, 3), 'v2': Fraction(2, 3)}),), _u_rows=((2, 1),))"),
    'LauferStep': (
        ('vertex', 'value'),
        False,
        "LauferStep(vertex='v2', value=Fraction(1, 1))"),
    'ComputationSequence': (
        ('start', 'steps', 'end'),
        False,
        "ComputationSequence(start=RatCycle({'v1': Fraction(1, 1)}), steps=(LauferStep(vertex"
        "='v2', value=Fraction(1, 1)),), end=RatCycle({'v1': Fraction(1, 1), 'v2': Fraction(1"
        ', 1)}))'),
    'SingularityType': (
        ('kind', 'rational', 'elliptic', 'minimally_elliptic', 'cusp', 'minimal_resolution',
         'numerically_gorenstein', 'tree_all_genus_zero', 'elliptic_cycle_support_is_all',
         'geometric_genus', 'warnings'),
        True,
        "SingularityType(kind='rational', rational=True, elliptic=False, minimally_elliptic=F"
        'alse, cusp=False, minimal_resolution=True, numerically_gorenstein=True, tree_all_gen'
        'us_zero=True, elliptic_cycle_support_is_all=None, geometric_genus=0, warnings=())'),
    'FullSheafFamily': (
        ('class_coords', 'chern_class', 'family_dim', 'exceptions', 'special', 'flat_count'),
        False,
        "FullSheafFamily(class_coords=(1,), chern_class=(1, 2), family_dim=0, exceptions=(), "
        "special=True, flat_count='all')"),
    'SpecialnessRecord': (
        ('class_coords', 'min_rep', 'pairing_with_fundamental', 'witness_vertex', 'h1_value',
         'special'),
        False,
        "SpecialnessRecord(class_coords=(2,), min_rep=(2, 1), pairing_with_fundamental=1, wit"
        "ness_vertex='v1', h1_value=0, special=True)"),
    'VertexRecord': (
        ('vertex', 'multiplicity', 'dual', 'class_coords', 'min_rep', 'dual_is_min_rep',
         'special', 'extended_rational'),
        False,
        "VertexRecord(vertex='v1', multiplicity=1, dual=(2, 1), class_coords=(2,), min_rep=(2"
        ", 1), dual_is_min_rep=True, special=True, extended_rational=True)"),
    'ClassificationReport': (
        ('graph', 'singularity', 'class_order', 'class_factors', 'families', 'vertex_table',
         'notes', 'inclusion_only'),
        False,
        "ClassificationReport(graph=ResolutionGraph(vertices=(Vertex(id='v1', euler=-2, genus"
        "=0), Vertex(id='v2', euler=-2, genus=0)), edges=(('v1', 'v2'),)), singularity=Singul"
        "arityType(kind='rational', rational=True, elliptic=False, minimally_elliptic=False, "
        'cusp=False, minimal_resolution=True, numerically_gorenstein=True, tree_all_genus_zer'
        'o=True, elliptic_cycle_support_is_all=None, geometric_genus=0, warnings=()), class_o'
        'rder=3, class_factors=(3,), families=(FullSheafFamily(class_coords=(0,), chern_class'
        "=(0, 0), family_dim=0, exceptions=(), special=True, flat_count='all'), FullSheafFami"
        "ly(class_coords=(1,), chern_class=(1, 2), family_dim=0, exceptions=(), special=True,"
        " flat_count='all')), vertex_table=(VertexRecord(vertex='v1', multiplicity=1, dual=(2"
        ", 1), class_coords=(2,), min_rep=(2, 1), dual_is_min_rep=True, special=True, extende"
        "d_rational=True),), notes=('minimal resolution: yes', 'all genera zero: yes'), inclu"
        "sion_only=False)"),
    'CycleDef': (
        ('name', 'basis', 'coeffs'),
        False,
        "CycleDef(name='z', basis='E', coeffs=(('a', Fraction(1, 2)), ('b', Fraction(1, 1))))"),
    'GraphDocument': (
        ('name', 'vertices', 'edges', 'cycles'),
        False,
        "GraphDocument(name='t', vertices=(Vertex(id='a', euler=-2, genus=0), Vertex(id='b', "
        "euler=-3, genus=1)), edges=(('a', 'b'),), cycles=(CycleDef(name='z', basis='E', coef"
        "fs=(('a', Fraction(1, 2)), ('b', Fraction(1, 1)))),))"),
    'Box': (
        ('bounds',),
        False,
        "Box(bounds=(('v1', 2), ('v2', 2)))"),
    'CheckResult': (
        ('name', 'passed', 'detail'),
        False,
        "CheckResult(name='chi-quadratic', passed=True, detail='quadratic identity holds on s"
        "ampled pairs')"),
    'VerificationTranscript': (
        ('checks',),
        False,
        "VerificationTranscript(checks=(CheckResult(name='dual-basis-pairings', passed=True, "
        "detail='2^2 pairings exact'), CheckResult(name='canonical-cycle-adjunction', passed="
        "True, detail='adjunction residuals all zero')))"),
}


@pytest.fixture(scope="module")
def pairs():
    a2, again, a3 = samples(2), samples(2), samples(3)
    return {name: (a2[name], again[name], a3[name]) for name in a2}


def test_every_record_class_is_pinned(pairs):
    assert sorted(pairs) == sorted(PINNED)
    for name, (record, _, _) in pairs.items():
        assert type(record).__name__ == name


@pytest.mark.parametrize("name", sorted(PINNED))
def test_eq_hash_and_repr_match_the_dataclasses(name, pairs):
    fields, equal_across, text = PINNED[name]
    record, again, other = pairs[name]
    assert record is not again and record == again and not record != again
    assert hash(record) == hash(again)
    assert (record == other) is equal_across
    assert hash(record) == hash(tuple(getattr(record, f) for f in fields))
    assert repr(record) == text
    assert record.__eq__(tuple(getattr(record, f) for f in fields)) is NotImplemented
    assert record != object()


# The A2 samples' cycle fields, numerators over det(-M) = 3 above, as the
# cycles the dataclass reprs pinned.
PINNED_CYCLES = {
    ("FullSheafFamily", "chern_class"): {"v1": Fraction(1, 3), "v2": Fraction(2, 3)},
    ("SpecialnessRecord", "min_rep"): {"v1": Fraction(2, 3), "v2": Fraction(1, 3)},
    ("VertexRecord", "dual"): {"v1": Fraction(2, 3), "v2": Fraction(1, 3)},
    ("VertexRecord", "min_rep"): {"v1": Fraction(2, 3), "v2": Fraction(1, 3)},
}


def test_cycle_fields_read_as_the_pinned_cycles(pairs):
    g = catalog("A2")
    det = lattice_determinant(g)
    for (name, field), coeffs in PINNED_CYCLES.items():
        assert vector_cycle(g, getattr(pairs[name][0], field), det) == singlat.RatCycle(coeffs)
    families = pairs["ClassificationReport"][0].families
    assert vector_cycle(g, families[0].chern_class, det) == singlat.RatCycle.zero()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_records_are_frozen(name, pairs):
    record = pairs[name][0]
    for field in PINNED[name][0]:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1


def arguments(record):
    """The constructor's keyword names for a record and its values there."""
    cls = type(record)
    names = cls._fields if cls.__name__ in DERIVED else cls.__slots__
    return names, [getattr(record, name) for name in names]


def subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)


RECORDS = {cls.__name__: cls for cls in subclasses(Record)}


def test_only_records_with_derived_slots_define_init():
    assert sorted(RECORDS) == sorted(PINNED)
    assert {name for name, cls in RECORDS.items() if "__init__" in vars(cls)} == DERIVED


@pytest.mark.parametrize("name", sorted(PINNED))
def test_keyword_and_positional_construction_agree(name, pairs):
    record = pairs[name][0]
    names, values = arguments(record)
    cls = type(record)
    built = (cls(*values), cls(**dict(zip(names, values))),
             cls(*values[:1], **dict(zip(names[1:], values[1:]))))
    for other in built:
        assert other == record and repr(other) == repr(record)
        assert all(getattr(other, n) == v for n, v in zip(names, values))


DEFAULTED = sorted((name, field) for name, cls in RECORDS.items()
                   for field in vars(cls).get("_defaults", ()))


def test_the_dataclass_defaults_are_kept():
    defaults = {name: vars(cls)["_defaults"] for name, cls in RECORDS.items()
                if "_defaults" in vars(cls)}
    assert defaults == {
        "Vertex": {"genus": 0},
        "GraphDocument": {"cycles": ()},
        "FullSheafFamily": {"exceptions": (), "special": None, "flat_count": FLAT_UNKNOWN},
        "ClassificationReport": {"notes": (), "inclusion_only": False},
    }


@pytest.mark.parametrize("name, field", DEFAULTED)
def test_an_omitted_field_takes_its_default(name, field, pairs):
    names, values = arguments(pairs[name][0])
    cls = RECORDS[name]
    given = {n: v for n, v in zip(names, values) if n != field}
    assert getattr(cls(**given), field) == cls._defaults[field]


def test_defaults_fill_trailing_positional_arguments():
    assert Vertex("E1", -2) == Vertex("E1", -2, 0)
    fam = FullSheafFamily((0,), (0, 0), 0)
    assert (fam.exceptions, fam.special, fam.flat_count) == ((), None, FLAT_UNKNOWN)
    assert FullSheafFamily((0,), (0, 0), 0, special=True).special is True


@pytest.mark.parametrize("build, message", [
    (lambda: Vertex("E1"), r"Vertex\(\) missing required arguments: 'euler'"),
    (lambda: CheckResult(name="c", passed=True),
     r"CheckResult\(\) missing required arguments: 'detail'"),
    (lambda: Vertex("E1", -2, colour="red"),
     r"Vertex\(\) got an unexpected keyword argument 'colour'"),
    (lambda: Vertex("E1", -2, id="E2"), r"Vertex\(\) got multiple values for argument 'id'"),
    (lambda: Vertex("E1", -2, 0, 1), r"Vertex\(\) takes 3 positional arguments but 4 were given"),
    (lambda: CheckResult("c", True, "ok", None), r"takes 3 positional arguments but 4"),
], ids=["missing", "missing-by-keyword", "unknown", "repeated", "too-many", "too-many-hot"])
def test_bad_arguments_raise_type_error(build, message):
    with pytest.raises(TypeError, match=message):
        build()


def test_equal_graphs_with_different_memos_compare_equal():
    cached, fresh = catalog("D5"), catalog("D5")
    lattice_determinant(cached)
    fundamental_cycle(cached)
    assert cached._memo and not fresh._memo
    assert cached == fresh and hash(cached) == hash(fresh)
    assert repr(cached) == repr(fresh)
    assert len({cached, fresh}) == 1


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # compared with a bare interpreter, which may load some modules itself
    probe = "import sys{}; print(' '.join(sorted(sys.modules)))"
    src = os.path.dirname(os.path.dirname(singlat.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)

    def loaded(statement):
        out = subprocess.run([sys.executable, "-c", probe.format(statement)], check=True,
                             capture_output=True, text=True, env=env).stdout
        return set(out.split())

    added = loaded(", singlat.cli") - loaded("")
    assert "singlat.cli" in added
    assert not added & {"dataclasses", "inspect"}
