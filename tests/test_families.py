"""The ADE families against their closed forms: A_n and D_n up to n = 80,
and E6, E7, E8.

The determinant, the invariant factors, the fundamental cycle (the highest
root) and the special classes of the simply laced Dynkin diagrams are
classical (Bourbaki, Lie groups, ch. VI, plates I-VII). They are written out
here by hand in the catalog's vertex names, with no climb, and the library
must reproduce them. Every nonzero class of an ADE graph is special, and its
minimal cycle is the dual of a vertex of multiplicity one.
"""

import pytest

from singlat import (RatCycle, catalog, class_group, dual_cycle, lattice_determinant,
                     special_full_sheaves)
from singlat.laufer import z_min_cycle

# every n up to 16, then every eighth up to 80: the eliminations of all
# n <= 80 alone would take seconds
SIZES = (*range(1, 17), *range(24, 81, 8))


def a_family(n):
    return n + 1, (n + 1,), {f"v{i}": 1 for i in range(1, n + 1)}


def d_family(n):
    root = {f"v{i}": 2 for i in range(2, n - 1)}
    root.update({"v1": 1, f"v{n - 1}": 1, f"v{n}": 1})
    return 4, (4,) if n % 2 else (2, 2), root


E_FAMILY = {
    "E6": (3, (3,), {"v1": 1, "v2": 2, "c": 3, "v3": 2, "v4": 1, "v5": 2}),
    "E7": (2, (2,), {"v1": 1, "v2": 2, "v3": 3, "c": 4, "v4": 3, "v5": 2, "v6": 2}),
    "E8": (1, (), {"v1": 2, "v2": 3, "v3": 4, "v4": 5, "c": 6, "v5": 4, "v6": 2, "v7": 3}),
}

CASES = ([(f"A{n}", a_family(n)) for n in SIZES]
         + [(f"D{n}", d_family(n)) for n in SIZES if n >= 4]
         + list(E_FAMILY.items()))


@pytest.mark.parametrize("name, closed_form", CASES, ids=[name for name, _ in CASES])
def test_ade_family_matches_its_closed_form(name, closed_form):
    det, factors, root = closed_form
    g = catalog(name)
    assert lattice_determinant(g) == det
    assert class_group(g).factors == factors
    assert z_min_cycle(g) == RatCycle(root)
    records = special_full_sheaves(g)
    assert len(records) == det - 1 and all(rec.special for rec in records)
    assert sorted(rec.witness_vertex for rec in records) == sorted(
        vid for vid, m in root.items() if m == 1)
    for rec in records:
        assert rec.min_rep == dual_cycle(g, rec.witness_vertex)
