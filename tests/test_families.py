"""The ADE families against their closed forms: A_n and D_n up to n = 80,
and E6, E7, E8; the cyclic quotients 1/n(1, q) up to n = 40; and the
extensions and the `sh` step counts of A_n up to n = 30.

The determinant, the invariant factors, the fundamental cycle (the highest
root) and the special classes of the simply laced Dynkin diagrams are
classical (Bourbaki, Lie groups, ch. VI, plates I-VII). They are written out
here by hand in the catalog's vertex names, with no climb, and the library
must reproduce them. Every nonzero class of an ADE graph is special, and its
minimal cycle is the dual of a vertex of multiplicity one.

The resolution of 1/n(1, q) is the Hirzebruch-Jung chain of the continued
fraction n/q = b_1 - 1/(b_2 - ... - 1/b_r). Its determinant is the continuant
of the b_i, which is n; its class group is cyclic; its fundamental cycle is
the sum of all vertices; and its special classes are exactly the duals of
its vertices, one per vertex (Wunram, Math. Ann. 279, 1988).
"""

import json
from fractions import Fraction
from math import floor, gcd

import pytest

from singlat import (RatCycle, catalog, class_group, dual_cycle, extend_graph, lattice_determinant,
                     special_full_sheaves)
from singlat.cli import main
from singlat.graph import vector_cycle
from singlat.laufer import z_min_cycle

from conftest import graph

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
        assert vector_cycle(g, rec.min_rep, det) == dual_cycle(g, rec.witness_vertex)


def continued_fraction(n, q):
    """b_1, ..., b_r, each at least 2, with n/q = b_1 - 1/(b_2 - ... - 1/b_r)."""
    bs = []
    while q:
        b = -(-n // q)
        bs.append(b)
        n, q = q, b * q - n
    return bs


def continuant(bs):
    """K(b_1, ..., b_r) by K_i = b_i K_(i-1) - K_(i-2), from K_0 = 1, K_(-1) = 0."""
    before, current = 0, 1
    for b in bs:
        before, current = current, b * current - before
    return current


def chain(bs):
    ids = [f"e{i}" for i in range(1, len(bs) + 1)]
    return graph([(vid, -b) for vid, b in zip(ids, bs)], list(zip(ids, ids[1:])))


def test_continued_fraction_and_continuant():
    assert continued_fraction(7, 3) == [3, 2, 2]
    assert continued_fraction(5, 4) == [2, 2, 2, 2]
    assert continued_fraction(9, 1) == [9]
    assert continuant([3, 2, 2]) == 7


@pytest.mark.parametrize("n", range(2, 41))
def test_cyclic_quotient_chains_match_their_closed_form(n):
    """Every q coprime to n."""
    for q in range(1, n):
        if gcd(n, q) != 1:
            continue
        bs = continued_fraction(n, q)
        assert continuant(bs) == n
        g = chain(bs)
        assert lattice_determinant(g) == n
        assert class_group(g).factors == (n,)
        assert z_min_cycle(g) == RatCycle({vid: 1 for vid in g.ids})
        specials = [rec for rec in special_full_sheaves(g) if rec.special]
        assert sorted(rec.witness_vertex for rec in specials) == sorted(g.ids), (n, q)
        for rec in specials:
            assert vector_cycle(g, rec.min_rep, n) == dual_cycle(g, rec.witness_vertex)


def a_dual(n, i):
    """E_i^* on A_n: (E_i^*, E_j) = -1 if j = i and 0 otherwise."""
    return {f"v{j}": Fraction(min(i, j) * (n + 1 - max(i, j)), n + 1) for j in range(1, n + 1)}


@pytest.mark.parametrize("n", range(1, 31))
def test_a_n_extension_fundamental_cycle(n):
    """Z_min of A_n extended at v_i is E_i^* + E_(n+1-i)^* + E_new."""
    a = catalog(f"A{n}")
    for i in range(1, n + 1):
        ext = extend_graph(a, f"v{i}")
        (new,) = set(ext.ids) - set(a.ids)
        left, right = a_dual(n, i), a_dual(n, n + 1 - i)
        expected = {vid: left[vid] + right[vid] for vid in a.ids}
        expected[new] = 1
        assert z_min_cycle(ext) == RatCycle(expected), (n, i)


@pytest.mark.parametrize("n", range(1, 31))
def test_a_n_sh_steps(n, capsys):
    """Each step of a climb adds one unit, and the climb to a minimal cycle
    E_i^* starts from its fractional parts, so an `sh` row of A_n whose
    minimal cycle is E_i^* takes sum_j floor(E_i^*_j) steps; the zero class
    takes none. Every nonzero class of A_n has a dual as its minimal cycle."""
    assert main(["sh", "--catalog", f"A{n}", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    ids = [vert["id"] for vert in doc["graph"]["vertices"]]
    steps = {}
    for i in range(1, n + 1):
        dual = a_dual(n, i)
        steps[tuple(dual[vid] for vid in ids)] = sum(floor(x) for x in dual.values())
    steps[(0,) * n] = 0
    for row in doc["rows"]:
        min_rep = tuple(Fraction(int(x["num"]), int(x["den"])) for x in row["min_rep"])
        assert row["steps"] == str(steps.pop(min_rep)), (n, row["class"])
    assert steps == {}, n
