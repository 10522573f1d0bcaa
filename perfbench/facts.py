"""Lattice facts computed apart from the code under test.

Everything here works on a plain graph description (Euler numbers, genera
and an edge list, in declaration order) with its own integer and
`Fraction` arithmetic. Nothing imports `singlat`, so the benchmark can
judge the program's outputs and choose its inputs without sharing a cache
or a code path with it.
"""

from __future__ import annotations

import math
from fractions import Fraction


class Spec:
    """A decorated graph: vertex ids, Euler numbers, genera, edges."""

    def __init__(self, name, ids, eulers, edges, genera=None):
        self.name = name
        self.ids = tuple(ids)
        self.eulers = tuple(eulers)
        self.genera = tuple(genera) if genera is not None else (0,) * len(self.ids)
        self.edges = tuple(edges)
        pos = {vid: i for i, vid in enumerate(self.ids)}
        n = len(self.ids)
        m = [[0] * n for _ in range(n)]
        for i, e in enumerate(self.eulers):
            m[i][i] = e
        for u, v in self.edges:
            m[pos[u]][pos[v]] += 1
            m[pos[v]][pos[u]] += 1
        self.matrix = m
        self.targets = [e + 2 - 2 * g for e, g in zip(self.eulers, self.genera)]

    @property
    def n(self):
        return len(self.ids)

    def text(self) -> str:
        """The graph in the program's line format."""
        lines = [f"graph {self.name}"]
        for vid, e, g in zip(self.ids, self.eulers, self.genera):
            lines.append(f"vertex {vid} euler={e}" + (f" genus={g}" if g else ""))
        lines += [f"edge {u} {v}" for u, v in self.edges]
        return "\n".join(lines) + "\n"

    @property
    def is_tree(self):
        return len(self.edges) == self.n - 1

    @property
    def is_minimal(self):
        return not any(e == -1 and g == 0 for e, g in zip(self.eulers, self.genera))

    @property
    def is_cycle_graph(self):
        degree = [0] * self.n
        pos = {vid: i for i, vid in enumerate(self.ids)}
        for u, v in self.edges:
            degree[pos[u]] += 1
            degree[pos[v]] += 1
        return len(self.edges) == self.n and all(d == 2 for d in degree)


def determinant(rows) -> int:
    """Exact determinant by fraction-free elimination with row pivoting."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def neg(m):
    return [[-x for x in row] for row in m]


def det(spec: Spec) -> int:
    """det(-M), the order of the discriminant group."""
    return determinant(neg(spec.matrix))


def continuant(weights) -> int:
    """det(-M) of a chain with self-intersections -b_i, by the recursion
    K_i = b_i K_{i-1} - K_{i-2}."""
    prev, cur = 0, 1
    for b in weights:
        prev, cur = cur, b * cur - prev
    return cur


def negative_definite(spec: Spec) -> bool:
    m = neg(spec.matrix)
    return all(determinant([r[:k] for r in m[:k]]) > 0 for k in range(1, spec.n + 1))


def pairings(spec: Spec, z) -> list:
    m = spec.matrix
    return [sum(m[i][j] * z[j] for j in range(spec.n) if z[j]) for i in range(spec.n)]


def is_antinef(spec: Spec, z) -> bool:
    return all(p <= 0 for p in pairings(spec, z))


def fundamental_cycle(spec: Spec) -> list[int]:
    """Laufer's algorithm in integers: start at the reduced cycle and add a
    vertex that pairs positively until none does."""
    z = [1] * spec.n
    p = pairings(spec, z)
    m = spec.matrix
    while True:
        i = next((i for i, v in enumerate(p) if v > 0), None)
        if i is None:
            return z
        z[i] += 1
        for j in range(spec.n):
            p[j] += m[i][j]


def chi(spec: Spec, z) -> Fraction:
    """-(z, z - K)/2, through the adjunction targets (K is never formed)."""
    p = pairings(spec, z)
    quad = sum(Fraction(a) * b for a, b in zip(z, p))
    with_k = sum(Fraction(a) * t for a, t in zip(z, spec.targets))
    return -(quad - with_k) / 2


def solve(rows, rhs) -> list[Fraction]:
    """Gauss-Jordan over `Fraction`; the matrix is assumed invertible."""
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col])
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]


def canonical_cycle(spec: Spec) -> list[Fraction]:
    """The cycle K with (K, E_v) = E_v^2 + 2 - 2 g_v for every vertex."""
    return solve(spec.matrix, spec.targets)


def grid_points(z) -> int:
    """Number of integral cycles 0 <= D <= z."""
    return math.prod(int(c) + 1 for c in z)


def elliptic_cycle(spec: Spec, z) -> list[int] | None:
    """Coefficient-wise minimum of the nonzero integral cycles below z with
    chi zero, or None when that minimum does not itself have chi zero.

    Walks the grid odometer-style with the quadratic form kept up to date,
    so each point costs O(n) integer work.
    """
    n, m, t = spec.n, spec.matrix, spec.targets
    coeffs = [0] * n
    p = [0] * n
    quad = tau = 0
    best = None
    while True:
        pos = n - 1
        while pos >= 0 and coeffs[pos] == z[pos]:
            c = coeffs[pos]
            quad -= 2 * c * p[pos] - c * c * m[pos][pos]
            for j in range(n):
                p[j] -= c * m[pos][j]
            tau -= c * t[pos]
            coeffs[pos] = 0
            pos -= 1
        if pos < 0:
            break
        quad += 2 * p[pos] + m[pos][pos]
        for j in range(n):
            p[j] += m[pos][j]
        tau += t[pos]
        coeffs[pos] += 1
        if tau == quad:  # chi = -(quad - tau) / 2 = 0
            best = list(coeffs) if best is None else [min(a, b) for a, b in zip(best, coeffs)]
    if best is None or chi(spec, best) != 0:
        return None
    return best


def singularity_kind(spec: Spec) -> dict:
    """The verdicts the lattice determines, by the textbook definitions.

    Rational: a tree of rational curves with chi(Z_min) = 1 (Artin).
    Elliptic: not rational and chi(Z_min) = 0. Minimally elliptic: the
    elliptic cycle is the canonical cycle, and on a minimal resolution also
    the fundamental cycle (Laufer). Cusp: a minimal cycle of rational curves.
    """
    z = fundamental_cycle(spec)
    k = canonical_cycle(spec)
    genus0 = all(g == 0 for g in spec.genera)
    c = chi(spec, z)
    rational = spec.is_tree and genus0 and c == 1
    elliptic = not rational and c == 0
    min_elliptic = False
    support_all = None
    if elliptic:
        e = elliptic_cycle(spec, z)
        if e is not None:
            support_all = all(x > 0 for x in e)
            core = all(q.denominator == 1 for q in k) and e == k
            min_elliptic = core and (e == z or not spec.is_minimal)
    cusp = spec.is_cycle_graph and genus0 and spec.is_minimal
    if rational:
        kind = "rational"
    elif cusp:
        kind = "cusp"
    elif min_elliptic:
        kind = "minimally-elliptic"
    elif elliptic:
        kind = "elliptic"
    else:
        kind = "other"
    return {"kind": kind, "fundamental": z, "canonical": k, "chi": c,
            "minimally_elliptic": min_elliptic, "support_all": support_all,
            "gorenstein": all(q.denominator == 1 for q in k)}


# Highest-root coefficients, in the vertex order of the program's catalog.
def highest_root(name: str, n: int) -> list[int] | None:
    if name.startswith("A"):
        return [1] * n
    if name.startswith("D"):
        return [1] + [2] * (n - 3) + [1, 1]
    return {"E6": [1, 2, 3, 2, 1, 2],
            "E7": [1, 2, 3, 4, 3, 2, 2],
            "E8": [2, 3, 4, 5, 6, 4, 2, 3]}.get(name)
