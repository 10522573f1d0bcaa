"""Exact linear algebra for small dense matrices.

One fraction-free Gauss-Jordan (Bareiss) elimination, `eliminate`, answers
every question about a square A: its pivots (the leading minors up to the
first one that is not positive, det(A) last) and, on [A | B], adj(A) B.
`determinant`, `is_positive_definite`, `solve` and `invert` are views of it.
The Smith normal form returns both unimodular transforms: the left one
gives cokernel coordinates, the right one the cokernel's generators.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InternalError


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def eliminate(rows, rhs_rows=None) -> tuple[list[int], list[list[int]]]:
    """One fraction-free Gauss-Jordan elimination (Bareiss, 1968) of [A | B],
    A square and integer: its pivots, and the integer block it leaves, which
    is adj(A) B when det(A) != 0.

    Up to the first zero pivot, the k-th pivot is the k-th leading minor. A
    zero pivot is mended by swapping in a lower row and negating the other,
    which keeps the determinant, so the last pivot is det(A); a column with
    no pivot gives 0 and ends the elimination.
    """
    a = [list(r) + list(b) for r, b in zip(rows, rhs_rows or [()] * len(rows))]
    n = len(a)
    pivots, prev = [], 1
    for k in range(n):
        pivots.append(a[k][k])
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                break
            a[k], a[swap] = a[swap], [-x for x in a[k]]
        p, pivot_row = a[k][k], a[k][k:]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i][k:] = [(p * x - f * y) // prev for x, y in zip(a[i][k:], pivot_row)]
        prev = p
    return pivots, [row[n:] for row in a]


def determinant(rows) -> int:
    """Exact determinant of a square integer matrix."""
    if any(len(r) != len(rows) for r in rows):
        raise ValueError("matrix is not square")
    return [1, *eliminate(rows)[0]][-1]  # the last pivot; 1 for the empty matrix


def is_positive_definite(rows) -> bool:
    """True iff every leading principal minor of the integer matrix is > 0."""
    return all(pivot > 0 for pivot in eliminate(rows)[0])


def _solve_block(rows, rhs_rows) -> list[list[Fraction]]:
    """The exact X with A X = B; rows of A and B may be rational."""
    scale = math.lcm(*(x.denominator for row in (*rows, *rhs_rows) for x in row))  # leaves X alone
    pivots, block = eliminate([[int(x * scale) for x in row] for row in rows],
                              [[int(x * scale) for x in row] for row in rhs_rows])
    det = [1, *pivots][-1]
    if det == 0:
        raise ValueError("singular matrix")
    return [[Fraction(x, det) for x in row] for row in block]


def solve(rows, rhs) -> list[Fraction]:
    """Solve A x = b exactly; raises ValueError on a singular matrix."""
    return [x for (x,) in _solve_block(rows, [[b] for b in rhs])]


def invert(rows) -> list[list[Fraction]]:
    """Exact inverse of a square integer or rational matrix."""
    return _solve_block(rows, identity(len(rows)))


def smith_normal_form(rows):
    """Diagonalise an integer matrix by unimodular row/column operations.

    Returns ``(d, u, v)`` with ``u @ A @ v`` diagonal with entries ``d``
    satisfying ``d[i] >= 0`` and ``d[i] | d[i+1]``, ``u`` and ``v`` unimodular.
    """
    a = [list(r) for r in rows]
    n = len(a)
    m = len(a[0]) if n else 0
    u = identity(n)
    v = identity(m)

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def row_negate(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    def row_add(i, j, q):
        # row_i += q * row_j
        a[i] = [x + q * y for x, y in zip(a[i], a[j])]
        u[i] = [x + q * y for x, y in zip(u[i], u[j])]

    def col_swap(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def col_add(j, k, q):
        # col_j += q * col_k
        for r in a:
            r[j] += q * r[k]
        for r in v:
            r[j] += q * r[k]

    def pivot_position(t):
        best = None
        for i in range(t, n):
            for j in range(t, m):
                if a[i][j] and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        return best

    t = 0
    while t < min(n, m):
        pos = pivot_position(t)
        if pos is None:
            break
        while True:
            i, j = pos
            if i != t:
                row_swap(t, i)
            if j != t:
                col_swap(t, j)
            p = a[t][t]
            reduced = True
            for i in range(t + 1, n):
                if a[i][t]:
                    q, r = divmod(a[i][t], p)
                    row_add(i, t, -q)
                    if r:
                        reduced = False
            for j in range(t + 1, m):
                if a[t][j]:
                    q, r = divmod(a[t][j], p)
                    col_add(j, t, -q)
                    if r:
                        reduced = False
            if reduced:  # every remainder was zero: row and column t are clear
                # force the divisibility chain before moving on
                culprit = None
                for i in range(t + 1, n):
                    for j in range(t + 1, m):
                        if a[i][j] % p:
                            culprit = i
                            break
                    if culprit is not None:
                        break
                if culprit is None:
                    break
                row_add(t, culprit, 1)
            pos = pivot_position(t)
        if a[t][t] < 0:
            row_negate(t)
        t += 1
    for i in range(t, n):
        if any(a[i][j] for j in range(m)):  # pragma: no cover - loop invariant
            raise InternalError("smith normal form left a nonzero row behind")
    d = [a[i][i] if i < m else 0 for i in range(min(n, m))]
    return d, u, v
