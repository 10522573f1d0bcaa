"""Exact linear algebra on integer matrices.

One fraction-free Gauss-Jordan (Bareiss) elimination, `eliminate`, answers
every question about a square A in O(n^3): its pivots (the leading minors
up to the first one that is not positive, det(A) last) and, on [A | B],
adj(A) B. `determinant`, `is_positive_definite`, `solve` and `invert` are
views of it. The Smith normal form returns both unimodular transforms: the
left one gives cokernel coordinates, the right one the cokernel's
generators. It keeps A's rows sparse: a step costs O(n + m) plus the
nonzero entries its searches read, so on the matrix of a tree, whose rows
stay short, it takes O(n^2) where a dense form takes O(n^3).
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

    The pivot at step t is the entry of least absolute value in the rows and
    columns from t on, the first in row-major order among ties. It clears
    its column and then its row by division; when every remainder is zero,
    the first lower row holding an entry it does not divide is added to its
    row, and the step starts again. The rows of A are kept sparse, as
    {column: entry} dicts, so the two searches read only nonzero entries and
    a column operation touches only the rows that the row step left holding
    column t; u's rows and v's columns stay dense, O(n) or O(m) per
    operation.
    """
    n = len(rows)
    m = len(rows[0]) if n else 0
    a = [{j: x for j, x in enumerate(row) if x} for row in rows]
    u = identity(n)
    v_cols = identity(m)  # the columns of v
    # from step t on, the rows before t hold nothing in the columns from t on

    def row_add(i, j, q):
        # row_i += q * row_j
        row = a[i]
        for k, y in a[j].items():
            x = row.get(k, 0) + q * y
            if x:
                row[k] = x
            else:
                del row[k]
        u[i] = [x + q * y for x, y in zip(u[i], u[j])]

    def col_swap(t, j):
        for row in a[t:]:
            if t in row or j in row:
                x, y = row.pop(t, 0), row.pop(j, 0)
                if y:
                    row[t] = y
                if x:
                    row[j] = x
        v_cols[t], v_cols[j] = v_cols[j], v_cols[t]

    def pivot_position(t):
        # the first row holding the least |entry|, then its first column with it
        least, at = 0, None
        for i in range(t, n):
            if a[i]:
                x = min(map(abs, a[i].values()))
                if at is None or x < least:
                    least, at = x, i
                    if x == 1:  # no later entry is smaller
                        break
        if at is None:
            return None
        return at, min(j for j, x in a[at].items() if abs(x) == least)

    t = 0
    while t < min(n, m):
        pos = pivot_position(t)
        if pos is None:
            break
        while True:
            i, j = pos
            if i != t:
                a[t], a[i] = a[i], a[t]
                u[t], u[i] = u[i], u[t]
            if j != t:
                col_swap(t, j)
            p = a[t][t]
            holders = [t]  # the rows left with a nonzero in column t
            for i in range(t + 1, n):
                row = a[i]
                if t in row:
                    q, r = divmod(row[t], p)
                    if q:
                        row_add(i, t, -q)
                    if r:
                        holders.append(i)
            reduced = len(holders) == 1
            for j in sorted(a[t])[1:]:  # column t comes first in row t
                q, r = divmod(a[t][j], p)
                if q:  # col_j -= q * col_t
                    for i in holders:
                        row = a[i]
                        x = row.get(j, 0) - q * row[t]
                        if x:
                            row[j] = x
                        else:
                            del row[j]
                    v_cols[j] = [x - q * y for x, y in zip(v_cols[j], v_cols[t])]
                if r:
                    reduced = False
            if reduced:  # every remainder was zero: row and column t are clear
                # force the divisibility chain before moving on; a unit divides all
                culprit = None if abs(p) == 1 else next(
                    (i for i in range(t + 1, n) if any(x % p for x in a[i].values())), None)
                if culprit is None:
                    break
                row_add(t, culprit, 1)
            pos = pivot_position(t)
        if a[t][t] < 0:
            a[t] = {k: -x for k, x in a[t].items()}
            u[t] = [-x for x in u[t]]
        t += 1
    if any(a[t:]):  # pragma: no cover - loop invariant
        raise InternalError("smith normal form left a nonzero row behind")
    d = [a[i].get(i, 0) for i in range(min(n, m))]
    return d, u, [list(row) for row in zip(*v_cols)]
