import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from singlat import catalog, intersection_matrix
from singlat.dsl import catalog_names
from singlat.linalg import (determinant, eliminate, identity, invert, is_positive_definite,
                            smith_normal_form, solve)

from conftest import CORPUS_SEED


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)] for i in range(n)]


def cofactor_determinant(a):
    """Reference: Laplace expansion along the first row; no elimination."""
    if not a:
        return 1
    return sum((-1) ** j * x * cofactor_determinant([row[:j] + row[j + 1:] for row in a[1:]])
               for j, x in enumerate(a[0]) if x)


def test_determinant_known():
    assert determinant([[2]]) == 2
    assert determinant([[2, -1], [-1, 2]]) == 3
    assert determinant([[0, 1], [1, 0]]) == -1
    assert determinant([[1, 2], [2, 4]]) == 0


def test_positive_definite():
    assert is_positive_definite([[2]])
    assert not is_positive_definite([[0]])
    assert is_positive_definite([[2, -1], [-1, 2]])
    assert not is_positive_definite([[1, 2], [2, 1]])


def test_solve_exact():
    sol = solve([[2, 1], [1, 3]], [1, 0])
    assert sol == [Fraction(3, 5), Fraction(-1, 5)]
    with pytest.raises(ValueError):
        solve([[1, 1], [1, 1]], [1, 0])


def test_invert_roundtrip():
    m = [[3, -1, 0], [-1, 4, -1], [0, -1, 5]]
    inv = invert(m)
    prod = mat_mul(m, inv)
    assert prod == [[1 if i == j else 0 for j in range(3)] for i in range(3)]


def dense_smith_normal_form(rows):
    """Reference: the dense Smith form that `smith_normal_form` replays on
    sparse rows, with the same operations in the same order.

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
        if any(a[i][j] for j in range(m)):
            raise AssertionError("smith normal form left a nonzero row behind")
    d = [a[i][i] if i < m else 0 for i in range(min(n, m))]
    return d, u, v


square_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=n, max_size=n),
        min_size=n, max_size=n))

def _symmetric(n, diagonal, off_diagonal):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = diagonal[i]
        for j in range(i):
            rows[i][j] = rows[j][i] = off_diagonal[i * (i - 1) // 2 + j]
    return rows


# a heavy diagonal makes the positive-definite side common
symmetric_matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.builds(
        _symmetric, st.just(n),
        st.lists(st.integers(min_value=-2, max_value=9), min_size=n, max_size=n),
        st.lists(st.integers(min_value=-3, max_value=3),
                 min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2)))

rect_matrices = st.tuples(
    st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4)
).flatmap(lambda nm: st.lists(
    st.lists(st.integers(min_value=-9, max_value=9), min_size=nm[1], max_size=nm[1]),
    min_size=nm[0], max_size=nm[0]))


@given(rect_matrices)
def test_smith_normal_form_properties(a):
    d, u, v = smith_normal_form(a)
    n, m = len(a), len(a[0])
    # u a v is diagonal with the computed entries
    prod = mat_mul(mat_mul(u, a), v)
    for i in range(n):
        for j in range(m):
            expected = d[i] if i == j and i < len(d) else 0
            assert prod[i][j] == expected
    # divisibility chain and nonnegativity
    for i in range(len(d) - 1):
        assert d[i] >= 0
        if d[i]:
            assert d[i + 1] % d[i] == 0
        else:
            assert d[i + 1] == 0
    # u and v unimodular
    assert cofactor_determinant(u) in (1, -1)
    assert cofactor_determinant(v) in (1, -1)


@given(square_matrices)
def test_smith_preserves_determinant(a):
    d, _u, _v = smith_normal_form(a)
    product = 1
    for x in d:
        product *= x
    assert product == abs(cofactor_determinant(a))


@given(square_matrices)
def test_smith_right_columns_are_factor_multiples_of_left_inverse_columns(a):
    # from u a v = diag(d): a v e_i = d_i u^-1 e_i, which is how the class
    # group reads its generators off v alone
    if cofactor_determinant(a) == 0:
        return
    d, u, v = smith_normal_form(a)
    uinv = invert(u)
    n = len(a)
    for i in range(n):
        column = [sum(a[r][t] * v[t][i] for t in range(n)) for r in range(n)]
        assert column == [d[i] * uinv[r][i] for r in range(n)]


def leading_minors_positive(a):
    """Reference: every leading principal minor, each by cofactor expansion."""
    return all(cofactor_determinant([row[:k] for row in a[:k]]) > 0
               for k in range(1, len(a) + 1))


@given(square_matrices)
@example([[0, 1], [1, 0]])  # a zero pivot, mended by a swap
@example([[0, 0], [0, 1]])  # a column with no pivot
@example([[1, 2], [2, 4]])  # the last pivot vanishes
@example([[0, 2, 1], [3, 0, 0], [0, 1, 0]])
@example([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]])
def test_determinant_matches_cofactor_expansion(a):
    assert determinant(a) == cofactor_determinant(a)


@given(square_matrices)
def test_positive_definite_is_leading_minors(a):
    assert is_positive_definite(a) == leading_minors_positive(a)


@given(symmetric_matrices)
@example([[2, -1], [-1, 2]])
def test_positive_definite_symmetric(a):
    assert is_positive_definite(a) == leading_minors_positive(a)


@given(square_matrices, st.lists(st.integers(min_value=-9, max_value=9), min_size=4, max_size=4))
def test_invert_and_solve(a, b):
    n = len(a)
    b = b[:n]
    if cofactor_determinant(a) == 0:
        with pytest.raises(ValueError):
            invert(a)
        with pytest.raises(ValueError):
            solve(a, b)
        return
    assert mat_mul(a, invert(a)) == identity(n)
    x = solve(a, b)
    assert [sum(r * v for r, v in zip(row, x)) for row in a] == b
    # rational input: dividing row i and b_i by i + 1 leaves the solution alone
    scaled = [[Fraction(v, i + 1) for v in row] for i, row in enumerate(a)]
    assert mat_mul(scaled, invert(scaled)) == identity(n)
    assert solve(scaled, [Fraction(v, i + 1) for i, v in enumerate(b)]) == x


@given(symmetric_matrices, st.lists(st.integers(min_value=-9, max_value=9), min_size=5, max_size=5))
@example([[0, 1], [1, 0]], [1, 2, 0, 0, 0])
def test_eliminate_matches_invert_and_solve(a, b):
    n = len(a)
    b = b[:n]
    pivots, adj = eliminate(a, identity(n))
    assert eliminate(a)[0] == pivots
    assert pivots[-1] == cofactor_determinant(a) == determinant(a)
    assert all(p > 0 for p in pivots) == leading_minors_positive(a) == is_positive_definite(a)
    det = pivots[-1]
    if det == 0:
        return
    assert [[Fraction(x, det) for x in row] for row in adj] == invert(a)
    _, block = eliminate(a, [[x] for x in b])
    assert [Fraction(x, det) for (x,) in block] == solve(a, b)


def _seeded_integer_matrices(count=400, seed=CORPUS_SEED + 11):
    """Square and rectangular, sparse and dense, small and large entries:
    ties for the pivot, zero rows and columns, and remainders are common."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n, m = rng.randint(1, 7), rng.randint(1, 7)
        zeros, top = rng.choice((0, 1, 3)), rng.choice((2, 9, 60))
        out.append([[rng.choice([0] * zeros + [rng.randint(-top, top)]) for _ in range(m)]
                    for _ in range(n)])
    return out


def test_sparse_smith_form_replays_the_dense_reference(rational_corpus, negdef_corpus):
    graphs = [catalog(name) for name in (*catalog_names(), "A160", "A320", "D320")]
    graphs += [*rational_corpus, *negdef_corpus]
    matrices = [[list(row) for row in intersection_matrix(g).negated()] for g in graphs]
    matrices += _seeded_integer_matrices()
    for a in matrices:
        assert smith_normal_form(a) == dense_smith_normal_form(a), a
    assert len(matrices) > 400 + len(catalog_names()) + 140
