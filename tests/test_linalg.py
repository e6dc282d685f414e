"""Exact linear algebra: hand-checked small cases plus randomized properties
(rank-nullity, double inversion, and the sparse per-field kernels against
the generic dense Fraction elimination kept here as the oracle)."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from jumploci.linalg import (LinalgError, Matrix, det, invert, kernel_basis,
                             rank, rref, solve, vstack_all)
from jumploci.scalars import GF, QQ


FIELDS = [QQ, GF(3), GF(5), GF(2 ** 31 - 1), GF(2 ** 61 - 1)]


def qm(rows):
    return Matrix(QQ, [[Fraction(x) for x in r] for r in rows])


def test_rank_hand_cases():
    assert rank(qm([[1, 2], [2, 4]])) == 1
    assert rank(qm([[1, 0], [0, 1]])) == 2
    assert rank(Matrix.zero(QQ, 3, 4)) == 0
    # [DERIVED by hand] row3 = row1 + row2, so rank 2
    assert rank(qm([[1, 2, 3], [0, 1, 1], [1, 3, 4]])) == 2


def test_kernel_hand_case():
    # x + 2y + 3z = 0, y + z = 0  ==>  kernel spanned by (-1, -1, 1)
    m = qm([[1, 2, 3], [0, 1, 1]])
    ker = kernel_basis(m)
    assert len(ker) == 1
    v = ker[0]
    assert [QQ.is_zero(x) for x in m.apply(v)] == [True, True]
    scaled = [Fraction(-1), Fraction(-1), Fraction(1)]
    ratio = v[2]
    assert v == [x * ratio for x in scaled]


def test_kernel_free_columns_deterministic():
    m = qm([[1, 1, 1]])
    ker = kernel_basis(m)
    # free columns in increasing index order: second coordinate first
    assert ker[0][1] == 1 and ker[0][2] == 0
    assert ker[1][2] == 1 and ker[1][1] == 0


def test_det_and_invert():
    m = qm([[2, 1], [1, 1]])
    assert det(m) == 1
    inv = invert(m)
    assert inv @ m == Matrix.identity(QQ, 2)
    assert invert(qm([[1, 2], [2, 4]])) is None
    with pytest.raises(LinalgError):
        invert(qm([[1, 2, 3], [4, 5, 6]]))


def test_solve_consistent_and_not():
    m = qm([[1, 2], [3, 4]])
    x = solve(m, [Fraction(5), Fraction(11)])
    assert m.apply(x) == [Fraction(5), Fraction(11)]
    assert solve(qm([[1, 1], [1, 1]]), [Fraction(0), Fraction(1)]) is None


def test_gf3_elimination():
    f = GF(3)
    m = Matrix(f, [[1, 2], [2, 1]])
    # det = 1 - 4 = -3 = 0 mod 3
    assert f.is_zero(det(m))
    assert rank(m) == 1
    assert len(kernel_basis(m)) == 1


def test_mixed_field_rejected():
    a = Matrix(QQ, [[Fraction(1)]])
    b = Matrix(GF(3), [[1]])
    with pytest.raises(Exception):
        a @ b


def test_stacking():
    f = GF(3)
    top = Matrix(f, [[1, 2]])
    bottom = Matrix(f, [[0, 1], [1, 1]])
    s = vstack_all(f, [top, bottom], 2)
    assert s.shape == (3, 2)
    assert s.row(2) == [1, 1]
    h = top.hstack(Matrix(f, [[2, 0]]))
    assert h.shape == (1, 4)


def test_rref_idempotent():
    m = qm([[2, 4, 1], [1, 2, 0]])
    r, pivots = rref(m)
    again, pivots2 = rref(r)
    assert again == r
    assert pivots == pivots2 == [0, 2]


@seed(20260818)
@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=4, max_size=4),
                min_size=1, max_size=5))
def test_rank_nullity_over_q(rows):
    m = qm(rows)
    assert rank(m) + len(kernel_basis(m)) == m.ncols


@seed(20260818)
@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(0, 4), min_size=3, max_size=3),
                min_size=3, max_size=3))
def test_double_inverse_gf5(rows):
    f = GF(5)
    m = Matrix(f, rows)
    if f.is_zero(det(m)):
        assert rank(m) < 3
        return
    assert invert(invert(m)) == m


def _entries(f):
    if f is QQ:
        return st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6),
                         st.integers(1, 10 ** 6))
    return st.integers(0, f.p - 1)


@st.composite
def dependent_matrices(draw, f):
    """Rows that are free, zero, a repeat or a combination of two earlier
    rows, so low ranks and cancellations are common."""
    ncols = draw(st.integers(0, 7))
    entry = st.one_of(st.just(f.zero), _entries(f))
    rows = []
    for kind in draw(st.lists(st.sampled_from(
            ("free", "free", "zero", "repeat", "combo")), max_size=8)):
        if kind == "zero":
            rows.append([f.zero] * ncols)
        elif kind == "repeat" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        elif kind == "combo" and rows:
            u, v = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            a, b = f.coerce(draw(entry)), f.coerce(draw(entry))
            rows.append([f.add(f.mul(a, x), f.mul(b, y))
                         for x, y in zip(u, v)])
        else:
            rows.append(draw(st.lists(entry, min_size=ncols,
                                      max_size=ncols)))
    return Matrix(f, rows, ncols=ncols)


@pytest.mark.parametrize("f", FIELDS, ids=repr)
@seed(20260818)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_rank_matches_rref_oracle(f, data):
    m = data.draw(dependent_matrices(f))
    assert rank(m) == len(rref(m)[1])


@pytest.mark.parametrize("f", FIELDS, ids=repr)
def test_rank_edge_shapes(f):
    one = f.coerce(7)
    row = [one, f.coerce(2), f.zero]
    cases = [Matrix(f, [], ncols=4), Matrix(f, [[], [], []], ncols=0),
             Matrix(f, [[one]]), Matrix(f, [[f.zero]]),
             Matrix.zero(f, 3, 5), Matrix(f, [row, row, row]),
             Matrix(f, [[f.zero] * 3, row, [f.zero] * 3, row])]
    for m in cases:
        assert rank(m) == len(rref(m)[1])
    assert [rank(m) for m in cases] == [0, 0, 1, 0, 0, 1, 1]


# -- the generic Fraction elimination, kept as the oracle of the sparse
# -- per-field kernels: dense rows, one field method call per entry.

def oracle_rref(f, rows, ncols):
    """Reduced row echelon form of dense rows: (rows, pivot columns)."""
    rows = [list(r) for r in rows]
    pivots = []
    pr = 0
    for pc in range(ncols):
        pivot = next((i for i in range(pr, len(rows))
                      if not f.is_zero(rows[i][pc])), None)
        if pivot is None:
            continue
        rows[pr], rows[pivot] = rows[pivot], rows[pr]
        inv = f.inv(rows[pr][pc])
        rows[pr] = [f.mul(inv, x) for x in rows[pr]]
        for i in range(len(rows)):
            if i != pr and not f.is_zero(rows[i][pc]):
                c = rows[i][pc]
                rows[i] = [f.sub(x, f.mul(c, y))
                           for x, y in zip(rows[i], rows[pr])]
        pivots.append(pc)
        pr += 1
    return rows, pivots


def oracle_kernel(f, rows, ncols):
    red, pivots = oracle_rref(f, rows, ncols)
    basis = []
    for j in range(ncols):
        if j not in pivots:
            v = [f.zero] * ncols
            v[j] = f.one
            for r, pc in enumerate(pivots):
                v[pc] = f.neg(red[r][j])
            basis.append(v)
    return basis


def oracle_solve(f, rows, ncols, b):
    red, pivots = oracle_rref(f, [r + [x] for r, x in zip(rows, b)],
                              ncols + 1)
    if ncols in pivots:
        return None
    x = [f.zero] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return x


def oracle_det(f, rows):
    """Laplace expansion along the first row."""
    if not rows:
        return f.one
    total = f.zero
    for j, x in enumerate(rows[0]):
        if not f.is_zero(x):
            term = f.mul(x, oracle_det(f, [r[:j] + r[j + 1:]
                                           for r in rows[1:]]))
            total = f.add(total, f.neg(term) if j % 2 else term)
    return total


def oracle_invert(f, rows):
    n = len(rows)
    unit = [[f.one if i == j else f.zero for j in range(n)] for i in range(n)]
    red, pivots = oracle_rref(f, [r + u for r, u in zip(rows, unit)], 2 * n)
    if pivots[:n] != list(range(n)):
        return None
    return [r[n:] for r in red[:n]]


@st.composite
def shaped_matrices(draw, f):
    """Wide, tall, square, empty and all-zero shapes, with dependent rows
    from ``dependent_matrices`` or sparse random entries."""
    kind = draw(st.sampled_from(("dependent", "sparse", "zero")))
    if kind == "dependent":
        return draw(dependent_matrices(f))
    nrows, ncols = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    if kind == "zero":
        return Matrix.zero(f, nrows, ncols)
    entry = st.one_of(st.just(f.zero), st.just(f.zero), _entries(f))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    return Matrix(f, rows, ncols=ncols)


@pytest.mark.parametrize("f", FIELDS, ids=repr)
@seed(20261018)
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_sparse_kernels_match_fraction_oracle(f, data):
    m = data.draw(shaped_matrices(f))
    dense, n = m.to_lists(), m.ncols
    red, pivots = oracle_rref(f, dense, n)
    assert rank(m) == len(pivots)
    got, got_pivots = rref(m)
    assert got_pivots == pivots and got.to_lists() == red
    assert kernel_basis(m) == oracle_kernel(f, dense, n)
    b = [f.coerce(x) for x in data.draw(st.lists(
        _entries(f), min_size=m.nrows, max_size=m.nrows))]
    assert solve(m, b) == oracle_solve(f, dense, n, b)
    k = min(m.nrows, n, 6)
    square = Matrix(f, [r[:k] for r in dense[:k]], ncols=k)
    sq = square.to_lists()
    assert det(square) == oracle_det(f, sq)
    inv = invert(square)
    assert (inv.to_lists() if inv is not None else None) == \
        oracle_invert(f, sq)


# -- shapes on which the fewest-live-rows column order of ``rank`` and
# -- ``det`` departs from the natural order that the reduced forms keep.

STRUCTURED_FIELDS = [QQ, GF(3), GF(2 ** 31 - 1)]


def _nonzero(rng):
    return rng.choice((-1, 1)) * rng.randint(1, 9)


def arrow(rng, n):
    """Dense first row and column on a diagonal: column 0 holds n rows,
    every other column two."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[0][i], rows[i][0], rows[i][i] = (_nonzero(rng), _nonzero(rng),
                                             _nonzero(rng))
    return rows


def permuted_diagonal(rng, n):
    """One entry per row and column, at a random permutation."""
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [[0] * n for _ in range(n)]
    for i, j in enumerate(perm):
        rows[i][j] = _nonzero(rng)
    return rows


def kronecker(rng, k, l, r):
    """d (x) I + L (x) theta, as the twisted differentials are assembled:
    sparse k x l blocks d and L, a dense r x r theta."""
    def block(h, w):
        return [[_nonzero(rng) if rng.random() < 0.5 else 0
                 for _ in range(w)] for _ in range(h)]
    d, L, theta = block(k, l), block(k, l), block(r, r)
    return [[d[a][b] * (s == t) + L[a][b] * theta[s][t]
             for b in range(l) for t in range(r)]
            for a in range(k) for s in range(r)]


def structured_cases(seed):
    rng = random.Random(seed)
    cases = [arrow(rng, n) for n in range(2, 7)]
    cases += [permuted_diagonal(rng, n) for n in range(1, 7)]
    cases += [kronecker(rng, k, l, r)
              for k, l, r in ((2, 2, 2), (3, 3, 2), (2, 2, 3), (3, 2, 2))]
    # arrows with their head at the last row and column
    cases += [[r[::-1] for r in arrow(rng, n)[::-1]] for n in (4, 6)]
    return cases + [[list(c) for c in zip(*m)] for m in cases]


@pytest.mark.parametrize("f", STRUCTURED_FIELDS, ids=repr)
@pytest.mark.parametrize("case_seed", range(4))
def test_rank_and_det_on_structured_shapes(f, case_seed):
    for rows in structured_cases(case_seed):
        m = Matrix(f, rows)
        dense = m.to_lists()
        assert rank(m) == len(oracle_rref(f, dense, m.ncols)[1])
        if m.nrows == m.ncols:
            assert det(m) == oracle_det(f, dense)


@pytest.mark.parametrize("f", STRUCTURED_FIELDS, ids=repr)
def test_reduced_forms_keep_natural_column_order(f):
    rng = random.Random(5)
    for rows in (arrow(rng, 5), [r + [0] for r in arrow(rng, 5)],
                 kronecker(rng, 3, 2, 2), kronecker(rng, 2, 3, 2)):
        m = Matrix(f, rows)
        dense, n = m.to_lists(), m.ncols
        red, pivots = oracle_rref(f, dense, n)
        got, got_pivots = rref(m)
        assert got_pivots == pivots == sorted(pivots)
        assert got.to_lists() == red
        assert kernel_basis(m) == oracle_kernel(f, dense, n)

