"""Dense exact linear algebra over the rationals and odd prime fields.

Matrices are dense, row-major lists over a single field object from
``scalars``.  Everything is computed by exact elimination — no floating
point anywhere.  Kernel bases and solutions are deterministic: free columns
are taken in increasing index order, so repeated runs give identical output.

``rank`` stops at echelon form and has one kernel per field: over Q,
fraction-free elimination on integer rows with the denominators cleared;
over GF(p), plain ints reduced ``% p`` inline.  Neither creates a
``Fraction`` or calls a field method per entry.  ``rref`` is the generic
reduced form that ``kernel_basis``, ``solve`` and ``invert`` read; the
tests use it as the oracle for ``rank``.
"""

from __future__ import annotations

from math import gcd, lcm

from .scalars import same_field


class LinalgError(ValueError):
    pass


class Matrix:
    """Immutable-by-convention dense matrix over an exact field."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field, rows, ncols=None):
        self.field = field
        rows = [list(r) for r in rows]
        if rows:
            width = len(rows[0])
            for r in rows:
                if len(r) != width:
                    raise LinalgError("ragged rows")
        else:
            width = 0 if ncols is None else ncols
        if ncols is not None and rows and ncols != width:
            raise LinalgError(f"declared {ncols} columns, rows have {width}")
        self.nrows = len(rows)
        self.ncols = width if rows else (ncols or 0)
        self.rows = [[field.coerce(x) for x in r] for r in rows]

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, field, nrows, ncols):
        z = field.zero
        return cls(field, [[z] * ncols for _ in range(nrows)], ncols=ncols)

    @classmethod
    def identity(cls, field, n):
        z, o = field.zero, field.one
        return cls(field, [[o if i == j else z for j in range(n)]
                           for i in range(n)], ncols=n)

    @classmethod
    def from_columns(cls, field, cols, nrows=None):
        if not cols:
            return cls.zero(field, nrows or 0, 0)
        nrows = len(cols[0])
        return cls(field, [[c[i] for c in cols] for i in range(nrows)],
                   ncols=len(cols))

    @classmethod
    def column_vector(cls, field, entries):
        return cls(field, [[x] for x in entries], ncols=1)

    # -- access --------------------------------------------------------

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def __getitem__(self, key):
        i, j = key
        return self.rows[i][j]

    def row(self, i):
        return list(self.rows[i])

    def column(self, j):
        return [r[j] for r in self.rows]

    def to_lists(self):
        return [list(r) for r in self.rows]

    # -- algebra -------------------------------------------------------

    def _compat(self, other):
        same_field(self.field, other.field)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.field == other.field and self.shape == other.shape
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.field, self.nrows, self.ncols,
                     tuple(tuple(r) for r in self.rows)))

    def __add__(self, other):
        self._compat(other)
        if self.shape != other.shape:
            raise LinalgError(f"shape mismatch {self.shape} + {other.shape}")
        f = self.field
        return Matrix(f, [[f.add(a, b) for a, b in zip(r1, r2)]
                          for r1, r2 in zip(self.rows, other.rows)],
                      ncols=self.ncols)

    def __sub__(self, other):
        return self + other.scale(other.field.neg(other.field.one))

    def __neg__(self):
        return self.scale(self.field.neg(self.field.one))

    def scale(self, c):
        f = self.field
        c = f.coerce(c)
        return Matrix(f, [[f.mul(c, x) for x in r] for r in self.rows],
                      ncols=self.ncols)

    def __matmul__(self, other):
        self._compat(other)
        if self.ncols != other.nrows:
            raise LinalgError(f"shape mismatch {self.shape} @ {other.shape}")
        f = self.field
        out = []
        for r in self.rows:
            row = []
            for j in range(other.ncols):
                acc = f.zero
                for k, x in enumerate(r):
                    if not f.is_zero(x):
                        acc = f.add(acc, f.mul(x, other.rows[k][j]))
                row.append(acc)
            out.append(row)
        return Matrix(f, out, ncols=other.ncols)

    def apply(self, vec):
        """Matrix-vector product, vec a plain list of length ncols."""
        f = self.field
        if len(vec) != self.ncols:
            raise LinalgError(f"vector length {len(vec)} vs {self.ncols} columns")
        vec = [f.coerce(x) for x in vec]
        out = []
        for r in self.rows:
            acc = f.zero
            for x, v in zip(r, vec):
                if not f.is_zero(x):
                    acc = f.add(acc, f.mul(x, v))
            out.append(acc)
        return out

    def hstack(self, other):
        self._compat(other)
        if self.nrows != other.nrows:
            raise LinalgError("hstack with different row counts")
        return Matrix(self.field,
                      [r1 + r2 for r1, r2 in zip(self.rows, other.rows)],
                      ncols=self.ncols + other.ncols)

    def vstack(self, other):
        self._compat(other)
        if self.ncols != other.ncols:
            raise LinalgError("vstack with different column counts")
        return Matrix(self.field, self.rows + other.rows, ncols=self.ncols)

    def is_zero(self):
        f = self.field
        return all(f.is_zero(x) for r in self.rows for x in r)

    def __repr__(self):
        return f"Matrix({self.field!r}, {self.nrows}x{self.ncols})"


def vstack_all(field, mats, ncols):
    rows = []
    for m in mats:
        same_field(field, m.field)
        if m.ncols != ncols:
            raise LinalgError("vstack with different column counts")
        rows.extend(m.rows)
    return Matrix(field, rows, ncols=ncols)


def rref(m):
    """Reduced row echelon form.  Returns (R, pivot_columns)."""
    f = m.field
    rows = [list(r) for r in m.rows]
    pivots = []
    pr = 0  # pivot row
    for pc in range(m.ncols):
        # find a pivot in column pc at or below row pr
        pivot = None
        for i in range(pr, m.nrows):
            if not f.is_zero(rows[i][pc]):
                pivot = i
                break
        if pivot is None:
            continue
        rows[pr], rows[pivot] = rows[pivot], rows[pr]
        inv = f.inv(rows[pr][pc])
        rows[pr] = [f.mul(inv, x) for x in rows[pr]]
        for i in range(m.nrows):
            if i != pr and not f.is_zero(rows[i][pc]):
                c = rows[i][pc]
                rows[i] = [f.sub(x, f.mul(c, y))
                           for x, y in zip(rows[i], rows[pr])]
        pivots.append(pc)
        pr += 1
        if pr == m.nrows:
            break
    return Matrix(f, rows, ncols=m.ncols), pivots


def rank(m):
    """Rank by exact elimination to echelon form, without back-substitution."""
    p = m.field.characteristic
    return _rank_mod_p(m.rows, p) if p else _rank_rational(m.rows)


def _rank_rational(rows):
    """Fraction-free elimination (Bareiss, Math. Comp. 22, 1968) on the rows
    scaled to primitive integer vectors.  The pivot is an entry a of least
    absolute value in the leading column; every other row with leading
    entry b becomes (a/g)·row − (b/g)·pivot, g = gcd(a, b), divided by the
    gcd of its entries.  Each update scales the row by a nonzero integer, so
    the rank over Q is exact.  The leading column is dropped after each
    step, and so are rows that reach zero."""
    work = []
    for r in rows:
        den = lcm(*(x.denominator for x in r))
        row = [x.numerator * (den // x.denominator) for x in r]
        h = gcd(*row)
        if h:
            work.append([x // h for x in row] if h != 1 else row)
    found = 0
    while work and work[0]:
        live = [r for r in work if r[0]]
        if not live:
            work = [r[1:] for r in work]
            continue
        piv = min(live, key=lambda r: abs(r[0]))
        a, tail = piv[0], piv[1:]
        found += 1
        nxt = []
        for r in work:
            b = r[0]
            if not b:
                nxt.append(r[1:])
            elif r is not piv:
                g = gcd(a, b)
                ca, cb = a // g, b // g
                row = [ca * x - cb * y for x, y in zip(r[1:], tail)]
                h = gcd(*row)
                if h:
                    nxt.append([x // h for x in row] if h != 1 else row)
        work = nxt
    return found


def _rank_mod_p(rows, p):
    """Gaussian elimination on residues in range(p), reduced inline: the
    pivot row is scaled by pow(pivot, -1, p) and the leading column and the
    rows that reach zero are dropped after each step."""
    work = [r for r in rows if any(r)]
    found = 0
    while work and work[0]:
        piv = next((r for r in work if r[0]), None)
        if piv is None:
            work = [r[1:] for r in work]
            continue
        inv = pow(piv[0], -1, p)
        tail = [x * inv % p for x in piv[1:]]
        found += 1
        nxt = []
        for r in work:
            a = r[0]
            if not a:
                nxt.append(r[1:])
            elif r is not piv:
                row = [(x - a * y) % p for x, y in zip(r[1:], tail)]
                if any(row):
                    nxt.append(row)
        work = nxt
    return found


def kernel_basis(m):
    """Deterministic basis of the right kernel, one vector per free column.

    Vector for free column j has a 1 in position j and is supported on j and
    the pivot columns; basis vectors are ordered by increasing free column.
    """
    f = m.field
    red, pivots = rref(m)
    pivot_set = set(pivots)
    free = [j for j in range(m.ncols) if j not in pivot_set]
    basis = []
    for j in free:
        v = [f.zero] * m.ncols
        v[j] = f.one
        for r, pc in enumerate(pivots):
            v[pc] = f.neg(red.rows[r][j])
        basis.append(v)
    return basis


def solve(m, b):
    """One exact solution of m x = b (free variables 0), or None."""
    f = m.field
    if len(b) != m.nrows:
        raise LinalgError(f"rhs length {len(b)} vs {m.nrows} rows")
    aug = m.hstack(Matrix.column_vector(f, [f.coerce(x) for x in b]))
    red, pivots = rref(aug)
    if m.ncols in pivots:
        return None  # inconsistent: pivot in the augmented column
    x = [f.zero] * m.ncols
    for r, pc in enumerate(pivots):
        x[pc] = red.rows[r][m.ncols]
    return x


def det(m):
    """Determinant by fraction-free (Bareiss) elimination."""
    if m.nrows != m.ncols:
        raise LinalgError("determinant of a non-square matrix")
    f = m.field
    n = m.nrows
    if n == 0:
        return f.one
    a = [list(r) for r in m.rows]
    sign = 1
    prev = f.one
    for k in range(n - 1):
        if f.is_zero(a[k][k]):
            swap = None
            for i in range(k + 1, n):
                if not f.is_zero(a[i][k]):
                    swap = i
                    break
            if swap is None:
                return f.zero
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = f.div(
                    f.sub(f.mul(a[i][j], a[k][k]), f.mul(a[i][k], a[k][j])),
                    prev)
            a[i][k] = f.zero
        prev = a[k][k]
    d = a[n - 1][n - 1]
    return f.neg(d) if sign < 0 else d


def invert(m):
    """Exact inverse, or None if singular."""
    if m.nrows != m.ncols:
        raise LinalgError("inverse of a non-square matrix")
    f = m.field
    n = m.nrows
    red, pivots = rref(m.hstack(Matrix.identity(f, n)))
    if len([p for p in pivots if p < n]) < n:
        return None
    return Matrix(f, [r[n:] for r in red.rows], ncols=n)
