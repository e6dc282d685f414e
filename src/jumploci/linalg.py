"""Sparse exact linear algebra over the rationals and odd prime fields.

A ``Matrix`` stores each row as a dict from column index to a nonzero entry
of one field object from ``scalars``; products, sums and scalings walk the
nonzeros only.  Everything is exact: no floating point anywhere.

Elimination is one pivot loop over a column index, which holds for each
column the live rows with an entry there and follows fill-in and
cancellation.  Each field supplies only its row update, which creates no
``Fraction`` and calls no field method per entry: over Q, fraction-free
updates of primitive integer rows; over GF(p), plain ints reduced ``% p``
inline.  A column's pivot is its shortest live row, least |leading entry|
next (over Q that keeps the multipliers small), as in structured Gaussian
elimination (LaMacchia and Odlyzko, 1990).  ``rank`` and ``det`` stop at
echelon form and take next the column with the fewest live rows, after
Markowitz (1957); ``rank`` eliminates the transpose of a matrix wider than
tall, and ``det`` reads its sign off the permutation row -> pivot column.
``rref``, ``kernel_basis``, ``solve`` and ``invert`` take the columns in
natural order and read the reduced form, which is unique, so their output
does not depend on the pivot rows: kernel vectors come by increasing free
column, with a 1 there.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from heapq import heapify, heappop, heappush
from math import gcd, lcm, prod

from .scalars import same_field


class LinalgError(ValueError):
    pass


class Matrix:
    """Immutable-by-convention matrix over an exact field.  ``rows[i]`` maps
    column j to entry (i, j); zero entries are not stored."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field, rows, ncols=None):
        """Dense row lists; every entry is coerced into the field."""
        rows = [list(r) for r in rows]
        width = len(rows[0]) if rows else (ncols or 0)
        if any(len(r) != width for r in rows):
            raise LinalgError("ragged rows")
        if ncols is not None and ncols != width:
            raise LinalgError(f"declared {ncols} columns, rows have {width}")
        self.field, self.nrows, self.ncols = field, len(rows), width
        coerce = field.coerce
        self.rows = [{j: v for j, v in enumerate(map(coerce, r)) if v}
                     for r in rows]

    # -- constructors -------------------------------------------------

    @classmethod
    def sparse(cls, field, rows, ncols):
        """Trusted constructor: ``rows`` are dicts from column to a nonzero
        entry already in the field, taken as they are, neither checked nor
        copied."""
        m = object.__new__(cls)
        m.field, m.nrows, m.ncols, m.rows = field, len(rows), ncols, rows
        return m

    @classmethod
    def from_sums(cls, field, rows, ncols):
        """Trusted constructor for sparse rows of unreduced exact sums: over
        GF(p) plain ints, reduced here ``% p``; over Q, Fractions.  Entries
        that reach zero are dropped."""
        p = field.characteristic
        if p:
            rows = [{j: w for j, v in r.items() if (w := v % p)}
                    for r in rows]
        else:
            rows = [{j: v for j, v in r.items() if v} for r in rows]
        return cls.sparse(field, rows, ncols)

    @classmethod
    def zero(cls, field, nrows, ncols):
        return cls.sparse(field, [{} for _ in range(nrows)], ncols)

    @classmethod
    def identity(cls, field, n):
        return cls.sparse(field, [{i: field.one} for i in range(n)], n)

    @classmethod
    def from_columns(cls, field, cols, nrows=None):
        if not cols:
            return cls.zero(field, nrows or 0, 0)
        return cls(field, list(zip(*cols)), ncols=len(cols))

    # -- access --------------------------------------------------------

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def __getitem__(self, key):
        i, j = key
        if not 0 <= j < self.ncols:
            raise IndexError(f"column {j} out of range")
        return self.rows[i].get(j) or self.field.zero

    def row(self, i):
        z, r = self.field.zero, self.rows[i]
        return [r.get(j, z) for j in range(self.ncols)]

    def column(self, j):
        z = self.field.zero
        return [r.get(j, z) for r in self.rows]

    def to_lists(self):
        return [self.row(i) for i in range(self.nrows)]

    # -- algebra -------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.field == other.field and self.shape == other.shape
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.field, self.nrows, self.ncols,
                     tuple(frozenset(r.items()) for r in self.rows)))

    def __add__(self, other):
        same_field(self.field, other.field)
        if self.shape != other.shape:
            raise LinalgError(f"shape mismatch {self.shape} + {other.shape}")
        out = []
        for r1, r2 in zip(self.rows, other.rows):
            acc = dict(r1)
            for j, y in r2.items():
                acc[j] = acc[j] + y if j in acc else y
            out.append(acc)
        return Matrix.from_sums(self.field, out, self.ncols)

    def __sub__(self, other):
        return self + other.scale(other.field.neg(other.field.one))

    def scale(self, c):
        f = self.field
        c = f.coerce(c)
        if not c:
            return Matrix.zero(f, self.nrows, self.ncols)
        p = f.characteristic
        if p:
            rows = [{j: x * c % p for j, x in r.items()} for r in self.rows]
        else:
            rows = [{j: x * c for j, x in r.items()} for r in self.rows]
        return Matrix.sparse(f, rows, self.ncols)

    def __matmul__(self, other):
        same_field(self.field, other.field)
        if self.ncols != other.nrows:
            raise LinalgError(f"shape mismatch {self.shape} @ {other.shape}")
        right = other.rows
        out = []
        for r in self.rows:
            acc = {}
            for k, x in r.items():
                for j, y in right[k].items():
                    acc[j] = acc[j] + x * y if j in acc else x * y
            out.append(acc)
        return Matrix.from_sums(self.field, out, other.ncols)

    def apply(self, vec):
        """Matrix-vector product, vec a plain list of length ncols."""
        f = self.field
        if len(vec) != self.ncols:
            raise LinalgError(f"vector length {len(vec)} vs {self.ncols} columns")
        vec = [f.coerce(x) for x in vec]
        out = [sum(x * vec[j] for j, x in r.items()) for r in self.rows]
        p = f.characteristic
        return [s % p for s in out] if p else [f.coerce(s) for s in out]

    def hstack(self, other):
        same_field(self.field, other.field)
        if self.nrows != other.nrows:
            raise LinalgError("hstack with different row counts")
        n = self.ncols
        return Matrix.sparse(self.field, [
            {**r1, **{n + j: x for j, x in r2.items()}}
            for r1, r2 in zip(self.rows, other.rows)], n + other.ncols)

    def is_zero(self):
        return not any(self.rows)

    def __repr__(self):
        return f"Matrix({self.field!r}, {self.nrows}x{self.ncols})"


def dense_vector(field, sums, n):
    """The length-n vector of field elements with the exact sums ``sums``
    (index -> unreduced sum) reduced into the field, zero elsewhere."""
    out = [field.zero] * n
    for j, v in sums.items():
        out[j] = field.coerce(v)
    return out


def vstack_all(field, mats, ncols):
    rows = []
    for m in mats:
        same_field(field, m.field)
        if m.ncols != ncols:
            raise LinalgError("vstack with different column counts")
        rows.extend(dict(r) for r in m.rows)
    return Matrix.sparse(field, rows, ncols)


# -- elimination ---------------------------------------------------------


def _eliminate(rows, ncols, reduced, clear):
    """Echelon form of sparse rows, in place: (pivot column, row id) pairs
    in the order taken.  ``cols[j]`` holds the ids of the rows with an entry
    in column j; ``clear(rows, ids, c, piv, cols)`` takes multiples of
    ``piv`` from the rows ``ids`` until column c leaves them, and keeps
    ``cols`` current.  Without ``reduced`` pivot rows leave the index and
    the columns come fewest live rows first; with it they come in natural
    order and pivot rows stay indexed, so each pivot column is cleared from
    the earlier pivot rows too."""
    cols = [set() for _ in range(ncols)]
    for i, r in enumerate(rows):
        for j in r:
            cols[j].add(i)
    pivots, done = [], set()
    order = range(ncols) if reduced else _fewest_first(cols, rows, pivots)
    for c in order:
        live = cols[c] - done if reduced else cols[c]
        if not live:
            continue
        pid = min(live, key=lambda i: (len(rows[i]), abs(rows[i][c])))
        piv = rows[pid]
        if reduced:
            done.add(pid)
            cols[c].discard(pid)
        else:
            for j in piv:
                cols[j].discard(pid)
        clear(rows, cols[c], c, piv, cols)
        cols[c] = set()
        pivots.append((c, pid))
    return pivots


def _fewest_first(cols, rows, pivots):
    """Columns with live rows, fewest first (Markowitz), from a lazy
    min-heap of (count, column).  Only the columns of a pivot row change
    count in its step, so after each step those of the row last added to
    ``pivots`` go in again, and an entry whose count is out of date is
    passed over."""
    heap = [(len(s), j) for j, s in enumerate(cols) if s]
    heapify(heap)
    while heap:
        n, c = heappop(heap)
        if n == len(cols[c]):
            yield c
            for j in rows[pivots[-1][1]]:
                if cols[j]:
                    heappush(heap, (len(cols[j]), j))


def _clear_mod_p(p, rows, ids, c, piv, cols):
    """Row update over GF(p), residues in range(p) reduced inline: each
    row r loses (r[c]/piv[c])·piv, so the determinant is kept."""
    inv = pow(piv[c], -1, p)
    tail = [(j, y, cols[j]) for j, y in piv.items() if j != c]
    for i in ids:
        r = rows[i]
        a = r.pop(c) * inv % p
        for j, y, s in tail:
            x = r.get(j)
            if x is None:
                r[j] = -a * y % p
                s.add(i)
            elif v := (x - a * y) % p:
                r[j] = v
            else:
                del r[j]
                s.discard(i)


def _clear_q(log, rows, ids, c, piv, cols):
    """Fraction-free row update of primitive integer rows: row r, leading
    entry b, becomes (a/g)·r − (b/g)·piv, a = piv[c], g = gcd(a, b), over
    the gcd of its entries.  That is a nonzero rational multiple of a row
    operation, so ranks and reduced forms over Q are exact.  Each such
    (multiplier, divisor) goes to ``log`` when one is given."""
    a = piv[c]
    tail = [(j, y, cols[j]) for j, y in piv.items() if j != c]
    for i in ids:
        r = rows[i]
        b = r.pop(c)
        g = gcd(a, b)
        ca, cb = a // g, b // g
        if ca != 1:
            for j in r:
                r[j] *= ca
        for j, y, s in tail:
            x = r.get(j)
            if x is None:
                r[j] = -cb * y
                s.add(i)
            elif v := x - cb * y:
                r[j] = v
            else:
                del r[j]
                s.discard(i)
        h = gcd(*r.values())
        if h > 1:
            for j in r:
                r[j] //= h
        if log is not None:
            log.append((ca, h or 1))


def _integer_rows(rows, log=None):
    """Each rational sparse row times the lcm of its denominators, over the
    gcd of the result: a primitive integer row on the same support.  Each
    (multiplier, divisor) goes to ``log`` when one is given."""
    out = []
    for r in rows:
        den = lcm(*(x.denominator for x in r.values()))
        row = {j: x.numerator * (den // x.denominator) for j, x in r.items()}
        h = gcd(*row.values()) or 1
        out.append({j: x // h for j, x in row.items()} if h > 1 else row)
        if log is not None:
            log.append((den, h))
    return out


def _common_numerators(rows):
    """(D, rows·D): sparse rows of Fractions or ints as integer numerators
    over D, the lcm of every entry's denominator."""
    den = lcm(*(x.denominator for r in rows for x in r.values()))
    return den, [{j: x.numerator * (den // x.denominator)
                  for j, x in r.items()} for r in rows]


def _working_rows(field, rows, log=None):
    """Copies of sparse rows for the field's row update, and that update."""
    p = field.characteristic
    if p:
        return [dict(r) for r in rows], partial(_clear_mod_p, p)
    return _integer_rows(rows, log), partial(_clear_q, log)


def _echelon(field, rows, ncols, reduced=False):
    """Pivot rows of the (reduced) row echelon form of copies of sparse
    rows, by the field's kernel.  Unreduced rows over Q stay integer."""
    rows, clear = _working_rows(field, rows)
    pivots = [(c, rows[i]) for c, i in _eliminate(rows, ncols, reduced, clear)]
    p = field.characteristic
    if reduced and not p:
        return [(c, {j: Fraction(x, r[c]) for j, x in r.items()})
                for c, r in pivots]
    for c, r in pivots if reduced else ():
        inv = pow(r[c], -1, p)
        for j in r:
            r[j] = r[j] * inv % p
    return pivots


def rank(m):
    """Rank by exact elimination to echelon form, without back-substitution;
    a matrix wider than tall is eliminated as its transpose."""
    rows, ncols = m.rows, m.ncols
    if ncols > m.nrows:
        rows, ncols = [{} for _ in range(ncols)], m.nrows
        for i, r in enumerate(m.rows):
            for j, x in r.items():
                rows[j][i] = x
    return len(_echelon(m.field, rows, ncols))


def rref(m):
    """Reduced row echelon form.  Returns (R, pivot_columns)."""
    pivots = _echelon(m.field, m.rows, m.ncols, reduced=True)
    rows = [r for _, r in pivots] + [{} for _ in range(m.nrows - len(pivots))]
    return Matrix.sparse(m.field, rows, m.ncols), [c for c, _ in pivots]


def kernel_basis(m):
    """Deterministic basis of the right kernel, one vector per free column.

    Vector for free column j has a 1 in position j and is supported on j and
    the pivot columns; basis vectors are ordered by increasing free column.
    """
    f = m.field
    pivots = _echelon(f, m.rows, m.ncols, reduced=True)
    pivot_cols = {c for c, _ in pivots}
    basis = {j: [f.zero] * m.ncols for j in range(m.ncols)
             if j not in pivot_cols}
    for j, v in basis.items():
        v[j] = f.one
    for c, r in pivots:
        for j, x in r.items():
            if j != c:
                basis[j][c] = f.neg(x)
    return list(basis.values())


def solve(m, b):
    """One exact solution of m x = b (free variables 0), or None."""
    f = m.field
    if len(b) != m.nrows:
        raise LinalgError(f"rhs length {len(b)} vs {m.nrows} rows")
    n = m.ncols
    rhs = [f.coerce(v) for v in b]
    aug = [{**r, n: v} if v else r for r, v in zip(m.rows, rhs)]
    x = [f.zero] * n
    for c, r in _echelon(f, aug, n + 1, reduced=True):
        if c == n:
            return None  # inconsistent: pivot in the augmented column
        x[c] = r.get(n, f.zero)
    return x


def det(m):
    """Determinant: the signed product of the leading entries of an echelon
    form, over Q divided by the row scalings the elimination made."""
    if m.nrows != m.ncols:
        raise LinalgError("determinant of a non-square matrix")
    f, n = m.field, m.nrows
    p, log = f.characteristic, []
    rows, clear = _working_rows(f, m.rows, log)
    pivots = _eliminate(rows, n, False, clear)
    if len(pivots) < n:
        return f.zero
    # row i ends up leading at column lead[i]: the sign is that permutation's
    lead = [c for _, c in sorted((i, c) for c, i in pivots)]
    swaps = sum(a > b for i, a in enumerate(lead) for b in lead[i + 1:])
    value = (-1) ** swaps * prod(rows[i][c] for c, i in pivots)
    if p:
        return value % p
    return Fraction(value * prod(h for _, h in log), prod(a for a, _ in log))


def invert(m):
    """Exact inverse, or None if singular."""
    if m.nrows != m.ncols:
        raise LinalgError("inverse of a non-square matrix")
    f, n = m.field, m.nrows
    aug = [{**r, n + i: f.one} for i, r in enumerate(m.rows)]
    pivots = _echelon(f, aug, 2 * n, reduced=True)
    if sum(c < n for c, _ in pivots) < n:
        return None
    return Matrix.sparse(f, [{j - n: x for j, x in r.items() if j >= n}
                             for _, r in pivots], n)
