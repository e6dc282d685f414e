"""Finite-dimensional Lie algebras and their matrix representations.

A Lie algebra is a labelled basis plus structure constants; elements are
plain coordinate vectors (lists of field scalars).  Brackets are stored for
index pairs i < j only, so antisymmetry holds by construction; the Jacobi
identity is checked by ``validate``.  ``bracket`` and the Maurer-Cartan
residual read them from one table of integer numerators over a common
denominator, built on first use.

Builders: ``build_sl(n)`` with the elementary-matrix basis E_ij (i != j,
upper triangular block first, lex order) followed by H_i = E_ii - E_{i+1,i+1},
the order ``sl_basis`` enumerates; ``build_sol2`` with basis (h, e),
[h, e] = 2e; ``build_abelian(n)`` with zero bracket (n = 1 is the coefficient
line acting by scaling, the rank-one case).  Builders record their family and
parameters in ``family``, e.g. ``("sl", 3)``; code that depends on the family
reads that tag, never the name.  Decoded algebras carry ``family = None``.

Representations carry one square matrix per basis element, checked at
construction ([theta(x_i), theta(x_j)] must equal theta([x_i, x_j])) and read
through one table of integer numerators over a common denominator.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .linalg import Matrix, _common_numerators, dense_vector
from .scalars import clip, same_field


class LieError(ValueError):
    pass


class LieAlgebra:
    family = None
    _adjoint = None  # rep_adjoint's result, built and checked once
    _table = None  # structure_table's result

    def __init__(self, field, labels, brackets, name=""):
        """brackets: dict (i, j) with i < j -> dict index -> scalar."""
        self.field = field
        self.labels = list(labels)
        self.dim = len(self.labels)
        self.name = name or "lie"
        if len(set(self.labels)) != self.dim:
            raise LieError("duplicate basis labels")
        norm = {}
        for (i, j), vec in brackets.items():
            if not (0 <= i < self.dim and 0 <= j < self.dim):
                raise LieError(
                    f"bracket index ({clip(i)},{clip(j)}) out of range")
            if i == j:
                if any(not field.is_zero(field.coerce(c)) for c in vec.values()):
                    raise LieError(f"nonzero bracket [{i},{i}]")
                continue
            if i > j:
                raise LieError("brackets must be keyed with i < j")
            clean = {m: field.coerce(c) for m, c in vec.items()
                     if not field.is_zero(field.coerce(c))}
            if any(not 0 <= m < self.dim for m in clean):
                raise LieError(f"bracket ({i},{j}) hits an index out of range")
            if clean:
                norm[(i, j)] = clean
        self._brackets = norm
        self.index = {lab: k for k, lab in enumerate(self.labels)}

    def basis_vector(self, key):
        """Unit coordinate vector for a basis index or label."""
        k = self.index[key] if isinstance(key, str) else key
        v = [self.field.zero] * self.dim
        v[k] = self.field.one
        return v

    def bracket_basis(self, i, j):
        """[x_i, x_j] as a coordinate vector."""
        f = self.field
        out = [f.zero] * self.dim
        if i == j:
            return out
        sign = 1
        if i > j:
            i, j, sign = j, i, -1
        for m, c in self._brackets.get((i, j), {}).items():
            out[m] = f.neg(c) if sign < 0 else c
        return out

    def structure_table(self):
        """(D, [(i, j, [(m, c)])]): the nonzero structure constants of the
        pairs i < j as integer numerators c over one denominator D."""
        if self._table is None:
            den, nums = _common_numerators(self._brackets.values())
            self._table = den, [(i, j, list(v.items())) for (i, j), v
                                in zip(self._brackets, nums)]
        return self._table

    def bracket_sums(self, x, y):
        """D·[x, y] as unreduced sums (index -> sum), D the denominator of
        ``structure_table``: the package's one bracket loop."""
        acc = {}
        for i, j, terms in self.structure_table()[1]:
            if t := x[i] * y[j] - x[j] * y[i]:
                for m, c in terms:
                    acc[m] = acc.get(m, 0) + t * c
        return acc

    def bracket(self, x, y):
        """Bilinear bracket of coordinate vectors."""
        den, acc = self.structure_table()[0], self.bracket_sums(x, y)
        if den > 1:
            acc = {m: Fraction(v, den) for m, v in acc.items()}
        return dense_vector(self.field, acc, self.dim)

    def is_zero_vector(self, v):
        return all(self.field.is_zero(x) for x in v)

    def is_abelian(self):
        return not any(self._brackets.values())

    def structure_tensor(self):
        """c[i][j][m] with [x_i, x_j] = sum_m c[i][j][m] x_m (full, antisym)."""
        return [[self.bracket_basis(i, j) for j in range(self.dim)]
                for i in range(self.dim)]

    def validate(self):
        """Return a list of failure strings (empty = valid).

        Antisymmetry is structural here, so this checks the Jacobi identity.
        Column k of [ad x_i, ad x_j] - ad [x_i, x_j] is the Jacobi sum on
        (x_i, x_j, x_k), which is alternating, so each failing basis triple
        is read off the bracket defects of the adjoint matrices, sorted.
        """
        bad = {tuple(sorted((i, j, k)))
               for i, j, defect in _bracket_defects(self, _ad_matrices(self))
               for row in defect.rows for k in row}
        return [f"jacobi fails on ({','.join(self.labels[t] for t in s)})"
                for s in sorted(bad)]

    def structurally_equal(self, other):
        return (self.field == other.field and self.labels == other.labels
                and self._brackets == other._brackets)

    def __repr__(self):
        return f"LieAlgebra({self.name}, dim={self.dim})"


class LieRep:
    """A representation: one dim_V x dim_V matrix per Lie basis element.

    Construction verifies bracket compatibility and aborts on failure.
    ``family`` is ``("defining",)`` on the output of ``rep_defining``.
    """

    family = None
    _table = None  # matrix_table's result

    def __init__(self, lie, matrices, name=""):
        self.lie = lie
        self.name = name or "rep"
        if len(matrices) != lie.dim:
            raise LieError(
                f"{lie.dim} basis elements but {len(matrices)} matrices")
        self.matrices = list(matrices)
        dims = {m.shape for m in self.matrices}
        if len(dims) != 1:
            raise LieError(f"inconsistent matrix shapes {dims}")
        (nr, nc), = dims
        if nr != nc:
            raise LieError("representation matrices must be square")
        self.dim = nr
        for m in self.matrices:
            same_field(lie.field, m.field)
        bad = "; ".join(f"[{lie.labels[i]},{lie.labels[j]}]"
                        for i, j, _ in _bracket_defects(lie, self.matrices))
        if bad:
            raise LieError(f"bracket compatibility fails: {clip(bad, 400)}")

    def matrix_table(self):
        """(D, [D·theta(x_m) as sparse rows]): the representation matrices
        as integer numerators over one denominator D."""
        if self._table is None:
            n, (den, nums) = self.dim, _common_numerators(
                [r for m in self.matrices for r in m.rows])
            self._table = den, [nums[m * n:(m + 1) * n]
                                for m in range(len(self.matrices))]
        return self._table

    def apply_sums(self, x):
        """theta(x) times the table's D, x sparse, as unreduced sparse rows."""
        rows, table = [{} for _ in range(self.dim)], self.matrix_table()[1]
        for m, c in x.items():
            for acc, r in zip(rows, table[m]):
                for j, y in r.items():
                    acc[j] = acc[j] + c * y if j in acc else c * y
        return rows

    def apply(self, x):
        """theta(x) for a coordinate vector x, as a Matrix."""
        f, den = self.lie.field, self.matrix_table()[0]
        rows = self.apply_sums({m: f.coerce(c) for m, c in enumerate(x) if c})
        return Matrix.from_sums(f, rows, self.dim).scale(Fraction(1, den))

    def __repr__(self):
        return f"LieRep({self.name}, lie={self.lie.name}, dim={self.dim})"


def _bracket_defects(lie, matrices):
    """(i, j, [theta_i, theta_j] - theta([x_i, x_j])) for each pair i < j of
    basis indices where that is not zero, theta_i being ``matrices[i]``."""
    f = lie.field
    for i, j in combinations(range(lie.dim), 2):
        a, b = matrices[i], matrices[j]
        # a zero factor makes the commutator zero, not the bracket terms
        defect = Matrix.zero(f, *a.shape) if a.is_zero() or b.is_zero() \
            else a @ b - b @ a
        for m, c in lie._brackets.get((i, j), {}).items():
            defect = defect + matrices[m].scale(f.neg(c))
        if not defect.is_zero():
            yield i, j, defect


def _ad_matrices(g):
    """ad x_i for each basis element x_i of g: column j is [x_i, x_j]."""
    return [Matrix.from_columns(
        g.field, [g.bracket_basis(i, j) for j in range(g.dim)], nrows=g.dim)
        for i in range(g.dim)]


# ---------------------------------------------------------------------------
# builders


def sl_basis(n):
    """Index pairs (i, j), 1-based, of the sl(n) basis in the one order every
    sl(n) routine uses: E_ij for i < j in lex order, then E_ij for i > j in
    lex order, then H_i = E_ii - E_{i+1,i+1} for i = 1..n-1, written (i, i).
    """
    upper = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    lower = [(i, j) for i in range(1, n + 1) for j in range(1, i)]
    return upper + lower + [(i, i) for i in range(1, n)]


def sl_labels(n):
    """Labels of the sl(n) basis in sl_basis order: H{i}, and E{i}{j} up to
    n = 10.  From n = 11 on, concatenated indices collide (E111 would be both
    E_{1,11} and E_{11,1}), so there the root vectors are written E{i}_{j}.
    """
    sep = "" if n <= 10 else "_"
    return [f"H{i}" if i == j else f"E{i}{sep}{j}" for i, j in sl_basis(n)]


def sl_matrices(n):
    """The sl(n) basis as n x n integer row lists, in sl_basis order."""
    out = []
    for i, j in sl_basis(n):
        m = [[0] * n for _ in range(n)]
        if i == j:
            m[i - 1][i - 1], m[i][i] = 1, -1
        else:
            m[i - 1][j - 1] = 1
        out.append(m)
    return out


def traceless_coordinates(rows):
    """Coordinates, in sl_basis order, of a traceless square matrix given as
    row lists: the off-diagonal entries, then the running sums of the
    diagonal for the H_i.  The sums are plain ``+``, so over a prime field
    the caller coerces them."""
    out, partial = [], 0
    for i, j in sl_basis(len(rows)):
        if i == j:
            partial += rows[i - 1][i - 1]
            out.append(partial)
        else:
            out.append(rows[i - 1][j - 1])
    return out


def build_sl(field, n):
    """Traceless n x n matrices in the sl_basis order."""
    if n < 2:
        raise LieError("sl(n) needs n >= 2")
    # each basis matrix has one or two nonzero entries (i, j, value)
    mats = [[(i, j, v) for i, row in enumerate(m) for j, v in enumerate(row)
             if v] for m in sl_matrices(n)]
    brackets = {}
    for a, x in enumerate(mats):
        for b in range(a + 1, len(mats)):
            comm = [[0] * n for _ in range(n)]
            for left, right, sign in ((x, mats[b], 1), (mats[b], x, -1)):
                for i, j, v in left:
                    for k, l, w in right:
                        if j == k:
                            comm[i][l] += sign * v * w
            vec = {m: c for m, c in
                   enumerate(traceless_coordinates(comm)) if c != 0}
            if vec:
                brackets[(a, b)] = vec
    g = LieAlgebra(field, sl_labels(n), brackets, name=f"sl{n}")
    g.family = ("sl", n)
    return g


def _sl_size(g):
    """n for g = build_sl(field, n); LieError for any other algebra."""
    match g.family:
        case ("sl", n):
            return n
    raise LieError(f"{clip(g.name)} is not an algebra built by build_sl")


def sl_root_index(g, i, j):
    """Basis index of E_ij inside build_sl output."""
    n = _sl_size(g)
    if i == j or not (1 <= i <= n and 1 <= j <= n):
        raise LieError(f"E{i}{j} is not a root vector of sl({n})")
    return sl_basis(n).index((i, j))


def build_sol2(field):
    """Two-dimensional solvable algebra on (h, e) with [h, e] = 2e."""
    g = LieAlgebra(field, ["h", "e"], {(0, 1): {1: field.coerce(2)}},
                   name="sol2")
    g.family = ("sol2",)
    return g


def build_abelian(field, n):
    """Abelian Lie algebra of dimension n (all brackets zero)."""
    if n < 1:
        raise LieError("abelian algebra needs n >= 1")
    g = LieAlgebra(field, [f"x{i}" for i in range(1, n + 1)], {},
                   name=f"abelian{n}")
    g.family = ("abelian", n)
    return g


def rep_defining(g):
    """The defining matrix representation.

    sl(n): each basis element acts by its own n x n matrix.
    sol2: h -> diag(1, -1), e -> upper right unit.
    abelian(1): the coefficient line acting by the 1 x 1 identity
    (the rank-one local system case).
    """
    match g.family:
        case ("sl", n):
            mats = sl_matrices(n)
        case ("sol2",):
            mats = [[[1, 0], [0, -1]], [[0, 1], [0, 0]]]
        case ("abelian", 1):
            mats = [[[1]]]
        case _:
            raise LieError(
                f"no defining representation wired for {clip(g.name)}")
    rep = LieRep(g, [Matrix(g.field, m) for m in mats], name="defining")
    rep.family = ("defining",)
    return rep


def rep_adjoint(g):
    """Adjoint representation: theta(x)y = [x, y]; columns are brackets.

    Built and bracket-checked on the first call for ``g``; later calls
    return the same object, since the bracket table never changes.
    """
    if g._adjoint is None:
        g._adjoint = LieRep(g, _ad_matrices(g), name="adjoint")
    return g._adjoint


def rep_trivial(g, m):
    """Everything acts by zero on an m-dimensional space."""
    if m < 1:
        raise LieError("trivial representation needs dimension >= 1")
    return LieRep(g, [Matrix.zero(g.field, m, m)] * g.dim, name=f"trivial{m}")


def rep_direct_sum(r1, r2):
    """Block-diagonal sum; both summands must be over the same algebra."""
    if not r1.lie.structurally_equal(r2.lie):
        raise LieError("direct sum of representations of different algebras")
    n = r1.dim
    mats = [Matrix.sparse(r1.lie.field, [dict(r) for r in a.rows]
                          + [{n + j: x for j, x in r.items()} for r in b.rows],
                          n + r2.dim)
            for a, b in zip(r1.matrices, r2.matrices)]
    return LieRep(r1.lie, mats, name=f"{r1.name}+{r2.name}")

