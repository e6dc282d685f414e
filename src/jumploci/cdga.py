"""Finite commutative differential graded algebras over an exact field.

A ``Cdga`` is a finite table-backed model: a labelled basis in each degree
0..top_degree (degree 0 is one-dimensional, spanned by the unit), a sparse
multiplication table between positive-degree basis elements, one differential
matrix per degree (columns are images of the source basis), and an optional
integer weight per basis element.

Everything above ``top_degree`` is zero.  ``validate`` checks the axioms
(graded commutativity, Leibniz, associativity, d*d = 0) from the nonzero
products and differentials: a check whose terms all vanish is skipped.

Weights, when present, must satisfy: the unit has weight 0, a degree-i
element has weight between i and 2i, and both multiplication and the
differential preserve weight.  Degree-one elements therefore split into a
weight-1 and a weight-2 component.

``family`` names the builder in ``models`` that made a model, with its
parameters; decoded models and tensor products carry ``family = None``.

Every model is whole: the builders and tensor products go up to the true
top degree, so each Betti number and Euler characteristic is exact.
"""

from __future__ import annotations

from .linalg import (Matrix, _common_numerators, dense_vector, kernel_basis,
                     rank)
from .scalars import clip, same_field


class CdgaError(ValueError):
    pass


class Cdga:
    family = None

    def __init__(self, field, name, basis, diff, mult, weights=None):
        """
        basis:   list of label lists, one per degree 0..top_degree
        diff:    dict degree -> Matrix of shape dim(degree+1) x dim(degree)
                 (absent degrees mean the zero map)
        mult:    dict (i, k, j, l) -> dict out_index -> scalar, for
                 1 <= i, j and i + j <= top_degree; unlisted products vanish;
                 products with the unit are implicit
        weights: list of int lists parallel to basis, or None
        """
        self.field = field
        self.name = name
        self.basis = [list(labels) for labels in basis]
        self.top_degree = len(self.basis) - 1
        if self.top_degree < 0:
            raise CdgaError("a model needs at least degree 0")
        self._diff, self._ranks, self._tables = {}, {}, {}
        for i, m in diff.items():
            if not (0 <= i < self.top_degree):
                raise CdgaError(f"differential at degree {i} out of range")
            same_field(field, m.field)
            if m.shape != (self.dim(i + 1), self.dim(i)):
                raise CdgaError(
                    f"d^{i} has shape {m.shape}, expected "
                    f"({self.dim(i + 1)}, {self.dim(i)})")
            self._diff[i] = m
        self._mult = {}
        for (i, k, j, l), vec in mult.items():
            if not (1 <= i and 1 <= j and i + j <= self.top_degree
                    and 0 <= k < self.dim(i) and 0 <= l < self.dim(j)):
                key = ",".join(map(clip, (i, k, j, l)))
                raise CdgaError(f"product key ({key}) out of range")
            clean = {m: field.coerce(c) for m, c in vec.items()
                     if not field.is_zero(field.coerce(c))}
            for m in clean:
                if not 0 <= m < self.dim(i + j):
                    raise CdgaError(
                        f"product ({i},{k})*({j},{l}) hits bad index "
                        f"{clip(m)}")
            if clean:
                self._mult[(i, k, j, l)] = clean
        self.weights = None
        if weights is not None:
            self.weights = [list(w) for w in weights]
            if [len(w) for w in self.weights] != [len(b) for b in self.basis]:
                raise CdgaError("weights shape does not match basis")

    # -- shape ----------------------------------------------------------

    def dim(self, i):
        if 0 <= i <= self.top_degree:
            return len(self.basis[i])
        return 0

    def dims(self):
        return tuple(self.dim(i) for i in range(self.top_degree + 1))

    def label(self, i, k):
        return self.basis[i][k]

    def d_matrix(self, i):
        """d^i: degree i -> degree i+1 (zero map where undefined)."""
        if i in self._diff:
            return self._diff[i]
        return Matrix.zero(self.field, self.dim(i + 1), self.dim(i))

    # -- products ---------------------------------------------------------

    def product_basis(self, i, k, j, l):
        """x_(i,k) * x_(j,l) as a dict index -> scalar in degree i+j."""
        f = self.field
        if i == 0 and j == 0:
            return {0: f.one}
        if i == 0:
            return {l: f.one}
        if j == 0:
            return {k: f.one}
        if i + j > self.top_degree:
            return {}
        return self._mult.get((i, k, j, l), {})

    def degree_table(self, i):
        """(D, d^i rows, [(k, b, [(c, μ)])]): d^i and the nonzero products
        a_k x_b = Σ μ y_c, as integer numerators over one D; built once."""
        if i not in self._tables:
            keys = [(k, b) for k in range(self.dim(1)) for b in range(
                self.dim(i)) if self.product_basis(1, k, i, b)]
            den, nums = _common_numerators(self.d_matrix(i).rows + [
                self.product_basis(1, k, i, b) for k, b in keys])
            n = self.dim(i + 1)
            self._tables[i] = den, nums[:n], [
                (k, b, list(v.items())) for (k, b), v in zip(keys, nums[n:])]
        return self._tables[i]

    def one_form_table(self):
        """``degree_table(1)`` on the pairs k < l: d¹ and a_k a_l."""
        den, d1, products = self.degree_table(1)
        return den, d1, [(k, l, t) for k, l, t in products if k < l]

    def product(self, i, v, j, w):
        """Bilinear product of coordinate vectors; result in degree i+j."""
        return dense_vector(self.field, self._times(
            i, {k: a for k, a in enumerate(v) if a},
            j, {l: b for l, b in enumerate(w) if b}), self.dim(i + j))

    def _times(self, i, u, j, w):
        """Product of sparse vectors (index -> nonzero scalar) of degrees i
        and j, as unreduced sums."""
        acc = {}
        for k, a in u.items():
            for l, b in w.items():
                for m, c in self.product_basis(i, k, j, l).items():
                    acc[m] = acc.get(m, 0) + a * b * c
        return acc

    # -- cohomology ---------------------------------------------------------

    def cocycles(self, i):
        """Basis of ker d^i (all of degree i when d^i = 0)."""
        return kernel_basis(self.d_matrix(i))

    def d_rank(self, i):
        """Rank of d^i, computed once: the differentials are fixed at
        construction."""
        if i not in self._ranks:
            self._ranks[i] = rank(self.d_matrix(i))
        return self._ranks[i]

    def betti(self, i):
        """dim H^i = dim(i) - rank d^i - rank d^(i-1)."""
        if not 0 <= i <= self.top_degree:
            return 0
        return self.dim(i) - self.d_rank(i) - self.d_rank(i - 1)

    # -- weights ------------------------------------------------------------

    def weight(self, i, k):
        if self.weights is None:
            raise CdgaError(f"model {self.name} carries no weights")
        return self.weights[i][k]

    # -- validation ---------------------------------------------------------

    def validate(self):
        """Check every axiom; return a list of failure strings (empty = valid)."""
        f, top = self.field, self.top_degree
        failures = []
        if self.dim(0) != 1:
            failures.append(f"degree 0 has dimension {self.dim(0)}, want 1")
        if 0 in self._diff and not self._diff[0].is_zero():
            failures.append("unit has nonzero differential")

        # d after d = 0
        for i in range(top - 1):
            comp = self.d_matrix(i + 1) @ self.d_matrix(i)
            if not comp.is_zero():
                failures.append(f"d^{i + 1} d^{i} != 0")

        # graded commutativity: xy = (-1)^{ij} yx, on pairs with a stored
        # product in either order
        stored = set(self._mult) | {(j, l, i, k) for i, k, j, l in self._mult}
        for i, j, k, l in sorted((i, j, k, l) for i, k, j, l in stored
                                 if i <= j):
            ba = self.product_basis(j, l, i, k)
            if i * j % 2 == 1:
                ba = {m: f.neg(c) for m, c in ba.items()}
            if self.product_basis(i, k, j, l) != ba:
                failures.append(
                    "graded commutativity fails on "
                    f"({self.label(i, k)}, {self.label(j, l)})")

        # Leibniz: d(xy) = (dx)y + (-1)^i x(dy), binding when i+j+1 <= top;
        # every term vanishes unless d(xy), dx or dy is nonzero
        dx = {}   # (i, k) -> d of basis element k of degree i, if nonzero
        for i in range(1, top):
            for c, row in enumerate(self.d_matrix(i).rows):
                for k, coef in row.items():
                    dx.setdefault((i, k), {})[c] = coef
        pairs = {(i, k, j, l) for (i, k, j, l), vec in self._mult.items()
                 if any((i + j, m) in dx for m in vec)}
        for i, k in dx:
            for j in range(1, top - i):
                for l in range(self.dim(j)):
                    pairs.update([(i, k, j, l), (j, l, i, k)])
        for i, j, k, l in sorted((i, j, k, l) for i, k, j, l in pairs):
            lhs = {}
            for m, c in self.product_basis(i, k, j, l).items():
                for r, e in dx.get((i + j, m), {}).items():
                    lhs[r] = lhs.get(r, 0) + c * e
            rhs = self._times(i + 1, dx.get((i, k), {}), j, {l: f.one})
            for r, c in self._times(i, {k: f.one},
                                    j + 1, dx.get((j, l), {})).items():
                rhs[r] = rhs.get(r, 0) + (-c if i % 2 == 1 else c)
            n = self.dim(i + j + 1)
            if dense_vector(f, lhs, n) != dense_vector(f, rhs, n):
                failures.append(
                    "Leibniz fails on "
                    f"({self.label(i, k)}, {self.label(j, l)})")

        # associativity: (xy)z = x(yz) on positive-degree triples where a
        # side can be nonzero: z multiplies a term of xy, or x one of yz
        right, left = {}, {}
        for i, k, j, l in self._mult:
            right.setdefault((i, k), []).append((j, l))
            left.setdefault((j, l), []).append((i, k))
        triples = set()
        for (i, k, j, l), vec in self._mult.items():
            for m in vec:
                triples.update((i, j, q, k, l, r)
                               for q, r in right.get((i + j, m), ()))
                triples.update((p, i, j, s, k, l)
                               for p, s in left.get((i + j, m), ()))
        for i, j, q, k, l, r in sorted(triples):
            n = self.dim(i + j + q)
            lhs = self._times(i + j, self.product_basis(i, k, j, l),
                              q, {r: f.one})
            rhs = self._times(i, {k: f.one},
                              j + q, self.product_basis(j, l, q, r))
            if dense_vector(f, lhs, n) != dense_vector(f, rhs, n):
                failures.append(
                    "associativity fails on "
                    f"({self.label(i, k)},{self.label(j, l)},"
                    f"{self.label(q, r)})")

        failures.extend(self._validate_weights())
        return failures

    def _validate_weights(self):
        if self.weights is None:
            return []
        f = self.field
        failures = []
        if self.weights[0][0] != 0:
            failures.append("unit weight is not 0")
        for i in range(1, self.top_degree + 1):
            for k, w in enumerate(self.weights[i]):
                if not i <= w <= 2 * i:
                    failures.append(
                        f"weight {w} of {self.label(i, k)} outside [{i},{2 * i}]")
        for i in range(self.top_degree):
            for c, row in enumerate(self.d_matrix(i).rows):
                for k in row:
                    if self.weights[i + 1][c] != self.weights[i][k]:
                        failures.append(
                            f"d does not preserve weight on {self.label(i, k)}")
        for (i, k, j, l), vec in self._mult.items():
            want = self.weights[i][k] + self.weights[j][l]
            for m, c in vec.items():
                if not f.is_zero(c) and self.weights[i + j][m] != want:
                    failures.append(
                        "product does not preserve weight on "
                        f"({self.label(i, k)}, {self.label(j, l)})")
        return failures

    def __repr__(self):
        return f"Cdga({self.name}, dims={self.dims()})"


class CdgaMorphism:
    """A degreewise linear map between models, unit to unit.

    maps: dict degree -> Matrix of shape target.dim(i) x source.dim(i) for
    i = 0..source.top (absent degrees mean the zero map).
    """

    def __init__(self, source, target, maps, name=""):
        same_field(source.field, target.field)
        self.source = source
        self.target = target
        self.name = name or "morphism"
        self.maps = {}
        for i in range(source.top_degree + 1):
            m = maps.get(i)
            if m is None:
                m = Matrix.zero(source.field, target.dim(i), source.dim(i))
            if m.shape != (target.dim(i), source.dim(i)):
                raise CdgaError(
                    f"morphism degree {i} has shape {m.shape}, expected "
                    f"({target.dim(i)}, {source.dim(i)})")
            self.maps[i] = m

    def map(self, i):
        if 0 <= i <= self.source.top_degree:
            return self.maps[i]
        return Matrix.zero(self.source.field, self.target.dim(i), 0)

    def validate(self):
        """Failure list: unit, chain-map, multiplicativity, weights."""
        f = self.source.field
        failures = []
        m0 = self.maps[0]
        if self.target.dim(0) != 1 or f.is_zero(m0[0, 0]) or \
                not f.is_zero(f.sub(m0[0, 0], f.one)):
            failures.append("unit is not sent to unit")
        for i in range(self.source.top_degree):
            lhs = self.target.d_matrix(i) @ self.maps[i]
            rhs = self.map(i + 1) @ self.source.d_matrix(i)
            if lhs != rhs:
                failures.append(f"does not commute with d at degree {i}")

        # When i+j exceeds the source top the source product is zero, so
        # multiplicativity forces the image product to vanish too.
        for i in range(1, self.source.top_degree + 1):
            for j in range(1, self.source.top_degree + 1):
                for k in range(self.source.dim(i)):
                    fx = self.maps[i].column(k)
                    for l in range(self.source.dim(j)):
                        fy = self.maps[j].column(l)
                        rhs = self.target.product(i, fx, j, fy)
                        lhs = self.map(i + j).apply(dense_vector(
                            f, self.source.product_basis(i, k, j, l),
                            self.source.dim(i + j)))
                        if lhs != rhs:
                            failures.append(
                                "not multiplicative on "
                                f"({self.source.label(i, k)}, "
                                f"{self.source.label(j, l)})")
        if self.source.weights is not None and self.target.weights is not None:
            for i in range(1, self.source.top_degree + 1):
                for c, row in enumerate(self.maps[i].rows):
                    for k in row:
                        if self.target.weights[i][c] != \
                                self.source.weights[i][k]:
                            failures.append(
                                "does not preserve weight on "
                                f"{self.source.label(i, k)}")
        return failures

    def __repr__(self):
        return (f"CdgaMorphism({self.name}: {self.source.name} -> "
                f"{self.target.name})")


def _products(m):
    """Every nonzero product of two basis elements of m, units included, as
    ((i, k), (j, l), product vector in degree i + j)."""
    one = m.field.one
    out = [((0, 0), (j, l), {l: one})
           for j in range(m.top_degree + 1) for l in range(m.dim(j))]
    out += [((i, k), (0, 0), {k: one})
            for i in range(1, m.top_degree + 1) for k in range(m.dim(i))]
    out += [((i, k), (j, l), vec) for (i, k, j, l), vec in m._mult.items()]
    return out


def tensor_product_with_inclusions(a, b):
    """Tensor product plus the two factor inclusions x -> x|1, y -> 1|y.

    The product is whole: its top degree is a.top_degree + b.top_degree.
    Basis of degree d: pairs (x of degree i, y of degree d-i) ordered by i,
    then by the two factor indices.  The table is the product of the two
    factors' nonzero product lists, units included, with the usual sign
    (x|y)(x'|y') = (-1)^{|y||x'|} (xx')|(yy').
    """
    same_field(a.field, b.field)
    f = a.field
    top = a.top_degree + b.top_degree
    pairs = [[] for _ in range(top + 1)]   # degree -> [(i, k, j, l)]
    for i in range(a.top_degree + 1):
        for j in range(b.top_degree + 1):
            pairs[i + j] += [(i, k, j, l) for k in range(a.dim(i))
                             for l in range(b.dim(j))]
    index = {key: n for keys in pairs for n, key in enumerate(keys)}
    basis = [[f"{a.label(i, k)}|{b.label(j, l)}" for i, k, j, l in keys]
             for keys in pairs]

    diff = {}
    for d in range(top):
        rows = [{} for _ in pairs[d + 1]]
        for n, (i, k, j, l) in enumerate(pairs[d]):
            for c, coef in enumerate(a.d_matrix(i).column(k)):
                if coef:
                    rows[index[(i + 1, c, j, l)]][n] = coef
            sign = -1 if i % 2 == 1 else 1
            for c, coef in enumerate(b.d_matrix(j).column(l)):
                if coef:
                    rows[index[(i, k, j + 1, c)]][n] = sign * coef
        diff[d] = Matrix.from_sums(f, rows, len(pairs[d]))

    mult = {}
    right = _products(b)
    for (i, k), (p, q), xa in _products(a):
        for (j, l), (r, s), yb in right:
            if i + j and p + r:
                sign = -1 if j * p % 2 == 1 else 1
                mult[(i + j, index[(i, k, j, l)], p + r,
                      index[(p, q, r, s)])] = {
                    index[(i + p, ka, j + r, lb)]: sign * ca * cb
                    for ka, ca in xa.items() for lb, cb in yb.items()}

    weights = None
    if a.weights is not None and b.weights is not None:
        weights = [[a.weights[i][k] + b.weights[j][l] for i, k, j, l in keys]
                   for keys in pairs]

    prod = Cdga(f, f"{a.name}(x){b.name}", basis, diff, mult, weights=weights)

    def inclusion(factor, place):
        maps = {}
        for i in range(factor.top_degree + 1):
            rows = [{} for _ in range(prod.dim(i))]
            for k in range(factor.dim(i)):
                rows[index[place(i, k)]][k] = f.one
            maps[i] = Matrix.sparse(f, rows, factor.dim(i))
        return maps

    incl_a = CdgaMorphism(a, prod, inclusion(a, lambda i, k: (i, k, 0, 0)),
                          name=f"{a.name}->|{prod.name}")
    incl_b = CdgaMorphism(b, prod, inclusion(b, lambda i, k: (0, 0, i, k)),
                          name=f"{b.name}->|{prod.name}")
    return prod, incl_a, incl_b
