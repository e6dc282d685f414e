"""Holonomy Lie algebra presentations of a dg model.

The degree-1 basis generates a free Lie algebra; each degree-2 basis element
c contributes one relation

    sum_k  d1[c, k] g_k  +  sum_{k<l}  (coefficient of c in a_k a_l) [g_k, g_l],

i.e. the linear part reads off the row of the degree-1 differential at c and
the quadratic part reads off the multiplication table (a_k ^ a_l mapped to
the bracket [g_k, g_l]).  Evaluating these relations at an assignment of Lie
elements to generators reproduces, coefficient for coefficient, the
Maurer-Cartan residual of the corresponding connection by a second code
path.  ``relation_zeros`` lists the zeros over a whole prime field of
L w + w^T Q w, with L = d¹ ⊗ 1 and Q = μ ⊗ c read off the presentation alone
(``relation_tensors``; μ the product A^1 x A^1 -> A^2, c the structure
constants of the Lie algebra).

Relations are linear plus quadratic: a quadratic key (k, l), k < l, stands
for the bracket [g_k, g_l].
"""

from __future__ import annotations

from .flatconn import _common_zeros, _bound_census
from .scalars import PrimeField


class HolonomyError(ValueError):
    pass


class Relation:
    def __init__(self, lin=None, quad=None):
        self.lin = {} if lin is None else lin        # k -> coef
        self.quad = {} if quad is None else quad     # (k, l), k < l -> coef

    def normalized(self, f):
        """Coefficients coerced into ``f``; each bracket key ordered (flipping
        the sign), equal keys summed, zeros dropped."""
        lin = {k: f.coerce(c) for k, c in self.lin.items()
               if not f.is_zero(f.coerce(c))}
        quad = {}
        for (k, l), c in self.quad.items():
            c = f.coerce(c)
            if k == l or f.is_zero(c):
                continue
            if k > l:
                k, l, c = l, k, f.neg(c)
            quad[(k, l)] = f.add(quad.get((k, l), f.zero), c)
        return Relation(lin, {kl: c for kl, c in quad.items()
                              if not f.is_zero(c)})

    def describe(self, gens):
        parts = []
        for k, c in sorted(self.lin.items()):
            parts.append(f"{c}*{gens[k]}")
        for (k, l), c in sorted(self.quad.items()):
            parts.append(f"{c}*[{gens[k]},{gens[l]}]")
        return " + ".join(parts) if parts else "0"


class HolonomyPresentation:
    def __init__(self, field, generators, relations, name=""):
        self.field = field
        self.generators = list(generators)
        self.relations = [r.normalized(field) for r in relations]
        self.name = name or "holonomy"
        n = len(self.generators)
        for r in self.relations:
            idxs = list(r.lin) + [i for kl in r.quad for i in kl]
            if any(not 0 <= i < n for i in idxs):
                raise HolonomyError("relation index out of range")

    def describe(self):
        lines = [f"generators: {', '.join(self.generators)}"]
        for i, r in enumerate(self.relations):
            lines.append(f"relation {i}: {r.describe(self.generators)} = 0")
        return "\n".join(lines)

    def __repr__(self):
        return (f"HolonomyPresentation({self.name}, "
                f"{len(self.generators)} gens, {len(self.relations)} rels)")


def holonomy_presentation(cdga):
    """Presentation read off the degree-1/2 tables of a model."""
    f = cdga.field
    n1, n2 = cdga.dim(1), cdga.dim(2)
    d1 = cdga.d_matrix(1)
    relations = []
    for c in range(n2):
        lin = {k: d1[c, k] for k in range(n1) if not f.is_zero(d1[c, k])}
        quad = {}
        for k in range(n1):
            for l in range(k + 1, n1):
                coef = cdga.product_basis(1, k, 1, l).get(c, f.zero)
                if not f.is_zero(coef):
                    quad[(k, l)] = coef
        relations.append(Relation(lin, quad))
    gens = [cdga.label(1, k) for k in range(n1)]
    return HolonomyPresentation(f, gens, relations,
                                name=f"holonomy({cdga.name})")


def evaluate_relation(rel, lie, rows):
    """Value of a relation in the Lie algebra at generator images ``rows``."""
    br = lie.bracket
    terms = ([(c, rows[k]) for k, c in rel.lin.items()]
             + [(c, br(rows[k], rows[l])) for (k, l), c in rel.quad.items()])
    return [lie.field.coerce(sum(c * v[m] for c, v in terms))
            for m in range(lie.dim)]


def failing_relations(pres, lie, assignment):
    """Sorted indices of the relations that the generator images, the rows
    of the Matrix ``assignment`` in Lie coordinates, do not kill."""
    if assignment.shape != (len(pres.generators), lie.dim):
        raise HolonomyError(
            f"assignment shape {assignment.shape}, expected "
            f"({len(pres.generators)}, {lie.dim})")
    rows = [assignment.row(k) for k in range(assignment.nrows)]
    return [i for i, r in enumerate(pres.relations)
            if not lie.is_zero_vector(evaluate_relation(r, lie, rows))]


def relation_check(pres, lie, assignment):
    """Do the generator images kill every relation?"""
    return not failing_relations(pres, lie, assignment)


def relation_tensors(pres, lie):
    """int64 arrays (L, Q), of shapes (r·dg, n·dg) and (r·dg, n·dg, n·dg)
    for r relations on n generators, with relation values = L w + w^T Q_j w
    for the flattened assignment w, built from the *presentation* data only:
    L = lin ⊗ 1 and Q = quad ⊗ c, c the structure constants.

    The flatconn module builds its tensors from the multiplication table;
    exhaustive comparisons between the two are a genuine cross-check.
    """
    import numpy as np
    n, r, dg = len(pres.generators), len(pres.relations), lie.dim
    lin = np.zeros((r, n), dtype=np.int64)
    quad = np.zeros((r, n, n), dtype=np.int64)
    for j, rel in enumerate(pres.relations):
        for k, c in rel.lin.items():
            lin[j, k] = int(c)
        for (k, l), c in rel.quad.items():
            quad[j, k, l] = int(c)
    struct = np.array(lie.structure_tensor(), dtype=np.int64).reshape(
        dg, dg, dg)
    return (np.kron(lin, np.eye(dg, dtype=np.int64)),
            np.einsum("jkl,abm->jmkalb", quad, struct).reshape(
                r * dg, n * dg, n * dg))


def relation_zeros(pres, lie):
    """Sorted positions, as in ``flatconn.flat_census`` and guarded like it,
    of the assignments over a prime field that kill every relation: the
    zeros of ``relation_tensors`` by the census solver."""
    f = pres.field
    if not isinstance(f, PrimeField):
        raise HolonomyError("relation zeros need a prime field")
    kdim = len(pres.generators) * lie.dim
    _bound_census(f.p, kdim)
    lmat, qmats = relation_tensors(pres, lie)
    return _common_zeros(lmat, qmats, f.p, kdim)
