"""Model axioms: the builders must validate cleanly, and hand-corrupted
tables must be caught with the right failure messages.

Corruptions are applied through the JSON codec so that only the public
surface is exercised.
"""

import random

import pytest

from jumploci.cdga import Cdga, CdgaError, tensor_product_with_inclusions
from jumploci.models import (build_compact_curve, build_open_curve,
                             build_surface_model, build_torus_model)
from jumploci.scalars import GF, QQ
from jumploci.serialize import cdga_from_json, cdga_to_json


def reload_with(model, tweak):
    obj = cdga_to_json(model)
    tweak(obj)
    return cdga_from_json(model.field, obj)


def test_builders_validate_clean():
    for model in (build_torus_model(QQ, 3), build_compact_curve(QQ, 2),
                  build_open_curve(QQ, 2), build_surface_model(QQ, 2),
                  build_torus_model(GF(3), 2), build_surface_model(GF(5), 1)):
        assert model.validate() == []


def test_torus_multiplication_oracle():
    a = build_torus_model(QQ, 3)
    # e1 * e2 = e1e2, e2 * e1 = -e1e2
    assert a.product_basis(1, 0, 1, 1) == {0: QQ.one}
    assert a.product_basis(1, 1, 1, 0) == {0: QQ.neg(QQ.one)}
    # e1 * e1 = 0
    assert a.product_basis(1, 0, 1, 0) == {}
    # (e1 e2) * e3 = e1e2e3
    assert a.product_basis(2, 0, 1, 2) == {0: QQ.one}


def test_leibniz_violation_detected():
    # Zero d on degree 1 but d(e1e2) = e1e2e3 breaks the product rule.
    a = build_torus_model(QQ, 3)

    def tweak(obj):
        obj["diff"] = [{"deg": 2, "matrix": [["1", "0", "0"]]}]

    broken = reload_with(a, tweak)
    failures = broken.validate()
    assert any("Leibniz" in msg for msg in failures)


def test_d_squared_violation_detected():
    # d(e1) = e1e2 and d(e1e2) = e1e2e3 gives d(d(e1)) != 0.
    a = build_torus_model(QQ, 3)

    def tweak(obj):
        obj["diff"] = [
            {"deg": 1, "matrix": [["1", "0", "0"],
                                  ["0", "0", "0"],
                                  ["0", "0", "0"]]},
            {"deg": 2, "matrix": [["1", "0", "0"]]},
        ]

    broken = reload_with(a, tweak)
    failures = broken.validate()
    assert any("d^2 d^1" in msg for msg in failures)


def test_graded_commutativity_violation_detected():
    a = build_torus_model(QQ, 2)

    def tweak(obj):
        for entry in obj["mult"]:
            if entry["i"] == [1, 1] and entry["j"] == [1, 0]:
                entry["out"][0]["coef"] = "1"  # should be -1

    broken = reload_with(a, tweak)
    assert any("graded commutativity" in msg for msg in broken.validate())


def test_weight_violation_detected():
    a = build_surface_model(QQ, 1)

    def tweak(obj):
        obj["weights"][1][2] = 1  # the weight-2 generator claims weight 1

    broken = reload_with(a, tweak)
    failures = broken.validate()
    assert any("weight" in msg for msg in failures)


def test_weights_on_builders():
    a = build_surface_model(QQ, 2)
    assert [a.weight(1, k) for k in range(a.dim(1))] == [1, 1, 1, 1, 2]
    t = build_torus_model(QQ, 2)
    assert [t.weight(1, k) for k in range(t.dim(1))] == [1, 1]


def test_degree_zero_must_be_one_dimensional():
    bad = Cdga(QQ, "bad", [["1", "also"]], {}, {})
    assert any("degree 0" in msg for msg in bad.validate())


def test_differential_shape_checked():
    from jumploci.linalg import Matrix
    with pytest.raises(CdgaError):
        Cdga(QQ, "bad", [["1"], ["x"]], {0: Matrix.zero(QQ, 3, 3)}, {})


def test_differential_at_the_top_degree_is_refused():
    # even the zero map out of the top degree is out of range
    from jumploci.linalg import Matrix
    with pytest.raises(CdgaError, match="degree 1 out of range"):
        Cdga(QQ, "bad", [["1"], ["x"]], {1: Matrix.zero(QQ, 0, 1)}, {})


def test_cohomology_of_surface_model():
    # The weight-2 generator kills one degree-1 class and one degree-2 class:
    # dims (1, 2g+1, 2g+1, 1) but betti (1, 2g, 2g, 1).
    for g in (1, 2):
        a = build_surface_model(QQ, g)
        want = (1, 2 * g, 2 * g, 1)
        assert tuple(a.betti(i) for i in range(4)) == want


def test_cocycles_and_d_apply():
    a = build_surface_model(QQ, 1)
    cyc = a.cocycles(1)
    assert len(cyc) == 2
    for v in cyc:
        assert all(QQ.is_zero(x) for x in a.d_matrix(1).apply(v))
    # t itself is not closed
    t_vec = [QQ.zero, QQ.zero, QQ.one]
    assert any(not QQ.is_zero(x) for x in a.d_matrix(1).apply(t_vec))


def test_tensor_product_shape_and_validity():
    left = build_compact_curve(QQ, 2)
    right = build_compact_curve(QQ, 1)
    prod, incl_l, incl_r = tensor_product_with_inclusions(left, right)
    # degree 3 pairs: (1-forms x 2-forms) 4*1 + (2-forms x 1-forms) 1*2;
    # the product is whole, up to degree 2 + 2
    assert prod.dims() == (1, 6, 10, 6, 1)
    assert prod.validate() == []
    assert incl_l.validate() == []
    assert incl_r.validate() == []


def test_tensor_inclusions_are_algebra_maps_in_degree_one():
    left = build_compact_curve(QQ, 1)
    right = build_torus_model(QQ, 2)
    prod, incl_l, incl_r = tensor_product_with_inclusions(left, right)
    m1 = incl_l.map(1)
    assert m1.shape == (prod.dim(1), left.dim(1))
    # injective inclusion of each factor
    from jumploci.linalg import rank
    assert rank(m1) == left.dim(1)
    assert rank(incl_r.map(1)) == right.dim(1)


def test_morphism_validate_catches_non_multiplicativity():
    from jumploci.cdga import CdgaMorphism
    from jumploci.linalg import Matrix
    a = build_torus_model(QQ, 2)
    ident = {i: Matrix.identity(QQ, a.dim(i)) for i in range(3)}
    good = CdgaMorphism(a, a, ident)
    assert good.validate() == []
    # scaling degree 1 by 2 but not degree 2 breaks multiplicativity
    twisted = dict(ident)
    twisted[1] = ident[1].scale(QQ.coerce(2))
    bad = CdgaMorphism(a, a, twisted)
    assert bad.validate() != []


@pytest.mark.parametrize("m, n", [(1, 1), (2, 1), (2, 3)])
def test_tensor_of_tori_is_the_bigger_torus(m, n):
    # Lambda(e1..em) (x) Lambda(e1..en) = Lambda(e1..e(m+n)) with x|y sent to
    # x y', y' the labels of y shifted by m; no sign, as x's generators come
    # first.  The torus builder's shuffle signs are the oracle for the
    # tensor product's table and sign rule.
    prod, _, _ = tensor_product_with_inclusions(
        build_torus_model(QQ, m), build_torus_model(QQ, n))
    torus = build_torus_model(QQ, m + n)

    def subset(label):
        x, y = label.split("|")
        ids = [int(g) for g in x.split("e")[1:]]
        return tuple(ids + [int(g) + m for g in y.split("e")[1:]])

    where = {}
    for d in range(torus.top_degree + 1):
        for k, label in enumerate(torus.basis[d]):
            where[tuple(int(g) for g in label.split("e")[1:])] = k
    assert prod.dims() == torus.dims()
    for i in range(1, prod.top_degree + 1):
        for j in range(1, prod.top_degree + 1 - i):
            for k, x in enumerate(prod.basis[i]):
                for l, y in enumerate(prod.basis[j]):
                    got = {where[subset(prod.label(i + j, c))]: v for c, v
                           in prod.product_basis(i, k, j, l).items()}
                    want = torus.product_basis(i, where[subset(x)],
                                               j, where[subset(y)])
                    assert got == want


@pytest.mark.parametrize("field", [QQ, GF(2 ** 31 - 1)])
def test_validate_catches_a_flipped_product_sign(field):
    # Flip the stored sign of (1|a1)(1|b1) = 1|om.  Then
    # ((1|a1)(1|b1))(a1|1) and (1|a1)((1|b1)(a1|1)) differ in sign, so the
    # nonzero-driven associativity check must still see it.
    prod, _, _ = tensor_product_with_inclusions(
        build_compact_curve(field, 2), build_compact_curve(field, 1))
    assert prod.validate() == []

    def tweak(obj):
        entry = next(e for e in obj["mult"]
                     if e["i"] == [1, 0] and e["j"] == [1, 1])
        entry["out"][0]["coef"] = "-" + entry["out"][0]["coef"]

    failures = reload_with(prod, tweak).validate()
    assert any("associativity" in msg for msg in failures)
    assert any("graded commutativity" in msg for msg in failures)


def dense_axiom_failures(a):
    """The product axioms checked on every pair and triple of basis
    elements, with dense vectors: the oracle for the sparse ``validate``."""
    f, top = a.field, a.top_degree
    basis = [(i, k) for i in range(1, top + 1) for k in range(a.dim(i))]

    def unit(i, k):
        return [f.one if m == k else f.zero for m in range(a.dim(i))]

    out = []
    for i, k in basis:
        for j, l in basis:
            if i > j or i + j > top:
                continue
            ba = [f.neg(c) if i * j % 2 else c
                  for c in a.product(j, unit(j, l), i, unit(i, k))]
            if a.product(i, unit(i, k), j, unit(j, l)) != ba:
                out.append("graded commutativity fails on "
                           f"({a.label(i, k)}, {a.label(j, l)})")
    for i, k in basis:
        for j, l in basis:
            if i + j + 1 > top:
                continue
            x, y = unit(i, k), unit(j, l)
            lhs = a.d_matrix(i + j).apply(a.product(i, x, j, y))
            term = a.product(i, x, j + 1, a.d_matrix(j).apply(y))
            rhs = [f.add(p, f.neg(t) if i % 2 else t) for p, t in
                   zip(a.product(i + 1, a.d_matrix(i).apply(x), j, y), term)]
            if lhs != rhs:
                out.append("Leibniz fails on "
                           f"({a.label(i, k)}, {a.label(j, l)})")
    for i, k in basis:
        for j, l in basis:
            for q, r in basis:
                if i + j + q > top:
                    continue
                x, y, z = unit(i, k), unit(j, l), unit(q, r)
                if a.product(i + j, a.product(i, x, j, y), q, z) != \
                        a.product(i, x, j + q, a.product(j, y, q, z)):
                    out.append("associativity fails on "
                               f"({a.label(i, k)},{a.label(j, l)},"
                               f"{a.label(q, r)})")
    return sorted(out)


@pytest.mark.parametrize("spec", [
    "torus(3)", "surface(1)", "tensor(compact_curve(1),torus(1))",
    "tensor(surface(1),torus(1))"])
@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_sparse_validate_matches_the_dense_oracle(spec, field):
    # Seeded one-entry corruptions of the product table or of d: change a
    # stored coefficient, store a product where there was none, or set an
    # entry of d.  The sparse checks must report exactly the dense ones.
    from jumploci.serialize import resolve_model
    model = resolve_model(field, spec)
    rng = random.Random(spec)
    axioms = ("graded", "Leibniz", "associativity")
    for trial in range(30):
        obj = cdga_to_json(model)
        kind = trial % 3
        if kind == 0:
            rng.choice(obj["mult"])["out"][0]["coef"] = str(rng.randint(-2, 2))
        elif kind == 1:
            i = rng.randint(1, model.top_degree - 1)
            j = rng.randint(1, model.top_degree - i)
            if not model.dim(i + j):
                continue
            obj["mult"].append({
                "i": [i, rng.randrange(model.dim(i))],
                "j": [j, rng.randrange(model.dim(j))],
                "out": [{"deg": i + j, "idx": rng.randrange(model.dim(i + j)),
                         "coef": str(rng.randint(1, 2))}]})
        else:
            i = rng.randint(1, model.top_degree - 1)
            if not model.dim(i + 1):
                continue
            m = [[field.format(v) for v in row]
                 for row in model.d_matrix(i).to_lists()]
            m[rng.randrange(len(m))][rng.randrange(model.dim(i))] = \
                str(rng.randint(-2, 2))
            obj["diff"] = [e for e in obj["diff"] if e["deg"] != i]
            obj["diff"].append({"deg": i, "matrix": m})
        broken = cdga_from_json(field, obj)
        got = sorted(msg for msg in broken.validate()
                     if msg.startswith(axioms))
        assert got == dense_axiom_failures(broken)
