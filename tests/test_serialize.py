"""JSON round trips and the name grammar for builders."""

import pytest

from jumploci.cdga import tensor_product_with_inclusions
from jumploci.holonomy import holonomy_presentation
from jumploci.liealg import build_sl, build_sol2
from jumploci.linalg import Matrix
from jumploci.models import build_compact_curve, build_surface_model
from jumploci.grouprep import free_group, surface_group
from jumploci.sampling import standard_shear_pair
from jumploci.scalars import GF, QQ
from jumploci.serialize import (SerializeError, cdga_from_json, cdga_to_json,
                                connection_from_json, connection_to_json,
                                decode_matrix, decode_scalar, group_from_json,
                                group_rep_from_json, lie_from_json,
                                lie_to_json, presentation_from_json,
                                presentation_to_json,
                                resolve_group, resolve_lie, resolve_model,
                                resolve_morphism, resolve_rep)
from jumploci.flatconn import FlatConnection, is_flat


def test_scalar_codec():
    assert decode_scalar(QQ, "3/4") == QQ.parse("3/4")
    assert GF(5).format(GF(5).coerce(7)) == "2 mod 5"
    assert decode_scalar(GF(5), "2 mod 5") == GF(5).coerce(2)
    assert decode_scalar(QQ, 3) == QQ.coerce(3)  # bare ints are fine
    with pytest.raises(SerializeError):
        decode_scalar(QQ, 3.5)


def test_matrix_codec():
    m = decode_matrix(QQ, [["1", "2"], ["3", "4"]])
    assert m == Matrix(QQ, [[1, 2], [3, 4]])
    with pytest.raises(SerializeError):
        decode_matrix(QQ, "nope")
    with pytest.raises(SerializeError):
        decode_matrix(QQ, [["1", "2"]], shape=(2, 2))


@pytest.mark.parametrize("field", [QQ, GF(3)])
def test_cdga_round_trip(field):
    a = build_surface_model(field, 2)
    back = cdga_from_json(field, cdga_to_json(a))
    assert back.basis == a.basis
    assert back.validate() == []
    assert back.dims() == a.dims()
    for i in range(a.top_degree + 1):
        assert back.betti(i) == a.betti(i)


def test_cdga_round_trip_keeps_truncation():
    # a whole product round-trips with every degree; a document that marks
    # its model as cut off (or carries any other unknown key) is refused
    s = build_surface_model(QQ, 1)
    prod, _, _ = tensor_product_with_inclusions(s, s)
    obj = cdga_to_json(prod)
    assert "truncated" not in obj
    back = cdga_from_json(QQ, obj)
    assert back.dims() == prod.dims() and back.top_degree == 6
    assert [back.betti(i) for i in range(7)] == [1, 4, 8, 10, 8, 4, 1]
    for extra in ({"truncated": True}, {"truncated": False}, {"note": "x"}):
        with pytest.raises(SerializeError):
            cdga_from_json(QQ, dict(obj, **extra))


def test_cdga_from_json_errors():
    good = cdga_to_json(build_compact_curve(QQ, 1))
    with pytest.raises(SerializeError):
        cdga_from_json(QQ, {k: v for k, v in good.items() if k != "basis"})
    bad = dict(good)
    bad["diff"] = [{"deg": 9, "matrix": [["0", "0"]]}]
    with pytest.raises(SerializeError):
        cdga_from_json(QQ, bad)


@pytest.mark.parametrize("field", [QQ, GF(3)])
def test_lie_round_trip(field):
    g = build_sl(field, 2)
    back = lie_from_json(field, lie_to_json(g))
    assert back.structurally_equal(g)
    assert back.validate() == []


def test_lie_from_json_dim_mismatch():
    obj = lie_to_json(build_sol2(QQ))
    obj["dim"] = 5
    with pytest.raises(SerializeError):
        lie_from_json(QQ, obj)


def test_connection_round_trip():
    a = build_compact_curve(GF(3), 1)
    g = build_sl(GF(3), 2)
    c = FlatConnection.from_rows(a, g, [[1, 0, 0], [2, 0, 0]])
    back = connection_from_json(GF(3), connection_to_json(c))
    assert back.coeffs == c.coeffs
    assert is_flat(back)


def test_presentation_round_trip():
    pres = holonomy_presentation(build_surface_model(QQ, 1))
    back = presentation_from_json(QQ, presentation_to_json(pres))
    assert back.generators == pres.generators
    assert len(back.relations) == len(pres.relations)
    for r1, r2 in zip(back.relations, pres.relations):
        assert r1.lin == r2.lin and r1.quad == r2.quad


def test_group_round_trip():
    g = surface_group(2)
    back = group_from_json({
        "generators": ["a1", "b1", "a2", "b2"],
        "relators": ["a1 b1 a1^-1 b1^-1 a2 b2 a2^-1 b2^-1"]})
    assert back.generators == g.generators
    assert back.relators == g.relators


def test_group_rep_round_trip():
    back = group_rep_from_json(GF(5), {
        "group": {"generators": ["x1", "x2"], "relators": []},
        "target": "SL",
        "matrices": [[["1", "1"], ["0", "1"]], [["1", "0"], ["1", "1"]]]})
    assert back.group.generators == free_group(2).generators
    assert back.target == "SL"
    assert back.matrices == list(standard_shear_pair(GF(5)))


def test_resolve_model_names():
    assert resolve_model(QQ, "compact_curve(2)").betti(1) == 4
    assert resolve_model(QQ, "open_curve(3)").dim(1) == 3
    assert resolve_model(QQ, "surface(1)").dim(1) == 3
    assert resolve_model(QQ, "torus(2)").dim(2) == 1
    assert resolve_model(QQ, "torus(3)").dims() == (1, 3, 3, 1)
    with pytest.raises(SerializeError):
        resolve_model(QQ, "torus(3, 2)")  # no cut-off form any more
    assert resolve_model(QQ, "pencil(3)").betti(1) == 3
    prod = resolve_model(QQ, "tensor(compact_curve(1), compact_curve(1))")
    assert prod.dim(1) == 4
    inline = resolve_model(QQ, cdga_to_json(build_compact_curve(QQ, 1)))
    assert inline.dims() == (1, 2, 1)
    arr = resolve_model(QQ, {"normals": [[1, 0, 0], [0, 1, 0], [1, 1, 0]]})
    assert arr.betti(1) == 3
    with pytest.raises(SerializeError):
        resolve_model(QQ, "klein_bottle(1)")
    with pytest.raises(SerializeError):
        resolve_model(QQ, "tensor(torus(1)")  # unbalanced parentheses
    with pytest.raises(SerializeError):
        resolve_model(QQ, 17)
    with pytest.raises(SerializeError):
        resolve_model(QQ, "torus(x)")


def test_resolve_morphism_names():
    phi = resolve_morphism(QQ, "curve_inclusion(2)")
    assert phi.source.dim(1) == 4 and phi.target.dim(1) == 5
    left = resolve_morphism(QQ, "tensor_left(compact_curve(1), torus(1))")
    right = resolve_morphism(QQ, "tensor_right(compact_curve(1), torus(1))")
    assert left.source.dim(1) == 2 and right.source.dim(1) == 1
    assert left.target.dim(1) == right.target.dim(1) == 3
    with pytest.raises(SerializeError):
        resolve_morphism(QQ, "tensor_left(torus(1))")
    with pytest.raises(SerializeError):
        resolve_morphism(QQ, "shrink(3)")
    with pytest.raises(SerializeError):
        resolve_morphism(QQ, {"maps": []})


def test_resolve_lie_and_rep_names():
    assert resolve_lie(QQ, "sl(3)").dim == 8
    assert resolve_lie(QQ, "sol2").dim == 2
    assert resolve_lie(QQ, "abelian(4)").is_abelian()
    with pytest.raises(SerializeError):
        resolve_lie(QQ, "e8")

    assert resolve_rep(QQ, "defining(sl(2))").dim == 2
    assert resolve_rep(QQ, "adjoint(sl(2))").dim == 3
    assert resolve_rep(QQ, "trivial(sl(2), 4)").dim == 4
    both = resolve_rep(QQ, "sum(trivial(sl(2), 1), adjoint(sl(2)))")
    assert both.dim == 4
    with pytest.raises(SerializeError):
        resolve_rep(QQ, "defining(sl(2), sl(3))")
    with pytest.raises(SerializeError):
        resolve_rep(QQ, "spin(7)")


def test_resolve_group_names():
    assert len(resolve_group("free(3)").generators) == 3
    assert len(resolve_group("surface(2)").generators) == 4
    with pytest.raises(SerializeError):
        resolve_group("braid(4)")
    with pytest.raises(SerializeError):
        resolve_group(4)
