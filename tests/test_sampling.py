"""Seeded generators: every sample must satisfy its advertised property,
and the test-only samplers draw exactly what they always drew."""

import hashlib
import json
import random

import pytest

from jumploci.flatconn import f1_membership, is_flat, pi_membership
from jumploci.grouprep import free_group, rep_check, surface_group
from jumploci.liealg import build_sl, build_sol2, rep_defining
from jumploci.linalg import det, rank
from jumploci.models import (build_compact_curve, build_open_curve,
                             build_surface_model, build_torus_model)
from jumploci.sampling import (SamplingError, sample_flat,
                               standard_shear_pair, surface_witness)
from jumploci.scalars import GF, QQ
from jumploci.serialize import cdga_from_json, cdga_to_json, group_from_json
from samplers import (rand_unimodular, sample_group_rep, sample_pi_element,
                      singular_lie_element)


MODELS = [
    lambda f: build_torus_model(f, 2),
    lambda f: build_compact_curve(f, 2),
    lambda f: build_open_curve(f, 3),
    lambda f: build_surface_model(f, 2),
]

LIES = [lambda f: build_sl(f, 2), lambda f: build_sl(f, 3),
        lambda f: build_sol2(f)]


def test_seeded_determinism():
    a = build_compact_curve(QQ, 2)
    g = build_sl(QQ, 2)
    c1 = sample_flat(random.Random(7), a, g)
    c2 = sample_flat(random.Random(7), a, g)
    assert c1.coeffs == c2.coeffs


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_sample_flat_is_flat_everywhere(field):
    rng = random.Random(20260818)
    for make_model in MODELS:
        a = make_model(field)
        for make_lie in LIES:
            g = make_lie(field)
            for _ in range(10):
                assert is_flat(sample_flat(rng, a, g))


def test_sample_flat_strategies():
    rng = random.Random(3)
    a = build_compact_curve(QQ, 2)
    g = build_sl(QQ, 2)
    r1 = sample_flat(rng, a, g, strategy="rank_one")
    assert f1_membership(r1).member
    assert is_flat(sample_flat(rng, a, g, strategy="abelian"))
    assert is_flat(sample_flat(rng, a, g, strategy="swap"))
    with pytest.raises(SamplingError):
        sample_flat(rng, a, g, strategy="free")  # degree 2 is nonempty
    assert is_flat(sample_flat(rng, build_open_curve(QQ, 3), g,
                               strategy="free"))
    with pytest.raises(SamplingError):
        sample_flat(rng, a, g, strategy="bogus")


def renamed(model, name):
    """The model decoded from JSON under another name: no family tag."""
    return cdga_from_json(model.field, dict(cdga_to_json(model), name=name))


@pytest.mark.parametrize("model, name", [
    (build_compact_curve(QQ, 2), "surface_x"),
    (build_surface_model(QQ, 2), "mymodel"),
])
def test_swap_on_renamed_decoded_models(model, name):
    a = renamed(model, name)
    g = build_sl(QQ, 2)
    assert is_flat(sample_flat(random.Random(4), a, g, strategy="swap"))
    assert is_flat(sample_flat(random.Random(4), a, g))


def test_surface_witness_rank_three():
    a = build_surface_model(QQ, 2)
    g = build_sl(QQ, 3)
    w = surface_witness(a, g)
    assert is_flat(w)
    assert rank(w.coeffs) == 3
    # the extra one-form row is in use
    assert any(not QQ.is_zero(x) for x in w.coeffs.row(a.dim(1) - 1))
    with pytest.raises(SamplingError):
        surface_witness(a, build_sl(QQ, 2))
    with pytest.raises(SamplingError):
        surface_witness(build_compact_curve(QQ, 2), g)
    with pytest.raises(SamplingError):
        surface_witness(renamed(a, a.name), g)


def test_singular_elements_have_zero_determinant():
    rng = random.Random(11)
    for make_lie in (lambda f: build_sl(f, 2), lambda f: build_sl(f, 3),
                     lambda f: build_sol2(f)):
        for field in (QQ, GF(7)):
            rep = rep_defining(make_lie(field))
            for _ in range(10):
                x = singular_lie_element(rng, rep)
                assert any(not field.is_zero(c) for c in x)
                assert field.is_zero(det(rep.apply(x)))


def test_pi_samples_pass_membership():
    # sl(2), the Borel algebra sol2 and sl(3), the paper's case n >= 3
    rng = random.Random(5)
    for lie in (build_sl(QQ, 2), build_sol2(QQ), build_sl(QQ, 3)):
        rep = rep_defining(lie)
        for make_model in MODELS:
            a = make_model(QQ)
            for _ in range(10):
                c = sample_pi_element(rng, a, rep)
                assert is_flat(c)
                r = pi_membership(c, rep)
                assert r.member and r.rank == 1 and QQ.is_zero(r.det_value)


def test_group_reps_satisfy_relators():
    rng = random.Random(9)
    for group in (free_group(2), free_group(3), surface_group(1),
                  surface_group(2)):
        for field in (QQ, GF(5)):
            for target in ("SL", "Borel", "GL"):
                for _ in range(8):
                    rep = sample_group_rep(rng, group, field, target=target)
                    ok, bad = rep_check(rep)
                    assert ok, (group.name, target, bad)


def test_group_recipe_ignores_the_name():
    group = group_from_json({"generators": ["a", "b"],
                             "relators": ["a b a^-1 b^-1"],
                             "name": "surface_x"})
    with pytest.raises(SamplingError):
        sample_group_rep(random.Random(9), group, QQ)


def test_rand_unimodular_det_one():
    rng = random.Random(13)
    for field in (QQ, GF(5)):
        for n in (2, 3):
            for _ in range(10):
                assert det(rand_unimodular(rng, field, n)) == field.one


def test_standard_shear_pair():
    a, b = standard_shear_pair(QQ)
    assert det(a) == QQ.one and det(b) == QQ.one
    assert a @ b != b @ a


def entries(rows):
    return [[str(x) for x in row] for row in rows]


def test_test_only_draws_are_frozen():
    # the seeded tests take their inputs from these samplers, so the digest
    # pins those inputs: any change to what or in which order they draw
    # fails here before it silently changes what the other tests check
    draws = []
    for seed in range(5):
        for field in (QQ, GF(5)):
            for group in (free_group(2), surface_group(1), surface_group(2)):
                for target in ("SL", "Borel", "GL"):
                    rep = sample_group_rep(random.Random(seed), group, field,
                                           target)
                    draws.append([entries(m.to_lists())
                                  for m in rep.matrices])
            conn = sample_pi_element(random.Random(seed),
                                     build_compact_curve(field, 2),
                                     rep_defining(build_sl(field, 2)))
            draws.append(entries(conn.coeffs.to_lists()))
            x = singular_lie_element(random.Random(seed),
                                     rep_defining(build_sl(field, 3)))
            draws.append(entries([x]))
            m = rand_unimodular(random.Random(seed), field, 3)
            draws.append(entries(m.to_lists()))
    text = json.dumps(draws, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "b4b376f83ae2f3da25ee2b136a003cca9838c33b56c059e8a3443bca61e54580")
