"""End-to-end acceptance checks: one test per headline property.

`pytest tests/test_acceptance.py -v` prints one pass/fail line per
property; `python3 tests/test_acceptance.py` runs the same list standalone.

Frozen constants are marked [DERIVED] with a note on the independent
computation that produced them (hand counts, or throwaway scripts working
on literal matrices, never this package's own code path under test).
"""

import random
from itertools import product as iproduct
from time import perf_counter

from jumploci.aomoto import AomotoComplex, depth_gap, resonance_membership
from jumploci.cdga import tensor_product_with_inclusions
from jumploci.flatconn import (FlatConnection, brute_force_flat,
                               f1_membership, is_flat, lex_index,
                               mc_residual, pi_membership, tangent_dimension,
                               weight_scale)
from jumploci.grouprep import (GroupRep, adjoint_rep, d0_matrix, d1_matrix,
                               free_group, rep_check, surface_group,
                               tangent_dimension_rep, twisted_cohomology)
from jumploci.holonomy import (evaluate_relation, holonomy_presentation,
                               relation_check, relation_zeros)
from jumploci.liealg import (build_abelian, build_sl, build_sol2,
                             rep_adjoint, rep_defining, rep_direct_sum,
                             rep_trivial)
from jumploci.linalg import Matrix, kernel_basis, rank, solve
from jumploci.models import (build_compact_curve, build_open_curve,
                             build_os_arrangement, build_surface_model,
                             build_torus_model, curve_inclusion,
                             pencil_normals)
from jumploci.sampling import (random_connection, sample_flat,
                               standard_shear_pair)
from jumploci.scalars import GF, QQ
from samplers import alternating_sum, sample_group_rep, sample_pi_element


class stopwatch:
    def __enter__(self):
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = perf_counter() - self.t0


def surface_root_witness(field, g):
    """Rows a1 -> E12, b1 -> E23, t -> -E13, everything else zero."""
    a = build_surface_model(field, g)
    lie = build_sl(field, 3)
    n1 = a.dim(1)
    rows = [[field.zero] * lie.dim for _ in range(n1)]
    rows[0] = lie.basis_vector("E12")
    rows[1] = lie.basis_vector("E23")
    rows[n1 - 1] = [field.neg(x) for x in lie.basis_vector("E13")]
    return a, lie, FlatConnection.from_rows(a, lie, rows)


def test_01_surface_witness_beyond_rank_one():
    """Rank-3 flat witness outside the rank-one and pullback loci."""
    with stopwatch() as sw:
        for g in (1, 2):
            a, lie, w = surface_root_witness(QQ, g)
            f = QQ
            # flat with *exactly* zero residual
            assert mc_residual(w) == [f.zero] * (a.dim(2) * lie.dim)
            # coefficient rank 3: misses the rank-one locus
            r1 = f1_membership(w)
            assert not r1.member and "rank 3" in r1.reason
            # the extra-generator row is nonzero ...
            t_row = w.coeffs.row(a.dim(1) - 1)
            assert any(not f.is_zero(x) for x in t_row)
            # ... so the coefficients cannot factor through the curve
            # inclusion (its degree-1 matrix has a zero last row)
            h, _, incl = curve_inclusion(f, g)
            m1 = incl.map(1)
            assert rank(m1.hstack(w.coeffs)) > rank(m1)
            # the rows kill the surface model's relations t + r, [x, t],
            # so t = -r and every [x, r] = 0, but the handle rows send the
            # single compact-curve relation r to the root vector E13
            assert relation_check(holonomy_presentation(a), lie, w.coeffs)
            p_h = holonomy_presentation(h)
            assignment = Matrix(f, [w.coeffs.row(k) for k in range(2 * g)],
                                ncols=lie.dim)
            assert not relation_check(p_h, lie, assignment)
            rows = [assignment.row(k) for k in range(2 * g)]
            value = evaluate_relation(p_h.relations[0], lie, rows)
            assert value == lie.basis_vector("E13")
    assert sw.elapsed < 1.0, f"took {sw.elapsed:.2f}s"


def test_02_genus_one_exhaustive_census():
    """All 3^9 (then 5^9) connections on the genus-1 surface model."""
    f3 = GF(3)
    a3 = build_surface_model(f3, 1)
    g3 = build_sl(f3, 2)
    with stopwatch() as sw:
        flats = brute_force_flat(a3, g3)
        # [DERIVED] 105 commuting pairs in sl2(F_3), counted independently
        # over literal 2x2 matrices mod 3
        assert len(flats) == 105
        # exact set equality with { (x, y, 0) : [x, y] = 0 }
        expected = set()
        for x in iproduct(range(3), repeat=3):
            for y in iproduct(range(3), repeat=3):
                if g3.is_zero_vector(g3.bracket(list(x), list(y))):
                    expected.add((x, y, (0, 0, 0)))
        actual = {tuple(tuple(int(v) for v in c.coeffs.row(k))
                        for k in range(3)) for c in flats}
        assert actual == expected
        assert all(f1_membership(c).member for c in flats)
    assert sw.elapsed < 5.0, f"F3 census took {sw.elapsed:.2f}s"

    f5 = GF(5)
    a5 = build_surface_model(f5, 1)
    g5 = build_sl(f5, 2)
    with stopwatch() as sw5:
        flats5 = brute_force_flat(a5, g5, jobs=2)
        # [DERIVED] 745 commuting pairs in sl2(F_5), counted independently
        # over literal 2x2 matrices mod 5
        assert len(flats5) == 745
        for c in flats5:
            assert all(f5.is_zero(v) for v in c.coeffs.row(2))
            assert g5.is_zero_vector(
                g5.bracket(c.coeffs.row(0), c.coeffs.row(1)))
            assert f1_membership(c).member
    assert sw5.elapsed < 60.0, f"F5 census took {sw5.elapsed:.2f}s"


def test_03_holonomy_flatness_correspondence():
    """Relation evaluation and the Maurer-Cartan residual always agree."""
    rng = random.Random(20260818)
    makers = [lambda f: build_torus_model(f, 1),
              lambda f: build_torus_model(f, 2),
              lambda f: build_torus_model(f, 3),
              lambda f: build_compact_curve(f, 1),
              lambda f: build_compact_curve(f, 2),
              lambda f: build_open_curve(f, 2),
              lambda f: build_open_curve(f, 3),
              lambda f: build_surface_model(f, 1),
              lambda f: build_surface_model(f, 2)]
    lies = [lambda f: build_sl(f, 2), lambda f: build_sl(f, 3),
            lambda f: build_sol2(f)]
    disagreements = 0
    for make in makers:
        a = make(QQ)
        pres = holonomy_presentation(a)
        for make_lie in lies:
            g = make_lie(QQ)
            for _ in range(200):
                c = random_connection(rng, a, g, span=3)
                if relation_check(pres, g, c.coeffs) != is_flat(c):
                    disagreements += 1
    assert disagreements == 0

    # exhaustive cross-check over F_3: the zeros of the presentation's
    # relations against the brute-force flat census, all 19683 points
    f3 = GF(3)
    a = build_surface_model(f3, 1)
    g = build_sl(f3, 2)
    zeros = relation_zeros(holonomy_presentation(a), g).tolist()
    assert zeros == [lex_index(c, 3) for c in brute_force_flat(a, g)]


def test_04_tangent_dimensions_agree():
    """Two independent germ-dimension computations give 9 = 6g - 3."""
    with stopwatch() as sw:
        f = QQ
        g = build_sl(f, 2)
        E, F = g.basis_vector("E12"), g.basis_vector("E21")
        conn = FlatConnection.from_rows(build_compact_curve(f, 2), g,
                                        [E, F, F, E])
        flat_side = tangent_dimension(conn)
        A, B = standard_shear_pair(f)
        rho = GroupRep(surface_group(2), "SL", [A, B, B, A])
        group_side = tangent_dimension_rep(rho).cocycle_dim
        assert flat_side == group_side == 9 == 6 * 2 - 3
    assert sw.elapsed < 1.0, f"took {sw.elapsed:.2f}s"


def test_05_product_depth_gap():
    """Twisted b1 grows strictly from the curve into the product."""
    with stopwatch() as sw:
        f = QQ
        left = build_compact_curve(f, 2)
        right = build_compact_curve(f, 1)
        _, incl_l, incl_r = tensor_product_with_inclusions(left, right)
        g = build_sl(f, 2)
        E, F = g.basis_vector("E12"), g.basis_vector("E21")
        conn = FlatConnection.from_rows(left, g, [E, F, F, E])
        eta = incl_r.map(1).apply([f.one, f.zero])

        theta = rep_direct_sum(rep_trivial(g, 1), rep_adjoint(g))
        report = depth_gap(incl_l, theta, conn, eta)
        assert report.base_betti >= 1
        assert report.target_betti > report.base_betti
        assert report.target_betti > 1
        assert report.eta_kernel_ok  # eta (x) v really sits in ker D^1
        # [DERIVED] frozen from exact runs: 4 + 6 and 6 + 6 (trivial part
        # contributes the untwisted b1, adjoint part contributes 6)
        assert (report.base_betti, report.target_betti) == (10, 12)

        # control with 1-dimensional trivial coefficients: the untwisted
        # first Betti numbers 4 and 6 of the curve and the product
        control = depth_gap(incl_l, rep_trivial(g, 1), conn, eta)
        assert (control.base_betti, control.target_betti) == (4, 6)
    assert sw.elapsed < 1.0, f"took {sw.elapsed:.2f}s"


def test_06_pencil_resonance_weights():
    """Sum-zero weights jump on a pencil of lines; generic weights do not."""
    with stopwatch() as sw:
        f = QQ
        rng = random.Random(20260818)
        ab = build_abelian(f, 1)
        theta = rep_defining(ab)
        # [DERIVED] kernel of the degree-1 twisted differential at sum-zero
        # weights: constant dimension m - 1, frozen from exact Q runs
        want_kernel = {3: 2, 4: 3}
        for m in (3, 4):
            A = build_os_arrangement(f, pencil_normals(m))
            for _ in range(20):
                lam = [f.coerce(rng.randint(-5, 5)) for _ in range(m - 1)]
                lam.append(f.neg(sum(lam[1:], lam[0])))
                if all(f.is_zero(v) for v in lam):
                    lam[0], lam[-1] = f.one, f.neg(f.one)
                conn = FlatConnection.from_rows(A, ab, [[v] for v in lam])
                assert resonance_membership(conn, theta, 1, 1)
                comp = AomotoComplex(conn, theta)
                assert len(kernel_basis(comp.matrix(1))) == want_kernel[m]
            for _ in range(20):
                while True:
                    lam = [f.coerce(rng.randint(-5, 5)) for _ in range(m)]
                    if not f.is_zero(sum(lam[1:], lam[0])):
                        break
                conn = FlatConnection.from_rows(A, ab, [[v] for v in lam])
                assert not resonance_membership(conn, theta, 1, 1)
    assert sw.elapsed < 1.0, f"took {sw.elapsed:.2f}s"


def test_07_torus_collapse():
    """Every torus flat is rank-one; determinant cut = first resonance."""
    f3 = GF(3)
    a = build_torus_model(f3, 2)
    with stopwatch() as sw:
        # [DERIVED] counts verified independently: 105 commuting sl2(F_3)
        # pairs; 33 solutions of ad = bc mod 3 for the solvable algebra
        for make_lie, count in ((lambda: build_sl(f3, 2), 105),
                                (lambda: build_sol2(f3), 33)):
            g = make_lie()
            theta = rep_defining(g)
            flats = brute_force_flat(a, g)
            assert len(flats) == count
            for c in flats:
                assert f1_membership(c).member
                in_r11 = resonance_membership(c, theta, 1, 1)
                in_pi = pi_membership(c, theta).member
                assert in_r11 == in_pi
    assert sw.elapsed < 10.0, f"took {sw.elapsed:.2f}s"


def test_08_curve_resonance_saturation():
    """Flat connections on curve models always hit first resonance."""
    rng = random.Random(20260818)
    g = build_sl(QQ, 2)
    thetas = [rep_defining(g), rep_adjoint(g)]
    for make in (lambda f: build_open_curve(f, 3),
                 lambda f: build_compact_curve(f, 2)):
        a = make(QQ)
        for _ in range(100):
            c = sample_flat(rng, a, g, span=3)
            for theta in thetas:
                assert AomotoComplex(c, theta).betti(1) >= 1


def test_09_determinant_cut_inside_first_resonance():
    """Rank-one points kept by the determinant cut lie in resonance."""
    rng = random.Random(20260818)
    g = build_sl(QQ, 2)
    theta = rep_defining(g)
    makers = [lambda f: build_torus_model(f, 2),
              lambda f: build_compact_curve(f, 2),
              lambda f: build_open_curve(f, 3),
              lambda f: build_surface_model(f, 2),
              lambda f: build_os_arrangement(f, pencil_normals(3))]
    for make in makers:
        a = make(QQ)
        assert a.betti(1) >= 1
        for _ in range(20):
            c = sample_pi_element(rng, a, theta)
            assert pi_membership(c, theta).member
            assert AomotoComplex(c, theta).betti(1) >= 1


def test_10_weight_torus_action():
    """Weight rescaling preserves flatness; weight-2-only flats vanish."""
    rng = random.Random(20260818)
    f = QQ
    a = build_surface_model(f, 2)
    g = build_sl(f, 2)
    scalars = [1, -1, 2, -2, 3, -3, 4, 5, 7, 10]
    for _ in range(50):
        c = sample_flat(rng, a, g, span=3)
        for s in scalars:
            assert is_flat(weight_scale(c, s))

    # over F_3, exhaustively at genus 1: a flat connection whose weight-1
    # rows vanish has every nonzero row supported on closed one-forms
    f3 = GF(3)
    a3 = build_surface_model(f3, 1)
    g3 = build_sl(f3, 2)
    d1 = a3.d_matrix(1)
    closed = [all(f3.is_zero(d1[j, k]) for j in range(a3.dim(2)))
              for k in range(a3.dim(1))]
    w1_rows = [k for k in range(a3.dim(1)) if a3.weight(1, k) == 1]
    checked = 0
    for c in brute_force_flat(a3, g3):
        if any(not f3.is_zero(v) for k in w1_rows for v in c.coeffs.row(k)):
            continue
        checked += 1
        for k in range(a3.dim(1)):
            if any(not f3.is_zero(v) for v in c.coeffs.row(k)):
                assert closed[k]
    assert checked >= 1

    # and on 100 rational candidates at genus 2 whose weight-1 rows vanish
    # by construction: such a connection is flat iff its weight-2 row is
    # zero, and the flat ones trivially have every row closed
    d1_q = a.d_matrix(1)
    closed_q = [all(f.is_zero(d1_q[j, k]) for j in range(a.dim(2)))
                for k in range(a.dim(1))]
    t_idx = a.dim(1) - 1
    assert a.weight(1, t_idx) == 2
    for i in range(100):
        rows = [[f.zero] * g.dim for _ in range(a.dim(1))]
        if i % 2 == 0:
            rows[t_idx] = [f.coerce(rng.randint(-3, 3)) for _ in range(g.dim)]
        c = FlatConnection.from_rows(a, g, rows)
        z_zero = all(f.is_zero(v) for v in rows[t_idx])
        assert is_flat(c) == z_zero
        if z_zero:
            for k in range(a.dim(1)):
                if any(not f.is_zero(v) for v in c.coeffs.row(k)):
                    assert closed_q[k]


def test_11_product_transversality():
    """The two factor coefficient spaces meet only in zero."""
    with stopwatch() as sw:
        f = QQ
        left = build_compact_curve(f, 2)
        right = build_compact_curve(f, 1)
        _, incl_l, incl_r = tensor_product_with_inclusions(left, right)
        ml, mr = incl_l.map(1), incl_r.map(1)
        assert rank(ml) == 4 and rank(mr) == 2
        assert rank(ml.hstack(mr)) == 6  # 4 + 2: intersection is zero
        assert kernel_basis(ml.hstack(mr)) == []
        # concrete witness: a nonzero column pulled from the left factor
        # never lifts through the right inclusion
        g = build_sl(f, 2)
        E, F = g.basis_vector("E12"), g.basis_vector("E21")
        conn = FlatConnection.from_rows(left, g, [E, F, F, E])
        from jumploci.flatconn import pullback
        pushed = pullback(incl_l, conn)
        col = pushed.coeffs.column(0)
        assert any(not f.is_zero(v) for v in col)
        assert solve(mr, col) is None
    assert sw.elapsed < 1.0, f"took {sw.elapsed:.2f}s"


def test_12_euler_characteristic_identities():
    """Alternating Betti sums equal chi times the coefficient dimension."""
    rng = random.Random(20260818)
    f = QQ
    g = build_sl(f, 2)
    thetas = [rep_defining(g), rep_adjoint(g)]
    makers = [lambda f: build_torus_model(f, 2),
              lambda f: build_compact_curve(f, 2),
              lambda f: build_open_curve(f, 3),
              lambda f: build_surface_model(f, 2),
              lambda f: build_os_arrangement(f, pencil_normals(3))]
    for make in makers:
        a = make(f)
        chi = alternating_sum(a.dims())
        for i in range(50):
            c = sample_flat(rng, a, g, span=3)
            theta = thetas[i % 2]
            comp = AomotoComplex(c, theta)
            assert alternating_sum(comp.betti_all()) == chi * theta.dim

    for group in (free_group(2), free_group(3), surface_group(1),
                  surface_group(2)):
        chi = alternating_sum(
            (1, len(group.generators), len(group.relators)))
        for i in range(50):
            target = "SL" if i % 2 == 0 else "Borel"
            rho = sample_group_rep(rng, group, f, target=target)
            tb = twisted_cohomology(rho)
            assert tb.euler() == chi * rho.dim


def test_13_validation_suite():
    """Builders validate; reps are compatible; both squares vanish."""
    rng = random.Random(20260818)
    makers = [lambda f: build_torus_model(f, 1),
              lambda f: build_torus_model(f, 3),
              lambda f: build_compact_curve(f, 1),
              lambda f: build_compact_curve(f, 2),
              lambda f: build_open_curve(f, 2),
              lambda f: build_open_curve(f, 3),
              lambda f: build_surface_model(f, 1),
              lambda f: build_surface_model(f, 2),
              lambda f: build_os_arrangement(f, pencil_normals(3)),
              lambda f: build_os_arrangement(f, pencil_normals(5)),
              lambda f: build_os_arrangement(
                  f, [(1, -1, 0), (1, 0, -1), (0, 1, -1)])]
    for field in (QQ, GF(3)):
        for make in makers:
            assert make(field).validate() == []

    # representation builders: the constructor re-derives bracket
    # compatibility and raises on any failure
    for field in (QQ, GF(5)):
        for make_lie in (lambda f: build_sl(f, 2), lambda f: build_sl(f, 3),
                         lambda f: build_sol2(f),
                         lambda f: build_abelian(f, 2)):
            lie = make_lie(field)
            assert lie.validate() == []
            ad = rep_adjoint(lie)
            triv = rep_trivial(lie, 2)
            rep_direct_sum(triv, ad)
        rep_defining(build_sl(field, 2))
        rep_defining(build_sl(field, 3))
        rep_defining(build_sol2(field))
        rep_defining(build_abelian(field, 1))

    # twisted differentials square to zero at flat samples
    g = build_sl(QQ, 2)
    theta = rep_defining(g)
    for make in makers:
        a = make(QQ)
        for _ in range(5):
            c = sample_flat(rng, a, g, span=3)
            assert AomotoComplex(c, theta).square_is_zero()

    # Fox fundamental identity at sampled representations
    for group in (free_group(2), surface_group(1), surface_group(2)):
        for _ in range(5):
            rho = sample_group_rep(rng, group, QQ)
            assert rep_check(rho)[0]
            for local in (rho, adjoint_rep(rho)):
                d0, d1 = d0_matrix(local), d1_matrix(local)
                if d1.nrows:
                    assert (d1 @ d0).is_zero()


if __name__ == "__main__":
    import sys

    failures = 0
    names = sorted(n for n in dir() if n.startswith("test_"))
    for name in names:
        fn = globals()[name]
        label = (fn.__doc__ or name).strip().splitlines()[0]
        t0 = perf_counter()
        try:
            fn()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL  {label}  ({exc})")
        else:
            print(f"PASS  {label}  ({perf_counter() - t0:.2f}s)")
    print(f"{len(names) - failures}/{len(names)} properties hold")
    sys.exit(1 if failures else 0)
