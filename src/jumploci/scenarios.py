"""Named end-to-end scenarios: each one builds a specific configuration,
runs its checks, and returns a report with one line per check.

Expected values that came out of one-off oracle runs (exhaustive censuses,
exact ranks) are frozen under ``jumploci/data`` with a provenance note and
re-verified here rather than recomputed blindly.
"""

import json
import os
import random
import time
from collections import namedtuple

from .aomoto import AomotoComplex, depth_gap, resonance_membership
from .cdga import tensor_product_with_inclusions
from .flatconn import (FlatConnection, brute_force_flat, det_cut,
                       f1_membership, is_flat, lex_index, mc_residual,
                       tangent_dimension, weight_scale)
from .grouprep import GroupRep, surface_group, tangent_dimension_rep
from .holonomy import (evaluate_relation, holonomy_presentation,
                       relation_check, relation_zeros)
from .liealg import (build_abelian, build_sl, build_sol2, rep_adjoint,
                     rep_defining, rep_direct_sum, rep_trivial)
from .linalg import rank
from .models import (build_compact_curve, build_os_arrangement,
                     build_surface_model, build_torus_model, curve_inclusion,
                     pencil_normals)
from .sampling import (rand_nonzero, rand_scalar, sample_flat,
                       standard_shear_pair, surface_witness)
from .scalars import GF, QQ, clip


class ScenarioError(ValueError):
    pass


class Check(namedtuple("Check", "label ok detail", defaults=("",))):
    __slots__ = ()


class ScenarioReport:
    def __init__(self, name):
        self.name = name
        self.checks = []
        self.data = {}

    def check(self, label, ok, detail=""):
        self.checks.append(Check(label, bool(ok), str(detail)))
        return bool(ok)

    @property
    def holds(self):
        return all(c.ok for c in self.checks)

    def to_dict(self):
        return {"scenario": self.name, "holds": self.holds, "data": self.data,
                "checks": [{"label": c.label, "ok": c.ok, "detail": c.detail}
                           for c in self.checks]}

    def lines(self):
        out = [f"scenario {self.name}: {'PASS' if self.holds else 'FAIL'}"]
        for c in self.checks:
            mark = " ok " if c.ok else "FAIL"
            line = f"  [{mark}] {c.label}"
            if c.detail:
                line += f": {c.detail}"
            out.append(line)
        return out


def load_golden(name):
    path = os.path.join(os.path.dirname(__file__), "data", name)
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------- the catalog

def run_sl3_witness(seed=0, field=None):
    """A rank-3 flat connection beyond the rank-one and pullback loci.

    Its coefficient rank is 3, its extra one-form row is nonzero, and its
    rows kill the surface model's holonomy relations t + r, [x, t] (so
    t = -r and every [x, r] = 0) while its first 2g rows send the single
    compact-curve relation r to E13."""
    f = field or QQ
    rep = ScenarioReport("sl3-witness")
    for g in (1, 2):
        tag = f"g={g}"
        A = build_surface_model(f, g)
        sl3 = build_sl(f, 3)
        w = surface_witness(A, sl3)
        res = mc_residual(w)
        rep.check(f"{tag}: Maurer-Cartan residual is zero",
                  all(f.is_zero(x) for x in res))
        f1 = f1_membership(w)
        rep.check(f"{tag}: coefficient rank is 3", f1.rank == 3,
                  f"rank {f1.rank}")
        rep.check(f"{tag}: outside the rank-one locus", not f1.member,
                  f1.reason)
        t_row = w.coeffs.row(A.dim(1) - 1)
        rep.check(f"{tag}: extra one-form row is nonzero",
                  any(not f.is_zero(x) for x in t_row))
        H, _, incl = curve_inclusion(f, g)
        m1 = incl.map(1)
        r1, r2 = rank(m1), rank(m1.hstack(w.coeffs))
        rep.check(f"{tag}: not a pullback from the genus-{g} curve",
                  r2 > r1, f"rank {r1} -> {r2}")
        rep.check(f"{tag}: eliminated surface relations hold",
                  relation_check(holonomy_presentation(A), sl3, w.coeffs))
        (r,) = holonomy_presentation(H).relations
        rho_r = evaluate_relation(
            r, sl3, [w.coeffs.row(k) for k in range(2 * g)])
        rep.check(f"{tag}: compact-curve relation fails",
                  not sl3.is_zero_vector(rho_r))
        rep.check(f"{tag}: relator image is the long root vector",
                  rho_r == sl3.basis_vector("E13"))
    rep.data["coefficient_rank"] = 3
    return rep


def run_g1_bruteforce(seed=0, field=None):
    """Exhaustive genus-1 flat census over a prime field, checked three ways.

    The sl2 census is compared against the frozen index list, against the
    independently constructed set {(x, y, 0) : [x, y] = 0}, and against the
    zeros of the holonomy relations."""
    f = field or GF(3)
    p = getattr(f, "p", None)
    if p is None:
        raise ScenarioError("this scenario needs a prime field")
    rep = ScenarioReport("g1-bruteforce")
    A = build_surface_model(f, 1)
    sl2 = build_sl(f, 2)
    t0 = time.time()
    flats = brute_force_flat(A, sl2)
    elapsed = time.time() - t0
    rep.data["candidates"] = p ** 9
    rep.data["count"] = len(flats)
    rep.data["seconds"] = round(elapsed, 2)
    idxs = [lex_index(c, p) for c in flats]
    if p in (3, 5):
        golden = load_golden(f"census_surface_g1_sl2_f{p}.json")
        rep.check("candidate count matches the frozen census",
                  golden["candidates"] == p ** 9)
        rep.check(f"flat count is {golden['count']}",
                  len(flats) == golden["count"], f"got {len(flats)}")
        rep.check("flat set equals the frozen census exactly",
                  idxs == golden["solution_indices"])
    # independent structural description: rows (x, y) commute, extra row 0
    expected = set()
    dg = sl2.dim
    for xi in range(p ** dg):
        x = [(xi // p ** (dg - 1 - t)) % p for t in range(dg)]
        for yi in range(p ** dg):
            y = [(yi // p ** (dg - 1 - t)) % p for t in range(dg)]
            if sl2.is_zero_vector(sl2.bracket(x, y)):
                expected.add((xi * p ** dg + yi) * p ** dg)   # (x, y, 0)
    rep.check("flat set is {(x,y,0) : [x,y] = 0}", set(idxs) == expected,
              f"{len(idxs)} computed vs {len(expected)} constructed")
    rep.check("every flat connection is rank-one here",
              all(f1_membership(c).member for c in flats))
    if p == 3:
        zeros = relation_zeros(holonomy_presentation(A), sl2).tolist()
        rep.check("holonomy relation mask agrees on all candidates",
                  zeros == idxs)
    return rep


def depth_gap_setup(f):
    """(phi, theta, conn, eta) for the product-of-curves configuration: the
    genus-2 curve model included into its product with a genus-1 one,
    trivial + adjoint sl(2) coefficients, the flat connection with rows
    (E, F, F, E), and the first one-form of the second factor as eta."""
    left = build_compact_curve(f, 2)
    right = build_compact_curve(f, 1)
    _, incl_l, incl_r = tensor_product_with_inclusions(left, right)
    sl2 = build_sl(f, 2)
    theta = rep_direct_sum(rep_trivial(sl2, 1), rep_adjoint(sl2))
    E, F = sl2.basis_vector("E12"), sl2.basis_vector("E21")
    conn = FlatConnection.from_rows(left, sl2, [E, F, F, E])
    eta = incl_r.map(1).apply([f.one] + [f.zero] * (right.dim(1) - 1))
    return incl_l, theta, conn, eta


def run_depth_gap_product(seed=0, field=None):
    """Strict depth increase along a curve-into-product inclusion.

    A genus-2 curve model sits inside its product with a genus-1 curve;
    twisted first betti numbers jump from s to r > max(s, 1), with frozen
    exact values and a trivial-coefficient control."""
    f = field or QQ
    rep = ScenarioReport("depth-gap-product")
    incl_l, theta, conn, eta = depth_gap_setup(f)
    report = depth_gap(incl_l, theta, conn, eta)
    golden = load_golden("depth_gap_product.json")
    rep.check("base depth s >= 1", report.base_positive,
              f"s = {report.base_betti}")
    rep.check("target depth r > s", report.strict_increase,
              f"r = {report.target_betti}")
    rep.check("target depth r > 1", report.depth_two)
    rep.check("eta (x) v lies in the twisted kernel", report.eta_kernel_ok)
    rep.check(f"s = {golden['s']} exactly",
              report.base_betti == golden["s"])
    rep.check(f"r = {golden['r']} exactly",
              report.target_betti == golden["r"])
    control = depth_gap(incl_l, rep_trivial(conn.lie, 1), conn, eta)
    rep.check(
        f"trivial-coefficient control: s = {golden['control_s']}, "
        f"r = {golden['control_r']}",
        (control.base_betti, control.target_betti)
        == (golden["control_s"], golden["control_r"]),
        f"got ({control.base_betti}, {control.target_betti})")
    rep.data.update({"s": report.base_betti, "r": report.target_betti,
                     "control_s": control.base_betti,
                     "control_r": control.target_betti})
    return rep


def run_pencil_resonance(seed=0, field=None):
    """Sum-zero pencil weights jump; generic weights do not.

    On the arrangement of m concurrent lines, rank-one weights with
    coordinate sum zero lie in the first resonance locus with a frozen
    twisted kernel dimension; weights with nonzero sum stay outside."""
    f = field or QQ
    rep = ScenarioReport("pencil-resonance")
    rng = random.Random(seed)
    golden = load_golden("pencil_resonance.json")
    ab = build_abelian(f, 1)
    theta = rep_defining(ab)
    for m in (3, 4):
        A = build_os_arrangement(f, pencil_normals(m))
        kdims = set()
        hits = 0
        for _ in range(20):
            lam = [rand_scalar(rng, f, 5) for _ in range(m - 1)]
            lam.append(f.neg(sum(lam)))
            if all(f.is_zero(v) for v in lam):
                lam[0], lam[-1] = f.one, f.neg(f.one)
            conn = FlatConnection.from_rows(A, ab, [[v] for v in lam])
            comp = AomotoComplex(conn, theta)
            if comp.betti(1) >= 1:
                hits += 1
            kdims.add(A.dim(1) * theta.dim - comp.rank(1))
        rep.check(f"m={m}: all 20 sum-zero weights jump", hits == 20,
                  f"{hits}/20")
        want = golden["sum_zero_kernel_dim"][str(m)]
        rep.check(f"m={m}: twisted kernel dimension is {want} there",
                  kdims == {want}, f"saw {sorted(kdims)}")
        misses = 0
        for _ in range(20):
            while True:
                lam = [rand_scalar(rng, f, 5) for _ in range(m)]
                if not f.is_zero(sum(lam)):
                    break
            conn = FlatConnection.from_rows(A, ab, [[v] for v in lam])
            if resonance_membership(conn, theta, 1, 1):
                continue
            misses += 1
        rep.check(f"m={m}: no generic weight jumps", misses == 20,
                  f"{misses}/20 stayed out")
    return rep


def run_tangent_match(seed=0, field=None):
    """Equal germ dimensions from two independent code paths.

    The flat side is linearized at rows (E, F, F, E) on the genus-2 curve
    model; the group side counts adjoint cocycles at the surface-group
    representation (A, B, B, A).  Both equal the frozen value."""
    f = field or QQ
    rep = ScenarioReport("tangent-match")
    golden = load_golden("tangent_match.json")
    sl2 = build_sl(f, 2)
    E = sl2.basis_vector("E12")
    F = sl2.basis_vector("E21")
    H2 = build_compact_curve(f, 2)
    conn = FlatConnection.from_rows(H2, sl2, [E, F, F, E])
    flat_side = tangent_dimension(conn)
    A, B = standard_shear_pair(f)
    rho = GroupRep(surface_group(2), "SL", [A, B, B, A])
    group_side = tangent_dimension_rep(rho).cocycle_dim
    want = golden["tangent_dimension"]
    rep.check(f"flat side computes {want}", flat_side == want,
              f"got {flat_side}")
    rep.check(f"group side computes {want}", group_side == want,
              f"got {group_side}")
    rep.check("the two independent computations agree",
              flat_side == group_side)
    rep.data.update({"flat_side": flat_side, "group_side": group_side})
    return rep


def run_weight_equivariance(seed=0, field=None):
    """Weight scaling preserves flatness; weight-2-only flats vanish.

    Scaling each row by s**weight keeps connections flat (sampled over Q,
    exhaustive over F3 at genus 1), and every flat connection with zero
    weight-1 part has all rows closed."""
    f = field or QQ
    rep = ScenarioReport("weight-equivariance")
    rng = random.Random(seed)
    sl2 = build_sl(f, 2)
    ok_scale = 0
    total = 0
    for g in (1, 2):
        A = build_surface_model(f, g)
        for _ in range(25):
            conn = sample_flat(rng, A, sl2)
            for _ in range(10):
                s = rand_nonzero(rng, f, 6)
                total += 1
                if is_flat(weight_scale(conn, s)):
                    ok_scale += 1
    rep.check("50 sampled flats x 10 scalars stay flat under weight scaling",
              ok_scale == total, f"{ok_scale}/{total}")

    f3 = GF(3)
    A3 = build_surface_model(f3, 1)
    sl23 = build_sl(f3, 2)
    flats = brute_force_flat(A3, sl23)
    all_scaled = all(is_flat(weight_scale(c, s))
                     for c in flats for s in (1, 2))
    rep.check("every F3 flat stays flat under both nonzero scalings",
              all_scaled, f"{len(flats)} flats")
    d1 = A3.d_matrix(1)
    n1 = A3.dim(1)
    closed = [not any(k in row for row in d1.rows) for k in range(n1)]
    w1_rows = [k for k in range(n1) if A3.weight(1, k) == 1]
    implication = True
    zero_w1 = 0
    for c in flats:
        if any(not f3.is_zero(v) for k in w1_rows for v in c.coeffs.row(k)):
            continue
        zero_w1 += 1
        for k in range(n1):
            nonzero_row = any(not f3.is_zero(v) for v in c.coeffs.row(k))
            if nonzero_row and not closed[k]:
                implication = False
    rep.check("F3: every flat with zero weight-1 part has closed rows",
              implication, f"{zero_w1} such flats")

    # extra-row-only candidates over Q: flat exactly when the row vanishes
    AQ = build_surface_model(f, 1)
    t_index = AQ.dim(1) - 1
    agree = True
    for i in range(100):
        z = ([f.zero] * sl2.dim if i == 0
             else [rand_scalar(rng, f, 5) for _ in range(sl2.dim)])
        rows = [[f.zero] * sl2.dim for _ in range(AQ.dim(1))]
        rows[t_index] = list(z)
        conn = FlatConnection.from_rows(AQ, sl2, rows)
        if is_flat(conn) != all(f.is_zero(v) for v in z):
            agree = False
    rep.check("Q: a connection supported on the weight-2 row is flat only "
              "at zero", agree)
    return rep


def run_transversality_product(seed=0, field=None):
    """Factor coefficient spaces in a product meet only at zero.

    The two factor inclusions of a product of curve models have degree-1
    coefficient spaces that intersect trivially, by exact rank computation,
    so only the zero connection is pulled back from both sides."""
    f = field or QQ
    rep = ScenarioReport("transversality-product")
    left = build_compact_curve(f, 2)
    right = build_compact_curve(f, 1)
    prod, incl_l, incl_r = tensor_product_with_inclusions(left, right)
    ml, mr = incl_l.map(1), incl_r.map(1)
    rl, rr = rank(ml), rank(mr)
    rep.check("left inclusion is injective in degree 1",
              rl == left.dim(1), f"rank {rl}")
    rep.check("right inclusion is injective in degree 1",
              rr == right.dim(1), f"rank {rr}")
    joint = rank(ml.hstack(mr))
    rep.check("coefficient spaces intersect in {0}", joint == rl + rr,
              f"rank(joint) = {joint} = {rl} + {rr}")
    rep.check("so the only connection pulled back from both sides is 0",
              joint == rl + rr)
    rep.data.update({"left_rank": rl, "right_rank": rr, "joint_rank": joint})
    return rep


def run_torus_pi_r11(seed=0, field=None):
    """Torus flats are rank-one; determinant cut equals first resonance.

    Over F3 on the two-torus model, every flat connection is rank-one and
    the determinant cut agrees pointwise with first-resonance membership
    for both sl2 and sol2 defining coefficients."""
    f = field or GF(3)
    p = getattr(f, "p", None)
    if p is None:
        raise ScenarioError("this scenario needs a prime field")
    rep = ScenarioReport("torus-pi-equals-r11")
    T = build_torus_model(f, 2)
    golden = load_golden("census_torus_n2_f3.json") if p == 3 else None
    for lie, key in ((build_sl(f, 2), "sl2"), (build_sol2(f), "sol2")):
        theta = rep_defining(lie)
        flats = brute_force_flat(T, lie)
        if golden:
            rep.check(f"{key}: flat count matches the frozen census",
                      len(flats) == golden[key]["count"],
                      f"{len(flats)} vs {golden[key]['count']}")
            idxs = [lex_index(c, p) for c in flats]
            rep.check(f"{key}: flat set matches the frozen census",
                      idxs == golden[key]["solution_indices"])
        rank_one = [f1_membership(c) for c in flats]
        rep.check(f"{key}: every flat connection is rank-one",
                  all(r1.member for r1 in rank_one))
        agree = all(
            det_cut(r1, theta).member == resonance_membership(c, theta, 1, 1)
            for c, r1 in zip(flats, rank_one))
        rep.check(f"{key}: determinant cut = first resonance, pointwise",
                  agree, f"{len(flats)} points")
        rep.data[f"{key}_count"] = len(flats)
    return rep


CATALOG = [
    ("sl3-witness", run_sl3_witness),
    ("g1-bruteforce", run_g1_bruteforce),
    ("depth-gap-product", run_depth_gap_product),
    ("pencil-resonance", run_pencil_resonance),
    ("tangent-match", run_tangent_match),
    ("weight-equivariance", run_weight_equivariance),
    ("transversality-product", run_transversality_product),
    ("torus-pi-equals-r11", run_torus_pi_r11),
]

RUNNERS = dict(CATALOG)


def describe_scenarios():
    return [(name, (fn.__doc__ or "").strip().split("\n")[0])
            for name, fn in CATALOG]


def run_scenario(name, seed=0, field=None):
    if name not in RUNNERS:
        raise ScenarioError(
            f"unknown scenario {clip(name)!r}; known: {', '.join(RUNNERS)}")
    return RUNNERS[name](seed=seed, field=field)


def run_all(seed=0):
    return [fn(seed=seed) for _, fn in CATALOG]
