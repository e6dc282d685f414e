"""Builders for the stock commutative dg models.

All builders return a validated ``Cdga`` (the tests re-run ``validate`` on
each).  Conventions fixed here, used by everything downstream:

* compact genus-g surface cohomology: degree-1 basis a1, b1, ..., ag, bg,
  one degree-2 class ``om`` with a_i b_i = om (so b_i a_i = -om), all other
  degree-1 products zero, d = 0, weights = degree;
* punctured-surface / wedge-of-circles cohomology (``build_open_curve``):
  degrees 0..1 plus an explicitly empty degree 2, d = 0;
* the one-relator surface kernel model (``build_surface_model``): the
  compact-surface algebra extended by a degree-1 generator t of weight 2
  with dt = om; degree-2 basis om, a1 t, b1 t, ...; degree-3 basis om t;
* torus model: the whole exterior algebra on n degree-1 generators, d = 0,
  basis in each degree the sorted index subsets in lex order;
* arrangement Orlik-Solomon algebra from a list of normal vectors in 3
  coordinates: circuit relations, no-broken-circuit basis under the input
  order, d = 0, weights = degree.

Each builder records its family and parameters in ``Cdga.family``, e.g.
``("surface", 2)``; the samplers read that tag, never the model name.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .cdga import Cdga, CdgaError, CdgaMorphism
from .linalg import Matrix, rank
from .scalars import QQ


def build_compact_curve(field, g):
    """Cohomology of a closed orientable genus-g surface, g >= 1."""
    if g < 1:
        raise CdgaError("compact curve model needs genus >= 1")
    one = field.one
    deg1 = []
    for i in range(1, g + 1):
        deg1 += [f"a{i}", f"b{i}"]
    basis = [["1"], deg1, ["om"]]
    mult = {}
    for i in range(g):
        ai, bi = 2 * i, 2 * i + 1
        mult[(1, ai, 1, bi)] = {0: one}
        mult[(1, bi, 1, ai)] = {0: field.neg(one)}
    weights = [[0], [1] * (2 * g), [2]]
    model = Cdga(field, f"compact_curve_g{g}", basis, {}, mult,
                 weights=weights)
    model.family = ("compact_curve", g)
    return model


def build_open_curve(field, n):
    """Cohomology of a wedge of n circles (n >= 2): degrees 0..1, empty
    degree 2 so that every product of degree-1 classes vanishes."""
    if n < 2:
        raise CdgaError("open curve model needs n >= 2")
    basis = [["1"], [f"a{i}" for i in range(1, n + 1)], []]
    weights = [[0], [1] * n, []]
    model = Cdga(field, f"open_curve_n{n}", basis, {}, {}, weights=weights)
    model.family = ("open_curve", n)
    return model


def build_surface_model(field, g):
    """Compact genus-g surface algebra extended by t with dt = om.

    Degree-1 basis a1, b1, ..., ag, bg, t; degree-2 basis om, a1 t, b1 t,
    ...; degree-3 basis om t.  Weights: 1 on a_i, b_i; 2 on t and om; 3 on
    a_i t, b_i t; 4 on om t.
    """
    if g < 1:
        raise CdgaError("surface model needs genus >= 1")
    f = field
    one, neg = f.one, f.neg(f.one)
    ab = []
    for i in range(1, g + 1):
        ab += [f"a{i}", f"b{i}"]
    deg1 = ab + ["t"]
    deg2 = ["om"] + [lab + "t" for lab in ab]
    basis = [["1"], deg1, deg2, ["omt"]]
    t = 2 * g  # index of t in degree 1

    mult = {}

    def add(i, k, j, l, m, c):
        mult.setdefault((i, k, j, l), {})[m] = c

    for i in range(g):
        ai, bi = 2 * i, 2 * i + 1
        # a_i b_i = om, b_i a_i = -om
        add(1, ai, 1, bi, 0, one)
        add(1, bi, 1, ai, 0, neg)
        # x t = xt, t x = -xt for x in {a_i, b_i}
        add(1, ai, 1, t, 1 + ai, one)
        add(1, t, 1, ai, 1 + ai, neg)
        add(1, bi, 1, t, 1 + bi, one)
        add(1, t, 1, bi, 1 + bi, neg)
        # degree 1 x degree 2 hitting om t:
        #   a_i (b_i t) = om t         (b_i t) a_i = om t
        #   b_i (a_i t) = -om t        (a_i t) b_i = -om t
        add(1, ai, 2, 1 + bi, 0, one)
        add(2, 1 + bi, 1, ai, 0, one)
        add(1, bi, 2, 1 + ai, 0, neg)
        add(2, 1 + ai, 1, bi, 0, neg)
    # t om = om t = om t
    add(1, t, 2, 0, 0, one)
    add(2, 0, 1, t, 0, one)

    diff1 = Matrix.zero(f, len(deg2), len(deg1)).to_lists()
    diff1[0][t] = one  # dt = om
    diff = {1: Matrix(f, diff1)}
    # degree-2 differentials all vanish: d(om) = 0 and
    # d(a_i t) = (da_i) t - a_i (dt) = -a_i om = 0 since the surface algebra
    # has nothing in degree 3.
    weights = [[0], [1] * (2 * g) + [2], [2] + [3] * (2 * g), [4]]
    model = Cdga(field, f"surface_g{g}", basis, diff, mult, weights=weights)
    model.family = ("surface", g)
    return model


def curve_inclusion(field, g):
    """(H, A, phi): compact-curve model, surface model, and the inclusion
    a_i -> a_i, b_i -> b_i, om -> om.  Injective and weight-preserving."""
    h = build_compact_curve(field, g)
    a = build_surface_model(field, g)
    f = field
    m1 = Matrix.zero(f, a.dim(1), h.dim(1)).to_lists()
    for k in range(2 * g):
        m1[k][k] = f.one
    m2 = Matrix.zero(f, a.dim(2), h.dim(2)).to_lists()
    m2[0][0] = f.one
    phi = CdgaMorphism(h, a, {0: Matrix(f, [[1]]),
                              1: Matrix(f, m1),
                              2: Matrix(f, m2)},
                       name=f"curve_inclusion_g{g}")
    return h, a, phi


def _shuffle_sign(s, t):
    """Sign of the permutation sorting s + t, for disjoint sorted tuples: the
    torus and Orlik-Solomon products both multiply e_s by e_t this way."""
    inv = sum(1 for x in s for y in t if x > y)
    return -1 if inv % 2 else 1


def build_torus_model(field, n):
    """Exterior algebra on n degree-1 generators, d = 0, degrees 0..n.

    Degree-k basis: k-element index subsets, lex order, labelled by
    concatenating generator labels.  The table lists each product of
    disjoint subsets, found by running t over the subsets of the complement
    of s.
    """
    if n < 1:
        raise CdgaError("torus model needs n >= 1")
    gens = [f"e{i}" for i in range(1, n + 1)]
    subsets = [list(combinations(range(n), k)) for k in range(n + 1)]
    index = {s: i for level in subsets for i, s in enumerate(level)}
    basis = [["1"]] + [["".join(gens[i] for i in s) for s in level]
                       for level in subsets[1:]]

    mult = {}
    for s in (s for level in subsets[1:] for s in level):
        rest = [x for x in range(n) if x not in s]
        for j in range(1, len(rest) + 1):
            for t in combinations(rest, j):
                mult[(len(s), index[s], j, index[t])] = {
                    index[tuple(sorted(s + t))]:
                        field.coerce(_shuffle_sign(s, t))}
    weights = [[k] * len(level) for k, level in enumerate(subsets)]
    model = Cdga(field, f"torus_n{n}", basis, {}, mult, weights=weights)
    model.family = ("torus", n)
    return model


# ---------------------------------------------------------------------------
# Orlik-Solomon algebra of a central arrangement given by normal vectors


def _circuits(m, independent):
    """Minimal dependent subsets of range(m), as sorted tuples, by size and
    then lex order: the dependent subsets whose facets are all independent
    (``independent`` caches, so each facet is tested once)."""
    return [s for size in range(2, min(m, 4) + 1)
            for s in combinations(range(m), size)
            if not independent(s)
            and all(independent(s[:i] + s[i + 1:]) for i in range(size))]


def build_os_arrangement(field, normals):
    """Orlik-Solomon algebra of a central arrangement in 3 coordinates.

    ``normals``: list of >= 2 integer/rational 3-vectors, pairwise
    non-proportional.  One degree-1 generator per normal, circuit relations,
    no-broken-circuit basis under the input order, d = 0, weights = degree.
    """
    normals = [tuple(v) for v in normals]
    m = len(normals)
    if m < 2:
        raise CdgaError("arrangement needs at least 2 hyperplanes")
    for v in normals:
        if len(v) != 3:
            raise CdgaError("normals must have 3 coordinates")
        if all(x == 0 for x in v):
            raise CdgaError("zero normal vector")

    @lru_cache(maxsize=None)
    def independent(subset):
        """Are the normals at the sorted tuple ``subset`` independent?"""
        rows = [list(normals[i]) for i in subset]
        return rank(Matrix(QQ, rows, ncols=3)) == len(subset)

    for i in range(m):
        for j in range(i + 1, m):
            if not independent((i, j)):
                raise CdgaError(
                    f"normals {i + 1} and {j + 1} are proportional")

    circuits = _circuits(m, independent)
    broken = [(c[0], tuple(c[1:])) for c in circuits]  # (min elt, circuit rest)
    top = rank(Matrix(QQ, [list(v) for v in normals], ncols=3))

    def has_broken(s):
        ss = set(s)
        return any(set(b) <= ss for _, b in broken)

    nbc = {k: [s for s in combinations(range(m), k)
               if independent(s) and not has_broken(s)]
           for k in range(top + 1)}
    index = {k: {s: i for i, s in enumerate(nbc[k])} for k in nbc}

    @lru_cache(maxsize=None)
    def express(u):
        """Coordinates of e_u (u sorted independent tuple) in the nbc basis."""
        if not has_broken(u):
            return ((u, 1),)
        uset = set(u)
        c0, b = next((c0, b) for c0, b in broken if set(b) <= uset)
        rest = tuple(x for x in u if x not in set(b))
        circ = tuple(sorted((c0,) + b))
        # e_b = sum_{j>=1} (-1)^{j+1} e_{circ minus its j-th element}
        out = {}
        sigma = _shuffle_sign(rest, b)  # e_u = sigma * e_rest ^ e_b
        for j in range(1, len(circ)):
            repl = circ[:j] + circ[j + 1:]
            if set(rest) & set(repl):
                continue
            merged = tuple(sorted(rest + repl))
            if not independent(merged):
                continue
            coef = sigma * (-1) ** (j + 1) * _shuffle_sign(rest, repl)
            for base, c in express(merged):
                out[base] = out.get(base, 0) + coef * c
        return tuple((k, v) for k, v in sorted(out.items()) if v != 0)

    mult = {}
    for i in range(1, top):
        for j in range(1, top + 1 - i):
            for k, s in enumerate(nbc[i]):
                for l, t in enumerate(nbc[j]):
                    if set(s) & set(t):
                        continue
                    u = tuple(sorted(s + t))
                    if not independent(u):
                        continue
                    sign = _shuffle_sign(s, t)
                    vec = {}
                    for base, c in express(u):
                        cc = field.coerce(sign * c)
                        if not field.is_zero(cc):
                            vec[index[i + j][base]] = cc
                    if vec:
                        mult[(i, k, j, l)] = vec

    def lab(s):
        return "".join(f"e{i + 1}" for i in s)

    basis = [["1"]] + [[lab(s) for s in nbc[k]] for k in range(1, top + 1)]
    weights = [[k] * len(nbc[k]) for k in range(top + 1)]
    model = Cdga(field, f"os_m{m}", basis, {}, mult, weights=weights)
    model.family = ("os_arrangement", tuple(normals))
    return model


def pencil_normals(m):
    """m >= 3 concurrent lines through the origin (rank-2 arrangement)."""
    if m < 3:
        raise CdgaError("a pencil needs at least 3 lines")
    # lines x = 0, y = 0, x + k y = 0 all pass through the z-axis
    return [(1, 0, 0), (0, 1, 0)] + [(1, k, 0) for k in range(1, m - 1)]
