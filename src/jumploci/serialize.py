"""JSON codecs and the name grammar for every object the CLI touches.

Payloads never embed the coefficient field; decoders take it explicitly
(the CLI passes its --field flag) and scalars travel as strings — "3",
"-7/2" over the rationals, "4" or "4 mod 5" over a prime field.

Wherever a schema says "name-or-inline", a string like ``surface(2)`` or
``defining(sl(2))`` names a builder, and a dict is an inline document.  Both
go through one table, ``GRAMMAR``, and one resolver, which checks the exact
arity and then the size of the result against its kind's limit before
anything is built.
"""

import functools
from reprlib import repr as _brief  # a bounded repr for error messages

from .cdga import Cdga, tensor_product_with_inclusions
from .flatconn import FlatConnection
from .grouprep import FpGroup, GroupRep, free_group, surface_group
from .holonomy import HolonomyPresentation, Relation
from .liealg import (LieAlgebra, LieRep, build_abelian, build_sl, build_sol2,
                     rep_adjoint, rep_defining, rep_direct_sum, rep_trivial)
from .linalg import Matrix
from .models import (build_compact_curve, build_open_curve,
                     build_os_arrangement, build_surface_model,
                     build_torus_model, curve_inclusion, pencil_normals)
from .scalars import QQ, clip


class SerializeError(ValueError):
    pass


def _decoder(fn):
    """Report a document of the wrong shape, such as a missing key, a value
    of the wrong type or a short list, as a SerializeError."""
    @functools.wraps(fn)
    def decode(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (KeyError, TypeError, IndexError, AttributeError) as exc:
            raise SerializeError(f"malformed document: {exc!r}") from exc
    return decode


# ------------------------------------------------------------- primitives

def decode_scalar(field, text):
    if isinstance(text, str):
        return field.parse(text)
    if type(text) is int:  # a JSON boolean is no number
        return field.coerce(text)
    raise SerializeError(f"scalar must be a string, got {_brief(text)}")


@_decoder
def decode_matrix(field, rows, shape=None):
    if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
        raise SerializeError("matrix must be a list of rows")
    parsed = [[decode_scalar(field, v) for v in row] for row in rows]
    ncols = shape[1] if shape else (len(parsed[0]) if parsed else 0)
    m = Matrix(field, parsed, ncols=ncols)
    if shape and m.shape != tuple(shape):
        raise SerializeError(f"matrix has shape {m.shape}, expected {shape}")
    return m


def encode_matrix(m):
    f = m.field
    return [[f.format(v) for v in row] for row in m.to_lists()]


def _int(value):
    if type(value) is not int:
        raise SerializeError(f"expected an integer, got {_brief(value)}")
    return value


def _expect(obj, *keys):
    if not isinstance(obj, dict):
        raise SerializeError(f"expected an object, got {type(obj).__name__}")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise SerializeError(f"missing keys: {', '.join(missing)}")


# ------------------------------------------------------------------ CDGA

def cdga_to_json(a):
    f = a.field
    mult = []
    for (i, k, j, l), vec in sorted(a._mult.items()):
        out = [{"deg": i + j, "idx": m, "coef": f.format(c)}
               for m, c in sorted(vec.items())]
        mult.append({"i": [i, k], "j": [j, l], "out": out})
    diff = [{"deg": deg, "matrix": encode_matrix(m)}
            for deg, m in sorted(a._diff.items())]
    obj = {"name": a.name, "top_degree": a.top_degree,
           "basis": [list(b) for b in a.basis], "mult": mult, "diff": diff}
    if a.weights is not None:
        obj["weights"] = [list(w) for w in a.weights]
    return obj


CDGA_KEYS = {"name", "top_degree", "basis", "mult", "diff", "weights"}


def cdga_from_json(field, obj):
    _expect(obj, "name", "top_degree", "basis")
    unknown = set(obj) - CDGA_KEYS
    if unknown:
        raise SerializeError(
            f"unknown model keys: {', '.join(sorted(unknown))[:80]}")
    basis, top = obj["basis"], _int(obj["top_degree"])
    if not isinstance(basis, list) or len(basis) != top + 1:
        raise SerializeError("basis must list labels for degrees 0..top")
    dims = [len(b) for b in basis]
    diff = {}
    for entry in obj.get("diff", []):
        _expect(entry, "deg", "matrix")
        deg = _int(entry["deg"])
        if not 0 <= deg < len(dims) - 1:
            raise SerializeError(
                f"differential degree {clip(deg)} out of range")
        diff[deg] = decode_matrix(field, entry["matrix"],
                                  shape=(dims[deg + 1], dims[deg]))
    mult = {}
    for entry in obj.get("mult", []):
        _expect(entry, "i", "j", "out")
        if len(entry["i"]) != 2 or len(entry["j"]) != 2:
            raise SerializeError("product keys are [degree, index] pairs")
        di, ki, dj, kj = map(_int, entry["i"] + entry["j"])
        vec = {}
        for term in entry["out"]:
            _expect(term, "deg", "idx", "coef")
            if term["deg"] != di + dj:
                raise SerializeError(
                    f"product ({clip(di)},{clip(ki)})*({clip(dj)},{clip(kj)})"
                    f" lands in degree {_brief(term['deg'])}, expected "
                    f"{clip(di + dj)}")
            vec[_int(term["idx"])] = decode_scalar(field, term["coef"])
        mult[(di, ki, dj, kj)] = vec
    weights = obj.get("weights")
    if weights is not None:
        weights = [[_int(w) for w in ws] for ws in weights]
    return Cdga(field, obj["name"], basis, diff, mult, weights=weights)


# ------------------------------------------------------------ Lie algebra

def lie_to_json(g):
    f = g.field
    brackets = []
    for (i, j), vec in sorted(g._brackets.items()):
        out = [{"idx": m, "coef": f.format(c)} for m, c in sorted(vec.items())]
        brackets.append({"i": i, "j": j, "out": out})
    return {"dim": g.dim, "basis": list(g.labels), "brackets": brackets}


@_decoder
def lie_from_json(field, obj):
    _expect(obj, "dim", "basis", "brackets")
    labels = obj["basis"]
    if len(labels) != _int(obj["dim"]):
        raise SerializeError("dim does not match the basis length")
    brackets = {}
    for entry in obj["brackets"]:
        _expect(entry, "i", "j", "out")
        vec = {_int(t["idx"]): decode_scalar(field, t["coef"])
               for t in entry["out"]}
        brackets[(_int(entry["i"]), _int(entry["j"]))] = vec
    return LieAlgebra(field, labels, brackets,
                      name=obj.get("name", "lie"))


@_decoder
def rep_from_json(field, obj):
    _expect(obj, "lie", "dim", "matrices")
    lie = resolve_lie(field, obj["lie"])
    d = _int(obj["dim"])
    if len(obj["matrices"]) != lie.dim:
        raise SerializeError(
            f"need one matrix per basis element ({lie.dim}), got "
            f"{len(obj['matrices'])}")
    mats = [decode_matrix(field, m, shape=(d, d)) for m in obj["matrices"]]
    return LieRep(lie, mats, name=obj.get("name", "rep"))


# ------------------------------------------------------------ connections

def connection_to_json(conn):
    return {"cdga": cdga_to_json(conn.cdga), "lie": lie_to_json(conn.lie),
            "coeffs": encode_matrix(conn.coeffs)}


@_decoder
def connection_from_json(field, obj):
    _expect(obj, "cdga", "lie", "coeffs")
    cdga = resolve_model(field, obj["cdga"])
    lie = resolve_lie(field, obj["lie"])
    coeffs = decode_matrix(field, obj["coeffs"], shape=(cdga.dim(1), lie.dim))
    return FlatConnection(cdga, lie, coeffs)


# ---------------------------------------------------------- presentations

def presentation_to_json(pres):
    f = pres.field
    n = len(pres.generators)
    rels = []
    for r in pres.relations:
        lin = [f.format(r.lin.get(k, f.zero)) for k in range(n)]
        quad = [{"k": k, "l": l, "coef": f.format(c)}
                for (k, l), c in sorted(r.quad.items())]
        rels.append({"lin": lin, "quad": quad})
    return {"generators": list(pres.generators), "relations": rels}


@_decoder
def presentation_from_json(field, obj):
    _expect(obj, "generators", "relations")
    gens = obj["generators"]
    rels = []
    for entry in obj["relations"]:
        _expect(entry, "lin", "quad")
        if len(entry["lin"]) != len(gens):
            raise SerializeError(
                "lin must list one coefficient per generator")
        lin = {k: decode_scalar(field, c) for k, c in enumerate(entry["lin"])}
        quad = {(_int(t["k"]), _int(t["l"])): decode_scalar(field, t["coef"])
                for t in entry["quad"]}
        rels.append(Relation(lin=lin, quad=quad))
    return HolonomyPresentation(field, gens, rels,
                                name=obj.get("name", "holonomy"))


# ----------------------------------------------------------------- groups

@_decoder
def group_from_json(obj):
    _expect(obj, "generators", "relators")
    return FpGroup(obj["generators"], obj["relators"],
                   name=obj.get("name", "group"))


@_decoder
def group_rep_from_json(field, obj):
    _expect(obj, "group", "target", "matrices")
    bound, unit = GROUP_MATRIX
    if any(len(m) > bound or any(len(row) > bound for row in m)
           for m in obj["matrices"]):
        raise SerializeError("inline group representation is too large: "
                             f"the limit is {bound} {unit}")
    group = resolve_group(obj["group"])
    mats = [decode_matrix(field, m) for m in obj["matrices"]]
    return GroupRep(group, obj["target"], mats,
                    name=obj.get("name", ""))


# ----------------------------------------------------------- name grammar

# The limits (bound, unit), checked before anything is built.
MAX_BASIS = 256
BASIS = (MAX_BASIS, "basis elements")  # of a model, or a morphism's target
INLINE_MODEL = (MAX_BASIS, "basis elements or degrees")
HYPERPLANES = (16, "hyperplanes")
LIE_DIM = (63, "dimensions")  # sl(n) for n <= 8
REP_DIM = (256, "dimensions")
GENERATORS = (256, "generators")
GROUP_MATRIX = (8, "rows and columns per matrix")  # SL(8): Ad is 63-dim
NESTING = 64  # calls nested in a name's arguments; bounds the recursion

INT, DOC = "integer", "document"  # argument kinds that are not GRAMMAR kinds
INLINE, NORMALS = object(), object()  # heads of inline documents, not names


def _tensor(part):
    """tensor_product_with_inclusions(A, B)[part]: the product for part 0,
    the inclusion of A for 1 and of B for 2."""
    return (("model", "model"), BASIS,
            lambda a, b: sum(a.dims()) * sum(b.dims()),
            lambda f, a, b: tensor_product_with_inclusions(a, b)[part])


# kind -> head -> (argument kinds, limit, size, builder).  The size is
# computed from the resolved arguments.  Builders are called through their
# module-level names, so a wrapper bound to one of those names sees the call.
GRAMMAR = {
    "model": {
        "compact_curve": ((INT,), BASIS, lambda g: 2 * g + 2,
                          lambda f, g: build_compact_curve(f, g)),
        "open_curve": ((INT,), BASIS, lambda n: n + 1,
                       lambda f, n: build_open_curve(f, n)),
        "surface": ((INT,), BASIS, lambda g: 4 * g + 4,
                    lambda f, g: build_surface_model(f, g)),
        # any n > 8 is refused, and the cap keeps 2^n cheap for a huge n
        "torus": ((INT,), BASIS, lambda n: 2 ** min(n, 9),
                  lambda f, n: build_torus_model(f, n)),
        "pencil": ((INT,), HYPERPLANES, lambda m: m,
                   lambda f, m: build_os_arrangement(f, pencil_normals(m))),
        "tensor": _tensor(0),
        NORMALS: ((DOC,), HYPERPLANES, lambda doc: len(doc["normals"]),
                  lambda f, doc: build_os_arrangement(f, [
                      [decode_scalar(QQ, x) for x in v]
                      for v in doc["normals"]])),
        # every degree counts, even an empty one
        INLINE: ((DOC,), INLINE_MODEL,
                 lambda doc: max(len(doc.get("basis", ())),
                                 sum(map(len, doc.get("basis", ())))),
                 lambda f, doc: cdga_from_json(f, doc)),
    },
    "morphism": {
        "curve_inclusion": ((INT,), BASIS, lambda g: 4 * g + 4,
                            lambda f, g: curve_inclusion(f, g)[2]),
        "tensor_left": _tensor(1),
        "tensor_right": _tensor(2),
    },
    "Lie algebra": {
        "sl": ((INT,), LIE_DIM, lambda n: n * n - 1,
               lambda f, n: build_sl(f, n)),
        "sol2": ((), LIE_DIM, lambda: 2, lambda f: build_sol2(f)),
        "abelian": ((INT,), LIE_DIM, lambda n: n,
                    lambda f, n: build_abelian(f, n)),
        INLINE: ((DOC,), LIE_DIM, lambda doc: len(doc.get("basis", ())),
                 lambda f, doc: lie_from_json(f, doc)),
    },
    "representation": {
        # a defining representation is no larger than its algebra
        "defining": (("Lie algebra",), REP_DIM, lambda g: g.dim,
                     lambda f, g: rep_defining(g)),
        "adjoint": (("Lie algebra",), REP_DIM, lambda g: g.dim,
                    lambda f, g: rep_adjoint(g)),
        "trivial": (("Lie algebra", INT), REP_DIM, lambda g, m: m,
                    lambda f, g, m: rep_trivial(g, m)),
        "sum": (("representation",) * 2, REP_DIM, lambda r, s: r.dim + s.dim,
                lambda f, r, s: rep_direct_sum(r, s)),
        INLINE: ((DOC,), REP_DIM, lambda doc: doc.get("dim", 0),
                 lambda f, doc: rep_from_json(f, doc)),
    },
    "group": {
        "free": ((INT,), GENERATORS, lambda n: n, lambda f, n: free_group(n)),
        "surface": ((INT,), GENERATORS, lambda g: 2 * g,
                    lambda f, g: surface_group(g)),
        INLINE: ((DOC,), GENERATORS,
                 lambda doc: len(doc.get("generators", ())),
                 lambda f, doc: group_from_json(doc)),
    },
}


def _parse_call(text):
    """Split "head(arg1,arg2)" into (head, [args]); args may nest calls."""
    head, paren, rest = text.strip().partition("(")
    if not paren:
        return head, []
    depth, cuts = 0, [-1]  # depth inside the arguments
    for i, ch in enumerate(rest):
        depth += (ch == "(") - (ch == ")")
        if depth < 0:
            break
        if depth > NESTING:
            raise SerializeError(f"{_brief(text)} is nested too deeply: "
                                 f"the limit is {NESTING} levels")
        if ch == "," and depth == 0:
            cuts.append(i)
    if depth >= 0 or i != len(rest) - 1:
        raise SerializeError(f"unbalanced parentheses in {_brief(text)}")
    args = [rest[a + 1:b].strip() for a, b in zip(cuts, cuts[1:] + [i])]
    return head.strip(), [] if args == [""] else args


def _argument(field, kind, text):
    if kind != INT:
        return text if kind == DOC else _resolve(field, kind, text)
    try:
        if text.isdecimal():
            return int(text)
    except ValueError:  # more digits than int() reads
        pass
    raise SerializeError(f"expected a natural number, got {_brief(text)}")


@_decoder
def _resolve(field, kind, spec):
    """The object of ``kind`` that ``spec`` names, or holds as an inline
    document: parse, check the arity, resolve the nested names, check the
    size against the limit, and only then build."""
    if isinstance(spec, dict):
        head, args = (NORMALS if "normals" in spec else INLINE), [spec]
    elif isinstance(spec, str):
        head, args = _parse_call(spec)
    else:
        raise SerializeError(f"bad {kind} spec of type {type(spec).__name__}:"
                             f" {_brief(spec)}")
    if head not in GRAMMAR[kind]:
        raise SerializeError(f"unknown {kind} {_brief(spec)}")
    arg_kinds, (bound, unit), size, build = GRAMMAR[kind][head]
    if len(args) != len(arg_kinds):
        raise SerializeError(
            f"{_brief(spec)}: expected {head}({', '.join(arg_kinds)})")
    values = [_argument(field, k, a) for k, a in zip(arg_kinds, args)]
    if size(*values) > bound:
        label = _brief(spec) if isinstance(spec, str) else f"inline {kind}"
        raise SerializeError(
            f"{label} is too large: the limit is {bound} {unit}")
    return build(field, *values)


def resolve_model(field, spec):
    """Model from a name like "surface(2)", or an inline document."""
    return _resolve(field, "model", spec)


def resolve_morphism(field, spec):
    """curve_inclusion(g), tensor_left(A,B) or tensor_right(A,B)."""
    return _resolve(field, "morphism", spec)


def resolve_lie(field, spec):
    return _resolve(field, "Lie algebra", spec)


def resolve_rep(field, spec):
    return _resolve(field, "representation", spec)


def resolve_group(spec):
    return _resolve(None, "group", spec)
