"""JSON codecs and name resolvers for every object the CLI touches.

Payloads never embed the coefficient field; decoders take it explicitly
(the CLI passes its --field flag) and scalars travel as strings — "3",
"-7/2" over the rationals, "4" or "4 mod 5" over a prime field.

Wherever a schema says "name-or-inline", a string like ``surface(2)`` or
``defining(sl(2))`` picks a builder, and a dict is decoded literally.
"""

import functools
from fractions import Fraction

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
    if isinstance(text, int):
        return field.coerce(text)
    raise SerializeError(f"scalar must be a string, got {text!r}")


def encode_scalar(field, value):
    return field.format(value)


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
        raise SerializeError(f"expected an integer, got {value!r}")
    return value


def _expect(obj, *keys):
    if not isinstance(obj, dict):
        raise SerializeError(f"expected an object, got {type(obj).__name__}")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise SerializeError(f"missing keys: {', '.join(missing)}")


def _parse_call(text):
    """Split "head(arg1,arg2)" into (head, [args]); args may nest calls."""
    text = text.strip()
    if "(" not in text:
        return text, []
    head, _, rest = text.partition("(")
    if not rest.endswith(")"):
        raise SerializeError(f"unbalanced parentheses in {text!r}")
    inner, args, depth, cur = rest[:-1], [], 0, []
    for ch in inner:
        if ch == "," and depth == 0:
            args.append("".join(cur).strip())
            cur = []
            continue
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise SerializeError(f"unbalanced parentheses in {text!r}")
        cur.append(ch)
    if depth != 0:
        raise SerializeError(f"unbalanced parentheses in {text!r}")
    tail = "".join(cur).strip()
    if tail:
        args.append(tail)
    return head.strip(), args


def _int_arg(args, pos, what):
    try:
        return int(args[pos])
    except (IndexError, ValueError) as exc:
        raise SerializeError(f"{what} needs an integer argument") from exc


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

# Largest number of basis elements a model named in the grammar may have.
MAX_BASIS = 256


def cdga_from_json(field, obj):
    _expect(obj, "name", "top_degree", "basis")
    unknown = set(obj) - CDGA_KEYS
    if unknown:
        raise SerializeError(
            f"unknown model keys: {', '.join(sorted(unknown))}")
    basis = obj["basis"]
    if not isinstance(basis, list) or len(basis) != obj["top_degree"] + 1:
        raise SerializeError("basis must list labels for degrees 0..top")
    dims = [len(b) for b in basis]
    diff = {}
    for entry in obj.get("diff", []):
        _expect(entry, "deg", "matrix")
        deg = entry["deg"]
        if not 0 <= deg < len(dims) - 1:
            raise SerializeError(f"differential degree {deg} out of range")
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
                    f"product ({di},{ki})*({dj},{kj}) lands in degree "
                    f"{term['deg']}, expected {di + dj}")
            vec[_int(term["idx"])] = decode_scalar(field, term["coef"])
        mult[(di, ki, dj, kj)] = vec
    weights = obj.get("weights")
    if weights is not None:
        weights = [[_int(w) for w in ws] for ws in weights]
    return Cdga(field, obj["name"], basis, diff, mult, weights=weights)


def _bounded_tensor(field, spec, head, args):
    """tensor_product_with_inclusions of two named models, refused before it
    is built when the product would pass MAX_BASIS basis elements."""
    if len(args) != 2:
        raise SerializeError(f"{head}(...) takes two models")
    left = resolve_model(field, args[0])
    right = resolve_model(field, args[1])
    size = sum(left.dims()) * sum(right.dims())
    if size > MAX_BASIS:
        raise SerializeError(
            f"{spec} has {size} basis elements; the limit is {MAX_BASIS}")
    return tensor_product_with_inclusions(left, right)


@_decoder
def resolve_model(field, spec):
    """Model from a builder name like "surface(2)" or an inline dict."""
    if isinstance(spec, dict):
        if "normals" in spec:
            return build_os_arrangement(
                field, [tuple(v) for v in spec["normals"]])
        return cdga_from_json(field, spec)
    if not isinstance(spec, str):
        raise SerializeError(f"bad model spec {spec!r}")
    head, args = _parse_call(spec)
    if head == "compact_curve":
        return build_compact_curve(field, _int_arg(args, 0, head))
    if head == "open_curve":
        return build_open_curve(field, _int_arg(args, 0, head))
    if head == "surface":
        return build_surface_model(field, _int_arg(args, 0, head))
    if head == "torus":
        if len(args) != 1:
            raise SerializeError("torus(...) takes one integer")
        n = _int_arg(args, 0, head)
        # the first test keeps 2 ** n from being computed for a huge n
        if n > MAX_BASIS or 2 ** n > MAX_BASIS:
            raise SerializeError(
                f"torus({n}) has 2^{n} basis elements; the limit is "
                f"{MAX_BASIS}")
        return build_torus_model(field, n)
    if head == "pencil":
        return build_os_arrangement(field,
                                    pencil_normals(_int_arg(args, 0, head)))
    if head == "tensor":
        prod, _, _ = _bounded_tensor(field, spec, head, args)
        return prod
    raise SerializeError(f"unknown model {spec!r}")


@_decoder
def resolve_morphism(field, spec):
    """Named CDGA maps: curve_inclusion(g), tensor_left(A,B), tensor_right(A,B).

    tensor_left includes the first factor into the tensor product, tensor_right
    the second.
    """
    if not isinstance(spec, str):
        raise SerializeError("morphisms are referenced by name only")
    head, args = _parse_call(spec)
    if head == "curve_inclusion":
        _, _, phi = curve_inclusion(field, _int_arg(args, 0, head))
        return phi
    if head in ("tensor_left", "tensor_right"):
        _, incl_left, incl_right = _bounded_tensor(field, spec, head, args)
        return incl_left if head == "tensor_left" else incl_right
    raise SerializeError(f"unknown morphism {spec!r}")


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
    if len(labels) != obj["dim"]:
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
def resolve_lie(field, spec):
    if isinstance(spec, dict):
        return lie_from_json(field, spec)
    if not isinstance(spec, str):
        raise SerializeError(f"bad Lie algebra spec {spec!r}")
    head, args = _parse_call(spec)
    if head == "sl":
        return build_sl(field, _int_arg(args, 0, head))
    if head == "sol2":
        return build_sol2(field)
    if head == "abelian":
        return build_abelian(field, _int_arg(args, 0, head))
    raise SerializeError(f"unknown Lie algebra {spec!r}")


@_decoder
def resolve_rep(field, spec):
    """Representation from "defining(sl(2))", "adjoint(sol2)",
    "trivial(L,m)", "sum(R1,R2)", or an inline dict."""
    if isinstance(spec, dict):
        _expect(spec, "lie", "dim", "matrices")
        lie = resolve_lie(field, spec["lie"])
        d = spec["dim"]
        if len(spec["matrices"]) != lie.dim:
            raise SerializeError(
                f"need one matrix per basis element ({lie.dim}), got "
                f"{len(spec['matrices'])}")
        mats = [decode_matrix(field, m, shape=(d, d))
                for m in spec["matrices"]]
        return LieRep(lie, mats, name=spec.get("name", "rep"))
    if not isinstance(spec, str):
        raise SerializeError(f"bad representation spec {spec!r}")
    head, args = _parse_call(spec)
    if head == "defining":
        if len(args) != 1:
            raise SerializeError("defining(...) takes one Lie algebra")
        return rep_defining(resolve_lie(field, args[0]))
    if head == "adjoint":
        if len(args) != 1:
            raise SerializeError("adjoint(...) takes one Lie algebra")
        return rep_adjoint(resolve_lie(field, args[0]))
    if head == "trivial":
        if len(args) != 2:
            raise SerializeError("trivial(...) takes a Lie algebra and a size")
        return rep_trivial(resolve_lie(field, args[0]),
                           _int_arg(args, 1, head))
    if head == "sum":
        if len(args) != 2:
            raise SerializeError("sum(...) takes two representations")
        return rep_direct_sum(resolve_rep(field, args[0]),
                              resolve_rep(field, args[1]))
    raise SerializeError(f"unknown representation {spec!r}")


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
    """Quadratic presentations only; nested-bracket relations (as produced
    by surface-group elimination) have no JSON form and raise here."""
    f = pres.field
    n = len(pres.generators)
    rels = []
    for r in pres.relations:
        if not r.is_quadratic():
            raise SerializeError(
                "presentation has nested-bracket relations; only linear + "
                "quadratic terms serialize")
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
        quad = {(t["k"], t["l"]): decode_scalar(field, t["coef"])
                for t in entry["quad"]}
        rels.append(Relation(lin=lin, quad=quad))
    return HolonomyPresentation(field, gens, rels,
                                name=obj.get("name", "holonomy"))


# ----------------------------------------------------------------- groups

def _word_to_text(group, word):
    toks = []
    for letter in word:
        lab = group.generators[abs(letter) - 1]
        toks.append(lab if letter > 0 else f"{lab}^-1")
    return " ".join(toks)


def group_to_json(group):
    obj = {"generators": list(group.generators),
           "relators": [_word_to_text(group, r) for r in group.relators]}
    if group.aspherical:
        obj["aspherical"] = True
    return obj


@_decoder
def group_from_json(obj):
    _expect(obj, "generators", "relators")
    return FpGroup(obj["generators"], obj["relators"],
                   aspherical=obj.get("aspherical", False),
                   name=obj.get("name", "group"))


def resolve_group(spec):
    """Group from "free(n)" / "surface(g)" or an inline dict."""
    if isinstance(spec, dict):
        return group_from_json(spec)
    if not isinstance(spec, str):
        raise SerializeError(f"bad group spec {spec!r}")
    head, args = _parse_call(spec)
    if head == "free":
        return free_group(_int_arg(args, 0, head))
    if head == "surface":
        return surface_group(_int_arg(args, 0, head))
    raise SerializeError(f"unknown group {spec!r}")


def group_rep_to_json(rep):
    return {"group": group_to_json(rep.group), "target": rep.target,
            "matrices": [encode_matrix(m) for m in rep.matrices]}


@_decoder
def group_rep_from_json(field, obj):
    _expect(obj, "group", "target", "matrices")
    group = resolve_group(obj["group"])
    mats = [decode_matrix(field, m) for m in obj["matrices"]]
    return GroupRep(group, obj["target"], mats,
                    name=obj.get("name", ""))
