"""Command-line front end.

Every subcommand reads JSON (a file path or an inline ``{...}`` literal via
--input), runs one operation, and reports either human-readable lines or,
with --json, a machine-readable document.  Exit codes: 0 when every asserted
property holds, 1 when a property fails (the report names it), 2 for
malformed input or an unknown subcommand / scenario name, 3 for any other
exception: input is checked where it is decoded, so that is a bug.

Each call is a fresh process that pays the package import, so the package
imports no ``dataclasses``, ``typing`` or ``importlib.resources`` (each pulls
in a dozen modules or more), and numpy only when a census runs.
"""

import argparse
import json
import sys

from .aomoto import (AomotoComplex, AomotoError, depth_gap,
                     resonance_membership)
from .cdga import CdgaError
from .flatconn import (FlatConnError, NotFlatError, f1_membership,
                       flat_census, mc_residual, pi_membership, pullback,
                       tangent_dimension)
from .grouprep import (GroupError, rep_check, tangent_dimension_rep,
                       twisted_cohomology)
from .holonomy import HolonomyError, failing_relations, holonomy_presentation
from .liealg import LieError, rep_defining
from .linalg import LinalgError
from .scalars import (MODULUS_BOUND, QQ, ScalarError, field_from_tag,
                      field_tag)
from .scenarios import (ScenarioError, depth_gap_setup, describe_scenarios,
                        run_all, run_scenario)
from .serialize import (SerializeError, connection_from_json,
                        connection_to_json, decode_matrix, decode_scalar,
                        encode_scalar, group_rep_from_json,
                        presentation_from_json, presentation_to_json,
                        resolve_group, resolve_lie, resolve_model,
                        resolve_morphism, resolve_rep)


class CliInputError(ValueError):
    pass


MALFORMED = (CliInputError, SerializeError, ScenarioError, ScalarError,
             CdgaError, LieError, FlatConnError, HolonomyError, AomotoError,
             GroupError, LinalgError)


def load_input(args, *keys, required=True):
    """--input accepts a file path or an inline JSON literal.  With ``keys``
    the document must be a JSON object holding each of them."""
    raw = args.input
    if raw is None:
        if required:
            raise CliInputError("this subcommand needs --input")
        return None
    text = raw.strip()
    try:
        if text[:1] not in ("{", "[", '"'):
            with open(raw, "r", encoding="utf-8") as fh:
                text = fh.read()
        obj = json.loads(text)
    except (OSError, UnicodeDecodeError) as exc:
        raise CliInputError(f"cannot read {raw}: {exc}")
    except ValueError as exc:  # bad JSON, or an int past the digit limit
        raise CliInputError(f"input is not valid JSON: {exc}")
    except RecursionError:
        raise CliInputError("input JSON is nested too deeply to parse")
    if keys and (not isinstance(obj, dict) or any(k not in obj for k in keys)):
        raise CliInputError("expected a JSON object with keys "
                            + ", ".join(f'"{k}"' for k in keys))
    return obj


def _connection_and_twist(f, obj):
    """A connection plus an optional "theta" representation spec; defaults
    to the defining representation of the connection's own Lie algebra."""
    body = obj["connection"] if isinstance(obj, dict) and "connection" in obj \
        else obj
    conn = connection_from_json(f, body)
    spec = obj.get("theta") if isinstance(obj, dict) else None
    theta = resolve_rep(f, spec) if spec else rep_defining(conn.lie)
    return conn, theta


# ------------------------------------------------------------ subcommands

def cmd_validate(args, f):
    obj = load_input(args)
    if not isinstance(obj, dict):
        raise CliInputError("expected a JSON object")
    problems = []
    extra = {}
    if ("normals" in obj or "mult" in obj or "top_degree" in obj
            or "model" in obj):
        kind = "model"
        model = _model_arg(f, obj)
        problems = model.validate()
        extra["dims"] = list(model.dims())
    elif "relators" in obj:
        kind = "group"
        try:
            group = resolve_group(obj)
            extra["generators"] = list(group.generators)
        except GroupError as exc:
            problems = [str(exc)]
    elif "group" in obj and "matrices" in obj:
        kind = "group-representation"
        try:
            rho = group_rep_from_json(f, obj)
            ok, bad = rep_check(rho)
            if not ok:
                problems = [f"relator {i} is not satisfied" for i in bad]
        except GroupError as exc:
            problems = [str(exc)]
    elif "coeffs" in obj:
        kind = "connection"
        conn = connection_from_json(f, obj)
        extra["shape"] = list(conn.coeffs.shape)
    elif "lie" in obj and "matrices" in obj:
        kind = "lie-representation"
        try:
            resolve_rep(f, obj)
        except LieError as exc:
            problems = [str(exc)]
    elif "relations" in obj:
        kind = "presentation"
        try:
            presentation_from_json(f, obj)
        except HolonomyError as exc:
            problems = [str(exc)]
    elif "brackets" in obj or ("dim" in obj and "basis" in obj):
        kind = "lie-algebra"
        lie = resolve_lie(f, obj)
        problems = lie.validate()
    else:
        raise CliInputError(
            "unrecognized document; expected a model, Lie algebra, "
            "representation, connection, presentation, group, or group "
            "representation")
    payload = {"kind": kind, "valid": not problems, "problems": problems}
    payload.update(extra)
    lines = [f"{kind}: {'valid' if not problems else 'INVALID'}"]
    lines += [f"  problem: {p}" for p in problems]
    return (0 if not problems else 1), payload, lines


def _model_arg(f, obj):
    if isinstance(obj, dict) and "model" in obj:
        return resolve_model(f, obj["model"])
    return resolve_model(f, obj)


def _betti_report(label, betti):
    """(payload, text line) for Betti numbers and their Euler
    characteristic."""
    betti = list(betti)
    euler = sum((-1) ** i * b for i, b in enumerate(betti))
    return ({"betti": betti, "euler": euler},
            f"{label} = {tuple(betti)}, euler = {euler}")


def cmd_cohomology(args, f):
    obj = load_input(args)
    model = _model_arg(f, obj)
    report, line = _betti_report(
        f"model {model.name}: betti",
        [model.betti(i) for i in range(model.top_degree + 1)])
    return 0, {"model": model.name, **report}, [line]


def _nonzero_residual(f, res):
    return {str(i): encode_scalar(f, v) for i, v in enumerate(res)
            if not f.is_zero(v)}


def cmd_mc_check(args, f):
    obj = load_input(args)
    conn = connection_from_json(f, obj)
    nonzero = _nonzero_residual(f, mc_residual(conn))
    flat = not nonzero
    payload = {"flat": flat, "nonzero_residual": nonzero}
    if flat:
        lines = ["flat: the Maurer-Cartan residual vanishes"]
    else:
        lines = ["NOT flat; nonzero residual coordinates:"]
        lines += [f"  [{i}] = {v}" for i, v in nonzero.items()]
    return (0 if flat else 1), payload, lines


def cmd_f1(args, f):
    obj = load_input(args)
    conn = connection_from_json(f, obj)
    r = f1_membership(conn)
    payload = {"member": r.member, "reason": r.reason}
    if r.eta is not None:
        payload["eta"] = [encode_scalar(f, v) for v in r.eta]
        payload["x"] = [encode_scalar(f, v) for v in r.x]
    lines = [("member of the rank-one locus" if r.member
              else "NOT in the rank-one locus") + f": {r.reason}"]
    return (0 if r.member else 1), payload, lines


def cmd_pi(args, f):
    obj = load_input(args)
    conn, theta = _connection_and_twist(f, obj)
    r = pi_membership(conn, theta)
    payload = {"member": r.member, "reason": r.reason}
    if r.det_value is not None:
        payload["det"] = encode_scalar(f, r.det_value)
    lines = [("member of the determinant cut" if r.member
              else "NOT in the determinant cut") + f": {r.reason}"]
    return (0 if r.member else 1), payload, lines


def cmd_pullback(args, f):
    obj = load_input(args, "morphism", "connection")
    phi = resolve_morphism(f, obj["morphism"])
    conn = connection_from_json(f, obj["connection"])
    out = pullback(phi, conn)
    payload = connection_to_json(out)
    lines = [f"pullback onto {out.cdga.name}:"]
    lines += ["  " + "  ".join(encode_scalar(f, v) for v in row)
              for row in out.coeffs.to_lists()]
    return 0, payload, lines


def _relators_fail(bad):
    """The exit-1 reply to a group representation that fails relators."""
    return (1, {"satisfied": False, "failing_relators": bad},
            [f"representation does not satisfy relators {bad}"])


def cmd_tangent(args, f):
    obj = load_input(args)
    if isinstance(obj, dict) and "group" in obj:
        rho = group_rep_from_json(f, obj)
        ok, bad = rep_check(rho)
        if not ok:
            return _relators_fail(bad)
        t = tangent_dimension_rep(rho)
        payload = {"cocycle_dim": t.cocycle_dim,
                   "coboundary_dim": t.coboundary_dim, "betti": t.betti}
        lines = [f"tangent dimension (adjoint cocycles) = {t.cocycle_dim} "
                 f"(coboundaries {t.coboundary_dim}, difference {t.betti})"]
        return 0, payload, lines
    conn = connection_from_json(f, obj)
    dim = tangent_dimension(conn)
    return 0, {"tangent_dimension": dim}, [f"tangent dimension = {dim}"]


def cmd_brute_force(args, f):
    obj = load_input(args, "cdga", "lie")
    model = resolve_model(f, obj["cdga"])
    lie = resolve_lie(f, obj["lie"])
    p = getattr(f, "p", None)
    if p is None:
        raise CliInputError("brute force needs a prime field (--field f3 "
                            "or similar)")
    hits = flat_census(model, lie, jobs=args.jobs).tolist()
    candidates = p ** (model.dim(1) * lie.dim)
    payload = {"field": field_tag(f), "candidates": candidates,
               "count": len(hits), "solution_indices": hits}
    lines = [f"scanned {candidates} candidates over {field_tag(f)}: "
             f"{len(hits)} flat connections"]
    return 0, payload, lines


def cmd_holonomy(args, f):
    obj = load_input(args)
    model = _model_arg(f, obj)
    pres = holonomy_presentation(model)
    payload = presentation_to_json(pres)
    return 0, payload, pres.describe().split("\n")


def cmd_relation_check(args, f):
    obj = load_input(args, "lie", "assignment")
    if "presentation" in obj:
        pres = presentation_from_json(f, obj["presentation"])
    elif "model" in obj:
        pres = holonomy_presentation(resolve_model(f, obj["model"]))
    else:
        raise CliInputError('expected a "presentation" or a "model" key')
    lie = resolve_lie(f, obj["lie"])
    assignment = decode_matrix(f, obj["assignment"],
                               shape=(len(pres.generators), lie.dim))
    failing = failing_relations(pres, lie, assignment)
    ok = not failing
    payload = {"satisfied": ok, "failing_relations": failing}
    lines = ["all relations hold" if ok
             else f"relations {failing} fail at this assignment"]
    return (0 if ok else 1), payload, lines


def cmd_aomoto_betti(args, f):
    obj = load_input(args)
    conn, theta = _connection_and_twist(f, obj)
    report, line = _betti_report("twisted betti numbers",
                                 AomotoComplex(conn, theta).betti_all())
    return 0, report, [line]


def cmd_resonance(args, f):
    obj = load_input(args)
    conn, theta = _connection_and_twist(f, obj)
    degree = obj.get("degree", 1)
    depth = obj.get("depth", 1)
    if type(degree) is not int or type(depth) is not int:
        raise CliInputError("degree and depth must be integers")
    member = resonance_membership(conn, theta, degree, depth)
    payload = {"member": member, "degree": degree, "depth": depth}
    lines = [(f"member of the degree-{degree} depth-{depth} resonance locus"
              if member else
              f"NOT in the degree-{degree} depth-{depth} resonance locus")]
    return (0 if member else 1), payload, lines


def cmd_depth_gap(args, f):
    obj = load_input(args, "morphism", "theta", "connection", "eta",
                     required=False)
    if obj is None:
        phi, theta, conn, eta = depth_gap_setup(f)
    else:
        if not isinstance(obj["eta"], list):
            raise CliInputError("eta must be a list of scalars")
        phi = resolve_morphism(f, obj["morphism"])
        theta = resolve_rep(f, obj["theta"])
        conn = connection_from_json(f, obj["connection"])
        eta = [decode_scalar(f, v) for v in obj["eta"]]
    report = depth_gap(phi, theta, conn, eta)
    payload = report.to_dict(f)
    lines = [f"s = {report.base_betti}, r = {report.target_betti}"]
    for c in payload["checks"]:
        lines.append(f"  [{' ok ' if c['ok'] else 'FAIL'}] {c['name']}")
    return (0 if report.holds else 1), payload, lines


def cmd_fox(args, f):
    obj = load_input(args)
    rho = group_rep_from_json(f, obj)
    ok, bad = rep_check(rho)
    if not ok:
        return _relators_fail(bad)
    twist = obj.get("twist", "defining")
    tb = twisted_cohomology(rho, twist)
    payload = {"twist": twist, "b0": tb.b0, "b1": tb.b1, "b2": tb.b2,
               "euler": tb.euler()}
    lines = [f"twisted betti numbers ({twist}): b0 = {tb.b0}, "
             f"b1 = {tb.b1}, b2 = {tb.b2}; euler = {tb.euler()}"]
    return 0, payload, lines


def cmd_rep_check(args, f):
    obj = load_input(args)
    if not isinstance(obj, dict):
        raise CliInputError("expected a group or Lie representation document")
    if "group" in obj:
        rho = group_rep_from_json(f, obj)
        ok, bad = rep_check(rho)
        payload = {"satisfied": ok, "failing_relators": bad}
        lines = ["all relators are satisfied" if ok
                 else f"relators {bad} are NOT satisfied"]
        return (0 if ok else 1), payload, lines
    if "lie" in obj:
        try:
            rep = resolve_rep(f, obj)
        except LieError as exc:
            return 1, {"satisfied": False, "problems": [str(exc)]}, [str(exc)]
        payload = {"satisfied": True, "dim": rep.dim}
        return 0, payload, ["bracket compatibility holds"]
    raise CliInputError("expected a group or Lie representation document")


def cmd_scenario(args, f):
    name, seed = args.name, args.seed
    field = f if args.field is not None else None
    if name == "list":
        payload = [{"name": n, "description": d}
                   for n, d in describe_scenarios()]
        lines = [f"{n:26} {d}" for n, d in describe_scenarios()]
        return 0, payload, lines
    if name == "all":
        reports = run_all(seed=seed)
        payload = [r.to_dict() for r in reports]
        lines = []
        for r in reports:
            lines += r.lines()
        passed = sum(r.holds for r in reports)
        lines.append(f"{passed}/{len(reports)} scenarios hold")
        return (0 if passed == len(reports) else 1), payload, lines
    report = run_scenario(name, seed=seed, field=field)
    return (0 if report.holds else 1), report.to_dict(), report.lines()


COMMANDS = {   # name -> (handler, help line)
    "validate": (cmd_validate,
                 "check a JSON document against its schema and axioms"),
    "cohomology": (cmd_cohomology, "betti numbers of a model"),
    "mc-check": (cmd_mc_check,
                 "is a connection flat (Maurer-Cartan residual zero)?"),
    "f1": (cmd_f1, "rank-one locus membership"),
    "pi": (cmd_pi, "determinant-cut membership"),
    "pullback": (cmd_pullback, "push a connection along a model inclusion"),
    "tangent": (cmd_tangent,
                "linearized solution-space dimension at a flat point"),
    "brute-force": (cmd_brute_force,
                    "exhaustive flat census over a prime field"),
    "holonomy": (cmd_holonomy, "degree-1/2 presentation of a model"),
    "relation-check": (cmd_relation_check,
                       "do generator images kill every relation?"),
    "aomoto-betti": (cmd_aomoto_betti,
                     "twisted betti numbers of a flat connection"),
    "resonance": (cmd_resonance,
                  "resonance-locus membership at chosen degree/depth"),
    "depth-gap": (cmd_depth_gap, "depth increase along a product inclusion"),
    "fox": (cmd_fox, "twisted group cohomology via Fox calculus"),
    "rep-check": (cmd_rep_check,
                  "relator satisfaction / bracket compatibility"),
    "scenario": (cmd_scenario,
                 "run a named end-to-end scenario (see: scenario list)"),
}


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", metavar="FILE",
                        help="JSON file path, or an inline {...} literal")
    common.add_argument("--field", metavar="F",
                        help="q (default), or fP or fp:P for an odd prime "
                             f"P < {MODULUS_BOUND}")
    common.add_argument("--json", action="store_true",
                        help="emit a machine-readable report")
    parser = argparse.ArgumentParser(
        prog="jumploci",
        description="Flat connections, jump loci, and holonomy on finite "
                    "commutative differential graded models.",
        epilog="exit codes: 0 the property holds, 1 it fails, 2 malformed "
               "input, 3 internal error (a bug; its traceback goes to stderr)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_line) in COMMANDS.items():
        sp = sub.add_parser(name, parents=[common], help=help_line)
        if name == "scenario":
            sp.add_argument("name", nargs="?", default="list",
                            help="a catalog name, 'all', or 'list'")
            sp.add_argument("--seed", type=int, default=0, metavar="N",
                            help="seed for sampled checks")
        if name == "brute-force":
            sp.add_argument("--jobs", type=int, default=1, metavar="K",
                            help="worker threads for the census")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handler, _ = COMMANDS[args.command]
    try:
        f = QQ if args.field is None else field_from_tag(args.field)
        code, payload, lines = handler(args, f)
    except NotFlatError as exc:
        nonzero = _nonzero_residual(f, exc.residual)
        print("connection is not flat; nonzero residual coordinates: "
              + ", ".join(f"[{i}] = {v}" for i, v in nonzero.items()),
              file=sys.stderr)
        return 1
    except MALFORMED as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        import traceback  # only on this path: it costs the cold start
        traceback.print_exc()
        print("internal error: a bug in jumploci, not in the input",
              file=sys.stderr)
        return 3
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
