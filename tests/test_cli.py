"""Exit codes and output of the command-line entry point."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from jumploci import cli, flatconn, scenarios, serialize
from jumploci.cli import main
from jumploci.liealg import build_sl
from jumploci.models import build_surface_model
from jumploci.scalars import QQ
from jumploci.serialize import (cdga_to_json, lie_to_json, resolve_group,
                                resolve_lie, resolve_model, resolve_morphism,
                                resolve_rep)


CURVE_FLAT = json.dumps({
    "cdga": "compact_curve(1)", "lie": "sl(2)",
    "coeffs": [["1", "0", "0"], ["2", "0", "0"]],
})
CURVE_NONFLAT = json.dumps({
    "cdga": "compact_curve(1)", "lie": "sl(2)",
    "coeffs": [["1", "0", "0"], ["0", "1", "0"]],
})


def test_mc_check_exit_codes(capsys):
    assert main(["mc-check", "--input", CURVE_FLAT]) == 0
    assert "flat" in capsys.readouterr().out
    assert main(["mc-check", "--input", CURVE_NONFLAT]) == 1
    assert "NOT flat" in capsys.readouterr().out


def test_malformed_input_is_exit_2(capsys):
    assert main(["mc-check", "--input", '{"cdga": "compact_curve(1)"}']) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["mc-check", "--input", "{not json"]) == 2
    capsys.readouterr()
    assert main(["mc-check", "--input", "/no/such/file.json"]) == 2
    capsys.readouterr()
    assert main(["cohomology", "--input", '{"model": "klein(1)"}']) == 2
    capsys.readouterr()
    for tag in ("f4", "fp:1000000000000000001",
                "fp:3317044064679887385961981"):
        assert main(["mc-check", "--input", CURVE_FLAT, "--field", tag]) == 2
        assert "error:" in capsys.readouterr().err


def test_malformed_shapes_are_exit_2(capsys):
    # Wrong types deep inside a document surface at the decoders as
    # SerializeError, so they exit 2 like any other malformed input.
    model = cdga_to_json(build_surface_model(QQ, 1))
    bad_index = json.loads(json.dumps(model))
    bad_index["mult"][0]["out"][0]["idx"] = 0.5
    for argv in (
            ["validate", "--input", json.dumps(dict(model, top_degree="x"))],
            ["validate", "--input", json.dumps(bad_index)],
            ["validate", "--input", '{"generators": ["a"], "relators": 5}'],
            ["mc-check", "--input", json.dumps(
                {"cdga": {"normals": 5}, "lie": "sl(2)", "coeffs": []})],
            ["resonance", "--input", json.dumps(
                {"connection": json.loads(CURVE_FLAT), "degree": "1"})]):
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err


def test_internal_error_is_exit_3(monkeypatch, capsys):
    # A KeyError raised past the decoders is a bug, not malformed input.
    def broken(args, f):
        raise KeyError("not a user's mistake")
    monkeypatch.setitem(cli.COMMANDS, "cohomology",
                        (broken, "betti numbers of a model"))
    assert main(["cohomology", "--input", '{"model": "surface(1)"}']) == 3
    err = capsys.readouterr().err
    assert "Traceback" in err and "internal error" in err


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_one_parser_serves_every_call(capsys):
    cli.build_parser.cache_clear()
    assert main(["cohomology", "--input", '{"model": "surface(2)"}']) == 0
    first = capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["cohomology", "--input", '{"model": "surface(2)"}']) == 0
    assert capsys.readouterr().out == first
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_the_shared_parser_prints_a_fresh_parsers_help(capsys):
    shared, fresh = cli.build_parser(), cli.build_parser.__wrapped__()
    assert shared.format_help() == fresh.format_help()
    for name in cli.COMMANDS:
        helps = []
        for parser in (shared, fresh):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args([name, "--help"])
            assert exc.value.code == 0
            helps.append(capsys.readouterr().out)
        assert helps[0] == helps[1]


def test_cohomology_json(capsys):
    code = main(["cohomology", "--input", '{"model": "surface(2)"}',
                 "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["betti"] == [1, 4, 4, 1]
    assert payload["euler"] == 0


def test_cohomology_of_truncated_models(capsys):
    # models once cut off at degree 3 are whole: Kunneth for
    # (1, 2, 2, 1) x (1, 2, 2, 1) in every degree, and the Euler number
    product = '{"model": "tensor(surface(1),surface(1))"}'
    assert main(["cohomology", "--input", product, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"model": "surface_g1(x)surface_g1",
                       "betti": [1, 4, 8, 10, 8, 4, 1], "euler": 0}
    assert main(["cohomology", "--input", product]) == 0
    assert capsys.readouterr().out == (
        "model surface_g1(x)surface_g1: betti = (1, 4, 8, 10, 8, 4, 1), "
        "euler = 0\n")
    # binomial(5, i) through the top of torus(5)
    assert main(["cohomology", "--input", '{"model": "torus(5)"}',
                 "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "model": "torus_n5", "betti": [1, 5, 10, 10, 5, 1], "euler": 0}


def test_untruncated_betti_output_unchanged(capsys):
    assert main(["cohomology", "--input", '{"model": "surface(2)"}']) == 0
    assert capsys.readouterr().out == \
        "model surface_g2: betti = (1, 4, 4, 1), euler = 0\n"
    conn = {"cdga": "compact_curve(2)", "lie": "sl(2)",
            "coeffs": [["1", "0", "0"], ["0", "1", "0"], ["0", "1", "0"],
                       ["1", "0", "0"]]}
    doc = json.dumps({"connection": conn, "theta": "adjoint(sl(2))"})
    assert main(["aomoto-betti", "--input", doc, "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"betti": [0, 6, 0],
                                                   "euler": -6}
    assert main(["aomoto-betti", "--input", doc]) == 0
    assert capsys.readouterr().out == \
        "twisted betti numbers = (0, 6, 0), euler = -6\n"


def test_aomoto_betti_of_a_truncated_model(capsys):
    # eta (x) E with eta = e1 + 2 e2 on torus(4): in a basis f1 = eta, f2,
    # f3, f4 the complex is Lambda(f2, f3, f4) copies of
    # (1 (x) V -> f1 (x) V, ad E), and ad E on sl(2) is one nilpotent
    # Jordan block of size 3, with kernel and cokernel of dimension 1.  So
    # b^i = binomial(3, i) + binomial(3, i - 1) = binomial(4, i).
    conn = {"cdga": "torus(4)", "lie": "sl(2)",
            "coeffs": [["1", "0", "0"], ["2", "0", "0"], ["0", "0", "0"],
                       ["0", "0", "0"]]}
    doc = json.dumps({"connection": conn, "theta": "adjoint(sl(2))"})
    assert main(["aomoto-betti", "--input", doc, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"betti": [1, 4, 6, 4, 1], "euler": 0}
    assert main(["aomoto-betti", "--input", doc]) == 0
    assert capsys.readouterr().out == \
        "twisted betti numbers = (1, 4, 6, 4, 1), euler = 0\n"


@pytest.mark.parametrize("model", [
    "torus(9)", "torus(1000)", "tensor(torus(8),torus(1))",
    "compact_curve(128)", "open_curve(256)", "surface(64)"])
def test_models_past_the_size_limit_are_exit_2(model, capsys):
    doc = json.dumps({"model": model})
    assert main(["cohomology", "--input", doc]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "the limit is 256" in err


@pytest.mark.parametrize("command,doc", [
    ("pullback", {"morphism": "tensor_left(torus(8),torus(8))",
                  "connection": {}}),
    ("depth-gap", {"morphism": "tensor_left(torus(8),torus(8))",
                   "theta": "adjoint(sl(2))", "connection": {}, "eta": []}),
    ("pullback", {"morphism": "curve_inclusion(64)", "connection": {}}),
])
def test_morphisms_past_the_size_limit_are_exit_2(command, doc, capsys):
    assert main([command, "--input", json.dumps(doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "the limit is 256" in err


SHEAR = [["1", "1"], ["0", "1"]]


def naming(kind, spec):
    """argv of a subcommand whose input names ``spec`` as its object of
    ``kind``, and which exits 0 when ``spec`` names a small valid object."""
    command, doc = {
        "model": ("cohomology", {"model": spec}),
        "morphism": ("pullback", {"morphism": spec,
                                  "connection": json.loads(CURVE_FLAT)}),
        "lie": ("brute-force", {"cdga": "torus(1)", "lie": spec}),
        "rep": ("aomoto-betti", {"connection": json.loads(CURVE_FLAT),
                                 "theta": spec}),
        "group": ("fox", {"group": spec, "target": "SL",
                          "matrices": [SHEAR, SHEAR]}),
        "document": ("validate", spec),
    }[kind]
    return [command, "--field", "f3", "--input", json.dumps(doc)]


@pytest.mark.parametrize("kind,good,spec", [
    ("model", "compact_curve(2)", "compact_curve(2,7)"),
    ("model", "open_curve(3)", "open_curve(3,1)"),
    ("model", "surface(1)", "surface(1,9)"),
    ("model", "pencil(4)", "pencil(4,9)"),
    ("model", "torus(2)", "torus(2,)"),
    ("morphism", "curve_inclusion(1)", "curve_inclusion(1,2)"),
    ("lie", "sl(2)", "sl(2,5)"), ("lie", "sol2", "sol2(9)"),
    ("lie", "abelian(2)", "abelian(2,2)"), ("group", "free(2)", "free(2,8)")])
def test_an_extra_argument_is_exit_2(kind, good, spec, capsys):
    assert main(naming(kind, good)) == 0
    capsys.readouterr()
    assert main(naming(kind, spec)) == 2
    err = capsys.readouterr().err
    head = spec.partition("(")[0]
    assert err.startswith("error:") and f"expected {head}(" in err


@pytest.mark.parametrize("kind,spec,limit", [
    ("model", "pencil(17)", "16 hyperplanes"),
    pytest.param("model", {"normals": [[1, k, 0] for k in range(16)]
                           + [[0, 1, 0]]}, "16 hyperplanes",
                 id="model-17-normals"),
    ("lie", "sl(9)", "63 dimensions"), ("lie", "abelian(64)", "63 dimensions"),
    ("rep", "trivial(sl(2),257)", "256 dimensions"),
    ("group", "free(257)", "256 generators"),
    ("group", "surface(129)", "256 generators"),
    pytest.param("document", {"dim": 64, "basis": [f"x{i}" for i in range(64)],
                              "brackets": []}, "63 dimensions",
                 id="validate-64-dim-lie"),
    pytest.param("document", {"generators": [f"x{i}" for i in range(257)],
                              "relators": []}, "256 generators",
                 id="validate-257-generators")])
def test_names_past_the_other_limits_are_exit_2(kind, spec, limit, capsys):
    # the smallest name past each limit other than the basis bound (those
    # are above); validate bounds the documents it is given the same way
    assert main(naming(kind, spec)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"the limit is {limit}" in err


@pytest.mark.parametrize("resolve,spec,size,expected", [
    (resolve_model, "compact_curve(127)", lambda m: sum(m.dims()), 256),
    (resolve_model, "open_curve(255)", lambda m: sum(m.dims()), 256),
    (resolve_model, "surface(63)", lambda m: sum(m.dims()), 256),
    (resolve_model, "torus(8)", lambda m: sum(m.dims()), 256),
    (resolve_model, "tensor(compact_curve(7),compact_curve(7))",
     lambda m: sum(m.dims()), 256),
    (resolve_model, "pencil(16)", lambda m: m.dim(1), 16),
    (resolve_morphism, "curve_inclusion(63)",
     lambda phi: sum(phi.target.dims()), 256),
    (resolve_morphism, "tensor_left(torus(4),torus(4))",
     lambda phi: sum(phi.target.dims()), 256),
    (resolve_morphism, "tensor_right(torus(4),torus(4))",
     lambda phi: sum(phi.target.dims()), 256),
    (resolve_lie, "sl(8)", lambda g: g.dim, 63),
    (resolve_lie, "abelian(63)", lambda g: g.dim, 63),
    (resolve_rep, "defining(sl(8))", lambda r: r.dim, 8),
    (resolve_rep, "adjoint(sl(8))", lambda r: r.dim, 63),
    (resolve_rep, "trivial(sl(2),256)", lambda r: r.dim, 256),
    (resolve_rep, "sum(trivial(sl(2),128),trivial(sl(2),128))",
     lambda r: r.dim, 256),
    (lambda f, spec: resolve_group(spec), "free(256)",
     lambda g: len(g.generators), 256),
    (lambda f, spec: resolve_group(spec), "surface(128)",
     lambda g: len(g.generators), 256),
])
def test_the_largest_name_of_each_head_resolves(resolve, spec, size,
                                                expected):
    # each is as large as its limit allows
    assert size(resolve(QQ, spec)) == expected


def nested(head, leaf, depth):
    """``depth`` calls of ``head``, each nested in the first argument of the
    one outside it, with ``leaf`` innermost and as every second argument."""
    return f"{head}(" * depth + leaf + f",{leaf})" * depth


SOL2_FLAT = {"cdga": "compact_curve(1)", "lie": "sol2",
             "coeffs": [["1", "0"], ["2", "0"]]}


@pytest.mark.parametrize("command,doc,code", [
    ("aomoto-betti", {"connection": SOL2_FLAT,
                      "theta": nested("sum", "trivial(sol2,1)", 64)}, 0),
    ("aomoto-betti", {"connection": SOL2_FLAT,
                      "theta": nested("sum", "trivial(sol2,1)", 65)}, 2),
    ("aomoto-betti", {"connection": json.loads(CURVE_FLAT),
                      "theta": nested("sum", "trivial(sl(2),1)", 2000)}, 2),
    ("cohomology", {"model": nested("tensor", "torus(1)", 2000)}, 2),
], ids=["sum-64", "sum-65", "sum-2000", "tensor-2000"])
def test_names_nest_at_most_64_deep(command, doc, code, capsys):
    # the nesting is bounded before any recursion, which 2000 levels
    # would exhaust
    assert main([command, "--input", json.dumps(doc)]) == code
    out, err = capsys.readouterr()
    if code == 0:
        assert out == "twisted betti numbers = (65, 130, 65), euler = 0\n"
    else:
        assert err.startswith("error:") and "the limit is 64 levels" in err


def test_json_nested_past_the_parser_is_exit_2(tmp_path, capsys):
    # json.loads gives up with RecursionError, which is the input's fault
    path = tmp_path / "deep.json"
    path.write_text('{"model": ' + "[" * 100000 + "]" * 100000 + "}")
    assert main(["cohomology", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "internal error" not in err


def test_json_integer_past_the_digit_limit_is_exit_2(tmp_path, capsys):
    # json.loads raises a plain ValueError from Python's limit on int
    # string conversion, which is the input's fault too
    path = tmp_path / "big.json"
    path.write_text('{"model": 1' + "0" * 5000 + "}")
    assert main(["cohomology", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: input is not valid JSON")
    assert "internal error" not in err


def test_name_argument_past_the_digit_limit_is_exit_2_in_brief(capsys):
    # int() refuses more than 4,300 digits with a plain ValueError
    name = "torus(1" + "0" * 5000 + ")"
    assert main(["cohomology", "--input", json.dumps({"model": name})]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: expected a natural number, got '")
    assert len(err.encode()) < 1024


@pytest.mark.parametrize("tag", ["f" + "1" * 5000, "fp:" + "1" * 5000,
                                 "fp:" + "1" * 4000],
                         ids=["f-5000-digits", "fp-5000-digits",
                              "fp-4000-digits"])
def test_long_field_tags_are_exit_2_in_brief(tag, capsys):
    # past Python's 4,300-digit limit int() itself would raise; below it
    # the modulus bound would echo every digit
    assert main(["cohomology", "--field", tag,
                 "--input", '{"model": "torus(1)"}']) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: field tag '") and "past the supported" in err
    assert len(err.encode()) < 1024


def test_an_oversized_twisted_complex_is_exit_2_at_once(capsys):
    # a rank-one point inside every size limit: row k is (k+1)·x
    coeffs = [[str((k + 1) * (j + 1)) for j in range(63)] for k in range(8)]
    doc = {"connection": {"cdga": "torus(8)", "lie": "sl(8)",
                          "coeffs": coeffs},
           "theta": "adjoint(sl(8))"}
    assert main(["aomoto-betti", "--input", json.dumps(doc)]) == 2
    err = capsys.readouterr().err
    assert err == ("error: twisted complex too large: its differentials "
                   "hold 45405360 cells (limit 300000)\n")


def unipotent_rows(n):
    """The n x n upper bidiagonal unipotent matrix as document rows."""
    return [["1" if j in (i, i + 1) else "0" for j in range(n)]
            for i in range(n)]


def test_the_largest_group_representation_answers_in_time(capsys):
    # 8 x 8 is the limit; surface(32) has 64 generators
    doc = {"group": "surface(32)", "target": "SL",
           "matrices": [unipotent_rows(8)] * 64}
    assert main(["tangent", "--input", json.dumps(doc)]) == 0
    assert capsys.readouterr().out == (
        "tangent dimension (adjoint cocycles) = 3976 "
        "(coboundaries 56, difference 3920)\n")


@pytest.mark.parametrize("doc", [
    {"group": "free(1)", "target": "GL", "matrices": [unipotent_rows(9)]},
    {"group": "surface(1)", "target": "GL",
     "matrices": [unipotent_rows(2), unipotent_rows(9)]},
], ids=["9x9", "second-of-two"])
def test_a_group_representation_past_8x8_is_exit_2_before_decoding(
        doc, monkeypatch, capsys):
    def no_decoding(*args):
        raise AssertionError("a matrix was decoded")

    monkeypatch.setattr(serialize, "decode_matrix", no_decoding)
    assert main(["fox", "--input", json.dumps(doc)]) == 2
    err = capsys.readouterr().err
    assert err == ("error: inline group representation is too large: the "
                   "limit is 8 rows and columns per matrix\n")
    assert len(err.encode()) < 1024


@pytest.mark.parametrize("field, doc, count", [
    ("fp:2147483647", {"cdga": "torus(8)", "lie": "sl(8)"},
     "2147483647^504"),
    ("fp:3317044064679887385961813",
     {"cdga": "compact_curve(100)", "lie": "abelian(1)"},
     "3317044064679887385961813^200"),
], ids=["torus8-sl8", "curve100-abelian1"])
def test_astronomical_census_is_exit_2_in_brief(field, doc, count, capsys):
    # p^k has over 4,300 digits, past Python's limit on int to str
    assert main(["brute-force", "--field", field,
                 "--input", json.dumps(doc)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {count} candidates exceed the 100000000 ceiling\n"
    assert len(err.encode()) < 1024


@pytest.mark.parametrize("field, message", [
    ("q", "error: bad rational scalar '1000"),
    ("f5", "error: bad scalar '1000")])
def test_rejected_scalar_is_echoed_in_brief(tmp_path, capsys, field,
                                            message):
    path = tmp_path / "conn.json"
    path.write_text(json.dumps({
        "cdga": "compact_curve(1)", "lie": "sl(2)",
        "coeffs": [["1" + "0" * 200000, "0", "0"], ["2", "0", "0"]]}))
    assert main(["mc-check", "--field", field, "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(message)
    assert len(err.encode()) < 1024


POINT = {"name": "pt", "top_degree": 2, "basis": [["1"], ["a", "b"], ["om"]]}


@pytest.mark.parametrize("model, message", [
    (list(range(200000)), "bad model spec of type list: [0, 1, 2,"),
    (json.loads("[" * 900 + "]" * 900), "bad model spec of type list"),
    (dict(POINT, mult=[{"i": [1, 0], "j": [1, 1], "out": [
        {"deg": list(range(200000)), "idx": 0, "coef": "1"}]}]),
     "product (1,0)*(1,1) lands in degree [0, 1, 2,"),
    (dict(POINT, **{f"k{i}": 0 for i in range(100000)}),
     "unknown model keys: k0, k1, k10,")])
def test_rejected_value_is_echoed_in_brief(tmp_path, capsys, model,
                                           message):
    # the error names what is wrong and shows a bounded prefix of it
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"model": model}))
    assert main(["cohomology", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: " + message)
    assert len(err.encode()) < 1024


def test_cut_off_model_document_is_exit_2(capsys):
    model = dict(cdga_to_json(build_surface_model(QQ, 1)), truncated=True)
    assert main(["cohomology", "--input", json.dumps(model)]) == 2
    assert "unknown model keys: truncated" in capsys.readouterr().err


def readme_examples():
    """(argv, stdout) for each `$ jumploci ...` example in the README: the
    command runs on until its quotes close, and its output is the lines
    after it, up to a blank line or the end of the block."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8").splitlines()
    examples, pos = [], 0
    while pos < len(lines):
        if not lines[pos].startswith("$ jumploci "):
            pos += 1
            continue
        command = lines[pos][len("$ jumploci "):]
        pos += 1
        while True:
            try:
                argv = shlex.split(command)
                break
            except ValueError:   # an open quote: the command goes on
                command += "\n" + lines[pos]
                pos += 1
        out = []
        while pos < len(lines) and lines[pos].strip() not in ("", "```"):
            out.append(lines[pos])
            pos += 1
        examples.append((argv, "".join(line + "\n" for line in out)))
    return examples


def test_readme_examples_print_what_the_readme_shows(capsys):
    examples = readme_examples()
    assert len(examples) >= 7
    for argv, stdout in examples:
        assert main(argv) == 0, argv
        assert capsys.readouterr().out == stdout, argv


def test_f1_and_pi(capsys):
    assert main(["f1", "--input", CURVE_FLAT]) == 0
    assert "rank-one" in capsys.readouterr().out
    assert main(["f1", "--input", CURVE_NONFLAT]) == 1
    capsys.readouterr()
    # E is nilpotent: determinant cut keeps it
    assert main(["pi", "--input", CURVE_FLAT]) == 0
    capsys.readouterr()
    semisimple = json.dumps({
        "cdga": "compact_curve(1)", "lie": "sl(2)",
        "coeffs": [["0", "0", "1"], ["0", "0", "2"]],
    })
    assert main(["pi", "--input", semisimple]) == 1
    capsys.readouterr()


def test_brute_force_counts(capsys):
    code = main(["brute-force", "--field", "f3", "--json", "--input",
                 '{"cdga": "surface(1)", "lie": "sl(2)"}'])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["candidates"] == 19683
    assert payload["count"] == 105
    assert payload["field"] == "f3"


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_brute_force_jobs_below_one_is_exit_2(jobs, monkeypatch, capsys):
    def unreachable(*args):
        raise AssertionError("census tensors built for a bad job count")

    monkeypatch.setattr(flatconn, "flatness_tensors", unreachable)
    assert main(["brute-force", "--field", "f3", "--jobs", jobs, "--input",
                 '{"cdga": "surface(1)", "lie": "sl(2)"}']) == 2
    out, err = capsys.readouterr()
    assert err == f"error: jobs must be at least 1, got {jobs}\n"
    assert out == ""


def test_brute_force_needs_prime_field(capsys):
    assert main(["brute-force", "--input",
                 '{"cdga": "torus(1)", "lie": "sl(2)"}']) == 2
    capsys.readouterr()


def test_tangent_both_paths(capsys):
    curve_conn = json.dumps({
        "cdga": "compact_curve(2)", "lie": "sl(2)",
        "coeffs": [["1", "0", "0"], ["0", "1", "0"], ["0", "1", "0"],
                   ["1", "0", "0"]],
    })
    assert main(["tangent", "--input", curve_conn, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["tangent_dimension"] == 9

    rep = json.dumps({
        "group": "surface(2)", "target": "SL",
        "matrices": [[["1", "1"], ["0", "1"]], [["1", "0"], ["1", "1"]],
                     [["1", "0"], ["1", "1"]], [["1", "1"], ["0", "1"]]],
    })
    assert main(["tangent", "--input", rep, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    # cocycle count matches the flat-side tangent dimension
    assert payload["cocycle_dim"] == 9
    assert payload["betti"] == 9 - payload["coboundary_dim"]


def test_tangent_not_flat_is_exit_1(capsys):
    assert main(["tangent", "--input", CURVE_NONFLAT]) == 1
    out, err = capsys.readouterr()
    assert "not flat" in err
    assert re.search(r"\[\d+\] = ", err)
    assert out == ""


def test_depth_gap_default_json(capsys):
    assert main(["depth-gap", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["s"] == 10 and payload["r"] == 12
    assert payload["degree"] == 1
    assert all(c["ok"] for c in payload["checks"])


def test_validate_paths(capsys):
    assert main(["validate", "--input", '{"model": "pencil(4)"}']) == 0
    capsys.readouterr()
    # a Lie table violating Jacobi: schema fine, axioms broken -> exit 1
    bad_lie = json.dumps({
        "dim": 3, "basis": ["x", "y", "z"],
        "brackets": [{"i": 0, "j": 1, "out": [{"idx": 2, "coef": "1"}]},
                     {"i": 0, "j": 2, "out": [{"idx": 0, "coef": "1"}]}],
    })
    assert main(["validate", "--input", bad_lie]) == 1
    assert "jacobi" in capsys.readouterr().out
    assert main(["validate", "--input", '{"what": "ever"}']) == 2
    capsys.readouterr()


def test_fox_and_rep_check(capsys):
    rep = json.dumps({
        "group": "surface(1)", "target": "SL",
        "matrices": [[["1", "1"], ["0", "1"]], [["1", "2"], ["0", "1"]]],
    })
    assert main(["fox", "--input", rep, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["b0"], payload["b1"], payload["b2"]) == (1, 2, 1)
    assert payload["euler"] == 0
    assert main(["rep-check", "--input", rep]) == 0
    capsys.readouterr()
    broken = json.dumps({
        "group": "surface(1)", "target": "SL",
        "matrices": [[["1", "1"], ["0", "1"]], [["1", "0"], ["1", "1"]]],
    })
    assert main(["fox", "--input", broken]) == 1
    capsys.readouterr()
    assert main(["rep-check", "--input", broken]) == 1
    capsys.readouterr()


def test_a_group_document_may_keep_the_aspherical_key(capsys):
    # older group documents carry "aspherical": true; the key is ignored,
    # so they decode, validate and give the same Fox cohomology
    plain = {"generators": ["a", "b"], "relators": ["a b a^-1 b^-1"]}
    flagged = dict(plain, aspherical=True)
    assert vars(resolve_group(flagged)) == vars(resolve_group(plain))
    runs = []
    for group in (plain, flagged):
        rep = json.dumps({
            "group": group, "target": "SL",
            "matrices": [[["1", "1"], ["0", "1"]], [["1", "2"], ["0", "1"]]],
        })
        runs.append([(main(argv), capsys.readouterr()) for argv in (
            ["validate", "--input", json.dumps(group)],
            ["validate", "--input", rep],
            ["fox", "--input", rep, "--json"])])
    assert runs[0] == runs[1]
    assert [code for code, _ in runs[0]] == [0, 0, 0]
    payload = json.loads(runs[0][2][1].out)
    assert (payload["b0"], payload["b1"], payload["b2"]) == (1, 2, 1)


def test_fp_field(capsys):
    for tag in ("fp:7", "f7", "fp:1000000000000000003"):
        assert main(["cohomology", "--input", '{"model": "torus(2)"}',
                     "--field", tag, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["betti"] == [1, 2, 1]


def test_pi_needs_a_builder_made_lie_algebra(capsys):
    # A decoded algebra has no defining representation, whatever its name.
    lie = dict(lie_to_json(build_sl(QQ, 2)), name="sl2")
    doc = json.dumps({"cdga": "compact_curve(1)", "lie": lie,
                      "coeffs": [["1", "0", "0"], ["2", "0", "0"]]})
    assert main(["pi", "--input", doc]) == 2
    assert "error:" in capsys.readouterr().err


def test_scenario_list_and_unknown(capsys):
    assert main(["scenario", "list", "--json"]) == 0
    names = {row["name"] for row in json.loads(capsys.readouterr().out)}
    assert names == {
        "sl3-witness", "g1-bruteforce", "depth-gap-product",
        "pencil-resonance", "tangent-match", "weight-equivariance",
        "transversality-product", "torus-pi-equals-r11",
    }
    assert main(["scenario"]) == 0  # bare "scenario" lists too
    capsys.readouterr()
    assert main(["scenario", "atlantis"]) == 2
    capsys.readouterr()


def test_seed_is_an_option_of_scenario_alone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cohomology", "--seed", "1", "--input", '{"model": "torus(2)"}'])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["scenario", "pencil-resonance", "--seed", "3", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["holds"] is True


def test_scenario_single_run(capsys):
    assert main(["scenario", "tangent-match", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["holds"] is True


def test_scenario_all_runs_the_whole_catalog(capsys):
    assert main(["scenario", "all"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "8/8 scenarios hold"


@pytest.mark.parametrize("argv", [["scenario", "all", "--field", "f5"],
                                  ["scenario", "list", "--field", "f5"]],
                         ids=["all", "list"])
def test_field_goes_with_one_named_scenario(argv, capsys):
    # each catalog entry has its own default field, which --field replaces
    # for that entry alone
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: --field applies to one named scenario\n")


GENUS2_EFFE = {
    "cdga": "compact_curve(2)", "lie": "sl(2)",
    "coeffs": [["1", "0", "0"], ["0", "1", "0"], ["0", "1", "0"],
               ["1", "0", "0"]],
}
SL2_DEFINING = {"lie": "sl(2)", "dim": 2, "matrices": [
    [["0", "1"], ["0", "0"]], [["0", "0"], ["1", "0"]],
    [["1", "0"], ["0", "-1"]]]}
SL2_BROKEN = dict(SL2_DEFINING, matrices=[SL2_DEFINING["matrices"][0]] * 2
                  + [SL2_DEFINING["matrices"][2]])
SURFACE1_REP = {"group": "surface(1)", "target": "SL", "matrices": [
    [["1", "1"], ["0", "1"]], [["1", "2"], ["0", "1"]]]}
BROKEN_SURFACE1_REP = dict(SURFACE1_REP, matrices=[
    [["1", "1"], ["0", "1"]], [["1", "0"], ["1", "1"]]])
CURVE1_RELATIONS = {"model": "compact_curve(1)", "lie": "sl(2)"}


@pytest.mark.parametrize("command,doc,code,line", [
    ("aomoto-betti", {"connection": GENUS2_EFFE, "theta": SL2_DEFINING}, 0,
     "twisted betti numbers = (0, 4, 0), euler = -4"),
    ("aomoto-betti", {"connection": GENUS2_EFFE,
                      "theta": dict(SL2_DEFINING, dim=300)}, 2,
     "error: inline representation is too large: the limit is 256 "
     "dimensions"),
    ("aomoto-betti", {"connection": GENUS2_EFFE, "theta": dict(
        SL2_DEFINING, matrices=SL2_DEFINING["matrices"][:2])}, 2,
     "error: need one matrix per basis element (3), got 2"),
    ("validate", SURFACE1_REP, 0, "group-representation: valid"),
    ("validate", BROKEN_SURFACE1_REP, 1,
     "  problem: relator 0 is not satisfied"),
    ("validate", GENUS2_EFFE, 0, "connection: valid"),
    ("validate", SL2_DEFINING, 0, "lie-representation: valid"),
    ("validate", SL2_BROKEN, 1,
     "  problem: bracket compatibility fails: [E12,E21]; [E21,H1]"),
    ("validate", {"generators": ["a", "b"], "relations": [
        {"lin": ["0", "0"], "quad": [{"k": 0, "l": 1, "coef": "1"}]}]}, 0,
     "presentation: valid"),
    ("holonomy", {"model": "surface(1)"}, 0,
     "relation 0: 1*t + 1*[a1,b1] = 0"),
    ("relation-check", dict(CURVE1_RELATIONS, assignment=[
        ["1", "0", "0"], ["2", "0", "0"]]), 0, "all relations hold"),
    ("relation-check", dict(CURVE1_RELATIONS, assignment=[
        ["1", "0", "0"], ["0", "1", "0"]]), 1,
     "relations [0] fail at this assignment"),
    ("resonance", {"connection": GENUS2_EFFE}, 0,
     "member of the degree-1 depth-1 resonance locus"),
    ("resonance", {"cdga": "torus(2)", "lie": "sl(2)", "coeffs": [
        ["0", "0", "1"], ["0", "0", "0"]]}, 1,
     "NOT in the degree-1 depth-1 resonance locus"),
    ("tangent", BROKEN_SURFACE1_REP, 1,
     "representation does not satisfy relators [0]"),
    ("depth-gap", {"morphism": "tensor_left(compact_curve(2),"
                               "compact_curve(1))",
                   "theta": "sum(trivial(sl(2),1),adjoint(sl(2)))",
                   "connection": GENUS2_EFFE,
                   "eta": ["1", "0", "0", "0", "0", "0"]}, 0,
     "s = 10, r = 12"),
    ("rep-check", SL2_DEFINING, 0, "bracket compatibility holds"),
    ("rep-check", SL2_BROKEN, 1,
     "bracket compatibility fails: [E12,E21]; [E21,H1]"),
], ids=[
    "inline-theta", "inline-theta-too-large", "inline-theta-short",
    "group-rep", "group-rep-broken", "connection", "lie-rep",
    "lie-rep-broken", "presentation", "holonomy", "model-relations-hold",
    "model-relations-fail", "resonance-member", "resonance-nonmember",
    "tangent-group-rep-broken", "explicit-depth-gap",
    "lie-rep-check", "lie-rep-check-broken",
])
def test_documents_reach_every_decoder(command, doc, code, line, capsys):
    assert main([command, "--input", json.dumps(doc)]) == code
    out, err = capsys.readouterr()
    assert line in (err if code == 2 else out).splitlines()


def model_with_degrees(top):
    """An inline model with one label in degrees 0 and 1, and empty degrees
    up to ``top``."""
    return {"name": "x", "top_degree": top,
            "basis": [["1"], ["a"]] + [[]] * (top - 1)}


@pytest.mark.parametrize("command, doc", [
    ("cohomology", lambda m: {"model": m}),
    ("validate", lambda m: m),
    ("aomoto-betti", lambda m: {"connection": {
        "cdga": m, "lie": "sl(2)", "coeffs": [["1", "0", "0"]]}}),
], ids=["cohomology", "validate", "aomoto-betti"])
def test_an_inline_model_counts_its_degrees(command, doc, capsys):
    # two labels in a million degrees: refused before anything is built
    assert main([command, "--input", json.dumps(
        doc(model_with_degrees(10 ** 6)))]) == 2
    err = capsys.readouterr().err
    assert err == ("error: inline model is too large: the limit is 256 "
                   "basis elements or degrees\n")
    # 256 degrees, 0 .. 255, is the largest count accepted
    assert main([command, "--input", json.dumps(
        doc(model_with_degrees(255)))]) == 0
    capsys.readouterr()
    assert main([command, "--input", json.dumps(
        doc(model_with_degrees(256)))]) == 2
    assert "the limit is 256" in capsys.readouterr().err


def sl2_labelled(label):
    """The inline sl(2) with ``label`` in place of E12."""
    return dict(lie_to_json(build_sl(QQ, 2)), basis=[label, "E21", "H1"])


@pytest.mark.parametrize("command, doc, message", [
    ("fox", lambda v: {"group": "free(1)", "target": v,
                       "matrices": [[["1"]]]}, "unknown target '{}'"),
    ("fox", lambda v: {"group": "free(1)", "target": "GL", "twist": v,
                       "matrices": [[["1"]]]},
     "unknown twist '{}' (want defining or adjoint)"),
    ("fox", lambda v: {"group": {"generators": ["a"], "relators": ["a " + v]},
                       "target": "GL", "matrices": [[["1"]]]},
     "unknown generator '{}'"),
    ("fox", lambda v: {"group": {"generators": [v], "relators": []},
                       "target": "GL", "matrices": [[["0"]]]},
     "matrix for {} is singular"),
    ("aomoto-betti", lambda v: {"connection": json.loads(CURVE_FLAT),
                                "theta": dict(SL2_BROKEN,
                                              lie=sl2_labelled(v))},
     "bracket compatibility fails: [{},E21]; [E21,H1]"),
    ("aomoto-betti", lambda v: {"connection": {
        "cdga": "compact_curve(1)", "coeffs": [["1"], ["2"]], "lie": {
            "name": v, "dim": 1, "basis": ["x"], "brackets": []}}},
     "no defining representation wired for {}"),
], ids=["target", "twist", "relator-token", "singular-generator",
        "lie-label", "lie-name"])
@pytest.mark.parametrize("value", ["c1", "c" * 10 ** 6],
                         ids=["short", "1MB"])
def test_group_and_lie_errors_echo_a_bounded_value(command, doc, message,
                                                   value, capsys):
    assert main([command, "--input", json.dumps(doc(value))]) == 2
    err = capsys.readouterr().err
    if value == "c1":
        assert err == f"error: {message.format(value)}\n"
    assert err.startswith("error: " + message.partition("{")[0])
    assert len(err.encode()) < 1024


def two_form_model(**parts):
    """A document with two one-forms and one two-form, plus ``parts``."""
    return {"model": dict({"name": "pt", "top_degree": 2,
                           "basis": [["1"], ["a", "b"], ["om"]]}, **parts)}


KNOWN = ", ".join(scenarios.RUNNERS)


@pytest.mark.parametrize("argv, message", [
    (lambda v: ["cohomology", "--input", json.dumps(two_form_model(mult=[
        {"i": [1, v], "j": [1, v], "out": []}]))],
     "product key (1,{0},1,{0}) out of range"),
    (lambda v: ["cohomology", "--input", json.dumps(two_form_model(mult=[
        {"i": [1, 0], "j": [1, 1],
         "out": [{"deg": 2, "idx": v, "coef": "1"}]}]))],
     "product (1,0)*(1,1) hits bad index {0}"),
    (lambda v: ["cohomology", "--input", json.dumps(two_form_model(mult=[
        {"i": [v, 0], "j": [v, 1],
         "out": [{"deg": 2, "idx": 0, "coef": "1"}]}]))],
     "product ({0},0)*({0},1) lands in degree 2, expected {1}"),
    (lambda v: ["cohomology", "--input", json.dumps(two_form_model(diff=[
        {"deg": v, "matrix": []}]))],
     "differential degree {0} out of range"),
    (lambda v: ["scenario", "x" * 25 * len(str(v))],
     "unknown scenario '{2}'; known: " + KNOWN),
], ids=["product-key", "bad-index", "lands-in-degree", "differential-degree",
        "scenario-name"])
@pytest.mark.parametrize("value", [5, 10 ** 4000 - 1],
                         ids=["short", "4000-digits"])
def test_model_and_scenario_errors_echo_a_bounded_integer(argv, message,
                                                         value, capsys):
    assert main(argv(value)) == 2
    err = capsys.readouterr().err
    if value == 5:
        assert err == "error: " + message.format(5, 10, "x" * 25) + "\n"
    assert err.startswith("error: " + message.partition("{")[0])
    assert err.count("\n") == 1 and len(err.encode()) < 1024


CURVE_SL2 = {"cdga": "compact_curve(1)", "lie": "sl(2)"}


SCALAR_NOT_BOOLEAN = "error: scalar must be a string or an integer, got True\n"


@pytest.mark.parametrize("command, doc, message", [
    ("mc-check", lambda v: dict(CURVE_SL2, coeffs=[[v, 0, 0], [0, 0, 0]]),
     SCALAR_NOT_BOOLEAN),
    ("cohomology", lambda v: {"model": {
        "normals": [[1, 0, 0], [0, 1, 0], [v, 1, 0]]}}, SCALAR_NOT_BOOLEAN),
    ("cohomology", lambda v: {"model": {
        "name": "pt", "top_degree": v, "basis": [["1"], ["a"]]}}, None),
    ("validate", lambda v: {"dim": v, "basis": ["x"], "brackets": []}, None),
    ("aomoto-betti", lambda v: {
        "connection": {"cdga": "compact_curve(1)", "lie": "abelian(1)",
                       "coeffs": [["1"], ["2"]]},
        "theta": {"lie": "abelian(1)", "dim": v, "matrices": [[[v]]]}},
     None),
], ids=["coeffs", "normals", "top-degree", "lie-dim", "rep-dim"])
def test_a_json_boolean_is_not_a_number(command, doc, message, capsys):
    # Python's bool is an int; the same document with 1 is accepted
    assert main([command, "--input", json.dumps(doc(1))]) == 0
    capsys.readouterr()
    assert main([command, "--input", json.dumps(doc(True))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(" True\n")
    assert err.count("\n") == 1 and len(err.encode()) < 1024
    if message is not None:
        assert err == message


@pytest.mark.parametrize("command, doc", [
    ("fox", {"group": "surface(1)", "target": "SL", "matrices": [[], []]}),
    ("fox", {"group": "surface(1)", "target": "SL", "twist": "adjoint",
             "matrices": [[], []]}),
    ("tangent", {"group": "surface(1)", "target": "SL",
                 "matrices": [[], []]}),
    ("fox", {"group": {"generators": [], "relators": []}, "target": "SL",
             "matrices": []}),
], ids=["defining", "adjoint", "tangent", "no-generators"])
def test_a_group_representation_needs_a_matrix_with_rows(command, doc,
                                                         capsys):
    assert main([command, "--input", json.dumps(doc)]) == 2
    assert capsys.readouterr().err == \
        "error: need at least one matrix of at least one row\n"


def test_relation_check_cli(capsys):
    pres = json.dumps({
        "presentation": {"generators": ["a", "b"],
                         "relations": [{"lin": ["0", "0"],
                                        "quad": [{"k": 0, "l": 1,
                                                  "coef": "1"}]}]},
        "lie": "sl(2)",
        "assignment": [["1", "0", "0"], ["2", "0", "0"]],
    })
    assert main(["relation-check", "--input", pres]) == 0
    capsys.readouterr()
    bad = json.loads(pres)
    bad["assignment"] = [["1", "0", "0"], ["0", "1", "0"]]
    assert main(["relation-check", "--input", json.dumps(bad)]) == 1
    capsys.readouterr()


POINT = {"name": "pt", "top_degree": 0, "basis": [["1"]], "diff": {},
         "mult": {}}


def test_a_model_without_degree_one(capsys):
    # no one-forms: a presentation with no generators and no relations
    assert main(["holonomy", "--json", "--input",
                 json.dumps({"model": POINT})]) == 0
    assert json.loads(capsys.readouterr().out) == \
        {"generators": [], "relations": []}
    doc = {"model": POINT, "lie": "sl(2)", "assignment": []}
    assert main(["relation-check", "--input", json.dumps(doc)]) == 0
    assert capsys.readouterr().out == "all relations hold\n"


def test_pullback_round_trip(capsys):
    payload = json.dumps({
        "morphism": "curve_inclusion(1)",
        "connection": json.loads(CURVE_FLAT),
    })
    assert main(["pullback", "--input", payload, "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["coeffs"][2] == ["0", "0", "0"]  # the t row stays zero
    assert main(["mc-check", "--input", json.dumps(out)]) == 0
    capsys.readouterr()


def test_cohomology_and_rank_stay_numpy_free():
    # A fresh interpreter, because other tests import numpy into this one.
    code = "\n".join([
        "import sys",
        "from jumploci.cli import main",
        "from jumploci.linalg import Matrix, rank",
        "from jumploci.scalars import GF",
        "assert main(['cohomology', '--input', "
        "'{\"model\": \"surface(2)\"}']) == 0",
        "assert rank(Matrix(GF(2 ** 31 - 1), [[1, 2], [3, 4], [4, 6]])) == 2",
        "assert 'numpy' not in sys.modules, 'numpy was imported'",
    ])
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "betti" in done.stdout
