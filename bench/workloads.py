"""The benchmark's four workloads.

Each workload builds its inputs from the seed (``setup``), runs one pass
through the library (``run``), and checks a pass's outputs against
expectations that do not come from the pass itself (``check``).  ``check``
runs outside every timed region.  Only numbers the library will keep are
checked: no top-degree Betti number or Euler characteristic of a model cut
off at degree 3, and the CLI sees only untruncated models.

Importing this module imports the library; the benchmark times that import
as part of set-up.
"""

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

import jumploci
from jumploci import cli
from jumploci.aomoto import AomotoComplex
from jumploci.flatconn import (FlatConnection, brute_force_flat, lex_index,
                               tangent_dimension)
from jumploci.liealg import build_sl, rep_adjoint
from jumploci.models import build_surface_model
from jumploci.scalars import GF, QQ, field_from_tag
from jumploci.scenarios import CATALOG, run_all
from jumploci.serialize import resolve_model

BENCH_DIR = Path(__file__).resolve().parent
DATA_DIR = Path(jumploci.__file__).resolve().parent / "data"
CLI_CASES = BENCH_DIR / "cli_cases.json"

P31 = f"fp:{2 ** 31 - 1}"
P31_ALT = f"fp:{2 ** 31 - 19}"


def fingerprint(obj):
    """sha256 of a canonical JSON encoding of the generated inputs."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_cli_cases():
    with CLI_CASES.open(encoding="utf-8") as fh:
        return json.load(fh)


def run_cli(argv):
    """cli.main in-process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue()


def cli_checks(label, cases, results):
    """One check per case: exit code and stdout equal the recorded ones."""
    return [(f"{label} {' '.join(c['argv'][:2])} #{i}",
             r == (c["code"], c["stdout"]))
            for i, (c, r) in enumerate(zip(cases, results))]


# ------------------------------------------------------------------ census

class Census:
    """Exhaustive F5 flat census of surface(1) x sl(2), jobs=1.

    The input is fixed by the frozen golden census, so the seed does not
    change it.  The numpy scan in ``flatconn`` does nearly all the work and
    ``linalg`` none.
    """

    name = "census"
    parallel = True
    p = 5

    def setup(self, seed):
        import numpy  # noqa: F401  (the scan's first call imports it)
        f = GF(self.p)
        with (DATA_DIR / "census_surface_g1_sl2_f5.json").open() as fh:
            golden = json.load(fh)
        return {"seed": seed, "model": build_surface_model(f, 1),
                "lie": build_sl(f, 2), "golden": golden,
                "key": {"model": "surface(1)", "lie": "sl(2)",
                        "field": f"fp:{self.p}"}}

    def warmup(self, inputs):
        f = GF(3)
        brute_force_flat(build_surface_model(f, 1), build_sl(f, 2))

    def run(self, inputs, jobs=1):
        flats = brute_force_flat(inputs["model"], inputs["lie"], jobs=jobs)
        return [lex_index(c, self.p) for c in flats]

    def check(self, inputs, out):
        golden, p = inputs["golden"], self.p
        model, lie = inputs["model"], inputs["lie"]
        kdim = model.dim(1) * lie.dim
        dg = lie.dim
        expected = set()
        for xi in range(p ** dg):
            x = [(xi // p ** (dg - 1 - t)) % p for t in range(dg)]
            for yi in range(p ** dg):
                y = [(yi // p ** (dg - 1 - t)) % p for t in range(dg)]
                if lie.is_zero_vector(lie.bracket(x, y)):
                    expected.add(tuple(x) + tuple(y) + (0,) * dg)
        got = {tuple((i // p ** (kdim - 1 - t)) % p for t in range(kdim))
               for i in out}
        return [("census: candidates field is p^k",
                 golden["candidates"] == p ** kdim),
                ("census: flat count equals the golden count",
                 len(out) == golden["count"]),
                ("census: index list equals the golden list",
                 out == golden["solution_indices"]),
                ("census: flat set is {(x, y, 0) : [x, y] = 0}",
                 got == expected)]

    def fingerprint(self, inputs):
        return fingerprint(inputs["key"])


# ---------------------------------------------------------------- twisted

X_HEIGHTS = range(1, 9)


def signed_shuffle(rng, heights):
    """The heights in seeded order with seeded signs.

    The multiset of absolute values is fixed, so entry heights, which set
    the cost of Fraction elimination, do not depend on the seed.  Distinct
    heights keep the point generic: with repeated values, accidental
    cancellations change the fill-in and the work by up to 20 % from seed
    to seed.
    """
    values = list(heights)
    rng.shuffle(values)
    return [v * rng.choice((-1, 1)) for v in values]


def twisted_point(spec, seed):
    """Integer rows of a rank-one flat point eta (x) x on the model spec.

    eta is a combination of a basis of cocycles(1) over Q with coefficients
    +-1..+-n, and x a vector in sl(3) with entries +-1..+-8; every field
    gets the same integers.
    """
    rng = random.Random(seed)
    cocycles = resolve_model(QQ, spec).cocycles(1)
    coef = signed_shuffle(rng, range(1, len(cocycles) + 1))
    x = signed_shuffle(rng, X_HEIGHTS)
    eta = [sum(c * v for c, v in zip(coef, col)) for col in zip(*cocycles)]
    if any(e.denominator != 1 for e in eta):
        raise ValueError("cocycle basis is not integral")
    eta = [int(e) for e in eta]
    return eta, x


def twisted_build(spec, field, eta, x):
    model = resolve_model(field, spec)
    lie = build_sl(field, 3)
    conn = FlatConnection.from_rows(model, lie,
                                    [[e * v for v in x] for e in eta])
    return conn, rep_adjoint(lie)


def twisted_pass(conn, theta):
    """Twisted Betti numbers below the top degree, and the tangent
    dimension.  ``betti_all`` still computes every degree."""
    betti = AomotoComplex(conn, theta).betti_all()
    return {"betti": list(betti[:conn.cdga.top_degree]),
            "tangent": tangent_dimension(conn)}


class Twisted:
    """Adjoint sl(3) twisted complex and tangent space at a rank-one flat
    point, over one field, checked against the same integer point over
    another field."""

    parallel = False

    def __init__(self, name, spec, field, check_field, square_check):
        self.name, self.spec = name, spec
        self.field, self.check_field = field, check_field
        self.square_check = square_check

    def setup(self, seed):
        eta, x = twisted_point(self.spec, seed)
        field = field_from_tag(self.field)
        conn, theta = twisted_build(self.spec, field, eta, x)
        return {"seed": seed, "conn": conn, "theta": theta,
                "key": {"spec": self.spec, "field": self.field,
                        "eta": eta, "x": x}}

    def warmup(self, inputs):
        spec = "tensor(compact_curve(1),compact_curve(1))"
        eta, x = twisted_point(spec, inputs["seed"])
        twisted_pass(*twisted_build(spec, field_from_tag(self.field), eta, x))

    def run(self, inputs):
        return twisted_pass(inputs["conn"], inputs["theta"])

    def check(self, inputs, out):
        key = inputs["key"]
        other = twisted_pass(*twisted_build(
            self.spec, field_from_tag(self.check_field), key["eta"], key["x"]))
        tag = self.check_field
        checks = [(f"{self.name}: b0..b{len(out['betti']) - 1} equal "
                   f"those over {tag}", out["betti"] == other["betti"]),
                  (f"{self.name}: tangent dimension equals that over {tag}",
                   out["tangent"] == other["tangent"])]
        if self.square_check:
            comp = AomotoComplex(inputs["conn"], inputs["theta"])
            checks.append((f"{self.name}: the twisted differential squares "
                           "to zero", comp.square_is_zero()))
        return checks

    def fingerprint(self, inputs):
        return fingerprint(inputs["key"])


# ---------------------------------------------------------------- catalog

class Catalog:
    """The 8 catalog scenarios at the seed, then every CLI subcommand
    through cli.main in-process on small fixed inputs."""

    name = "catalog"
    parallel = False

    def setup(self, seed):
        return {"seed": seed, "cases": load_cli_cases()["in_process"]}

    def warmup(self, inputs):
        self.run(inputs)

    def run(self, inputs):
        reports = run_all(seed=inputs["seed"])
        return {"scenarios": [[r.name, r.holds] for r in reports],
                "cli": [list(run_cli(c["argv"])) for c in inputs["cases"]]}

    def check(self, inputs, out):
        checks = [(f"catalog: scenario {name} holds", holds)
                  for name, holds in out["scenarios"]]
        checks.append(("catalog: all 8 scenarios ran",
                       len(out["scenarios"]) == 8))
        return checks + cli_checks("catalog: cli", inputs["cases"],
                                   [tuple(r) for r in out["cli"]])

    def fingerprint(self, inputs):
        return fingerprint({"seed": inputs["seed"],
                            "cases": [c["argv"] for c in inputs["cases"]]})


def scenario_runners():
    """(catalog name, runner function name) for each scenario."""
    return [(name, fn.__name__) for name, fn in CATALOG]


WORKLOADS = {w.name: w for w in (
    Census(),
    Twisted("twisted-q", "tensor(compact_curve(3),compact_curve(3))", "q",
            P31, square_check=True),
    Twisted("twisted-fp", "tensor(compact_curve(5),compact_curve(5))",
            P31, P31_ALT, square_check=False),
    Catalog(),
)}
