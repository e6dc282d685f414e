"""Self-tests of the benchmark itself, from the repository root:

    python3 bench/selftest.py

They check that inputs repeat per seed, that tracing changes no output and
puts every binding back, that a wrong expectation raises ``fail_ratio``,
that BENCHMARK.json matches what the benchmark prints, and that the
benchmark refuses to run without the library source.  About half a minute.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from jumploci.liealg import build_sl  # noqa: E402
from jumploci.models import build_surface_model  # noqa: E402
from jumploci.scalars import GF  # noqa: E402

SMALL_TWISTED = "tensor(compact_curve(1),compact_curve(2))"


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args],
                          capture_output=True, text=True, cwd=cwd,
                          timeout=170)


def bindings():
    """Identity snapshot of every name, container slot and traced method
    the tracer may patch."""
    snap = {}
    modules = tracing.library_modules() + [workloads]
    for mod in modules:
        for name, value in vars(mod).items():
            snap[(mod.__name__, name)] = value
            if isinstance(value, (dict, list)):
                items = value.items() if isinstance(value, dict) \
                    else enumerate(value)
                for k, v in items:
                    snap[(mod.__name__, name, k)] = v
    by_short = {m.__name__.rpartition(".")[2]: m for m in modules}
    for short, cls_name, attr in tracing.METHODS:
        cls = getattr(by_short[short], cls_name)
        snap[(short, cls_name, attr)] = vars(cls)[attr]
    for cls_name in ("Rationals", "PrimeField"):
        cls = getattr(by_short["scalars"], cls_name)
        for op in tracing.SCALAR_OPS:
            snap[("scalars", cls_name, op)] = vars(cls)[op]
    return snap


def traced(fn, *args):
    tracer = tracing.Tracer()
    tracer.install(callers=[workloads])
    try:
        return fn(*args), tracer
    finally:
        tracer.uninstall()


class InputTests(unittest.TestCase):
    def test_same_seed_same_fingerprint(self):
        for name in ("census", "twisted-q", "twisted-fp", "catalog"):
            wl = workloads.WORKLOADS[name]
            with self.subTest(workload=name):
                self.assertEqual(wl.fingerprint(wl.setup(3)),
                                 wl.fingerprint(wl.setup(3)))

    def test_seed_changes_twisted_point(self):
        wl = workloads.WORKLOADS["twisted-q"]
        self.assertNotEqual(wl.fingerprint(wl.setup(0)),
                            wl.fingerprint(wl.setup(1)))

    def test_every_field_gets_the_same_integers(self):
        q = workloads.WORKLOADS["twisted-q"].setup(5)["key"]
        conn = workloads.twisted_build(q["spec"], GF(2 ** 31 - 1), q["eta"],
                                       q["x"])[0]
        want = [[(e * v) % (2 ** 31 - 1) for v in q["x"]] for e in q["eta"]]
        self.assertEqual(conn.coeffs.to_lists(), want)

    def test_heights_do_not_depend_on_seed(self):
        spec = workloads.WORKLOADS["twisted-q"].spec
        seen = {tuple(sorted(map(abs, eta))) + tuple(sorted(map(abs, x)))
                for eta, x in (workloads.twisted_point(spec, s)
                               for s in range(4))}
        self.assertEqual(len(seen), 1)


class TracingTests(unittest.TestCase):
    def test_traced_outputs_equal_untraced(self):
        cat = workloads.WORKLOADS["catalog"]
        inputs = cat.setup(0)
        self.assertEqual(traced(cat.run, inputs)[0], cat.run(inputs))

        eta, x = workloads.twisted_point(SMALL_TWISTED, 1)
        for field in ("q", "fp:2147483647"):
            f = workloads.field_from_tag(field)
            args = workloads.twisted_build(SMALL_TWISTED, f, eta, x)
            self.assertEqual(traced(workloads.twisted_pass, *args)[0],
                             workloads.twisted_pass(*args))

        f3 = GF(3)
        model, lie = build_surface_model(f3, 1), build_sl(f3, 2)
        out, tracer = traced(lambda: [c.coeffs.rows for c in
                                      workloads.brute_force_flat(model, lie)])
        self.assertEqual(out, [c.coeffs.rows for c in
                               workloads.brute_force_flat(model, lie)])
        self.assertEqual(tracer.summary()["flatconn.brute_force_flat"]
                         ["calls"], 1)

    def test_wrappers_reach_every_binding(self):
        import jumploci.aomoto as aomoto
        import jumploci.linalg as linalg
        import jumploci.scenarios as scenarios
        tracer = tracing.Tracer()
        tracer.install(callers=[workloads])
        try:
            self.assertIsNot(aomoto.rank, linalg.rank.__wrapped__)
            self.assertIs(aomoto.rank, linalg.rank)
            self.assertTrue(all(hasattr(fn, "__wrapped__")
                                for _, fn in scenarios.CATALOG))
            self.assertTrue(hasattr(workloads.brute_force_flat,
                                    "__wrapped__"))
        finally:
            tracer.uninstall()

    def test_wrappers_restore_every_binding(self):
        before = bindings()
        for cls in (tracing.Tracer, tracing.OpCounter):
            probe = cls()
            patches = probe.install(callers=[workloads])
            self.assertGreater(len(patches), 0)
            self.assertNotEqual(bindings(), before)
            self.assertEqual(probe.uninstall(), [])
            after = bindings()
            self.assertEqual(after.keys(), before.keys())
            moved = [k for k in before if after[k] is not before[k]]
            self.assertEqual(moved, [])


class CheckTests(unittest.TestCase):
    def fail_ratio(self, checks):
        return sum(not ok for _, ok in checks) / len(checks)

    def test_wrong_expectation_raises_fail_ratio(self):
        cat = workloads.WORKLOADS["catalog"]
        inputs = cat.setup(0)
        out = cat.run(inputs)
        self.assertEqual(self.fail_ratio(cat.check(inputs, out)), 0)
        inputs["cases"][0]["stdout"] += "tampered\n"
        self.assertGreater(self.fail_ratio(cat.check(inputs, out)), 0)

        census = workloads.WORKLOADS["census"]
        inputs = census.setup(0)
        good = list(inputs["golden"]["solution_indices"])
        self.assertEqual(self.fail_ratio(census.check(inputs, good)), 0)
        inputs["golden"]["count"] += 1
        self.assertGreater(self.fail_ratio(census.check(inputs, good)), 0)


class BenchmarkJsonTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with (ROOT / "BENCHMARK.json").open() as fh:
            cls.spec = json.load(fh)

    def test_every_workload_has_a_reason(self):
        names = [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(names, list(workloads.WORKLOADS))
        self.assertTrue(all(w["why"].strip() for w in self.spec["workloads"]))

    def test_every_layer_metric_names_what_it_moves(self):
        names = [m["name"] for m in self.spec["per_layer"]]
        self.assertEqual(sorted(names), sorted(layers.MOVES))

    def test_printed_metrics_match(self):
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            done = run_bench("--workload", "catalog", "--seed", "0",
                             "--seconds", "1", "--trace", trace)
            self.assertEqual(done.returncode, 0, done.stderr)
            res = json.loads(done.stdout.strip().splitlines()[-1])
            self.assertTrue(res["correct"])
            self.assertEqual({k: v["unit"] for k, v in res["metrics"].items()},
                             {m["name"]: m["unit"] for m in self.spec[key]})

    def test_refuses_without_library_source(self):
        bare = ROOT / ".bench_out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "bench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in BENCH.iterdir():
            if path.is_file():
                shutil.copy(path, bare / "bench")
        try:
            done = run_bench("--workload", "census", "--seed", "0",
                             "--seconds", "1", "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"metrics"', done.stdout)


if __name__ == "__main__":
    unittest.main()
