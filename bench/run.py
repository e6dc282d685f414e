"""jumploci benchmark: one workload per process, from the repository root.

    python3 bench/run.py --workload census --seed 0 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 15 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics: set-up time (a
fresh import plus input construction, sampled in child processes), the
median in-process time of one pass after a warm-up, repeated for
``--seconds``, peak RSS, and the wall time of a fresh CLI process.  With
``--trace 1`` it measures the per-layer metrics instead: one untraced pass,
one pass traced by spans at the library's public functions, and one pass
that counts scalar operations.  Outputs are checked outside every timed
region; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Seed, machine facts and the
input fingerprint go to the line before it and to ``.bench_out/``.

Compare runs only at equal seeds: the seed picks the twisted points and
the scenarios' random draws.  Per-layer metrics of a layer that does not
run on a workload read 0.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("census", "twisted-q", "twisted-fp", "catalog")
SETUP_CHILDREN = 4      # plus the run's own set-up: five samples
COLD_SAMPLES = 10
CHILD_TIMEOUT = 120

# Per-layer metrics read straight off one span: (span name, "calls" or
# "self_s").
SPAN_METRICS = (
    ("linalg.rref", "calls"), ("linalg.rref", "self_s"),
    ("linalg.Matrix", "calls"), ("linalg.Matrix", "self_s"),
    ("linalg.matmul", "self_s"),
    ("aomoto.aomoto_matrix", "calls"), ("aomoto.aomoto_matrix", "self_s"),
    ("aomoto.betti", "calls"),
    ("flatconn.brute_force_flat", "self_s"),
    ("flatconn.tangent_dimension", "self_s"),
    ("flatconn.mc_residual", "calls"), ("flatconn.mc_residual", "self_s"),
    ("holonomy.relation_check_mask", "self_s"),
    ("holonomy.relation_check", "calls"),
    ("holonomy.holonomy_presentation", "self_s"),
    ("grouprep.twisted_cohomology", "self_s"),
    ("grouprep.fox_derivative", "calls"),
    ("grouprep.fox_derivative", "self_s"),
    ("cdga.product_basis", "calls"),
    ("cdga.tensor_product_with_inclusions", "self_s"),
    ("liealg.bracket", "calls"),
    ("sampling.sample_flat", "self_s"),
    ("cli.main", "self_s"),
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def load(workload, seed):
    """Import the library from this checkout and build the inputs; the
    elapsed time is one set-up sample."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads
    import jumploci
    if not Path(jumploci.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"jumploci was imported from {jumploci.__file__}, "
                          f"not from {SRC}")
    wl = workloads.WORKLOADS[workload]
    inputs = wl.setup(seed)
    return wl, inputs, time.perf_counter() - t0


def setup_samples(args, count):
    """Set-up times of ``count`` fresh child processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    samples = []
    for _ in range(count):
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              env=child_env(), timeout=CHILD_TIMEOUT,
                              check=True)
        samples.append(float(done.stdout.split()[-1]))
    return samples


def cold_cli(case, count):
    """Run the CLI in ``count`` fresh processes; returns the wall times and
    the (exit code, stdout) of each."""
    cmd = [sys.executable, "-m", "jumploci.cli"] + case["argv"]
    times, results = [], []
    for _ in range(count):
        t0 = time.perf_counter()
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              env=child_env(), timeout=CHILD_TIMEOUT)
        times.append(time.perf_counter() - t0)
        results.append((done.returncode, done.stdout))
    return times, results


def cold_import_s(samples):
    """Median time to import jumploci.cli in a fresh interpreter, timed
    inside the child, so interpreter start-up is left out."""
    code = ("import time; t = time.perf_counter(); import jumploci.cli; "
            "print(time.perf_counter() - t)")
    out = []
    for _ in range(samples + 1):    # the first run compiles bytecode
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              env=child_env(), capture_output=True, text=True,
                              check=True, timeout=CHILD_TIMEOUT)
        out.append(float(done.stdout))
    return statistics.median(out[1:])


def machine_facts():
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "cpu": cpu}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_passes(wl, inputs, seconds):
    """Passes until ``seconds`` have elapsed, at least two."""
    times, outs = [], []
    start = time.perf_counter()
    while len(times) < 2 or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        out = wl.run(inputs)
        times.append(time.perf_counter() - t0)
        outs.append(out)
    return times, outs


def measure(args, wl, inputs, own_setup):
    """End-to-end metrics and checks for one workload.

    Set-up and cold-CLI samples are taken half before and half after the
    timed passes, so their medians span the whole run.
    """
    import workloads
    cold_case = workloads.load_cli_cases()["cold"]
    _, cold_results = cold_cli(cold_case, 1)    # compiles bytecode
    setup = [own_setup] + setup_samples(args, SETUP_CHILDREN // 2)
    cold_times, more = cold_cli(cold_case, COLD_SAMPLES // 2)
    cold_results += more
    wl.warmup(inputs)
    times, outs = timed_passes(wl, inputs, args.seconds)
    peak = peak_rss_mb()    # before the checks, which build their own data
    setup += setup_samples(args, SETUP_CHILDREN - SETUP_CHILDREN // 2)
    more_times, more = cold_cli(cold_case, COLD_SAMPLES - COLD_SAMPLES // 2)
    cold_times += more_times
    cold_results += more
    checks = wl.check(inputs, outs[0])
    checks += [(f"pass {i} output equals pass 0", out == outs[0])
               for i, out in enumerate(outs[1:], 1)]
    checks += workloads.cli_checks(f"{wl.name}: cold cli",
                                   [cold_case] * len(cold_results),
                                   cold_results)
    metrics = {
        "wall_s": (statistics.median(times), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak, "MB"),
        "cli_cold_s": (statistics.median(cold_times), "s"),
    }
    detail = {"pass_s": times, "setup_samples_s": setup,
              "cli_cold_samples_s": cold_times}
    return metrics, checks, detail


def layer_metrics(args, wl, inputs):
    """Per-layer metrics from one traced and one counting pass."""
    import tracing
    import workloads
    wl.warmup(inputs)
    t0 = time.perf_counter()
    reference = wl.run(inputs)
    untraced = time.perf_counter() - t0

    hooks = {
        "linalg.rref": lambda a, out, c: c.update(
            rref_entries=a["m"].nrows * a["m"].ncols),
        "flatconn.brute_force_flat": lambda a, out, c: c.update(
            candidates=a["cdga"].field.p ** (a["cdga"].dim(1)
                                             * a["lie"].dim),
            hits=len(out)),
    }
    tracer = tracing.Tracer(hooks)
    tracer.install(callers=[workloads])
    try:
        with tracer.span("setup"):
            traced_inputs = wl.setup(args.seed)
        t0 = time.perf_counter()
        with tracer.span("pass"):
            traced_out = wl.run(traced_inputs)
        traced = time.perf_counter() - t0
    finally:
        trace_unrestored = tracer.uninstall()

    counter = tracing.OpCounter()
    counter.install(callers=[workloads])
    try:
        counted_out = wl.run(inputs)
    finally:
        count_unrestored = counter.uninstall()

    checks = wl.check(inputs, reference)
    checks += [
        ("traced pass output equals the untraced one",
         traced_out == reference),
        ("counting pass output equals the untraced one",
         counted_out == reference),
        ("traced set-up gives the same input fingerprint",
         wl.fingerprint(traced_inputs) == wl.fingerprint(inputs)),
        ("span wrappers restored every binding", not trace_unrestored),
        ("op counters restored every binding", not count_unrestored),
    ]

    jobs1 = jobs2 = 0.0
    if wl.parallel:
        t0 = time.perf_counter()
        out2 = wl.run(inputs, jobs=2)
        jobs1, jobs2 = untraced, time.perf_counter() - t0
        checks.append(("jobs=2 output equals jobs=1", out2 == reference))

    spans = tracer.summary()
    c = tracer.counters

    def stat(name, key):
        return spans.get(name, {}).get(key, 0 if key == "calls" else 0.0)

    def self_sum(prefix):
        return sum((v["self_s"] for k, v in spans.items()
                    if k.startswith(prefix)), 0.0)

    m = {f"{span}.{key}": (stat(span, key),
                           "count" if key == "calls" else "s")
         for span, key in SPAN_METRICS}
    bff_total = stat("flatconn.brute_force_flat", "total_s")
    m.update({
        "linalg.rref.entries": (c["rref_entries"], "count"),
        "linalg.rank.distinct_ratio": (counter.distinct_rank_ratio(),
                                       "ratio"),
        "scalars.qq.ops": (counter.ops["qq"], "count"),
        "scalars.gf.ops": (counter.ops["gf"], "count"),
        "flatconn.census.candidates_per_s": (
            c["candidates"] / bff_total if bff_total else 0.0, "1/s"),
        "flatconn.census.hit_ratio": (
            c["hits"] / c["candidates"] if c["candidates"] else 0.0,
            "ratio"),
        "flatconn.census.jobs1_s": (jobs1, "s"),
        "flatconn.census.jobs2_s": (jobs2, "s"),
        "flatconn.census.jobs2_speedup": (jobs1 / jobs2 if jobs2 else 0.0,
                                          "ratio"),
        "models.build.self_s": (self_sum("models.build_"), "s"),
        "serialize.resolve.self_s": (self_sum("serialize.resolve_"), "s"),
        "cli.import_s": (cold_import_s(COLD_SAMPLES), "s"),
        "trace.untraced_wall_s": (untraced, "s"),
        "trace.traced_wall_s": (traced, "s"),
        "trace.overhead_s": (traced - untraced, "s"),
    })
    for name, fn in workloads.scenario_runners():
        m[f"scenarios.{name}.s"] = (stat(f"scenarios.{fn}", "total_s"), "s")
    detail = {"spans": len(tracer.spans), "span_summary": spans}
    return m, checks, detail, tracer.spans


def write_out(args, record, spans=None):
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with (OUT_DIR / f"{stem}.json").open("w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if spans is not None:
        with (OUT_DIR / f"{stem}-spans.jsonl").open("w",
                                                    encoding="utf-8") as fh:
            for name, start, end, parent in spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")


def run_one(args):
    try:
        wl, inputs, own_setup = load(args.workload, args.seed)
    except ImportError as exc:
        print(f"cannot import the library from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(f"{own_setup!r}")
        return 0
    spans = None
    if args.trace:
        metrics, checks, detail, spans = layer_metrics(args, wl, inputs)
    else:
        metrics, checks, detail = measure(args, wl, inputs, own_setup)
    failed = [name for name, ok in checks if not ok]
    info = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "machine": machine_facts(),
            "input_fingerprint": wl.fingerprint(inputs),
            "fail_ratio": len(failed) / len(checks),
            "failed_checks": failed, **detail}
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:10} {name:44} {value!r} {unit}")
    print(f"{args.workload:10} {'fail_ratio':44} {info['fail_ratio']!r} "
          f"({len(failed)} of {len(checks)} checks)")
    result = {"correct": not failed, "attempted": len(checks),
              "failed": len(failed),
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    write_out(args, {"info": info, "result": result}, spans)
    print(json.dumps({k: v for k, v in info.items() if k != "span_summary"},
                     sort_keys=True))
    print(json.dumps(result))
    return 0


def run_each(args):
    """Each workload in a fresh process; the combined result is last."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            return done.returncode or 1
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "jumploci" / "__init__.py").is_file():
        print(f"no library source at {SRC / 'jumploci'}", file=sys.stderr)
        return 2
    return run_each(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
