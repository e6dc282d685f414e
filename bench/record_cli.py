"""Write bench/cli_cases.json: the benchmark's CLI inputs with the exit code
and stdout the library prints for each.

The recorded outputs are expectations, so record them once, from a commit
whose CLI output is known good, and commit the file:

    python3 bench/record_cli.py

Inputs use only untruncated models, so that reporting fixes on truncated
models do not change them.  Every subcommand appears at least once.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import CLI_CASES, run_cli  # noqa: E402

E, F = ["1", "0", "0"], ["0", "1", "0"]
ZERO = ["0", "0", "0"]
# compact_curve(2) x sl(2): rows (E, F, F, E) are flat of coefficient rank 2
EFFE = {"cdga": "compact_curve(2)", "lie": "sl(2)", "coeffs": [E, F, F, E]}
# a rank-one flat point eta (x) E with eta = (1, 2, 0, 1)
RANK_ONE = {"cdga": "compact_curve(2)", "lie": "sl(2)",
            "coeffs": [E, ["2", "0", "0"], ZERO, E]}
SHEAR = [[["1", "1"], ["0", "1"]], [["1", "0"], ["1", "1"]]]
SURFACE2_REP = {"group": "surface(2)", "target": "SL",
                "matrices": [SHEAR[0], SHEAR[1], SHEAR[1], SHEAR[0]]}
SURFACE1_REP = {"group": "surface(1)", "target": "SL",
                "matrices": [[["1", "1"], ["0", "1"]],
                             [["1", "2"], ["0", "1"]]]}
CENSUS_F3 = {"cdga": "surface(1)", "lie": "sl(2)"}
TWISTED_SMALL = {"connection": EFFE, "theta": "adjoint(sl(2))"}


def arg(obj):
    return json.dumps(obj, sort_keys=True)


IN_PROCESS = [
    ["validate", "--input", arg({"model": "surface(2)"})],
    ["cohomology", "--input", arg({"model": "surface(2)"}), "--json"],
    ["cohomology", "--input", arg({"model": "compact_curve(2)"}),
     "--field", "fp:7"],
    ["mc-check", "--input", arg(EFFE)],
    ["mc-check", "--input", arg(RANK_ONE), "--field", "f5"],
    ["f1", "--input", arg(RANK_ONE)],
    ["pi", "--input", arg(RANK_ONE), "--json"],
    ["pullback", "--input",
     arg({"morphism": "curve_inclusion(2)", "connection": RANK_ONE}),
     "--json"],
    ["tangent", "--input", arg(EFFE), "--json"],
    ["tangent", "--input", arg(SURFACE2_REP), "--json"],
    ["brute-force", "--field", "f3", "--input", arg(CENSUS_F3), "--json"],
    ["holonomy", "--input", arg({"model": "surface(2)"}), "--json"],
    ["relation-check", "--input",
     arg({"model": "compact_curve(2)", "lie": "sl(2)",
          "assignment": [E, F, F, E]}), "--json"],
    ["aomoto-betti", "--input", arg(TWISTED_SMALL), "--json"],
    ["resonance", "--input",
     arg({"connection": RANK_ONE, "degree": 1, "depth": 1})],
    ["depth-gap", "--json"],
    ["fox", "--input", arg(SURFACE1_REP), "--json"],
    ["rep-check", "--input", arg(SURFACE1_REP)],
    ["scenario", "list", "--json"],
]

# The fresh-process command whose wall time is cli_cold_s.
COLD = ["cohomology", "--input", arg({"model": "surface(2)"}), "--json"]


def record(argv):
    code, stdout = run_cli(argv)
    return {"argv": argv, "code": code, "stdout": stdout}


def main():
    cases = {"in_process": [record(a) for a in IN_PROCESS],
             "cold": record(COLD)}
    with CLI_CASES.open("w", encoding="utf-8") as fh:
        json.dump(cases, fh, indent=1, sort_keys=True)
        fh.write("\n")
    codes = [c["code"] for c in cases["in_process"]]
    print(f"wrote {CLI_CASES.name}: {len(codes)} in-process cases, exit "
          f"codes {codes}, and the cold case")


if __name__ == "__main__":
    main()
