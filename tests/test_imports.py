"""Every imported name is used: with no linter in the toolchain, this test
scans the package modules and the tests with ``ast``.  And the CLI imports
none of the modules that would slow every cold start."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for p in (ROOT / "src" / "jumploci").glob("*.py")
                 if p.name != "__init__.py") + sorted(
                     (ROOT / "tests").glob("*.py"))


def unused_imports(source):
    """Names bound by the imports of ``source`` that no expression reads.
    A dotted ``import a.b`` binds ``a``, which ``a.b.c`` reads."""
    tree = ast.parse(source)
    bound = {alias.asname or alias.name.partition(".")[0]
             for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names if alias.name != "*"}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_the_scan_sees_an_unused_import():
    assert unused_imports("from __future__ import annotations\n"
                          "import os.path, sys as system\n"
                          "from math import gcd, lcm\n"
                          "os.path.join(system.argv[0], str(gcd))\n") \
        == ["lcm"]


@pytest.mark.parametrize("path", SOURCES,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# dataclasses pulls in inspect, ast, dis and tokenize; importlib.resources
# pulls in pathlib, tempfile, typing and the compression modules; numpy and
# the thread pool belong to the census, which imports them when it runs
SLOW_IMPORTS = ("dataclasses", "inspect", "typing", "importlib.resources",
                "numpy", "concurrent.futures")


def test_the_cli_imports_no_slow_module():
    # -S: no site, so a module that a .pth file preloads cannot hide one
    # that the package imports itself
    code = ("import json, sys, jumploci.cli; print(json.dumps(sorted("
            f"set({SLOW_IMPORTS!r}) & set(sys.modules))))")
    run = subprocess.run([sys.executable, "-S", "-c", code],
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                         capture_output=True, text=True, check=True)
    assert json.loads(run.stdout) == []
