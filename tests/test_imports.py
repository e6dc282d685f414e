"""Every imported name is used, and every top-level definition of the
package, and every method of its classes, is read somewhere in the package
or the benchmark: with no linter in the toolchain, these tests scan the
sources with ``ast``.  And the CLI imports none of the modules that would
slow every cold start."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "jumploci").glob("*.py"))
SOURCES = [p for p in PACKAGE if p.name != "__init__.py"] + sorted(
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


def unread_definitions(modules, readers):
    """Top-level functions and classes of ``modules`` (name -> source), and
    the methods of those classes other than dunders, whose name no ``Name``
    load, attribute or ``from`` import in ``modules`` or ``readers`` reads.
    A name that ``__init__.py`` imports is read there."""
    trees = {module: ast.parse(source) for module, source in modules.items()}
    read = set()
    for tree in [*trees.values(), *map(ast.parse, readers)]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((f"{module}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                defined += [(f"{module}.{node.name}.{m.name}", m.name)
                            for m in node.body
                            if isinstance(m, ast.FunctionDef)
                            and not (m.name.startswith("__")
                                     and m.name.endswith("__"))]
    return sorted(qualified for qualified, name in defined
                  if name not in read)


def test_the_scan_sees_an_unread_definition():
    modules = {"a": "def f():\n    return g()\n\ndef g():\n    pass\n\n"
                    "class C:\n    pass\n\ndef h():\n    pass\n",
               "b": "from .a import h\n\ndef k():\n    pass\n"}
    assert unread_definitions(modules, ["import a\na.k()\n"]) \
        == ["a.C", "a.f"]


def test_the_scan_sees_an_unread_method():
    modules = {"a": "class C:\n    def __init__(self):\n        self.f()\n"
                    "\n    def f(self):\n        pass\n\n"
                    "    def g(self):\n        pass\n\n"
                    "    def h(self):\n        pass\n\n"
                    "def k():\n    return C()\n\nk()\n"}
    assert unread_definitions(modules, ["from a import C\nC().h()\n"]) \
        == ["a.C.g"]


def test_every_package_definition_is_read():
    # test-only code belongs under tests/, not in the package
    modules = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}
    readers = [p.read_text(encoding="utf-8")
               for p in sorted((ROOT / "bench").glob("*.py"))]
    assert unread_definitions(modules, readers) == []


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
