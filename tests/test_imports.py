"""Every imported name is used: with no linter in the toolchain, this test
scans the package modules and the tests with ``ast``."""

import ast
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
