"""Every function and class of the package, dunders aside, must be referenced
as a name, an attribute or an import (not in a string or comment) somewhere in
src, tests, scripts or perfbench."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "melnlab"
SCANNED = ("src", "tests", "scripts", "perfbench")


def test_every_definition_is_referenced():
    used: set[str] = set()
    defined: set[tuple[str, str]] = set()
    for path in sorted(p for d in SCANNED for p in (ROOT / d).rglob("*.py")):
        in_package = PACKAGE in path.parents
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rpartition(".")[2])
            elif (in_package and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                                   ast.ClassDef))
                  and not (node.name.startswith("__") and node.name.endswith("__"))):
                defined.add((path.relative_to(ROOT).as_posix(), node.name))
    dead = sorted(f"{where}: {name}" for where, name in defined if name not in used)
    assert not dead, "defined but never referenced:\n" + "\n".join(dead)
