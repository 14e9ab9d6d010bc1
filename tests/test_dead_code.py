"""Every function, class and module-level constant of the package, dunders
aside, must be read as a name, an attribute or an import (not in a string or
comment, and not only assigned) somewhere in src, tests, scripts or
perfbench."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "melnlab"
SCANNED = ("src", "tests", "scripts", "perfbench")


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _module_constants(tree: ast.Module):
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else \
            [node.target] if isinstance(node, ast.AnnAssign) else []
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name):
                    yield name.id


def test_every_definition_is_referenced():
    used: set[str] = set()
    defined: set[tuple[str, str]] = set()
    for path in sorted(p for d in SCANNED for p in (ROOT / d).rglob("*.py")):
        in_package = PACKAGE in path.parents
        tree = ast.parse(path.read_text())
        where = path.relative_to(ROOT).as_posix()
        if in_package:
            defined.update((where, name) for name in _module_constants(tree)
                           if not _dunder(name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rpartition(".")[2])
            elif (in_package and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                                   ast.ClassDef))
                  and not _dunder(node.name)):
                defined.add((where, node.name))
    dead = sorted(f"{where}: {name}" for where, name in defined if name not in used)
    assert not dead, "defined but never referenced:\n" + "\n".join(dead)
