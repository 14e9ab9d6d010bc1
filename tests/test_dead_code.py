"""Every function, class, module-level constant, class-body constant and
attribute stored on ``self`` in the package, dunders aside, must be read as a
name, an attribute or an import (not in a string or comment, and not only
assigned) somewhere in src, tests, scripts or perfbench.

A dataclass field must be read as an attribute (``obj.field``): being
passed to the constructor is not a read.

Attributes are matched by name alone, whatever object they are read from.
So an attribute that shares its name with one read elsewhere passes
unchecked: a ``self.T`` would count as read wherever numpy's ``.T`` is.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "melnlab"
SCANNED = ("src", "tests", "scripts", "perfbench")


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _assigned_names(body, annotated: bool):
    """Names bound in ``body`` by plain assignments, and by annotated ones too
    if ``annotated`` (in a class body those are dataclass fields, which the
    dataclass machinery reads)."""
    for node in body:
        targets = node.targets if isinstance(node, ast.Assign) else \
            [node.target] if annotated and isinstance(node, ast.AnnAssign) else []
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name):
                    yield name.id


def _self_attributes(tree: ast.Module):
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name) and node.value.id == "self"):
            yield node.attr


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, (ast.Name, ast.Attribute)) and \
                (target.id if isinstance(target, ast.Name) else target.attr) == "dataclass":
            return True
    return False


def _sources():
    for path in sorted(p for d in SCANNED for p in (ROOT / d).rglob("*.py")):
        yield path, ast.parse(path.read_text())


def test_every_definition_is_referenced():
    used: set[str] = set()
    defined: set[tuple[str, str]] = set()
    for path, tree in _sources():
        in_package = PACKAGE in path.parents
        where = path.relative_to(ROOT).as_posix()
        if in_package:
            names = [*_assigned_names(tree.body, True), *_self_attributes(tree)]
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef):
                    names += _assigned_names(node.body, False)
            defined.update((where, name) for name in names if not _dunder(name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rpartition(".")[2])
            elif (in_package and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                                   ast.ClassDef))
                  and not _dunder(node.name)):
                defined.add((where, node.name))
    dead = sorted(f"{where}: {name}" for where, name in defined if name not in used)
    assert not dead, "defined but never referenced:\n" + "\n".join(dead)


def test_every_dataclass_field_is_read():
    read: set[str] = set()
    fields: set[tuple[str, str, str]] = set()
    for path, tree in _sources():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif (PACKAGE in path.parents and isinstance(node, ast.ClassDef)
                  and _is_dataclass(node)):
                where = path.relative_to(ROOT).as_posix()
                fields.update((where, node.name, stmt.target.id) for stmt in node.body
                              if isinstance(stmt, ast.AnnAssign)
                              and isinstance(stmt.target, ast.Name))
    unread = sorted(f"{where}: {cls}.{name}" for where, cls, name in fields if name not in read)
    assert not unread, "dataclass fields never read as an attribute:\n" + "\n".join(unread)
