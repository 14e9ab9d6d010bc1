"""Every function, class, module-level constant, class-body constant and
attribute stored on ``self`` in the package, dunders aside, must be read as a
name, an attribute or an import (not in a string or comment, and not only
assigned) somewhere in src, tests, scripts or perfbench.

A dataclass field must be read as an attribute (``obj.field``): being
passed to the constructor is not a read.  Such a read counts for the class
the code makes evident as ``obj``'s owner: ``self`` in a method, an
annotated parameter, a name bound to a constructor call or to a call with an
annotated return, an annotated field of an evident owner, or a loop variable
over a ``tuple[C, ...]`` field.  A read whose owner is not evident counts by
name, unless the name is shadowed: another class in the scanned code defines
it too, or a library type that the code reads carries it
(``LIBRARY_ATTRIBUTES``).  A shadowed field needs a read by evident owner.

Other definitions are matched by name alone, whatever object they are read
from: a ``self.T`` would count as read wherever numpy's ``.T`` is.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "melnlab"
SCANNED = ("src", "tests", "scripts", "perfbench")
# attributes of library types that the scanned code reads, with the type read:
# a package dataclass field of the same name needs a read by evident owner
LIBRARY_ATTRIBUTES = {
    "denominator": "fractions.Fraction", "values": "dict.values",
    "flags": "numpy.ndarray.flags", "real": "numpy.ndarray.real",
}


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


def _class_info(trees):
    """(members, annotations, returns): each class's member names, the
    annotation of each annotated field or method, and the return class of
    each function name annotated with one class (names annotated with two
    different classes are dropped)."""
    members, annotations, returns = {}, {}, {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                names = members.setdefault(node.name, set())
                names.update(_assigned_names(node.body, True), _self_attributes(node))
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                        annotations[node.name, stmt.target.id] = stmt.annotation
                    elif isinstance(stmt, ast.FunctionDef):
                        names.add(stmt.name)
                        if stmt.returns is not None:
                            annotations.setdefault((node.name, stmt.name), stmt.returns)
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                owner = _annotated_class(node.returns, members)
                if owner:
                    returns[node.name] = owner if returns.get(node.name, owner) == owner else None
    return members, annotations, returns


def _annotated_class(ann, classes, element=False):
    """The class an annotation names (``C``, ``"C"``, ``C | None``), or with
    ``element`` the element class of ``tuple[C, ...]`` or ``list[C]``."""
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        ann = ast.parse(ann.value, mode="eval").body
    if element:
        if isinstance(ann, ast.Subscript):
            inner = ann.slice.elts[0] if isinstance(ann.slice, ast.Tuple) else ann.slice
            return _annotated_class(inner, classes)
        return None
    if isinstance(ann, ast.BinOp) and isinstance(ann.op, ast.BitOr):
        return _annotated_class(ann.left, classes) or _annotated_class(ann.right, classes)
    name = ann.id if isinstance(ann, ast.Name) else ann.attr if isinstance(ann, ast.Attribute) \
        else None
    return name if name in classes else None


def _attribute_reads(tree, info):
    """(attribute, owner class or None) for every attribute read in ``tree``."""
    members, annotations, returns = info
    reads = []

    def owner(node, env, element=False):
        if isinstance(node, ast.Attribute):
            base = owner(node.value, env)
            ann = annotations.get((base, node.attr))
            return _annotated_class(ann, members, element) if ann is not None else None
        if element:
            return None
        if isinstance(node, ast.Name):
            return env.get(node.id)
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) \
                else None
            return name if name in members else returns.get(name)
        return None

    def function(node, env, cls):
        env = dict(env)
        args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        for pos, arg in enumerate(args):
            env[arg.arg] = (_annotated_class(arg.annotation, members)
                            if arg.annotation is not None else cls if pos == 0 else None)
        for child in [*node.decorator_list, *node.body]:
            visit(child, env)

    def visit(node, env):
        if isinstance(node, ast.ClassDef):
            for child in node.body:
                (function(child, env, node.name) if isinstance(child, ast.FunctionDef)
                 else visit(child, env))
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return function(node, env, None)
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            for gen in node.generators:
                visit(gen.iter, env)
                if isinstance(gen.target, ast.Name):
                    env[gen.target.id] = owner(gen.iter, env, element=True)
                for cond in gen.ifs:
                    visit(cond, env)
            for part in ((node.key, node.value) if isinstance(node, ast.DictComp) else (node.elt,)):
                visit(part, env)
            return
        if isinstance(node, ast.For) and isinstance(node.target, ast.Name):
            env[node.target.id] = owner(node.iter, env, element=True)
        elif isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            env[node.targets[0].id] = owner(node.value, env)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            env[node.target.id] = _annotated_class(node.annotation, members)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.append((node.attr, owner(node.value, env)))
        for child in ast.iter_child_nodes(node):
            visit(child, env)

    visit(tree, {})
    return reads


def test_every_dataclass_field_is_read():
    sources = list(_sources())
    info = _class_info([tree for _, tree in sources])
    members = info[0]
    fields: set[tuple[str, str, str]] = set()
    by_owner: set[tuple[str | None, str]] = set()
    for path, tree in sources:
        by_owner.update((cls, attr) for attr, cls in _attribute_reads(tree, info))
        if PACKAGE in path.parents:
            where = path.relative_to(ROOT).as_posix()
            fields.update((where, node.name, stmt.target.id)
                          for node in ast.walk(tree)
                          if isinstance(node, ast.ClassDef) and _is_dataclass(node)
                          for stmt in node.body
                          if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name))

    def read(cls, name):
        shadowed = name in LIBRARY_ATTRIBUTES or any(
            name in names for other, names in members.items() if other != cls)
        return (cls, name) in by_owner or (not shadowed and (None, name) in by_owner)

    unread = sorted(f"{where}: {cls}.{name}" for where, cls, name in fields
                    if not read(cls, name))
    assert not unread, "dataclass fields never read as an attribute:\n" + "\n".join(unread)
