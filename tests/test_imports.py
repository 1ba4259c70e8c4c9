import ast
from pathlib import Path

import isospace

PACKAGE = Path(isospace.__file__).resolve().parent


def test_no_module_imports_a_private_name_of_another():
    # a leading underscore marks a name private to its module
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                found += [f"{path.name}: {node.module} {a.name}"
                          for a in node.names if a.name.startswith("_")]
    assert found == []


def test_only_ffield_decides_where_line_masks_run():
    # FormRows.line_masks hands a scan its masks, or None where they do not
    # pay; no other module asks line_masks_pay itself
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "ffield.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = ([a.name for a in node.names] if isinstance(node, ast.ImportFrom)
                     else [getattr(node, "id", None), getattr(node, "attr", None)])
            found += [path.name for name in names if name == "line_masks_pay"]
    assert found == []


def test_bipartite_imports_nothing_from_isotropic():
    # the ncrk scan takes its route from FormRows.line_masks, as the
    # lattice does, and uses no isotropic code
    found = []
    for node in ast.walk(ast.parse((PACKAGE / "bipartite.py").read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            module = getattr(node, "module", None) or ""
            found += [f"{module} {a.name}" for a in node.names
                      if "isotropic" in f"{module}.{a.name}".split(".")]
    assert found == []


def test_no_module_imports_a_name_it_does_not_use():
    # every name an import binds is read in its module; __init__.py
    # imports to re-export, so it is left out
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [a.asname or a.name.partition(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            found += [f"{path.name}: {name}" for name in bound if name not in used]
    assert found == []


def test_no_unread_state():
    # every __slots__ name of a class is read as an attribute somewhere in
    # the package, and every private module-level function or class is
    # referenced, so that a reader dropped from the code takes its state
    # and its helpers with it
    trees = [(path.name, ast.parse(path.read_text(), str(path)))
             for path in sorted(PACKAGE.glob("*.py"))]
    read, referenced = set(), set()
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
                referenced.add(node.attr)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
    found = []
    for name, tree in trees:
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
                    and not node.name.endswith("__") and node.name not in referenced):
                found.append(f"{name}: {node.name} is never referenced")
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (isinstance(node, ast.Assign)
                        and any(getattr(t, "id", None) == "__slots__" for t in node.targets)):
                    found += [f"{name}: {cls.name}.{slot.value} is never read"
                              for slot in ast.walk(node.value)
                              if isinstance(slot, ast.Constant) and slot.value not in read]
    assert found == []
