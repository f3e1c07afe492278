"""Every module-level function, class, method and constant of the package is
named somewhere besides its own definition, in the sources, the tests or the
benchmark; every name a module of the package imports is used there or
exported through its ``__all__``; and every function of the tests' oracle
module, ``tests/dense_reference.py``, is used by a test or by another
oracle there."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "trigonal"
SEARCHED = [ROOT / "src", ROOT / "tests", ROOT / "perfbench"]
REFERENCE = ROOT / "tests" / "dense_reference.py"


def _definitions():
    """(name, file, def line) of module-level functions, classes and
    assigned names and of the methods of module-level classes, dunders
    excluded."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and not target.id.startswith("__"):
                        yield target.id, path, node.lineno
                continue
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            nodes = [node]
            if isinstance(node, ast.ClassDef):
                nodes += [n for n in node.body if isinstance(n, ast.FunctionDef)]
            for n in nodes:
                if not (n.name.startswith("__") and n.name.endswith("__")):
                    yield n.name, path, n.lineno


def test_every_definition_is_used():
    lines = {path: path.read_text().splitlines()
             for root in SEARCHED for path in root.rglob("*.py")}
    unused = []
    for name, path, lineno in _definitions():
        word = re.compile(rf"\b{re.escape(name)}\b")
        if not any(word.search(line)
                   for p, text in lines.items()
                   for i, line in enumerate(text, 1)
                   if not (p == path and i == lineno)):
            unused.append(f"{path.name}:{lineno} {name}")
    assert not unused, "defined but never used: " + ", ".join(unused)


def _exported(tree):
    """The names listed in a module's ``__all__``."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return {elt.value for elt in node.value.elts}
    return set()


def test_every_import_is_used():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        used |= _exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused, "imported but never used: " + ", ".join(unused)


def _reference_uses():
    """The names of ``dense_reference`` that the tests use: imported from it
    or read as an attribute of it in a test module, or read inside it."""
    used = set()
    for path in (ROOT / "tests").glob("*.py"):
        tree = ast.parse(path.read_text())
        if path == REFERENCE:
            used |= {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            continue
        aliases = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "dense_reference":
                used |= {alias.name for alias in node.names}
            elif isinstance(node, ast.Import):
                aliases |= {alias.asname or alias.name for alias in node.names
                            if alias.name == "dense_reference"}
        used |= {n.attr for n in ast.walk(tree)
                 if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                 and n.value.id in aliases}
    return used


def test_every_reference_function_is_used():
    used = _reference_uses()
    unused = [f"{node.lineno} {node.name}"
              for node in ast.parse(REFERENCE.read_text()).body
              if isinstance(node, ast.FunctionDef) and node.name not in used]
    assert not unused, "dense_reference defines but no test uses: " + ", ".join(unused)
