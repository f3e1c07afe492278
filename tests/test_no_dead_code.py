"""Every module-level function, class, method and constant of the package is
named somewhere besides its own definition, in the sources, the tests or the
benchmark; every field of a package dataclass is read there; every name a
module of the package imports is used there or exported through its
``__all__``; every name in an ``__all__`` is bound in its module; every
function of the tests' oracle module, ``tests/dense_reference.py``, is used
by a test or by another oracle there; every defaulted parameter is set by
some call; no module imports a private name of another; every parameter
of a package function is read in its body; and every name a docstring of
the package quotes resolves."""

import ast
import builtins
import importlib
import re
import sys
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


def _is_dataclass(node):
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               for d in (dec.func if isinstance(dec, ast.Call) else dec
                         for dec in node.decorator_list))


def test_every_dataclass_field_is_read():
    """A field no code reads as an attribute is stored for nothing."""
    read = {n.attr for root in SEARCHED for path in root.rglob("*.py")
            for n in ast.walk(ast.parse(path.read_text()))
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    unread = [f"{path.name}:{field.lineno} {node.name}.{field.target.id}"
              for path in sorted(PACKAGE.glob("*.py"))
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.ClassDef) and _is_dataclass(node)
              for field in node.body
              if isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name)
              and field.target.id not in read]
    assert not unread, "dataclass fields never read: " + ", ".join(unread)


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


def test_every_exported_name_resolves():
    """A stale ``__all__`` entry breaks ``from trigonal.<module> import *``."""
    missing = []
    for path in sorted(PACKAGE.glob("*.py")):
        name = "trigonal" if path.stem == "__init__" else f"trigonal.{path.stem}"
        module = importlib.import_module(name)
        missing += [f"{path.name} {n}" for n in getattr(module, "__all__", ())
                    if not hasattr(module, n)]
    assert not missing, "exported but not defined: " + ", ".join(missing)


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


def _defaulted_parameters():
    """(names a call goes by, parameter, position among the arguments a
    call passes, file, def line) for every parameter with a default of a
    function, method or ``__init__`` of the package.  A method's first
    parameter is bound by the call, so positions count from the second;
    ``__init__`` goes by its class name."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        methods = {id(n): cls.name for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef)
                   for n in cls.body if isinstance(n, ast.FunctionDef)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            bound = id(node) in methods and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod"
                for d in node.decorator_list)
            names = ({methods[id(node)]} if node.name == "__init__"
                     else {node.name})
            first = len(positional) - len(args.defaults)
            for i, arg in enumerate(positional[first:], first):
                yield names, arg.arg, i - bound, path, node.lineno
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield names, arg.arg, None, path, node.lineno


def _called_name(call):
    func = call.func
    return (func.id if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute) else None)


def test_every_default_is_set_by_some_caller():
    """An option that no call sets is a constant with extra steps: some call
    in the sources, the tests or the benchmark must set each defaulted
    parameter, by keyword, by position, or through ``*`` or ``**``."""
    calls = {}
    for root in SEARCHED:
        for path in root.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call) and _called_name(node):
                    calls.setdefault(_called_name(node), []).append(node)

    def sets(call, param, pos):
        return (any(kw.arg in (param, None) for kw in call.keywords)
                or any(isinstance(a, ast.Starred) for a in call.args)
                or (pos is not None and len(call.args) > pos))

    unset = [f"{path.name}:{lineno} {'/'.join(sorted(names))}({param}=)"
             for names, param, pos, path, lineno in _defaulted_parameters()
             if not any(sets(call, param, pos)
                        for name in names for call in calls.get(name, ()))]
    assert not unset, "defaults no caller sets: " + ", ".join(unset)


def test_no_private_name_crosses_a_module():
    """A private name (``_x``) is its module's own: another module of the
    package that needs it should get it under a public name."""
    crossing = [f"{path.name}:{node.lineno} {alias.name}"
                for path in sorted(PACKAGE.glob("*.py"))
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.ImportFrom)
                and (node.level or (node.module or "").startswith("trigonal"))
                for alias in node.names
                if alias.name.startswith("_") and not alias.name.startswith("__")]
    assert not crossing, "private names imported across modules: " + ", ".join(crossing)


def _stage_functions():
    """The names of the functions in ``pipeline._STAGES``."""
    for node in ast.parse((PACKAGE / "pipeline.py").read_text()).body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "_STAGES"
                        for t in node.targets)):
            return {n.id for n in ast.walk(node.value) if isinstance(n, ast.Name)}
    return set()


def test_every_parameter_is_read():
    """A parameter that its function never reads is passed for nothing.
    The stages of ``pipeline._STAGES`` share the signature fn(curve, rep)
    and are exempt, and so is the first parameter of a method (the package
    has no static method), which the call binds."""
    stages = _stage_functions()
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        methods = {id(n) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for n in cls.body if isinstance(n, ast.FunctionDef)}
        for node in ast.walk(tree):
            if (not isinstance(node, ast.FunctionDef)
                    or path.stem == "pipeline" and node.name in stages):
                continue
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            params += [a for a in (args.vararg, args.kwarg) if a]
            if id(node) in methods:
                params = params[1:]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [f"{path.name}:{node.lineno} {node.name}({a.arg})"
                       for a in params if a.arg not in read]
    assert not unread, "parameters never read: " + ", ".join(unread)


# ``name`` or ``a.b``: a quoted name or dotted name, nothing else between the
# backquotes (a call like ``f(x)`` or a format like ``key = value`` is not one)
DOC_REFERENCE = re.compile(r"``([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)``")


def _bound_in(node):
    """The names a function or class binds: its parameters, the targets of
    its assignments, loops and imports, and the functions and classes it
    defines, nested ones included."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.arg):
            names.add(n.arg)
        elif isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
            names.add(n.id)
        elif isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n is not node:
            names.add(n.name)
        elif isinstance(n, ast.alias):
            names.add(n.asname or n.name.split(".")[0])
    return names


def _module_names(tree):
    """The names a module binds at its top level, imports included."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        else:
            names |= {n.id for n in ast.walk(node)
                      if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    return names


def _class_attributes(tree):
    """The attributes of a module's classes: what each class body binds,
    every ``self.<attr>`` its methods assign, and the fields of each
    ``namedtuple``."""
    attrs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            attrs |= {n.name for n in node.body
                      if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
            attrs |= {n.id for stmt in node.body
                      if isinstance(stmt, (ast.Assign, ast.AnnAssign))
                      for n in ast.walk(stmt) if isinstance(n, ast.Name)
                      and isinstance(n.ctx, ast.Store)}
            attrs |= {n.attr for n in ast.walk(node)
                      if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                      and isinstance(n.value, ast.Name) and n.value.id == "self"}
        elif (isinstance(node, ast.Call) and _called_name(node) == "namedtuple"
              and len(node.args) == 2 and isinstance(node.args[1], ast.Constant)):
            attrs |= set(node.args[1].value.split())
    return attrs


def _nested(node):
    """The functions and classes inside ``node`` that no other one holds."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield child
        else:
            yield from _nested(child)


def _docstrings(node, scope):
    """(owner, docstring, names in scope) for ``node`` and every function
    and class inside it; a function or class sees what it binds and what
    every enclosing one binds."""
    if not isinstance(node, ast.Module):
        scope = scope | _bound_in(node)
    doc = ast.get_docstring(node, clean=False)
    if doc:
        yield getattr(node, "name", "<module>"), doc, scope
    for child in _nested(node):
        yield from _docstrings(child, scope)


def test_every_docstring_reference_resolves():
    """A name a docstring quotes, as ``name`` or ``a.b``, is one a reader
    can find: a package module (or ``perfbench``, or a standard-library
    module, whose attributes are not checked), a top-level name of a
    package module, an attribute of a package class, a builtin, or a name
    bound in the documented function or class or an enclosing one.  The
    parts after the first of ``a.b`` are top-level names of module a when
    it is a package module, and otherwise attributes of a package class or
    top-level names of a package module.  A stale quote names what was
    deleted or renamed."""
    trees = {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    modules = {path.stem: _module_names(tree) for path, tree in trees.items()}
    top = set().union(*modules.values())
    attrs = set().union(*map(_class_attributes, trees.values()))
    outside = {"perfbench"} | set(sys.stdlib_module_names)
    known = top | attrs | set(dir(builtins))

    def resolves(ref, scope):
        head, *rest = ref.split(".")
        if head in modules:
            return not rest or rest[0] in modules[head] and all(
                part in attrs | top for part in rest[1:])
        return head in outside or (head in known or head in scope) and all(
            part in attrs | top for part in rest)

    stale = [f"{path.name} {owner}: ``{ref}``"
             for path, tree in trees.items()
             for owner, doc, scope in _docstrings(tree, set())
             for ref in DOC_REFERENCE.findall(doc) if not resolves(ref, scope)]
    assert not stale, "docstrings quote names that resolve to nothing: " + ", ".join(stale)
