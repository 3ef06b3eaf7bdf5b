"""Every public function has a caller outside the tests, and each public name
is declared once, in its own module's ``__all__``."""

import ast
import importlib
import inspect
from pathlib import Path

import liftedilc

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "liftedilc"


def _referenced_names():
    """Names and attributes read anywhere in the package, scripts or bench."""
    sources = [p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py"]
    sources += list((REPO / "scripts").rglob("*.py"))
    sources += list((REPO / "bench").rglob("*.py"))
    names = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_function_has_a_caller_outside_the_tests():
    # classes and constants are exempt: a return type such as
    # IterationRecord is used without its callers ever naming it
    functions = [
        name for name in liftedilc.__all__
        if inspect.isfunction(getattr(liftedilc, name))
    ]
    assert functions
    referenced = _referenced_names()
    assert [name for name in functions if name not in referenced] == []


MODULES = ("config", "engine", "errors", "experiments", "laws", "lifted",
           "lti", "switching")


def _top_level_definitions(module):
    """Names bound by a def, class or assignment at a module's top level."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _module(name):
    return importlib.import_module(f"liftedilc.{name}")


def _declared(module):
    return getattr(_module(module), "__all__", [])


def test_each_module_declares_its_public_names():
    assert [m for m in MODULES if not hasattr(_module(m), "__all__")] == []


def test_each_listed_name_is_defined_in_its_own_module():
    # a name defined elsewhere and listed again would be a second declaration
    borrowed = {
        module: sorted(set(_declared(module)) - _top_level_definitions(module))
        for module in MODULES
    }
    assert {module: names for module, names in borrowed.items() if names} == {}


def test_no_name_is_declared_twice():
    seen = {}
    for module in MODULES:
        for name in _declared(module):
            seen.setdefault(name, []).append(module)
    assert {name: mods for name, mods in seen.items() if len(mods) > 1} == {}


def test_the_root_exports_exactly_the_modules_lists():
    union = {name for module in MODULES for name in _declared(module)}
    assert len(liftedilc.__all__) == len(set(liftedilc.__all__))
    assert set(liftedilc.__all__) == union | {"__version__"}


def _private_definitions(tree):
    """(name, first line, last line) of each private top-level binding.

    A def or class spans its decorators too; dunder names such as __all__
    are not private.
    """
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            first = node.lineno
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, first, node.end_lineno


def _name_reads(tree):
    """(name, line) of every name and attribute read in a module's code.

    Comments and strings do not count; an f-string's expressions do.
    """
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            reads.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            reads.append((node.attr, node.lineno))
    return reads


def test_every_private_top_level_name_is_used_in_the_package():
    # the private counterpart of the public-API guard: a private helper,
    # constant or class that nothing in the package reads outside its own
    # definition is dead code
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in PACKAGE.rglob("*.py")}
    reads = {path: _name_reads(tree) for path, tree in trees.items()}
    unused = [
        f"{path.name}:{name}"
        for path, tree in trees.items()
        for name, first, last in _private_definitions(tree)
        if not any(read == name and (other != path or not first <= line <= last)
                   for other, names in reads.items() for read, line in names)
    ]
    assert unused == []
