"""Every public function has a caller outside the tests."""

import ast
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
    # IterationHistory is used without ever being named
    functions = [
        name for name in liftedilc.__all__
        if inspect.isfunction(getattr(liftedilc, name))
    ]
    assert functions
    referenced = _referenced_names()
    assert [name for name in functions if name not in referenced] == []
