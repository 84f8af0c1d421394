import ast
from pathlib import Path

import orientgames

SRC = Path(orientgames.__file__).parent


def raised_names(tree):
    """Names raised by ``raise X`` or ``raise X(...)``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                yield exc.id


def test_every_error_class_is_raised():
    # A class that no code raises is dead API; a base class is exempt,
    # since it is raised through its subclasses.
    classes = [n for n in ast.parse((SRC / "errors.py").read_text()).body
               if isinstance(n, ast.ClassDef)]
    bases = {b.id for c in classes for b in c.bases if isinstance(b, ast.Name)}
    raised = set()
    for path in SRC.rglob("*.py"):
        raised.update(raised_names(ast.parse(path.read_text())))
    unraised = sorted(c.name for c in classes if c.name not in bases | raised)
    assert unraised == []
