"""The package's error contract, read from its source.

A refused input raises ValueError (CLI exit 1) and a numeric failure raises
FloatingPointError (CLI exit 2); the package defines no exception type of
its own, so a caller needs to catch only those two.
"""

import ast
import builtins
from pathlib import Path

import hullwalk

_CONTRACT = {"ValueError", "FloatingPointError"}


def _last_name(node) -> str | None:
    """The identifier a Name or an Attribute ends with, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_exception_name(name: str | None) -> bool:
    if name is None:
        return False
    obj = getattr(builtins, name, None)
    if isinstance(obj, type) and issubclass(obj, BaseException):
        return True
    return name.endswith(("Error", "Exception"))


def test_only_value_and_floating_point_errors():
    faults = []
    for path in sorted(Path(hullwalk.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.ClassDef):
                for base in node.bases:
                    if _is_exception_name(_last_name(base)):
                        faults.append(f"{where}: class {node.name} derives from {ast.unparse(base)}")
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if _last_name(exc) not in _CONTRACT:
                    faults.append(f"{where}: raises {ast.unparse(node.exc)}")
    assert faults == []
