"""Structural checks on the package sources."""

import ast
import pathlib

import d2dshare

_PACKAGE = pathlib.Path(d2dshare.__file__).parent
_MODULES = {path.stem for path in _PACKAGE.glob("*.py")}


def _private_imports(path: pathlib.Path) -> list[str]:
    """Underscore names that ``path`` takes from other modules of the package.

    Catches ``from .overlay import _x`` and, after ``from . import overlay``,
    the attribute access ``overlay._x``.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "d2dshare"
                                                 or (node.module or "").startswith("d2dshare.")):
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append(f"{node.module or '.'}.{alias.name}")
                elif node.module in (None, "d2dshare") and alias.name in _MODULES:
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_no_module_imports_another_modules_private_names():
    offenders = {
        path.name: names for path in sorted(_PACKAGE.glob("*.py")) if (names := _private_imports(path))
    }
    assert offenders == {}
