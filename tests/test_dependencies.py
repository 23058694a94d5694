"""The package imports only the standard library, numpy and mpmath."""

import ast
import pathlib
import sys

import primeineq

_ALLOWED = {"numpy", "mpmath", "primeineq"}


def _imports(path: pathlib.Path) -> list[tuple[int, str]]:
    """(line, top-level module) of every absolute import in a source file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module.split(".")[0]))
    return found


def test_package_imports_only_declared_dependencies():
    modules = sorted(pathlib.Path(primeineq.__file__).parent.glob("*.py"))
    assert len(modules) > 5
    bad = [f"{path.name}:{line}: {name}" for path in modules
           for line, name in _imports(path)
           if name not in sys.stdlib_module_names and name not in _ALLOWED]
    assert bad == []
