"""mpmath, the 40-digit arithmetic that decides a solution at a window's
edge, is referenced in one function of the package: the hit rule
solver._solves, which every solver calls."""

import ast
import pathlib

import primeineq

_ALLOWED = {("solver.py", "_solves")}


def _mpmath_uses(source: str) -> list[tuple[int, str]]:
    """(line, innermost enclosing function or "") of every reference to
    mpmath in a source text: an import of it or from it, the name mpmath,
    and the string "mpmath"."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Import):
            found.extend((node.lineno, owner) for alias in node.names
                         if alias.name.split(".")[0] == "mpmath")
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module.split(".")[0] == "mpmath":
                found.append((node.lineno, owner))
        elif ((isinstance(node, ast.Name) and node.id == "mpmath")
              or (isinstance(node, ast.Constant) and node.value == "mpmath")):
            found.append((node.lineno, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), "")
    return found


def test_scanner_finds_every_form_of_reference():
    source = ("import mpmath\n"
              "from mpmath import mpf\n"
              "import numpy, mpmath.libmp as lib\n"
              "def _solves(x):\n"
              "    import mpmath\n"
              "    return mpmath.mpf(x)\n"
              "def other(x):\n"
              "    return mpmath.fsum(x)\n"
              "loader = __import__('mpmath')\n"
              "note = 'mpmath is not imported here'\n")
    assert _mpmath_uses(source) == [(1, ""), (2, ""), (3, ""), (5, "_solves"),
                                    (6, "_solves"), (8, "other"), (9, "")]


def test_mpmath_only_in_the_hit_rule():
    modules = sorted(pathlib.Path(primeineq.__file__).parent.glob("*.py"))
    assert len(modules) > 5
    uses = {(path.name, name) for path in modules
            for _, name in _mpmath_uses(path.read_text())}
    assert uses == _ALLOWED
