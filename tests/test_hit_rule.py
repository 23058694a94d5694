"""Two decisions each sit in one function of the package: mpmath, the
40-digit arithmetic that decides a solution at a window's edge, is
referenced only in the hit rule solver._solves, which every solver calls;
and the long double's machine epsilon, finfo(LONG).eps, is read only in
count.rounding, the allowance every long-double margin is taken from."""

import ast
import pathlib

import primeineq

_MODULES = sorted(pathlib.Path(primeineq.__file__).parent.glob("*.py"))


def _references(source: str, is_reference) -> list[tuple[int, str]]:
    """(line, innermost enclosing function or "") of every node of a source
    text for which ``is_reference`` holds."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if is_reference(node):
            found.append((node.lineno, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), "")
    return found


def _mpmath(node) -> bool:
    """An import of mpmath or from it, the name mpmath, or the string
    "mpmath"."""
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "mpmath" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return node.level == 0 and node.module.split(".")[0] == "mpmath"
    return ((isinstance(node, ast.Name) and node.id == "mpmath")
            or (isinstance(node, ast.Constant) and node.value == "mpmath"))


def _long_double_eps(node) -> bool:
    """A read of .eps from finfo of the long double: finfo(LONG) or
    finfo(np.longdouble), finfo called bare or as an attribute."""
    if not (isinstance(node, ast.Attribute) and node.attr == "eps"
            and isinstance(node.value, ast.Call) and node.value.args):
        return False
    call, kind = node.value.func, node.value.args[0]
    return ((getattr(call, "id", None) == "finfo" or getattr(call, "attr", None) == "finfo")
            and (getattr(kind, "id", None) == "LONG"
                 or getattr(kind, "attr", None) == "longdouble"))


def _uses(is_reference) -> set[tuple[str, str]]:
    """(module file, enclosing function) of every reference in the package."""
    assert len(_MODULES) > 5
    return {(path.name, name) for path in _MODULES
            for _, name in _references(path.read_text(), is_reference)}


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
    assert _references(source, _mpmath) == [(1, ""), (2, ""), (3, ""), (5, "_solves"),
                                            (6, "_solves"), (8, "other"), (9, "")]


def test_scanner_finds_every_read_of_the_long_double_eps():
    # the largest long double and float64's eps are other values
    source = ("ulp = np.finfo(LONG).eps\n"
              "def rounding(x):\n"
              "    return 8 * finfo(LONG).eps * x\n"
              "def other(x):\n"
              "    return np.finfo(np.longdouble).eps * x\n"
              "top = np.finfo(LONG).max\n"
              "key = np.finfo(float).eps\n"
              "info = np.finfo(LONG)\n")
    assert _references(source, _long_double_eps) == [(1, ""), (3, "rounding"), (5, "other")]


def test_mpmath_only_in_the_hit_rule():
    assert _uses(_mpmath) == {("solver.py", "_solves")}


def test_long_double_eps_only_in_the_rounding_allowance():
    assert _uses(_long_double_eps) == {("count.py", "rounding")}
