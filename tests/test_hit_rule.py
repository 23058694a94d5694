"""Three decisions each sit in one function of the package: mpmath, the
40-digit arithmetic that decides a solution at a window's edge, is
referenced only in the hit rule solver._solves, which every solver calls;
the long double's machine epsilon, finfo(LONG).eps, is read only in
count.rounding, the allowance every long-double margin is taken from; and
float64's, finfo(float).eps, only in count.key_rounding, its float64 twin,
with no literal 2.0 ** -49 pad left in solver.  The smallest normal
float64, finfo(float).tiny, the floor of that twin, is read only there and
in the oracle count.count_tuples_naive, which shares no code with the fast
counter."""

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


def _finfo(node, attr: str, kinds: set[str]) -> bool:
    """A read of ``attr`` from finfo of a type named in ``kinds``, bare
    (LONG) or as an attribute (np.longdouble), finfo called bare or as an
    attribute."""
    if not (isinstance(node, ast.Attribute) and node.attr == attr
            and isinstance(node.value, ast.Call) and node.value.args):
        return False
    call, kind = node.value.func, node.value.args[0]
    return ((getattr(call, "id", None) == "finfo" or getattr(call, "attr", None) == "finfo")
            and (getattr(kind, "id", None) in kinds or getattr(kind, "attr", None) in kinds))


def _long_double_eps(node) -> bool:
    """A read of the long double's eps: finfo(LONG) or finfo(np.longdouble)."""
    return _finfo(node, "eps", {"LONG", "longdouble"})


def _float64_eps(node) -> bool:
    """A read of float64's eps: finfo(float) or finfo(np.float64)."""
    return _finfo(node, "eps", {"float", "float64"})


def _float64_tiny(node) -> bool:
    """A read of the smallest normal float64: finfo(float).tiny or
    finfo(np.float64).tiny."""
    return _finfo(node, "tiny", {"float", "float64"})


def _pad_literal(node) -> bool:
    """The power 2.0 ** -49 (or 2 ** -49), the float64 screen pad that
    count.key_rounding(2 M) gives."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)):
        return False
    try:
        return ast.literal_eval(node.left) == 2 and ast.literal_eval(node.right) == -49
    except ValueError:
        return False


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


def test_scanner_finds_every_read_of_the_float64_eps():
    # the long double's eps and float64's tiny are other values
    source = ("ulp = np.finfo(float).eps\n"
              "def key_rounding(x):\n"
              "    return 4 * finfo(float).eps * x\n"
              "def other(x):\n"
              "    return np.finfo(np.float64).eps * x\n"
              "small = np.finfo(float).tiny\n"
              "wide = np.finfo(LONG).eps\n")
    assert _references(source, _float64_eps) == [(1, ""), (3, "key_rounding"), (5, "other")]


def test_scanner_finds_every_read_of_the_float64_tiny():
    # float64's eps and the long double's tiny are other values
    source = ("floor = np.finfo(float).tiny\n"
              "def key_rounding(x):\n"
              "    return max(4 * finfo(float).eps * x, finfo(float).tiny)\n"
              "def other(x):\n"
              "    return x + np.finfo(np.float64).tiny\n"
              "small = np.finfo(LONG).tiny\n")
    assert _references(source, _float64_tiny) == [(1, ""), (3, "key_rounding"), (5, "other")]


def test_scanner_finds_the_pad_literal():
    source = ("pad = 2.0 ** -49 * M\n"
              "def walk(M):\n"
              "    return 2 ** -49 * M + 2.0 ** -50 * M + 2.0 ** 49\n")
    assert _references(source, _pad_literal) == [(1, ""), (3, "walk")]


def test_float64_eps_only_in_the_key_rounding_allowance():
    assert _uses(_float64_eps) == {("count.py", "key_rounding")}


def test_float64_tiny_only_in_the_key_rounding_allowance_and_the_oracle():
    # every float64 margin takes its subnormal floor from key_rounding
    assert _uses(_float64_tiny) == {("count.py", "key_rounding"),
                                    ("count.py", "count_tuples_naive")}


def test_no_literal_screen_pad_in_solver():
    solver = next(path for path in _MODULES if path.name == "solver.py")
    assert _references(solver.read_text(), _pad_literal) == []
