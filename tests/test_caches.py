"""The package keeps no process-wide cache except its fixed quadrature rules."""

import ast
import pathlib

import primeineq

_CACHES = {"cache", "lru_cache"}
# fixed n-point rules, the same for every caller: stored constants
_ALLOWED = {("sums.py", "leggauss"), ("sums.py", "_rules")}


def _cache_uses(source: str) -> list[tuple[int, str]]:
    """(line, decorated function or "") of every use of functools.cache or
    functools.lru_cache in a source text, imports by name included."""
    tree = ast.parse(source)
    owner = {}   # id of each node inside a decorator -> the decorated name
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for dec in node.decorator_list:
                owner.update((id(sub), node.name) for sub in ast.walk(dec))
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in _CACHES
                and isinstance(node.value, ast.Name) and node.value.id == "functools"):
            found.append((node.lineno, owner.get(id(node), "")))
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [(node.lineno, "") for alias in node.names if alias.name in _CACHES]
    return found


def test_scanner_finds_every_form_of_cache():
    source = ("import functools\n"
              "from functools import lru_cache, partial\n"
              "@functools.lru_cache(maxsize=8)\n"
              "def sieve_primes(X): ...\n"
              "@functools.cache\n"
              "def leggauss(n): ...\n"
              "table = functools.cache(len)\n")
    assert sorted(_cache_uses(source)) == [(2, ""), (3, "sieve_primes"),
                                           (5, "leggauss"), (7, "")]


def test_no_cache_but_the_fixed_rules():
    modules = sorted(pathlib.Path(primeineq.__file__).parent.glob("*.py"))
    assert len(modules) > 5
    bad = [f"{path.name}:{line}: {name or 'not a decorator'}" for path in modules
           for line, name in _cache_uses(path.read_text())
           if (path.name, name) not in _ALLOWED]
    assert bad == []
