"""The README names only attributes the package has."""

import importlib
import re
from pathlib import Path

import primeineq

_README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
_MODULES = sorted(path.stem for path in Path(primeineq.__file__).parent.glob("*.py")
                  if path.stem != "__init__")


def _missing(pairs) -> list[str]:
    """The module.name of every (module, name) pair the module lacks."""
    return [f"{module}.{name}" for module, name in pairs
            if not hasattr(importlib.import_module(f"primeineq.{module}"), name)]


def test_qualified_names_in_readme_resolve():
    # `count.triple_band`, `solver.main_term_H`: a module of the package,
    # then one of its attributes
    pairs = re.findall(rf"`({'|'.join(_MODULES)})\.(\w+)`", _README)
    assert pairs
    assert _missing(pairs) == []


def test_layout_rows_name_attributes_of_their_module():
    # every backticked identifier with an underscore in a Layout row, such
    # as `window_pairs` in the primeineq.count row, is an attribute of that
    # row's module; other backticked words there are prose
    rows = re.findall(r"^\| `primeineq\.(\w+)` \|(.*)$", _README, re.M)
    assert {module for module, _ in rows} == set(_MODULES) - {"_parallel"}
    pairs = [(module, name) for module, row in rows
             for name in re.findall(r"`([A-Za-z_]\w*)`", row) if "_" in name]
    assert pairs
    assert _missing(pairs) == []
