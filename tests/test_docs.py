"""The README names only attributes the package has, and only the flags the
CLI reads, marking as required exactly those the CLI requires."""

import importlib
import re
from pathlib import Path

import primeineq
from primeineq import cli

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


def test_cli_flag_table_matches_the_parser():
    # each row of the README's CLI flag table, such as `kernel check`, names
    # exactly the flags that cli._ACTIONS gives its action; a positional
    # argument in capitals, as in `ledger CHECK`, is not part of the name
    table = _README.split("| action | flags (default) |", 1)[1].split("\n\n", 1)[0]
    rows = re.findall(r"^\| `([A-Za-z ]+?)(?: [A-Z]{2,})?` \|(.*)\|$", table, re.M)
    documented = {action: {flag.replace("-", "_") for flag in re.findall(r"`--([\w-]+)`", row)}
                  for action, row in rows}
    assert documented == {action: set(flags) for action, (_, flags) in cli._ACTIONS.items()}
    # a flag is marked required alone, `--X` (required), or in a run of
    # flags, `--N`, `--c` (both required), exactly when its default in
    # cli._ACTIONS is the sentinel cli._REQUIRED
    runs = {action: re.findall(r"((?:`--[\w-]+`, )*`--[\w-]+`) \((?:both |all )?required\)", row)
            for action, row in rows}
    required = {action: {flag.replace("-", "_") for run in found
                         for flag in re.findall(r"`--([\w-]+)`", run)}
                for action, found in runs.items()}
    assert any(required.values())
    assert required == {action: {flag for flag, default in flags.items()
                                 if default is cli._REQUIRED}
                        for action, (_, flags) in cli._ACTIONS.items()}
