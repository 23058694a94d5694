"""Command-line front end.

Exit codes: 0 success, 1 a check failed, 2 usage error, 3 a resource guard
refused the work (the message names the guard and its limit), 4 a numerical
routine did not converge (the message names it and its last error).  Output is
JSON (schema 1) or CSV with a header row.  A flat ``key = value`` config file can
supply defaults; explicit flags win.  Rationals are always printed as p/q.

Each handler returns its document and its exit code.  The document is a JSON
payload, a list of them (``ledger``'s, joined by one newline), or finished
CSV or text; ``run`` alone renders payloads, and alone writes the document to
stdout or to ``--out``.

One table (``_ACTIONS``) names each action's handler and the flags it reads,
with their defaults; the parser accepts exactly those flags, and the config
file fills in exactly those of them the command line left unset.  A flag
whose default is ``_REQUIRED`` that neither sets is a usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import sys
from dataclasses import asdict
from typing import Optional

from . import count as count_mod
from . import ledger as ledger_mod
from . import reports
from .exppair import apply_word, search_pairs
from .kernel import KernelParams, phi_eval, phi_fourier, phi_fourier_bound, \
    phi_fourier_quadrature
from .ledger import _frac
from .reports import exceptional_scan, render_report
from .solver import (find_sextuple, instance_for_theorem1,
                     instance_for_theorem2, main_term_H, triple_counts)
from .sums import (ConvergenceError, GuardError, ProblemInstance, integral_I,
                   moment4, sum_S, sum_T)

import numpy as np


class UsageError(Exception):
    pass


def _read_config(path: Optional[str]) -> dict:
    if not path:
        return {}
    cfg = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"config line without '=': {line!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            cfg[key.replace("-", "_")] = val
    return cfg


def _csv(rows: list[dict], fields: list[str]) -> str:
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=fields, quoting=csv.QUOTE_MINIMAL)
    w.writeheader()
    for row in rows:
        w.writerow(row)
    return buf.getvalue().rstrip("\n")


# --------------------------------------------------------------- actions

def _pairs_eval(args) -> tuple[str, int]:
    p = apply_word(args.word)
    return f"{_frac(p.kappa)} {_frac(p.lam)}", 0


def _pairs_search(args) -> tuple[dict, int]:
    c = args.c
    if not math.isfinite(c):
        raise UsageError(f"c must be finite, got c = {c}")
    objectives = {
        "kappa": lambda p: float(p.kappa),
        "sum": lambda p: float(p.kappa + p.lam),
        "minor": lambda p: float(p.kappa) * c + float(p.lam - p.kappa),
    }
    objective = objectives[args.objective]
    pair, word = search_pairs(objective, args.depth)
    return {
        "config": {"objective": args.objective, "c": c, "depth": args.depth},
        "word": word,
        "kappa": _frac(pair.kappa),
        "lambda": _frac(pair.lam),
        "objective_value": objective(pair),
    }, 0


def _ledger(args) -> tuple[list[dict], int]:
    reps = ledger_mod.run_all() if args.check == "all" else [ledger_mod.CHECKS[args.check]()]
    return [r.payload for r in reps], 0 if all(r.all_pass for r in reps) else 1


def _kernel_params(args) -> KernelParams:
    """The kernel of a kernel action, whose --points must be at least 1."""
    if args.points < 1:
        raise UsageError(f"points must be at least 1, got {args.points}")
    return KernelParams(a=args.a, b=args.b, r=args.r)


def _kernel_eval(args) -> tuple[str, int]:
    p = _kernel_params(args)
    for flag in ("x_min", "x_max"):
        value = getattr(args, flag)
        if not math.isfinite(value):
            raise UsageError(f"--{flag.replace('_', '-')} must be finite, got {value}")
    xs = np.linspace(args.x_min, args.x_max, args.points)
    rows = [{"x": float(x),
             "phi": float(phi),
             "Phi": float(phi_fourier(p, float(x))),
             "bound": float(phi_fourier_bound(p, float(x)))}
            for x, phi in zip(xs, phi_eval(p, xs))]
    return _csv(rows, ["x", "phi", "Phi", "bound"]), 0


def _kernel_check(args) -> tuple[dict, int]:
    """The bound holds on random x; the transform matches direct quadrature."""
    import random as _random
    p = _kernel_params(args)
    rng = _random.Random(args.seed)
    worst = 0.0
    for _ in range(args.points):
        x = (2.0 * rng.random() - 1.0) * 1000.0
        worst = max(worst, abs(phi_fourier(p, x)) - phi_fourier_bound(p, x))
    quad_rel = 0.0
    for i in range(20):
        x = -2.0 + 4.0 * i / 19.0
        direct = phi_fourier_quadrature(p, x)
        closed = phi_fourier(p, x)
        quad_rel = max(quad_rel, abs(direct - closed) / max(1e-30, abs(closed)))
    ok = worst <= 1e-12 and quad_rel <= 1e-6
    return ({"config": {"a": p.a, "b": p.b, "r": p.r},
             "bound_excess": worst, "quadrature_rel_err": quad_rel, "pass": ok},
            0 if ok else 1)


def _instance(args) -> ProblemInstance:
    return ProblemInstance(c=args.c, X=args.X, eps=args.eps, eta=args.eta)


def _sums_eval(args) -> tuple[dict, int]:
    inst = _instance(args)
    x = args.x
    t, s, i = sum_T(inst, x), sum_S(inst, x), integral_I(inst, x)
    return {"config": asdict(inst), "x": x,
            "T": [t.real, t.imag], "S": [s.real, s.imag], "I": [i.real, i.imag],
            "abs": {"T": abs(t), "S": abs(s), "I": abs(i)}}, 0


def _sums_moment(args) -> tuple[dict, int]:
    inst = _instance(args)
    value, err = moment4(inst, args.which)
    return {"config": asdict(inst), "which": args.which,
            "moment4": value, "refine_err": err}, 0


def _sums_profile(args) -> tuple[dict, int]:
    rep = json.loads(reports.s_vs_i_report(
        c=args.c, X=args.X, points=args.points, seed=args.seed))
    return rep, 0 if rep["pass"] else 1


def _count_rs(args) -> tuple[dict, int]:
    res = count_mod.count_tuples_fast(count_mod.CountSpec(args.Y, args.c, args.gamma))
    return {"config": {"Y": args.Y, "c": args.c, "gamma": args.gamma},
            "count": res.count, "ambiguous": res.ambiguous}, 0


def _count_ladder(args) -> tuple[dict | str, int]:
    Ys = [int(y) for y in args.Ys.split(",")]
    rep = json.loads(reports.rs_slope_report(args.c, args.gamma, Ys))
    code = 0 if rep["pass"] else 1
    if args.format == "json":
        return rep, code
    rows = [{"Y": Y, "count": n, "slope": rep["slope"],
             "reference_slope": rep["reference_slope"]}
            for Y, n in zip(Ys, rep["counts"])]
    return _csv(rows, ["Y", "count", "slope", "reference_slope"]), code


def _count_V(args) -> tuple[dict, int]:
    # harmonic_V reads no gamma; CountSpec needs a valid one
    spec = count_mod.CountSpec(args.Y, args.c, 1.0)
    total, buckets = count_mod.harmonic_V(spec, args.tau)
    return {"config": {"Y": args.Y, "c": args.c, "tau": args.tau},
            "total": total, "buckets": list(buckets)}, 0


def _solve_triple(args) -> tuple[dict, int]:
    N = args.N
    inst = instance_for_theorem1(N, args.c, args.eps)
    R = 1.5 * N if args.R is None else args.R
    counts = triple_counts(inst, [R], want_records=True)[0]
    return {"config": {**asdict(inst), "N": N},
            "R": R, "count": counts.count, "weighted": counts.weighted,
            "B1": counts.B1, "H": main_term_H(inst, R),
            "records": [asdict(r) for r in counts.records]}, 0


def _solve_sextuple(args) -> tuple[dict, int]:
    inst = instance_for_theorem2(args.N, args.c, args.eps)
    res = find_sextuple(inst, args.N)
    return ({"config": {**asdict(inst), "N": args.N},
             "found": res.found, "feasible": res.feasible,
             "range_used": res.range_used,
             "records": [] if res.record is None else [asdict(res.record)]},
            0 if res.found else 1)


def _scan(args) -> tuple[dict | str, int]:
    inst = instance_for_theorem1(args.N, args.c, args.eps)
    rep = exceptional_scan(inst, samples=args.samples, seed=args.seed)
    if args.format == "json":
        return rep, 0
    rows = [{"R": R, "count": n} for R, n in zip(rep["R_values"], rep["counts"])]
    return _csv(rows, ["R", "count"]), 0


def _mainterm(args) -> tuple[dict, int]:
    if args.k not in (3, 6):
        raise UsageError("k must be 3 or 6")
    theorem = instance_for_theorem1 if args.k == 3 else instance_for_theorem2
    inst = theorem(args.N, args.c, args.eps)
    return {"config": {**asdict(inst), "N": args.N},
            "R": args.R, "H": main_term_H(inst, args.R)}, 0


# --------------------------------------------------------------- the table

# Every flag's type; a tuple is its choices.
_TYPES = {
    "word": str, "objective": ("kappa", "sum", "minor"), "which": ("S", "I"), "Ys": str,
    "format": ("json", "csv"),
    "depth": int, "r": int, "points": int, "seed": int, "Y": int, "samples": int, "k": int,
    "a": float, "b": float, "c": float, "eps": float, "eta": float, "gamma": float,
    "N": float, "R": float, "tau": float, "x": float, "X": float,
    "x_min": float, "x_max": float,
}

_REQUIRED = object()   # the default of a flag the action cannot run without
_KERNEL = {"a": 0.9, "b": 0.1, "r": 4}
_SUMS = {"c": 2.05, "X": _REQUIRED, "eps": None, "eta": 0.05}

# Each action: its handler, and the flags it reads with their defaults.  A
# default of None is a value the handler works out itself.
_ACTIONS = {
    "pairs eval": (_pairs_eval, {"word": _REQUIRED}),
    "pairs search": (_pairs_search, {"depth": 8, "c": 2.05, "objective": "minor"}),
    "ledger": (_ledger, {}),
    "kernel eval": (_kernel_eval, {**_KERNEL, "x_min": -10.0, "x_max": 10.0, "points": 101}),
    "kernel check": (_kernel_check, {**_KERNEL, "points": 10000, "seed": 0}),
    "sums eval": (_sums_eval, {**_SUMS, "x": _REQUIRED}),
    "sums moment": (_sums_moment, {**_SUMS, "which": "S"}),
    "sums profile": (_sums_profile, {"c": 2.05, "X": _REQUIRED, "points": 20, "seed": 0}),
    "count rs": (_count_rs, {"Y": _REQUIRED, "c": 1.5, "gamma": 1.0}),
    "count ladder": (_count_ladder, {"c": 1.5, "gamma": 1.0, "Ys": "64,128,256,512,1024",
                                     "format": "csv"}),
    "count V": (_count_V, {"Y": _REQUIRED, "tau": _REQUIRED, "c": 1.5}),
    "solve triple": (_solve_triple, {"c": _REQUIRED, "N": _REQUIRED, "eps": None, "R": None}),
    "solve sextuple": (_solve_sextuple, {"c": _REQUIRED, "N": _REQUIRED, "eps": None}),
    "scan": (_scan, {"c": 1.5, "N": 1e5, "eps": None, "seed": 0, "samples": 50,
                     "format": "json"}),
    "mainterm": (_mainterm, {"c": _REQUIRED, "N": _REQUIRED, "eps": None, "R": _REQUIRED,
                             "k": 3}),
}


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="primeineq")
    top.add_argument("--config", help="flat key=value config file")
    top.add_argument("--out", help="write output to this path instead of stdout")
    commands = top.add_subparsers(dest="command", required=True)
    groups = {}
    for name, (handler, flags) in _ACTIONS.items():
        command, _, action = name.partition(" ")
        if not action:
            p = commands.add_parser(command)
        else:
            if command not in groups:
                groups[command] = commands.add_parser(command).add_subparsers(
                    dest="action", required=True)
            p = groups[command].add_parser(action)
        for flag in flags:
            kind, option = _TYPES[flag], "--" + flag.replace("_", "-")
            if isinstance(kind, tuple):
                p.add_argument(option, choices=kind)
            else:
                p.add_argument(option, type=kind)
        p.set_defaults(handler=handler, name=name, flags=flags)
    commands.choices["ledger"].add_argument("check", choices=["all", *ledger_mod.CHECKS])
    return top


def _apply_config(args: argparse.Namespace, cfg: dict) -> None:
    """Each flag of the action that the command line left unset: the config
    file's value, cast by the flag's type and checked against its choices,
    else the table's default, which is a usage error for a required flag."""
    for flag, default in args.flags.items():
        kind = _TYPES[flag]
        if getattr(args, flag) is not None:
            continue
        value = cfg.get(flag)
        if value is None:
            if default is _REQUIRED:
                raise UsageError(f"{args.name} requires --{flag}")
            value = default
        elif isinstance(kind, tuple):
            if value not in kind:
                raise UsageError(f"config {flag} = {value!r}: choose from {', '.join(kind)}")
        else:
            try:
                value = kind(value)
            except ValueError:
                raise UsageError(f"config {flag} = {value!r} is not {kind.__name__}") from None
        setattr(args, flag, value)


def run(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        _apply_config(args, _read_config(args.config))
        document, code = args.handler(args)
        if isinstance(document, dict):
            document = [document]
        if isinstance(document, list):   # JSON payloads, one document each
            document = "\n".join(render_report(payload, indent=2) for payload in document)
        with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as fh:
            print(document, file=fh)
        return code
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except GuardError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"numerical: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
