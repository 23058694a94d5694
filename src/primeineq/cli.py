"""Command-line front end.

Exit codes: 0 success, 1 a check failed, 2 usage error, 3 a resource guard
refused the work (the message names the guard and its limit), 4 a numerical
routine did not converge (the message names it and its last error).  Output is
JSON (schema 1) or CSV with a header row.  A flat ``key = value`` config file can
supply defaults; explicit flags win.  Rationals are always printed as p/q.
"""

from __future__ import annotations

import argparse
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


def _resolve(args: argparse.Namespace, cfg: dict, key: str, cast, default=None):
    """Flag value if given, else config file value, else default."""
    val = getattr(args, key, None)
    if val is not None:
        return val
    if key in cfg:
        return cast(cfg[key])
    return default


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _csv(rows: list[dict], fields: list[str]) -> str:
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=fields, quoting=csv.QUOTE_MINIMAL)
    w.writeheader()
    for row in rows:
        w.writerow(row)
    return buf.getvalue().rstrip("\n")


# --------------------------------------------------------------- commands

def _cmd_pairs(args, cfg, out) -> int:
    if args.action == "eval":
        if not args.word:
            raise UsageError("pairs eval requires --word")
        p = apply_word(args.word)
        _emit(f"{_frac(p.kappa)} {_frac(p.lam)}", out)
        return 0
    # search
    depth = _resolve(args, cfg, "depth", int, 8)
    c = _resolve(args, cfg, "c", float, 2.05)
    name = args.objective or "minor"
    objectives = {
        "kappa": lambda p: float(p.kappa),
        "sum": lambda p: float(p.kappa + p.lam),
        "minor": lambda p: float(p.kappa) * c + float(p.lam - p.kappa),
    }
    pair, word = search_pairs(objectives[name], depth)
    _emit(render_report({
        "config": {"objective": name, "c": c, "depth": depth},
        "word": word,
        "kappa": _frac(pair.kappa),
        "lambda": _frac(pair.lam),
        "objective_value": objectives[name](pair),
    }, indent=2), out)
    return 0


_LEDGER_CHECKS = {
    "threshold": lambda: ledger_mod.run_all()[0],
    "heathbrown": ledger_mod.verify_heathbrown_params,
    "typeI": ledger_mod.verify_typeI_thresholds,
    "typeII": ledger_mod.verify_typeII_exponent,
    "bilinear": ledger_mod.verify_bilinear_16th_terms,
    "longchain": ledger_mod.verify_longchain_usage,
}


def _cmd_ledger(args, cfg, out) -> int:
    if args.action == "all":
        reps = ledger_mod.run_all()
    elif args.action in _LEDGER_CHECKS:
        reps = [_LEDGER_CHECKS[args.action]()]
    else:
        raise UsageError(f"unknown ledger check {args.action!r}; "
                         f"choose from all, {', '.join(_LEDGER_CHECKS)}")
    _emit("\n".join(render_report(r.payload, indent=2) for r in reps), out)
    return 0 if all(r.all_pass for r in reps) else 1


def _kernel_params(args, cfg) -> KernelParams:
    return KernelParams(
        a=_resolve(args, cfg, "a", float, 0.9),
        b=_resolve(args, cfg, "b", float, 0.1),
        r=_resolve(args, cfg, "r", int, 4),
        strict_smooth=bool(args.strict),
    )


def _cmd_kernel(args, cfg, out) -> int:
    p = _kernel_params(args, cfg)
    if args.action == "eval":
        xs = np.linspace(_resolve(args, cfg, "x_min", float, -10.0),
                         _resolve(args, cfg, "x_max", float, 10.0),
                         _resolve(args, cfg, "points", int, 101))
        rows = [{"x": float(x),
                 "phi": float(phi),
                 "Phi": float(phi_fourier(p, float(x))),
                 "bound": float(phi_fourier_bound(p, float(x)))}
                for x, phi in zip(xs, phi_eval(p, xs))]
        _emit(_csv(rows, ["x", "phi", "Phi", "bound"]), out)
        return 0
    # check: bound holds on random x, transform matches direct quadrature
    import random as _random
    rng = _random.Random(_resolve(args, cfg, "seed", int, 0))
    worst = 0.0
    for _ in range(_resolve(args, cfg, "points", int, 10000)):
        x = (2.0 * rng.random() - 1.0) * 1000.0
        worst = max(worst, abs(phi_fourier(p, x)) - phi_fourier_bound(p, x))
    quad_rel = 0.0
    for i in range(20):
        x = -2.0 + 4.0 * i / 19.0
        direct = phi_fourier_quadrature(p, x)
        closed = phi_fourier(p, x)
        quad_rel = max(quad_rel, abs(direct - closed) / max(1e-30, abs(closed)))
    ok = worst <= 1e-12 and quad_rel <= 1e-6
    _emit(render_report({"config": {"a": p.a, "b": p.b, "r": p.r,
                                    "strict_smooth": p.strict_smooth},
                         "bound_excess": worst, "quadrature_rel_err": quad_rel,
                         "pass": ok}, indent=2), out)
    return 0 if ok else 1


def _instance(args, cfg) -> ProblemInstance:
    c = _resolve(args, cfg, "c", float, 2.05)
    X = _resolve(args, cfg, "X", float)
    if X is None:
        raise UsageError("this command requires --X")
    eps = _resolve(args, cfg, "eps", float, 1.0 / math.log(X))
    eta = _resolve(args, cfg, "eta", float, 0.05)
    return ProblemInstance(c=c, X=X, eps=eps, eta=eta)


def _cmd_sums(args, cfg, out) -> int:
    inst = _instance(args, cfg)
    if args.action == "eval":
        x = _resolve(args, cfg, "x", float)
        if x is None:
            raise UsageError("sums eval requires --x")
        t, s, i = sum_T(inst, x), sum_S(inst, x), integral_I(inst, x)
        _emit(render_report({"config": asdict(inst), "x": x,
                             "T": [t.real, t.imag], "S": [s.real, s.imag],
                             "I": [i.real, i.imag],
                             "abs": {"T": abs(t), "S": abs(s), "I": abs(i)}},
                            indent=2), out)
        return 0
    if args.action == "moment":
        which = args.which or "S"
        value, err = moment4(inst, which)
        _emit(render_report({"config": asdict(inst), "which": which,
                             "moment4": value, "refine_err": err}, indent=2), out)
        return 0
    # profile
    rep = json.loads(reports.s_vs_i_report(
        c=inst.c, X=inst.X,
        points=_resolve(args, cfg, "points", int, 20),
        seed=_resolve(args, cfg, "seed", int, 0)))
    _emit(render_report(rep, indent=2), out)
    return 0 if rep["pass"] else 1


def _cmd_count(args, cfg, out) -> int:
    c = _resolve(args, cfg, "c", float, 1.5)
    gamma = _resolve(args, cfg, "gamma", float, 1.0)
    if args.action == "rs":
        Y = _resolve(args, cfg, "Y", int)
        if Y is None:
            raise UsageError("count rs requires --Y")
        res = count_mod.count_tuples_fast(count_mod.CountSpec(Y, c, gamma))
        _emit(render_report({"config": {"Y": Y, "c": c, "gamma": gamma},
                             "count": res.count, "ambiguous": res.ambiguous},
                            indent=2), out)
        return 0
    if args.action == "ladder":
        Ys = [int(y) for y in (args.Ys or "64,128,256,512,1024").split(",")]
        rep = json.loads(reports.rs_slope_report(c, gamma, Ys))
        if (args.format or "csv") == "json":
            _emit(render_report(rep, indent=2), out)
        else:
            rows = [{"Y": Y, "count": n, "slope": rep["slope"],
                     "reference_slope": rep["reference_slope"]}
                    for Y, n in zip(Ys, rep["counts"])]
            _emit(_csv(rows, ["Y", "count", "slope", "reference_slope"]), out)
        return 0 if rep["pass"] else 1
    # V
    Y = _resolve(args, cfg, "Y", int)
    tau = _resolve(args, cfg, "tau", float)
    if Y is None or tau is None:
        raise UsageError("count V requires --Y and --tau")
    total, buckets = count_mod.harmonic_V(count_mod.CountSpec(Y, c, gamma), tau)
    _emit(render_report({"config": {"Y": Y, "c": c, "tau": tau},
                         "total": total, "buckets": list(buckets)}, indent=2), out)
    return 0


def _cmd_solve(args, cfg, out) -> int:
    c = _resolve(args, cfg, "c", float)
    N = _resolve(args, cfg, "N", float)
    if c is None or N is None:
        raise UsageError("solve requires --N and --c")
    eps = _resolve(args, cfg, "eps", float)
    if args.action == "triple":
        inst = instance_for_theorem1(N, c, eps)
        R = _resolve(args, cfg, "R", float, 1.5 * N)
        counts = triple_counts(inst, [R], want_records=True)[0]
        payload = {"config": {**asdict(inst), "N": N},
                   "R": R, "count": counts.count, "weighted": counts.weighted,
                   "B1": counts.B1, "H": main_term_H(inst, R),
                   "records": [asdict(r) for r in counts.records]}
        _emit(render_report(payload, indent=2), out)
        return 0
    inst = instance_for_theorem2(N, c, eps)
    res = find_sextuple(inst, N)
    payload = {"config": {**asdict(inst), "N": N},
               "found": res.found, "feasible": res.feasible,
               "range_used": res.range_used,
               "records": [] if res.record is None else [asdict(res.record)]}
    _emit(render_report(payload, indent=2), out)
    return 0 if res.found else 1


def _cmd_scan(args, cfg, out) -> int:
    c = _resolve(args, cfg, "c", float, 1.5)
    N = _resolve(args, cfg, "N", float, 1e5)
    inst = instance_for_theorem1(N, c, _resolve(args, cfg, "eps", float))
    rep = exceptional_scan(
        inst,
        samples=_resolve(args, cfg, "samples", int, 50),
        seed=_resolve(args, cfg, "seed", int, 0))
    if (args.format or "json") == "csv":
        rows = [{"R": R, "count": n} for R, n in zip(rep["R_values"], rep["counts"])]
        _emit(_csv(rows, ["R", "count"]), out)
    else:
        _emit(render_report(rep, indent=2), out)
    return 0


def _cmd_mainterm(args, cfg, out) -> int:
    c = _resolve(args, cfg, "c", float)
    N = _resolve(args, cfg, "N", float)
    if c is None or N is None:
        raise UsageError("mainterm requires --N and --c")
    k = _resolve(args, cfg, "k", int, 3)
    if k not in (3, 6):
        raise UsageError("k must be 3 or 6")
    R = _resolve(args, cfg, "R", float)
    if R is None:
        raise UsageError("mainterm requires --R")
    theorem = instance_for_theorem1 if k == 3 else instance_for_theorem2
    inst = theorem(N, c, _resolve(args, cfg, "eps", float))
    h = main_term_H(inst, R)
    _emit(render_report({"config": {**asdict(inst), "N": N},
                         "R": R, "H": h}, indent=2), out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="primeineq")
    top.add_argument("--config", help="flat key=value config file")
    top.add_argument("--out", help="write output to this path instead of stdout")
    top.add_argument("--format", choices=["json", "csv"])
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pairs")
    p.add_argument("action", choices=["eval", "search"])
    p.add_argument("--word")
    p.add_argument("--depth", type=int)
    p.add_argument("--c", type=float)
    p.add_argument("--objective", choices=["kappa", "sum", "minor"])

    p = sub.add_parser("ledger")
    p.add_argument("action")

    p = sub.add_parser("kernel")
    p.add_argument("action", choices=["eval", "check"])
    p.add_argument("--a", type=float)
    p.add_argument("--b", type=float)
    p.add_argument("--r", type=int)
    p.add_argument("--strict", action="store_true")
    p.add_argument("--x-min", dest="x_min", type=float)
    p.add_argument("--x-max", dest="x_max", type=float)
    p.add_argument("--points", type=int)
    p.add_argument("--seed", type=int)

    p = sub.add_parser("sums")
    p.add_argument("action", choices=["eval", "moment", "profile"])
    p.add_argument("--c", type=float)
    p.add_argument("--X", type=float)
    p.add_argument("--eps", type=float)
    p.add_argument("--eta", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--x", type=float)
    p.add_argument("--which", choices=["S", "I"])
    p.add_argument("--points", type=int)

    p = sub.add_parser("count")
    p.add_argument("action", choices=["rs", "ladder", "V"])
    p.add_argument("--Y", type=int)
    p.add_argument("--c", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--tau", type=float)
    p.add_argument("--Ys")

    p = sub.add_parser("solve")
    p.add_argument("action", choices=["triple", "sextuple"])
    p.add_argument("--c", type=float)
    p.add_argument("--N", type=float)
    p.add_argument("--eps", type=float)
    p.add_argument("--R", type=float)

    p = sub.add_parser("scan")
    p.add_argument("--c", type=float)
    p.add_argument("--N", type=float)
    p.add_argument("--eps", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--samples", type=int)

    p = sub.add_parser("mainterm")
    p.add_argument("--c", type=float)
    p.add_argument("--N", type=float)
    p.add_argument("--eps", type=float)
    p.add_argument("--R", type=float)
    p.add_argument("--k", type=int)

    return top


_DISPATCH = {
    "pairs": _cmd_pairs,
    "ledger": _cmd_ledger,
    "kernel": _cmd_kernel,
    "sums": _cmd_sums,
    "count": _cmd_count,
    "solve": _cmd_solve,
    "scan": _cmd_scan,
    "mainterm": _cmd_mainterm,
}


def run(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = _read_config(args.config)
        return _DISPATCH[args.command](args, cfg, args.out)
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
