"""Regenerate ``reference.json``, the pinned values the output checks use.

    python3 perfbench/make_reference.py

Run from the root of a checkout whose outputs are trusted.  Values are pinned
for the default seed only.  Triple counts are pinned from the independent
40-digit recount in ``checks.TripleOracle``, never from ``count_B``; a
disagreement is printed.  Sextuple records are pinned only
after they pass the 40-digit re-verification.  Everything else (B1, H, moments,
|S - I|, rs-slope and count-equivalence rows) is today's output.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import Checker, TripleOracle  # noqa: E402
from run import spawn  # noqa: E402
from workloads import DEFAULT_SEED, SCALES, calls, n_label  # noqa: E402


def outputs(workload: str, scale: str) -> list[dict]:
    rep = spawn(Path.cwd(), workload, DEFAULT_SEED, scale, "run",
                time.monotonic() + 900)
    if any(rep.errors):
        raise SystemExit(f"{workload}: {rep.errors}")
    return rep.outputs


def pin(scale: str) -> dict:
    (triple,) = outputs("triple-regime", scale)
    call = calls("triple-regime", DEFAULT_SEED, scale)[0]
    oracle = TripleOracle(call.kwargs["N"], call.kwargs["c"])
    rows = []
    for row in triple["rows"]:
        count = oracle.at(row["R"])[0]
        if count != row["count"]:
            print(f"R={row['R']}: count_B gives {row['count']}, "
                  f"the 40-digit recount {count}", file=sys.stderr)
        rows.append({"R": row["R"], "count": count,
                     "B1": row["B1"], "H": row["H"]})
    rs, equivalence = outputs("near-diagonal", scale)
    ladder, s_vs_i = outputs("moments", scale)
    ref: dict = {
        "triple-regime": {"rows": rows},
        "sextuple": {"records": {}},
        "near-diagonal": {"rs_counts": rs["counts"],
                          "equivalence_rows": equivalence["rows"]},
        "moments": {"moment_ladder": [{k: r[k] for k in ("X", "which", "moment4")}
                                      for r in ladder["rows"]],
                    "s_vs_i_rows": s_vs_i["rows"]},
    }

    sextuples = outputs("sextuple", scale)
    verdicts = Checker("sextuple", DEFAULT_SEED, scale, {}).check(
        sextuples, [None] * len(sextuples))
    if any(verdicts):
        raise SystemExit(f"sextuple records fail re-verification: {verdicts}")
    for call, out in zip(calls("sextuple", DEFAULT_SEED, scale), sextuples):
        ref["sextuple"]["records"][n_label(call.kwargs["N"])] = out["primes"]
    return ref


def main() -> int:
    reference = {scale: pin(scale) for scale in SCALES}
    (HERE / "reference.json").write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
