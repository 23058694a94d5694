"""The benchmark's workloads: which report calls each one makes, at which scale.

Shared by the runner (``run.py``), the per-repetition child (``child.py``), the
output checks (``checks.py``) and the reference generator.  Only the reports
that take a seed see the benchmark seed; the other calls are fixed ladders, so
their work is the same on every seed.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 0
SCALES = ("full", "tiny")


@dataclass(frozen=True)
class Call:
    """One public report call and the number of checked items it produces."""

    report: str             # function name in primeineq.reports
    kwargs: dict
    items: int


# name -> why the workload was chosen (BENCHMARK.json carries the same lines)
WORKLOADS = {
    "triple-regime": "main term H over ~1.2M cached integral_I calls, plus count_B, "
                     "weighted_B1 and the pair index at N=1e7",
    "sextuple": "memory-bound meet-in-the-middle sextuple search and "
                "full_prime_table on an N ladder 1e6, 2e6, 5e6",
    "near-diagonal": "only the count layer: sorted self-join count_tuples_fast and "
                     "the exhaustive count_tuples_naive",
    "moments": "sums layer: integral_I quadrature at many distinct x (33% cache "
               "hits) and sum_S phase sums, via moment4 and S-vs-I",
}

SEXTUPLE_LADDER = {"full": (1e6, 2e6, 5e6), "tiny": (1e5, 2e5)}


def calls(workload: str, seed: int, scale: str = "full") -> list[Call]:
    """The seeded inputs of one repetition of a workload."""
    tiny = scale == "tiny"
    if workload == "triple-regime":
        samples = 2 if tiny else 20
        return [Call("triple_regime_report",
                     {"N": 1e4 if tiny else 1e7, "c": 1.5, "samples": samples,
                      "seed": seed, "workers": 1}, samples)]
    if workload == "sextuple":
        return [Call("sextuple_report", {"N": N, "c": 2.05, "workers": 1}, 1)
                for N in SEXTUPLE_LADDER[scale]]
    if workload == "near-diagonal":
        Ys = (8, 16, 32, 64) if tiny else (64, 128, 256, 512, 1024)
        instances = 5 if tiny else 100
        return [Call("rs_slope_report",
                     {"c": 1.5, "gamma": 1.0, "Ys": Ys, "workers": 1}, len(Ys)),
                Call("count_equivalence_report",
                     {"instances": instances, "seed": seed, "workers": 1},
                     instances + 1)]
    if workload == "moments":
        Xs = (64.0, 128.0, 256.0) if tiny else (256.0, 512.0, 1024.0)
        points = 3 if tiny else 20
        return [Call("moment_ladder_report", {"c": 2.05, "Xs": Xs, "workers": 1},
                     2 * len(Xs)),
                Call("s_vs_i_report",
                     {"c": 2.05, "X": 512.0 if tiny else 4096.0, "points": points,
                      "seed": seed, "workers": 1}, points)]
    raise ValueError(f"unknown workload {workload!r}")


def n_label(N: float) -> str:
    """1e6 -> '1e6', 2000000.0 -> '2e6'."""
    mantissa, exponent = f"{N:.0e}".split("e")
    return f"{mantissa}e{int(exponent)}"
