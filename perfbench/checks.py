"""Output checks for every workload; each failed item counts towards fail_share.

Reference values in ``reference.json`` are pinned for the default seed; the
calls that take no seed make the same work on every seed, so their values
hold for every seed.  Integer counts, sextuple records and count-equivalence
rows must match exactly; B1, H, moments and |S - I| within ``REL_TOL``, which
admits a main term computed another way (a physical-space H agrees with
today's to 4e-8).

Checks that need no reference run on every seed:
- every triple count is recounted here, independently of ``primeineq``: float64
  pair sums searched with a window widened by ``TripleOracle.MARGIN`` (far
  beyond the long-double ulp), then every candidate re-tested at 40 digits;
- B1 must lie between the kernel-weighted bounds from the same candidates;
- count-equivalence rows must have fast == naive;
- sextuple records are re-verified at 40 digits.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

from workloads import DEFAULT_SEED, Call, calls, n_label

REL_TOL = 1e-6


def _close(value, ref: float, rel: float = REL_TOL) -> bool:
    return (isinstance(value, (int, float)) and math.isfinite(value)
            and abs(value - ref) <= rel * abs(ref))


def primes_in(lo: int, hi: int) -> np.ndarray:
    """Primes p with lo <= p <= hi, by a plain sieve of Eratosthenes."""
    if hi < 2:
        return np.zeros(0, dtype=np.int64)
    sieve = np.ones(hi + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(hi) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    return (np.nonzero(sieve[lo:])[0] + lo).astype(np.int64)


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))


class TripleOracle:
    """Ordered prime triples in (X, 2X]^3 near R, decided at 40 digits."""

    MARGIN = 1e-3   # float64 pair sums at 4e7 are good to ~1e-8

    def __init__(self, N: float, c: float):
        X = (N / 3.0) ** (1.0 / c)
        self.eps = 1.0 / math.log(N)
        a, b = 0.9 * self.eps, 0.1 * self.eps   # the kernel of weighted_B1
        primes = primes_in(math.floor(X) + 1, math.floor(2 * X))
        self.n = len(primes)
        self.logs = np.log(primes.astype(float))
        self.powers = primes.astype(float) ** c
        sums = (self.powers[:, None] + self.powers[None, :]).ravel()
        self.order = np.argsort(sums)
        self.sums = sums[self.order]
        with mpmath.workdps(40):
            self.exact = [mpmath.mpf(int(p)) ** mpmath.mpf(c) for p in primes]
            self.m_eps = mpmath.mpf(self.eps)
            self.m_flat = mpmath.mpf(a) - mpmath.mpf(b)   # phi == 1 up to here
            self.m_support = mpmath.mpf(a) + mpmath.mpf(b)  # phi == 0 from here

    def at(self, R: float) -> tuple[int, float, float]:
        """(sharp count, weight where phi == 1, weight where phi > 0) at R."""
        width = self.eps + self.MARGIN   # a + b == eps
        targets = R - self.powers
        lo = np.searchsorted(self.sums, targets - width, side="left")
        hi = np.searchsorted(self.sums, targets + width, side="right")
        count, flat, support = 0, 0.0, 0.0
        with mpmath.workdps(40):
            mR = mpmath.mpf(R)
            for k in np.nonzero(hi > lo)[0]:
                for pos in range(int(lo[k]), int(hi[k])):
                    i, j = divmod(int(self.order[pos]), self.n)
                    dev = abs(self.exact[i] + self.exact[j] + self.exact[k] - mR)
                    weight = float(self.logs[i] * self.logs[j] * self.logs[k])
                    if dev < self.m_eps:
                        count += 1
                    if dev <= self.m_flat:
                        flat += weight
                    if dev < self.m_support:
                        support += weight
        return count, flat, support


class Checker:
    """Checks the outputs of one workload's repetitions against its inputs."""

    def __init__(self, workload: str, seed: int, scale: str, reference: dict):
        self.calls = calls(workload, seed, scale)
        self.ref = reference.get(scale, {}).get(workload, {})
        self.seeded = seed == DEFAULT_SEED   # seeded rows are pinned for it only
        self._oracles: dict[tuple[float, float], TripleOracle] = {}
        self._triple_truth: dict[tuple[float, float, float], tuple] = {}

    def check(self, outputs: list, errors: list) -> list[str | None]:
        """One entry per item: None if it passed, else what was wrong."""
        verdicts: list[str | None] = []
        for call, out, err in zip(self.calls, outputs, errors):
            if out is None:
                verdicts += [f"{call.report} raised {err}"] * call.items
                continue
            got = getattr(self, "_" + call.report)(call, out)
            if len(got) != call.items:
                raise AssertionError(f"{call.report}: {len(got)} verdicts "
                                     f"for {call.items} items")
            verdicts += [f"{call.report}: {v}" if v else None for v in got]
        return verdicts

    def _pinned(self, key: str, n: int) -> list:
        """Pinned rows of a seeded call, or None each when the seed has none."""
        rows = self.ref.get(key) if self.seeded else None
        return rows or [None] * n

    @staticmethod
    def _rows(out: dict, key: str, n: int) -> list:
        rows = out.get(key) or []
        return list(rows[:n]) + [None] * (n - len(rows))

    # ------------------------------------------------------------ triples
    def _triple_regime_report(self, call: Call, out: dict) -> list:
        N, c = call.kwargs["N"], call.kwargs["c"]
        pinned = self._pinned("rows", call.items)
        verdicts = []
        for row, ref in zip(self._rows(out, "rows", call.items), pinned):
            if row is None:
                verdicts.append("row missing")
                continue
            R = row["R"]
            problems = []
            if not N < R <= 2 * N:
                problems.append(f"R={R} outside (N, 2N]")
            count, flat, support = self._triple_at(N, c, R)
            if row["count"] != count:
                problems.append(f"R={R}: count {row['count']} != {count}")
            B1, H = row["B1"], row["H"]
            if not flat * (1 - 1e-9) <= B1 <= support * (1 + 1e-9):
                problems.append(f"R={R}: B1 {B1} outside [{flat}, {support}]")
            if not (math.isfinite(H) and H > 0):
                problems.append(f"R={R}: H {H} not finite and positive")
            if ref is not None:
                if R != ref["R"] or row["count"] != ref["count"]:
                    problems.append(f"R={R}: differs from pinned row {ref}")
                if not (_close(B1, ref["B1"]) and _close(H, ref["H"])):
                    problems.append(f"R={R}: B1 {B1}, H {H} not within "
                                    f"{REL_TOL} of {ref['B1']}, {ref['H']}")
            verdicts.append("; ".join(problems) or None)
        return verdicts

    def _triple_at(self, N: float, c: float, R: float) -> tuple:
        key = (N, c, R)
        if key not in self._triple_truth:
            if (N, c) not in self._oracles:
                self._oracles[(N, c)] = TripleOracle(N, c)
            self._triple_truth[key] = self._oracles[(N, c)].at(R)
        return self._triple_truth[key]

    # ---------------------------------------------------------- sextuples
    def _sextuple_report(self, call: Call, out: dict) -> list:
        N, c = call.kwargs["N"], call.kwargs["c"]
        primes = out.get("primes")
        if not out.get("found") or not primes or len(primes) != 6:
            return [f"N={N}: no sextuple found ({primes})"]
        problems = []
        if not all(_is_prime(p) for p in primes):
            problems.append(f"N={N}: {primes} are not all prime")
        with mpmath.workdps(40):
            dev = abs(mpmath.fsum(mpmath.mpf(p) ** mpmath.mpf(c) for p in primes)
                      - mpmath.mpf(N))
            if not dev < mpmath.mpf(1.0 / math.log(N)):
                problems.append(f"N={N}: {primes} misses the window by {dev}")
        if out.get("ambiguous"):
            problems.append(f"N={N}: record flagged ambiguous")
        if not abs(out.get("deviation", math.inf) - float(dev)) < 1e-6:
            problems.append(f"N={N}: deviation {out.get('deviation')} != {float(dev)}")
        pinned = self.ref.get("records", {}).get(n_label(N))
        if pinned is not None and primes != pinned:
            problems.append(f"N={N}: record {primes} != pinned {pinned}")
        return ["; ".join(problems) or None]

    # ------------------------------------------------------ near-diagonal
    def _rs_slope_report(self, call: Call, out: dict) -> list:
        pinned = self.ref.get("rs_counts")
        verdicts = []
        for i, count in enumerate(self._rows(out, "counts", call.items)):
            Y = call.kwargs["Ys"][i]
            if pinned is None:
                verdicts.append("no pinned rs-slope counts")
            elif count != pinned[i]:
                verdicts.append(f"Y={Y}: count {count} != pinned {pinned[i]}")
            else:
                verdicts.append(None)
        return verdicts

    def _count_equivalence_report(self, call: Call, out: dict) -> list:
        instances = call.items - 1
        pinned = self._pinned("equivalence_rows", instances)
        verdicts = []
        for row, ref in zip(self._rows(out, "rows", instances), pinned):
            if row is None:
                verdicts.append("row missing")
            elif not (row["fast"] == row["naive"] and row["equal"] is True
                      and row["fast_ambiguous"] == row["naive_ambiguous"]):
                verdicts.append(f"fast != naive in {row}")
            elif ref is not None and row != ref:
                verdicts.append(f"{row} != pinned {ref}")
            else:
                verdicts.append(None)
        anchor = out.get("anchor") or {}
        ok = anchor.get("fast") == 6 and anchor.get("naive") == 6
        verdicts.append(None if ok else f"anchor {anchor} is not 6 == 6")
        return verdicts

    # ------------------------------------------------------------ moments
    def _moment_ladder_report(self, call: Call, out: dict) -> list:
        pinned = self.ref.get("moment_ladder") or [None] * call.items
        verdicts = []
        for row, ref in zip(self._rows(out, "rows", call.items), pinned):
            if row is None:
                verdicts.append("row missing")
            elif ref is None:
                verdicts.append("no pinned moment")
            elif (row["X"], row["which"]) != (ref["X"], ref["which"]):
                verdicts.append(f"row {row['X']}, {row['which']} != pinned "
                                f"{ref['X']}, {ref['which']}")
            elif not _close(row["moment4"], ref["moment4"]):
                verdicts.append(f"X={row['X']} {row['which']}: moment4 "
                                f"{row['moment4']} != pinned {ref['moment4']}")
            else:
                verdicts.append(None)
        return verdicts

    def _s_vs_i_report(self, call: Call, out: dict) -> list:
        X, c = call.kwargs["X"], call.kwargs["c"]
        tau = X ** (1.0 - c - 0.05)
        cap = 5.0 * X ** 0.75
        pinned = self._pinned("s_vs_i_rows", call.items)
        verdicts = []
        for row, ref in zip(self._rows(out, "rows", call.items), pinned):
            if row is None:
                verdicts.append("row missing")
                continue
            x, d = row["x"], row["abs_S_minus_I"]
            problems = []
            if not abs(x) <= tau:
                problems.append(f"x={x} outside [-tau, tau]")
            if not 0 <= d <= cap:
                problems.append(f"x={x}: |S - I| = {d} outside [0, {cap}]")
            if ref is not None and not (x == ref["x"]
                                        and _close(d, ref["abs_S_minus_I"])):
                problems.append(f"x={x}: |S - I| = {d} != pinned {ref}")
            verdicts.append("; ".join(problems) or None)
        return verdicts
