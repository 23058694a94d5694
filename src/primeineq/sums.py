"""Exponential sums over primes, the comparison integral, and their moments.

Central objects, for a scale X and a non-integer exponent c:

    T(x) = sum_{X < n <= 2X} e(n^c x)
    S(x) = sum_{X < p <= 2X} (log p) e(p^c x)
    I(x) = integral_X^{2X} e(t^c x) dt

Powers n^c are computed in extended precision (x86 long double, ~19
significant digits) because at desk scale n^c reaches 1e13 while the phase
and window comparisons care about absolute offsets well below 1.  All
reductions use compensated or pairwise summation in a fixed order, so results
are identical regardless of how work is distributed.

c = 1 is accepted everywhere as a degenerate test mode (closed forms exist
and make good oracles) even though the estimates themselves exclude integer c.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

LONG = np.longdouble
TWO_PI = 2.0 * np.pi

_MAX_SIEVE = 2 ** 40
_BILINEAR_GUARD = 10 ** 9
_CACHE_SIZE = 8     # entries per module cache (prime tables, powers, pair sums)


class GuardError(ValueError):
    """A resource guard refused the work; names the guard and its limit."""

    def __init__(self, guard: str, limit: int, detail: str):
        super().__init__(f"{guard} guard (limit {limit}): {detail}")
        self.guard, self.limit = guard, limit


class ConvergenceError(ArithmeticError):
    """A numerical routine did not converge; names it and its last error."""

    def __init__(self, routine: str, error: float):
        super().__init__(f"{routine} did not converge (last error {error:.3g})")
        self.routine, self.error = routine, error


@dataclass(frozen=True)
class ProblemInstance:
    """One Diophantine experiment: |p_1^c + ... + p_k^c - R| < eps near scale X."""

    c: float
    X: float
    eps: float
    k: int = 3
    eta: float = 0.05
    tau: float = field(default=None)  # type: ignore[assignment]
    K: float = field(default=None)    # type: ignore[assignment]

    def __post_init__(self):
        if self.X < 3:
            raise ValueError("X must be >= 3")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.tau is None:
            object.__setattr__(self, "tau", self.X ** (1.0 - self.c - self.eta))
        if self.K is None:
            object.__setattr__(self, "K", math.log(self.X) ** 10)
        if not self.tau < self.K:
            raise ValueError(f"need tau < K, got tau={self.tau}, K={self.K}")

    @property
    def log_X(self) -> float:
        return math.log(self.X)

    @property
    def E(self) -> float:
        # exp(-(log X)^{1/5}); carried for reporting only.
        return math.exp(-self.log_X ** 0.2)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 3.3e24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True, eq=False)
class PrimeTable:
    """Primes in (X, 2X] with natural logs precomputed."""

    X: float
    primes: np.ndarray   # int64, strictly increasing
    logs: np.ndarray     # float64, log of each prime

    def __len__(self) -> int:
        return len(self.primes)

    def powers(self, c: float) -> np.ndarray:
        """p^c for every prime, in long double."""
        return self.primes.astype(LONG) ** LONG(c)


@functools.lru_cache(maxsize=_CACHE_SIZE)
def sieve_primes(X: float, verify: bool = True) -> PrimeTable:
    """Exactly the primes in (X, 2X], by a segmented sieve.

    Each entry is cross-checked against deterministic Miller-Rabin on
    construction (disable with verify=False for very large tables).  The
    last few tables are cached, so equal arguments return the same object.
    """
    primes = sieve_range(int(math.floor(X)) + 1, int(math.floor(2 * X)), verify)
    return PrimeTable(X, primes, np.log(primes.astype(float)))


def sieve_range(lo: int, hi: int, verify: bool = True) -> np.ndarray:
    """Exactly the primes p with lo <= p <= hi (int64, ascending), by a
    segmented sieve; verify as in sieve_primes."""
    if hi > _MAX_SIEVE:
        raise GuardError("sieve-range", _MAX_SIEVE, f"upper end {hi}")
    lo = max(lo, 2)
    if hi < lo:
        return np.array([], dtype=np.int64)

    root = int(math.isqrt(hi))
    base = np.ones(root + 1, dtype=bool)
    base[:2] = False
    for p in range(2, int(math.isqrt(root)) + 1):
        if base[p]:
            base[p * p:: p] = False
    small = np.nonzero(base)[0]

    seg = np.ones(hi - lo + 1, dtype=bool)
    for p in small:
        start = max(p * p, ((lo + p - 1) // p) * p)
        if start <= hi:
            seg[start - lo:: p] = False
    primes = (np.nonzero(seg)[0] + lo).astype(np.int64)

    if verify:
        for p in primes:
            if not _is_prime(int(p)):
                raise AssertionError(f"sieve produced composite {p}")
    return primes


def _phase_sum(values_c: np.ndarray, weights: Optional[np.ndarray], x: float) -> complex:
    """sum w_n * e(v_n * x) with the phase reduced mod 1 in long double."""
    phase = np.mod(values_c * LONG(x), LONG(1))
    ang = (TWO_PI * phase).astype(float)
    re = np.cos(ang)
    im = np.sin(ang)
    if weights is not None:
        re = re * weights
        im = im * weights
    return complex(math.fsum(re.tolist()), math.fsum(im.tolist()))


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _integer_powers(X: float, c: float) -> np.ndarray:
    n = np.arange(int(math.floor(X)) + 1, int(math.floor(2 * X)) + 1, dtype=np.int64)
    return n.astype(LONG) ** LONG(c)


def sum_T(inst: ProblemInstance, x: float) -> complex:
    """T(x) = sum over integers n in (X, 2X] of e(n^c x)."""
    return _phase_sum(_integer_powers(inst.X, inst.c), None, x)


def sum_S(inst: ProblemInstance, x: float, table: Optional[PrimeTable] = None) -> complex:
    """S(x) = sum over primes p in (X, 2X] of (log p) e(p^c x)."""
    if table is None:
        table = sieve_primes(inst.X)
    return _phase_sum(table.powers(inst.c), table.logs, x)


# 10-point Gauss-Legendre rule on [-1, 1].
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)


def integral_I(inst: ProblemInstance, x: float, abs_tol_factor: float = 1e-9) -> complex:
    """I(x) = integral over [X, 2X] of e(t^c x) dt.

    Composite 10-point Gauss-Legendre panels, one per local oscillation
    period 1/(c t^{c-1} |x|), accepted by comparison against a doubled panel
    count (tolerance 1e-9 * X absolute); ConvergenceError after six
    doublings without agreement.  Phases are formed in float64 while
    the total phase (2X)^c |x| stays below 1e6 (mod-1 reduction then loses
    under 1e-10 absolute) and in long double beyond that.
    """
    X, c = inst.X, inst.c
    if x == 0.0:
        return complex(X, 0.0)
    # Shortest period occurs at t = 2X for c > 1.
    freq = abs(x) * c * (2 * X) ** (c - 1)
    panels = int(math.ceil(freq * X)) + 4
    fast = (2 * X) ** c * abs(x) < 1e6

    def estimate(num: int) -> complex:
        edges = np.linspace(X, 2 * X, num + 1)
        half = 0.5 * (edges[1] - edges[0])
        mid = 0.5 * (edges[1:] + edges[:-1])
        # t-nodes as a (panels, 10) matrix, phases reduced mod 1
        if fast:
            t = mid[:, None] + half * _GL_NODES[None, :]
            phase = np.mod(t ** c * x, 1.0)
        else:
            t = mid.astype(LONG)[:, None] + LONG(half) * _GL_NODES[None, :].astype(LONG)
            phase = np.mod(t ** LONG(c) * LONG(x), LONG(1)).astype(float)
        vals = np.exp(2j * np.pi * phase)
        return complex(half * np.sum(vals @ _GL_WEIGHTS))

    est = estimate(panels)
    tol = abs_tol_factor * X
    for _ in range(6):
        est2 = estimate(2 * panels)
        error = abs(est2 - est)
        if error <= tol:
            return est2
        est, panels = est2, 2 * panels
    raise ConvergenceError("integral_I", error)


def moment_grid(inst: ProblemInstance, points_per_octave: int = 32) -> np.ndarray:
    """Nonnegative x-grid for fourth-moment integration on [0, tau].

    Uniform with step X^-c / 8 on [0, X^-c], then geometric octaves up to
    tau with a fixed point count per octave.
    """
    x0 = inst.X ** (-inst.c)
    grid = list(np.linspace(0.0, min(x0, inst.tau), 9))
    lo = min(x0, inst.tau)
    while lo < inst.tau:
        hi = min(2 * lo, inst.tau)
        grid.extend(np.linspace(lo, hi, points_per_octave + 1)[1:])
        lo = hi
    return np.array(sorted(set(grid)))


def moment4(inst: ProblemInstance, which: str = "S",
            table: Optional[PrimeTable] = None,
            points_per_octave: int = 32) -> tuple[float, float]:
    """integral_{-tau}^{tau} |S(x)|^4 dx (or |I|^4), with an error estimate.

    The integrand is even (conjugate symmetry), so 2x the [0, tau] integral.
    The returned error estimate is the change under grid refinement.  Each
    point of the two grids is evaluated once; halving a linspace step is
    exact, so the coarse grid lies inside the fine one.
    """
    if which not in ("S", "I"):
        raise ValueError("which must be 'S' or 'I'")
    grids = [moment_grid(inst, ppo)
             for ppo in (points_per_octave, 2 * points_per_octave)]
    xs = np.array(sorted(set(grids[0]).union(grids[1])))
    if which == "S":
        tbl = table if table is not None else sieve_primes(inst.X)
        vals = np.array([abs(sum_S(inst, float(x), tbl)) for x in xs])
    else:
        vals = np.array([abs(integral_I(inst, float(x))) for x in xs])
    coarse, fine = (2.0 * float(np.trapezoid(vals[np.searchsorted(xs, g)] ** 4, g))
                    for g in grids)
    return fine, abs(fine - coarse)


def s_minus_i_profile(inst: ProblemInstance, xs: Sequence[float],
                      table: Optional[PrimeTable] = None
                      ) -> tuple[list[tuple[float, float]], float]:
    """Pointwise |S(x) - I(x)| at the given x in [-tau, tau], plus the max."""
    rows: list[tuple[float, float]] = []
    tbl = table if table is not None else sieve_primes(inst.X)
    for x in xs:
        if abs(x) > inst.tau * (1 + 1e-12):
            raise ValueError(f"|x| = {abs(x)} exceeds tau = {inst.tau}")
        d = abs(sum_S(inst, float(x), tbl) - integral_I(inst, float(x)))
        rows.append((float(x), d))
    return rows, max((d for _, d in rows), default=0.0)


def weyl_differencing_check(z: Sequence[complex], Q: int) -> tuple[float, float]:
    """Both sides of the Weyl-van der Corput differencing inequality.

    z is indexed over (M, 2M] (z[0] is z_{M+1}).  Returns (lhs, rhs) with
    lhs = |sum z_m|^2 and rhs the averaged bilinear form times (2 + M/Q);
    the q-sum is real by symmetry, so its real part is returned.
    """
    z = np.asarray(z, dtype=complex)
    M = len(z)
    if M < 1 or Q < 1:
        raise ValueError("need a nonempty sequence and Q >= 1")
    lhs = abs(np.sum(z)) ** 2
    total = 0.0
    for q in range(-Q + 1, Q):
        # need M < m+q <= 2M and M < m-q <= 2M, with indices m-M-1 into z
        lo = max(1, 1 + q, 1 - q)
        hi = min(M, M + q, M - q)
        if hi < lo:
            continue
        idx = np.arange(lo, hi + 1)
        inner = np.sum(z[idx + q - 1] * np.conj(z[idx - q - 1]))
        total += (1.0 - abs(q) / Q) * inner.real
    rhs = (2.0 + M / Q) * total
    return float(lhs), float(rhs)


def bilinear_sum(M: int, L: int, a: Sequence[float], b: Optional[Sequence[float]],
                 c: float, x: float) -> complex:
    """Double sum over (M, 2M] x (L, 2L] of a(m) b(l) e(x m^c l^c).

    b = None means the smooth (Type-I style) case b == 1.  Desk scale only;
    guarded at 1e9 terms.
    """
    if M * L > _BILINEAR_GUARD:
        raise GuardError("bilinear", _BILINEAR_GUARD, f"M * L = {M * L} terms")
    a = np.asarray(a, dtype=float)
    if len(a) != M:
        raise ValueError(f"coefficient vector a must have length M={M}")
    bw = None if b is None else np.asarray(b, dtype=float)
    if bw is not None and len(bw) != L:
        raise ValueError(f"coefficient vector b must have length L={L}")

    ms = np.arange(M + 1, 2 * M + 1, dtype=np.int64).astype(LONG) ** LONG(c)
    ls = np.arange(L + 1, 2 * L + 1, dtype=np.int64).astype(LONG) ** LONG(c)
    total = 0.0 + 0.0j
    for i in range(M):
        phase = np.mod(ms[i] * ls * LONG(x), LONG(1)).astype(float)
        row = np.exp(2j * np.pi * phase)
        if bw is not None:
            row = row * bw
        total += a[i] * complex(np.sum(row))
    return total
