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

S, T and I each take a scalar x or a whole x-grid per call, and a value is
bitwise the same whichever batch of x it is computed in.  S and T sum each
x's terms by numpy's pairwise sum (see _phase_sums), within
(ceil(log2 n) + 1) 2^-53 sum |w_n| of the correctly rounded sum of the same
n terms in each of the real and imaginary parts.

I(x) is computed in s = t^c, where its amplitude s^(1/c-1)/c has no
stationary point: by Levin's collocation method (D. Levin, Math. Comp. 38
(1982) 531-538) where it oscillates, its system solved in Chebyshev
coefficients by a recurrence from the top coefficient down, and by
Gauss-Legendre where it barely does, for a whole array of x in one call
(see integral_I).

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

# the sieve's one limit: its flags take at most 2 GiB, and _are_prime is
# exact up to it
_MAX_SIEVE = 2 ** 31


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
    """One Diophantine experiment: |p_1^c + ... + p_k^c - R| < eps near scale
    X, with c finite and nonzero; eps defaults to 1/log X.  The arc cuts
    tau = X^(1 - c - eta) and K = (log X)^10 are computed, not set, and must
    have tau < K."""

    c: float
    X: float
    eps: float = field(default=None)  # type: ignore[assignment]
    k: int = 3
    eta: float = 0.05
    tau: float = field(init=False)
    K: float = field(init=False)

    def __post_init__(self):
        for name in ("c", "X", "eps", "eta"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {name} = {value}")
        if self.c == 0:   # t^c has density s^(1/c - 1)/c
            raise ValueError(f"c must be nonzero, got c = {self.c}")
        if self.X < 3:
            raise ValueError("X must be >= 3")
        if self.eps is None:
            object.__setattr__(self, "eps", 1.0 / math.log(self.X))
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        object.__setattr__(self, "tau", self.X ** (1.0 - self.c - self.eta))
        object.__setattr__(self, "K", math.log(self.X) ** 10)
        if not self.tau < self.K:
            raise ValueError(f"need tau < K, got tau={self.tau}, K={self.K}")


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)   # trial divisors
# bases 2, 3, 5, 7 decide every n < 3,215,031,751, the smallest strong
# pseudoprime to all four (G. Jaeschke, Math. Comp. 61 (1993) 915-926),
# and so every n up to _MAX_SIEVE
_MR_WITNESSES = (2, 3, 5, 7)
_MR_CHUNK = 1 << 14   # numbers tested at once by _are_prime


def _are_prime(n: np.ndarray) -> np.ndarray:
    """Whether each entry of an int64 array with entries up to _MAX_SIEVE
    is prime: trial division by _SMALL_PRIMES, then Miller-Rabin to the
    bases _MR_WITNESSES, which is exact there, in int64 numpy arithmetic,
    where x * x mod n cannot overflow, _MR_CHUNK numbers at a time."""
    n = np.asarray(n, dtype=np.int64)
    if len(n) > _MR_CHUNK:
        return np.concatenate([_are_prime(n[k:k + _MR_CHUNK])
                               for k in range(0, len(n), _MR_CHUNK)])
    prime = n >= 2
    undecided = prime.copy()   # not yet decided by trial division
    for p in _SMALL_PRIMES:
        divides = undecided & (n % p == 0)
        prime[divides] = n[divides] == p
        undecided &= ~divides
    m = n[undecided]       # odd, above 37, so n - 1 = d 2^s with s >= 1
    if len(m) == 0:
        return prime
    d, s = m - 1, np.zeros(len(m), dtype=np.int64)
    while True:
        even = d % 2 == 0
        if not even.any():
            break
        d[even] //= 2
        s[even] += 1
    # x = a^d mod m for every base a at once, by square and multiply
    x = np.ones((len(_MR_WITNESSES), len(m)), dtype=np.int64)
    base = np.array(_MR_WITNESSES, dtype=np.int64)[:, None] % m
    e = d.copy()
    while e.any():
        odd = (e & 1) == 1
        x = np.where(odd, x * base % m, x)
        base = base * base % m
        e >>= 1
    witness_passed = (x == 1) | (x == m - 1)
    for r in range(1, int(s.max())):   # the s - 1 squarings
        x = x * x % m
        witness_passed |= (x == m - 1) & (r < s)
    prime[undecided] = witness_passed.all(axis=0)
    return prime


def _verify_primes(primes: np.ndarray) -> None:
    """Check every entry, each at most _MAX_SIEVE, by _are_prime;
    AssertionError names the first composite."""
    bad = np.flatnonzero(~_are_prime(primes))
    if len(bad):
        raise AssertionError(f"sieve produced composite {primes[bad[0]]}")


@dataclass(frozen=True, eq=False)
class PrimeTable:
    """Primes with their natural logs, a new table per call: those in
    (X, 2X] from sieve_primes, or all up to a bound from
    solver.full_prime_table.  The logs are derived from the primes."""

    primes: np.ndarray   # int64, strictly increasing
    logs: np.ndarray = field(init=False)   # float64, log of each prime

    def __post_init__(self):
        object.__setattr__(self, "logs", np.log(self.primes.astype(float)))

    def __len__(self) -> int:
        return len(self.primes)

    def powers(self, c: float) -> np.ndarray:
        """p^c for every prime, in long double."""
        return self.primes.astype(LONG) ** LONG(c)


def sieve_primes(X: float) -> PrimeTable:
    """The table of exactly the primes in (X, 2X], from sieve_range.  Each
    call sieves afresh; a caller that needs the table twice keeps it."""
    return PrimeTable(sieve_range(int(math.floor(X)) + 1, int(math.floor(2 * X))))


def sieve_range(lo: int, hi: int) -> np.ndarray:
    """Exactly the primes p with lo <= p <= hi (int64, ascending), by the
    sieve of Eratosthenes: one flag for every number of [lo, hi], all
    allocated at once, crossed off by the primes up to sqrt(hi).  Each
    prime is checked by deterministic Miller-Rabin (_verify_primes).
    GuardError past hi = _MAX_SIEVE."""
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
    _verify_primes(primes)
    return primes


_PHASE_BLOCK = 1 << 14   # terms (x times values) per block of _phase_sums


def _phase_sums(values: np.ndarray, weights: Optional[np.ndarray],
                x: float | np.ndarray) -> complex | np.ndarray:
    """sum_n w_n e(v_n x) at a scalar x (complex) or at every entry of an
    array of x (complex array of the same shape), the phase v_n x reduced
    mod 1 in long double; w_n = 1 if ``weights`` is None.

    The x come in blocks of about _PHASE_BLOCK terms, one row of terms per
    x, and each row's real and imaginary parts are summed by numpy's
    pairwise row sum.  Every operation on a row is elementwise or within
    the row, so a value is bitwise the same whichever batch of x it is
    computed in.  Against the correctly rounded sums (math.fsum of the same
    terms) each part is off by at most (ceil(log2 n) + 1) 2^-53 sum |w_n|.
    ValueError if any x is not finite.
    """
    xs = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xs)):
        raise ValueError("x must be finite")
    flat = xs.reshape(-1)
    rows = max(1, _PHASE_BLOCK // max(len(values), 1))
    out = np.empty(len(flat), dtype=complex)
    for start in range(0, len(flat), rows):
        block = flat[start:start + rows].astype(LONG)
        ang = (TWO_PI * np.mod(block[:, None] * values, LONG(1))).astype(float)
        re, im = np.cos(ang), np.sin(ang)
        if weights is not None:
            re *= weights
            im *= weights
        out.real[start:start + rows] = re.sum(axis=1)
        out.imag[start:start + rows] = im.sum(axis=1)
    return complex(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)


# sum_T forms every integer of (X, 2X] and its long-double power at once:
# 56 B a term at its peak (tracemalloc, at X = 1e6 and 4e6), so 2^25 terms
# stay under 2 GiB
_MAX_TERMS = 2 ** 25


def sum_T(inst: ProblemInstance, x: float | np.ndarray) -> complex | np.ndarray:
    """T(x) = sum over integers n in (X, 2X] of e(n^c x), at a scalar x
    (complex) or at every entry of an array of x (complex array of the same
    shape), by _phase_sums: pairwise sums, within (ceil(log2 n) + 1) 2^-53 n
    of the correctly rounded sum in each part, and bitwise the same whichever
    batch of x a value is computed in; ValueError if any x is not finite,
    GuardError past _MAX_TERMS terms."""
    lo, hi = int(math.floor(inst.X)) + 1, int(math.floor(2 * inst.X))
    if hi - lo + 1 > _MAX_TERMS:
        raise GuardError("terms", _MAX_TERMS, f"{hi - lo + 1} integers in (X, 2X]")
    n = np.arange(lo, hi + 1, dtype=np.int64)
    return _phase_sums(n.astype(LONG) ** LONG(inst.c), None, x)


def sum_S(inst: ProblemInstance, x: float | np.ndarray) -> complex | np.ndarray:
    """S(x) = sum over primes p in (X, 2X] of (log p) e(p^c x), at a scalar x
    (complex) or at every entry of an array of x (complex array of the same
    shape), by _phase_sums: pairwise sums, within
    (ceil(log2 n) + 1) 2^-53 sum log p of the correctly rounded sum in each
    part, n the number of primes, and bitwise the same whichever batch of x
    a value is computed in; ValueError if any x is not finite."""
    table = sieve_primes(inst.X)
    return _phase_sums(table.powers(inst.c), table.logs, x)


_LEVELS = (32, 48)          # node counts of integral_I's two estimates
_I_ABS_TOL = 1e-9           # integral_I's largest estimate difference, as a share of X


def legvander(x, deg: int) -> np.ndarray:
    """The Legendre values P_0(x), ..., P_deg(x) along a new trailing axis,
    by the three-term recurrence k P_k = (2k - 1) x P_{k-1} - (k - 1) P_{k-2}."""
    x = np.asarray(x, float)
    v = np.empty(x.shape + (deg + 1,))
    v[..., 0] = 1.0
    if deg > 0:
        v[..., 1] = x
    for k in range(2, deg + 1):
        v[..., k] = (v[..., k - 1] * x * (2 * k - 1) - v[..., k - 2] * (k - 1)) / k
    return v


@functools.cache
def leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on [-1, 1], read-only, by
    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of the
    Legendre polynomials, each refined by one Newton step on P_n, and the
    weights are 2 / ((1 - x^2) P_n'(x)^2) at the refined nodes, with
    P_n' = n (x P_n - P_{n-1}) / (x^2 - 1); both are symmetrised about 0.
    For every n from 1 to 64 the nodes differ from those of
    numpy.polynomial.legendre.leggauss by at most 1.2e-16 and the weights
    by at most 4.9e-15 (1.9e-12 relative, at the smallest weights); against
    a 40-digit rule at n = 20, 40 and 64 these weights are within 6e-14
    relative, numpy's within 1.3e-12."""
    def pn(x):   # P_n(x) and P_n'(x)
        p = legvander(x, n)
        return p[:, n], n * (x * p[:, n] - p[:, n - 1]) / (x * x - 1.0)

    k = np.arange(1.0, n)
    x = np.linalg.eigvalsh(np.diag(k / np.sqrt((2 * k - 1) * (2 * k + 1)), -1))
    p, dp = pn(x)
    x = x - p / dp
    dp = pn(x)[1]
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x, w = 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])
    x.flags.writeable = w.flags.writeable = False
    return x, w


@functools.cache
def _rules(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Chebyshev-Lobatto nodes u_j = cos(pi j / (n-1)) on [-1, 1] with the
    matrix C that takes values at them to the Chebyshev coefficients of
    their interpolant, and the n-point Gauss-Legendre rule (leggauss)."""
    j = np.arange(n)
    u = np.cos(np.pi * j / (n - 1))
    # a_k = 2/(n-1) sum_j v_j cos(pi j k / (n-1)), the terms j = 0, n-1
    # and the coefficients a_0, a_{n-1} halved; j k is reduced mod 2(n-1)
    # first, so that every cosine is taken of an angle in [0, 2 pi)
    C = np.cos(np.pi * (np.outer(j, j) % (2 * (n - 1))) / (n - 1)) * (2.0 / (n - 1))
    C[:, [0, -1]] /= 2
    C[[0, -1]] /= 2
    return (u, C, *leggauss(n))


def _e(values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """e(v x) with the phase v x reduced mod 1 in long double."""
    return np.exp(2j * np.pi * np.mod(values * x, LONG(1)).astype(float))


def _amplitude(s: np.ndarray, c: float) -> np.ndarray:
    """f(s) = s^(1/c-1)/c, the amplitude of I(x) in s = t^c, at float64 s."""
    return s ** (1.0 / c - 1.0) / c


def _integral_s(x: np.ndarray, A, B, c: float, n: int) -> np.ndarray:
    """One n-node estimate of int_A^B f(s) e(sx) ds, f(s) = s^(1/c-1)/c,
    at every nonzero x (float64 array).  Every operation on the x is
    elementwise, so a value does not depend on the batch it came in."""
    u, C, g, w = _rules(n)
    half, mid = (B - A) / 2, (A + B) / 2

    xl = x.astype(LONG)
    out = np.empty(len(x), dtype=complex)

    # Levin: p' + 2 pi i x p = f at the Chebyshev nodes, so in u:
    # (D + i kappa) p = half * f with kappa = 2 pi x half and D the
    # differentiation matrix; then I = p(B) e(Bx) - p(A) e(Ax).  In the
    # Chebyshev coefficients a of p, b of p' and r of half * f, the system
    # reads b_k + i kappa a_k = r_k, where b_{n-1} = b_n = 0 and
    # b_{k-1} = b_{k+1} + 2 k a_k (halved for b_0).  So it is solved from
    # a_{n-1} down: with z = 1 / (i kappa), a_k = z t_k where t_k = r_k - b_k,
    # and b_k = z beta_k where beta_{k-1} = beta_{k+1} + 2 k t_k; then
    # p(B) = z sum t_k and p(A) = z sum (-1)^k t_k.  Below the switch the
    # recurrence amplifies rounding, and Gauss-Legendre is far more accurate.
    kappa = 2.0 * np.pi * x * float(half)
    levin = np.abs(kappa) >= n / 2       # 2 pi |x| (B - A) >= n
    idx = np.nonzero(levin)[0]
    if len(idx):
        r = C @ (float(half) * _amplitude((mid + half * u.astype(LONG)).astype(float), c))
        z = 1.0 / (1j * kappa[idx])
        beta = beta_up = np.zeros(len(idx), dtype=complex)   # beta_k and beta_{k+1}
        t_sums = [np.zeros(len(idx), dtype=complex) for _ in range(2)]   # even, odd k
        for k in range(n - 1, 0, -1):
            t = r[k] - z * beta
            t_sums[k % 2] += t
            beta, beta_up = beta_up + (2 * k) * t, beta
        beta *= 0.5
        even, odd = t_sums
        even += r[0] - z * beta
        out[idx] = z * ((even + odd) * _e(B, xl[idx]) - (even - odd) * _e(A, xl[idx]))

    # small |x|: plain Gauss-Legendre in s, summed node by node in a fixed
    # order so that a value does not depend on the batch it came in
    idx = np.nonzero(~levin)[0]
    if len(idx):
        s = mid + half * g.astype(LONG)
        amp = float(half) * w * _amplitude(s.astype(float), c)
        total = np.zeros(len(idx), dtype=complex)
        for sj, aj in zip(s, amp):
            total += aj * _e(sj, xl[idx])
        out[idx] = total
    return out


def _length(A, B, c: float, n: int) -> float:
    """The n-point Gauss-Legendre value of int_A^B f(s) ds, X for A = X^c
    and B = (2X)^c, with f taken at the float64 nodes _integral_s takes it at."""
    g, w = leggauss(n)
    s = ((A + B) / 2 + (B - A) / 2 * g.astype(LONG)).astype(float)
    return float((B - A) / 2) * float(np.dot(w, _amplitude(s, c)))


def integral_I(inst: ProblemInstance, x: float | np.ndarray) -> complex | np.ndarray:
    """I(x) = integral over [X, 2X] of e(t^c x) dt, at a scalar x (complex)
    or at every entry of an array of x (complex array of the same shape).

    In s = t^c, I(x) = int_A^B f(s) e(sx) ds with A = X^c, B = (2X)^c and
    the smooth amplitude f(s) = s^(1/c-1)/c.  Where 2 pi |x| (B - A) >= n,
    Levin's collocation method on n Chebyshev-Lobatto nodes solves
    p' + 2 pi i x p = f and takes p(B) e(Bx) - p(A) e(Ax).  Its system is
    triangular in the Chebyshev coefficients of p, and is solved from the
    top coefficient down in n elementwise steps over all x.  Below that,
    plain n-point Gauss-Legendre in s.  Phases are reduced mod 1 in long double.
    Each x is computed with n = 32 and n = 48 nodes; ConvergenceError if
    the two differ anywhere by more than _I_ABS_TOL * X, else the
    48-node values.  x = 0 gives exactly X.  A value is bitwise the same
    whichever batch of x it is computed in.

    Where c is so near 0 that s = t^c lies within a few ulps of 1, rounding
    s loses [X, 2X], and both estimates can agree on a wrong value (0 at
    c = 1e-300).  So, for any nonzero x, the n-point Gauss-Legendre rules
    at the float64 nodes the estimates use must give int_A^B f(s) ds = X
    within _I_ABS_TOL * X plus their own difference (_length), the part
    that is not rounding but quadrature error, as at large c; else
    ConvergenceError.
    """
    X, c = inst.X, inst.c
    xs = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xs)):
        raise ValueError("x must be finite")
    flat = xs.reshape(-1)
    nonzero = flat != 0.0
    A, B = LONG(X) ** LONG(c), LONG(2 * X) ** LONG(c)
    if nonzero.any():
        # f(s) ds = dt, so each rule gives X, give or take its own error: two
        # rules that agree on another length have lost [X, 2X] in rounding
        coarse, fine = (_length(A, B, c, n) for n in _LEVELS)
        lost = abs(fine - X)
        if not lost <= _I_ABS_TOL * X + abs(fine - coarse):
            raise ConvergenceError("integral_I", lost)
    coarse, fine = (_integral_s(flat[nonzero], A, B, c, n) for n in _LEVELS)
    error = float(np.max(np.abs(fine - coarse), initial=0.0))
    if error > _I_ABS_TOL * X:
        raise ConvergenceError("integral_I", error)
    out = np.full(len(flat), complex(X, 0.0))
    out[nonzero] = fine
    return complex(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)


def moment_grid(inst: ProblemInstance, points_per_octave: int) -> np.ndarray:
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


_OCTAVE_POINTS = 32   # moment4's coarse grid points per octave; the fine grid doubles it


def moment4(inst: ProblemInstance, which: str = "S") -> tuple[float, float]:
    """integral_{-tau}^{tau} |S(x)|^4 dx (or |I|^4), with an error estimate.

    The integrand is even (conjugate symmetry), so 2x the [0, tau] integral.
    The returned error estimate is the change under grid refinement.  Each
    point of the two grids is evaluated once, in one call of sum_S or
    integral_I over the merged grid; halving a linspace step is exact, so
    the coarse grid lies inside the fine one.
    """
    if which not in ("S", "I"):
        raise ValueError("which must be 'S' or 'I'")
    grids = [moment_grid(inst, ppo) for ppo in (_OCTAVE_POINTS, 2 * _OCTAVE_POINTS)]
    xs = np.array(sorted(set(grids[0]).union(grids[1])))
    if which == "S":
        # Python's abs of each value, which np.abs can miss by an ulp
        vals = np.array([abs(v) for v in sum_S(inst, xs).tolist()])
    else:
        vals = np.abs(integral_I(inst, xs))
    coarse, fine = (2.0 * float(np.trapezoid(vals[np.searchsorted(xs, g)] ** 4, g))
                    for g in grids)
    return fine, abs(fine - coarse)


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

