"""Oracles shared by the test modules."""

import math

import mpmath
import numpy as np

from primeineq import solver
from primeineq.count import CountResult, CountSpec, run_positions, window_reach
from primeineq.kernel import kernel_from_instance, phi_eval
from primeineq.sums import LONG, ConvergenceError

_BLOCK = 1 << 16   # targets per block of window_hits


def sorted_sums(powers: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The ordered index: the n^k sums powers[i_1] + ... + powers[i_k]
    (formed left to right), ascending, with their stable sort order:
    np.unravel_index(order[m], (n,) * k) gives the indices of the m-th
    smallest sum."""
    sums = powers
    for _ in range(k - 1):
        sums = (sums[:, None] + powers[None, :]).ravel()
    order = np.argsort(sums, kind="stable")
    return sums[order], order


def pair_index(powers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The unordered pairs i <= j in stable order of their long-double sums
    (ties by flat index), from the ordered index sorted_sums(powers, 2):
    float64 keys fl(P_i + P_j) and int32 flat indices i n + j."""
    sums, order = sorted_sums(powers, 2)
    i, j = np.divmod(order, len(powers))
    keep = i <= j
    return sums[keep].astype(float), order[keep].astype(np.int32)


def window_hits(values: np.ndarray, targets: np.ndarray, width: float):
    """Yield candidate index arrays (t, pos), one block of targets at a time.

    ``values`` must be ascending.  Values and targets are searched as
    float64 (``np.asarray(values, float)`` is a no-op for the float64 keys
    of pair_index).  Pairs come in (t, pos) order and cover every pair with
    |values[pos] - targets[t]| < width in long double: the search reaches
    ``count.rounding`` plus ``count.key_rounding`` of max|values| + width
    past the width (``count.window_reach``), so neither the callers'
    long-double rounding nor the float64 rounding of values, targets and
    bounds drops a pair.  Near misses come along, so every caller re-tests
    its candidates with its own exact predicate.
    """
    if len(values) == 0:
        return
    keys = np.asarray(values, float)
    reach = window_reach(values[0], values[-1], width)
    targets = np.asarray(targets, float)
    for start in range(0, len(targets), _BLOCK):
        block = targets[start:start + _BLOCK]
        lo = np.searchsorted(keys, block - reach, side="left")
        lengths = np.searchsorted(keys, block + reach, side="right") - lo
        if not lengths.any():
            continue
        t = np.repeat(np.arange(start, start + len(block)), lengths)
        yield t, run_positions(lo, lengths)


# The share of |R| + eps around a window's edge within which the oracles'
# long-double tests defer to 40 digits: 2^-40, some 2^20 times the rounding
# of any sum they form, and independent of the solvers' own bands.
EDGE_MARGIN = 2.0 ** -40


def solves(primes, R: float, eps: float, c: float) -> bool:
    """|p_1^c + ... + p_k^c - R| < eps, with R, eps and c at their exact
    binary values: exactly in integers for an integer c >= 0, where R =
    nR/dR and eps = ne/de make it |value dR - nR| de < ne dR, else at 40
    digits."""
    if float(c).is_integer() and c >= 0:
        nR, dR = float(R).as_integer_ratio()
        ne, de = float(eps).as_integer_ratio()
        value = sum(int(p) ** int(c) for p in primes)
        return abs(value * dR - nR) * de < ne * dR
    with mpmath.workdps(40):
        value = mpmath.fsum(mpmath.mpf(int(p)) ** mpmath.mpf(float(c)) for p in primes)
        return bool(abs(value - mpmath.mpf(float(R))) < mpmath.mpf(float(eps)))


def decide(dev: np.ndarray, R: float, eps: float, c: float, primes_at) -> np.ndarray:
    """|dev| < eps for every long-double deviation of an array, except
    within EDGE_MARGIN (|R| + eps) of the edge, where ``solves`` decides
    the primes primes_at(index) of the candidate at each such index."""
    hit = np.abs(dev) < LONG(eps)
    margin = LONG(EDGE_MARGIN) * (abs(LONG(R)) + LONG(eps))
    for index in zip(*np.nonzero(np.abs(np.abs(dev) - LONG(eps)) <= margin)):
        hit[index] = solves(primes_at(index), R, eps, c)
    return hit


def naive_long_double_count(s: CountSpec) -> CountResult:
    """The exhaustive count of ``count.count_tuples_naive`` with every tuple
    decided in long double: all Y^4 differences of the Y^2 unsorted ordered
    pair sums, a chunk of rows at a time, each tested with |d| < gamma and
    ||d| - gamma| < delta."""
    powers = np.arange(s.Y + 1, 2 * s.Y + 1, dtype=np.int64).astype(np.longdouble) \
        ** np.longdouble(s.c)
    ps = (powers[:, None] + powers[None, :]).ravel()
    gamma = np.longdouble(s.gamma)
    delta = np.longdouble(s.delta)
    rows = max(1, (1 << 16) // len(ps))
    count = ambiguous = 0
    for i in range(0, len(ps), rows):
        d = np.abs(ps[i:i + rows, None] - ps)
        count += int(np.count_nonzero(d < gamma))
        ambiguous += int(np.count_nonzero(np.abs(d - gamma) < delta))
    return CountResult(count, ambiguous)


def levin_dense(x: np.ndarray, A, B, c: float, n: int) -> np.ndarray:
    """int_A^B f(s) e(sx) ds, f(s) = s^(1/c-1)/c, at every nonzero x (float64
    array) by Levin's collocation on the n Chebyshev-Lobatto nodes
    u_j = cos(pi j / (n-1)), with every system (D + i kappa) p = half * f
    solved densely by ``numpy.linalg.solve``: D the differentiation matrix
    in u, half = (B - A)/2 and kappa = 2 pi x half.  The value is
    p(B) e(Bx) - p(A) e(Ax), each phase reduced mod 1 in long double."""
    j = np.arange(n)
    u = np.cos(np.pi * j / (n - 1))
    w = np.where(j % 2 == 0, 1.0, -1.0)
    w[[0, -1]] *= 2.0
    # u_i - u_j by the product formula, exact where the nodes cluster
    diff = 2.0 * np.sin(np.pi * (j[:, None] + j[None, :]) / (2 * (n - 1))) \
        * np.sin(np.pi * (j[None, :] - j[:, None]) / (2 * (n - 1)))
    D = np.outer(w, 1.0 / w) / (diff + np.eye(n))
    D -= np.diag(D.sum(axis=1))
    half, mid = (B - A) / 2, (A + B) / 2
    s = (mid + half * u.astype(np.longdouble)).astype(float)
    rhs = float(half) * s ** (1.0 / c - 1.0) / c
    kappa = 2.0 * np.pi * x * float(half)
    p = np.linalg.solve(D + 1j * kappa[:, None, None] * np.eye(n), rhs[:, None])[..., 0]
    xl = x.astype(np.longdouble)
    phase_b, phase_a = (np.mod(v * xl, np.longdouble(1)).astype(float) for v in (B, A))
    return p[:, 0] * np.exp(2j * np.pi * phase_b) - p[:, -1] * np.exp(2j * np.pi * phase_a)


def phase_sum_fsum(values_c: np.ndarray, weights, x: float) -> complex:
    """sum w_n * e(v_n * x) at one x, the phase reduced mod 1 in long double
    and each part summed by ``math.fsum``: the per-x path that
    ``sums._phase_sums`` replaced, with the same terms."""
    phase = np.mod(values_c * np.longdouble(x), np.longdouble(1))
    ang = (2.0 * np.pi * phase).astype(float)
    re = np.cos(ang)
    im = np.sin(ang)
    if weights is not None:
        re = re * weights
        im = im * weights
    return complex(math.fsum(re.tolist()), math.fsum(im.tolist()))


def harmonic_V_naive(s: CountSpec, tau: float) -> float:
    """The total of ``count.harmonic_V`` by direct O(Y^4) summation in
    float64: 1/|d| over every ordered 4-tuple with |d| > 1/tau."""
    powers = [n ** s.c for n in range(s.Y + 1, 2 * s.Y + 1)]
    cut = 1.0 / tau
    terms = []
    for a in powers:
        for b in powers:
            for u in powers:
                for v in powers:
                    d = abs(a + b - u - v)
                    if d > cut:
                        terms.append(1.0 / d)
    return math.fsum(terms)


def exp_sum_abs(x: float, c: float, a: int) -> float:
    """|sum_{a < n <= 2a} e(x * n^c)|, the quantity
    ``exppair.pair_bound`` dominates."""
    total_re = 0.0
    total_im = 0.0
    for n in range(a + 1, 2 * a + 1):
        phase = 2.0 * math.pi * math.fmod(x * n ** c, 1.0)
        total_re += math.cos(phase)
        total_im += math.sin(phase)
    return math.hypot(total_re, total_im)


def gauss_g2(dens, v, m: int) -> np.ndarray:
    """g_2 of ``solver._Densities`` at every distance v of an array from the
    end, by the m-node Gauss-Legendre rule its series replaced:
    g_2(v) = (2/c^2) int_0^w ((a - t)(a + t))^alpha dt with
    a = end + sign v/2 and w = min(v/2, D - v/2), each factor formed from
    its distance v/2 -+ t from the end."""
    h = 0.5 * np.asarray(v, float)
    x, w = np.polynomial.legendre.leggauss(m)
    half = 0.5 * np.clip(np.minimum(dens.D - h, h), 0.0, None)[..., None]
    t, wt = half * (1.0 + x), half * w
    h = h[..., None]
    prod = (dens.end + dens.sign * (h - t)) * (dens.end + dens.sign * (h + t))
    return 2.0 / dens.c ** 2 * np.sum(wt * prod ** dens.alpha, axis=-1)


def mpmath_g2(dens, v: float, dps: int = 30) -> float:
    """g_2 of ``solver._Densities`` at one distance v from the end, by
    ``mpmath.quad`` at ``dps`` digits on the same integral as gauss_g2,
    with the float64 exponent alpha = 1/c - 1 that the densities use."""
    with mpmath.workdps(dps):
        h = mpmath.mpf(v) / 2
        w = min(mpmath.mpf(dens.D) - h, h)
        a = mpmath.mpf(dens.end) + dens.sign * h
        alpha = mpmath.mpf(dens.alpha)
        return float(2 / mpmath.mpf(dens.c) ** 2
                     * mpmath.quad(lambda t: (a * a - t * t) ** alpha, [0, w]))


class GaussDensities(solver._Densities):
    """``solver._Densities`` with g_2 by the m-node rule gauss_g2, so that
    g_3 and g_6 rest on quadrature alone."""

    def g2(self, v):
        return gauss_g2(self, v, self.m)


def _smoothed_per_R(dens, k: int, p, R: float) -> float:
    """int phi(t) g_k(R + t) dt over |t| <= a + b for one R, the support
    split at the kinks of g_k: on each piece g_k is fitted at m/2 Legendre
    nodes, and the Gauss rule between the kernel's knots integrates phi
    against the fit, all rebuilt for this R."""
    offset = dens.sign * (R - k * dens.end)
    e = p.a + p.b
    lo, hi = max(-e, -offset), min(e, k * dens.D - offset)
    if hi <= lo:
        return 0.0
    inner = [i * dens.D - offset for i in range(1, k)]
    cuts = [lo, *(q for q in inner if lo < q < hi), hi]
    steps = p.a - p.b + 2.0 * p.h * np.arange(p.r + 1)
    phi_knots = np.concatenate([-steps[::-1], steps])
    m = dens.m // 2
    x, w = np.polynomial.legendre.leggauss(m)
    scale = np.arange(m) + 0.5
    total = 0.0
    for jlo, jhi in zip(cuts, cuts[1:]):
        mid, half = 0.5 * (jlo + jhi), 0.5 * (jhi - jlo)
        d = offset + mid + half * x
        g = dens.g3(d) if k == 3 else np.array([dens.g6(v) for v in d])
        coef = scale * (np.polynomial.legendre.legvander(x, m - 1).T @ (w * g))
        edges = [jlo, *phi_knots[(phi_knots > jlo) & (phi_knots < jhi)], jhi]
        t, wt = solver._gauss(edges[:-1], edges[1:], (p.r + m) // 2 + 1)
        t, wt = t.ravel(), wt.ravel()
        total += float(np.sum(wt * phi_eval(p, t)
                              * np.polynomial.legendre.legval((t - mid) / half, coef)))
    return total


def main_term_per_R(inst, R: float) -> float:
    """The main term H(R) of ``solver.main_term_H`` by the per-R path it
    replaced: g_k fitted at m/2 = 10 and 20 nodes per piece of the kernel's
    support, the kernel's Gauss rule rebuilt at every R, and g_2 by its
    m-node Gauss rule (GaussDensities), m = 20 and 40.  The finer level's
    value; ConvergenceError if the two levels differ by more than
    solver._H_REL_TOL relative."""
    k = inst.k
    params = kernel_from_instance(inst.eps, inst.X)
    upper = 2 * R > k * (inst.X ** inst.c + (2 * inst.X) ** inst.c)
    coarse, fine = (_smoothed_per_R(GaussDensities(inst.X, inst.c, m, upper), k,
                                    params, R)
                    for m in (solver._NODES, 2 * solver._NODES))
    error = abs(fine - coarse)
    if error > solver._H_REL_TOL * abs(fine):
        raise ConvergenceError("main_term_H", error / abs(fine) if fine else error)
    return fine
