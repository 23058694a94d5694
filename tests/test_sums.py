"""Tests for exponential sums, the comparison integral, and moments."""

import cmath
import json
import math

import mpmath
import numpy as np
import pytest

from oracles import levin_dense, phase_sum_fsum
from primeineq import reports, sums
from primeineq.sums import (LONG, ConvergenceError, GuardError, ProblemInstance,
                            integral_I, moment4, moment_grid, sieve_primes, sum_S,
                            sum_T, weyl_differencing_check)


def inst_c1(X, eps=0.4):
    return ProblemInstance(c=1.0, X=X, eps=eps)


def test_sieve_small():
    t = sieve_primes(10.0)
    assert list(t.primes) == [11, 13, 17, 19]
    assert sieve_primes(100.0).primes.shape == (21,)


def test_sieve_large_count():
    # pi(2e6) - pi(1e6)
    assert len(sieve_primes(1e6)) == 70435


@pytest.mark.parametrize("composite", [561, 41041, 2047, 1373653, 25326001, 161304001,
                                       960946321, 1157839381])
def test_sieve_check_rejects_pseudoprimes(composite):
    # Carmichael numbers 561 and 41041, the strong pseudoprimes 2047
    # (base 2) and 1373653 (bases 2, 3), and every strong pseudoprime to
    # bases 2, 3 and 5 below 2^31, from 25326001 on, which only base 7
    # exposes: the sieve's check raises on each
    assert not sums._are_prime(np.array([composite]))[0]
    with pytest.raises(AssertionError, match=f"composite {composite}"):
        sums._verify_primes(np.array([101, composite, 2 ** 31 - 1], dtype=np.int64))


def test_sieve_stops_where_its_witnesses_stop_being_exact():
    # 3215031751, the smallest strong pseudoprime to bases 2, 3, 5 and 7,
    # passes all four witnesses of the check, so the sieve refuses to go
    # that far: it stops at 2^31
    n = 3215031751
    d = (n - 1) // 2   # n - 1 = 2 d with d odd
    assert all(pow(a, d, n) in (1, n - 1) for a in sums._MR_WITNESSES)
    assert sums._MAX_SIEVE < n
    with pytest.raises(GuardError, match="sieve-range guard") as info:
        sums.sieve_range(2 ** 31 + 1, 2 ** 31 + 100)
    assert info.value.guard == "sieve-range"


def _trial_division(n: np.ndarray) -> np.ndarray:
    """Whether each entry of n below 2^31 is prime, by trial division by
    every prime up to sqrt(2^31), taken from a plain sieve: a composite
    n has a prime factor p with p^2 <= n."""
    root = math.isqrt(2 ** 31)
    flags = np.ones(root + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(root) + 1):
        if flags[p]:
            flags[p * p::p] = False
    divisors = np.flatnonzero(flags)
    assert len(divisors) == 4792
    order = np.argsort(n)
    m = n[order]
    prime = m >= 2
    for p in divisors:
        start = np.searchsorted(m, p * p)   # only n >= p^2 can have p as a proper factor
        prime[start:] &= m[start:] % p != 0
    out = np.empty_like(prime)
    out[order] = prime
    return out


def test_sieve_check_agrees_with_trial_division():
    rng = np.random.default_rng(0)
    n = np.concatenate([np.arange(0, 200_000), rng.integers(2 ** 30, 2 ** 31, 20_000),
                        [1373653, 25326001, 3215031751 - 2 ** 31, 2 ** 31 - 1]])
    assert np.array_equal(sums._are_prime(n), _trial_division(n))


def test_instance_defaults():
    inst = ProblemInstance(c=2.05, X=1024.0, eps=0.1)
    assert inst.tau == pytest.approx(1024.0 ** (1 - 2.05 - 0.05))
    assert inst.K == pytest.approx(math.log(1024.0) ** 10)


def test_instance_validation():
    with pytest.raises(ValueError):
        ProblemInstance(c=2.05, X=2.0, eps=0.1)
    with pytest.raises(ValueError):
        ProblemInstance(c=2.05, X=1024.0, eps=-1.0)
    # tau = X^5.95 is far above K = (log X)^10
    with pytest.raises(ValueError, match="^need tau < K"):
        ProblemInstance(c=-5.0, X=1000.0, eps=0.1)
    # tau and K are computed from c, X and eta, not set
    with pytest.raises(TypeError):
        ProblemInstance(c=2.05, X=1024.0, eps=0.1, tau=5.0)


@pytest.mark.parametrize("name, value", [("c", math.inf), ("c", -math.inf), ("c", math.nan),
                                         ("X", math.inf), ("X", math.nan),
                                         ("eps", math.inf), ("eps", math.nan)])
def test_instance_refuses_non_finite_parameters(name, value):
    # X = inf passed both the X >= 3 and the tau < K check, and eps = nan
    # and eps = inf the eps > 0 check
    kwargs = {"c": 2.05, "X": 1024.0, "eps": 0.1, name: value}
    with pytest.raises(ValueError, match=f"^{name} must be finite, got {name} = {value}$"):
        ProblemInstance(**kwargs)


def test_sum_T_at_zero_counts_integers():
    assert sum_T(inst_c1(10.0), 0.0) == pytest.approx(10.0)


def test_sum_T_geometric_closed_form():
    # c=1: sum over n in (X, 2X] of e(nx) is geometric
    inst = inst_c1(37.0)
    x = 0.0137
    n0 = 38
    terms = sum(cmath.exp(2j * math.pi * n * x) for n in range(n0, 75))
    assert sum_T(inst, x) == pytest.approx(terms, abs=1e-10)


def test_sum_S_at_zero():
    inst = ProblemInstance(c=1.5, X=10.0, eps=0.1)
    assert sum_S(inst, 0.0) == pytest.approx(math.log(11 * 13 * 17 * 19))


def test_sum_S_triangle_inequality():
    inst = ProblemInstance(c=2.05, X=256.0, eps=0.1)
    s0 = abs(sum_S(inst, 0.0))
    for x in (inst.tau, -inst.tau / 3, inst.tau / 7):
        assert abs(sum_S(inst, x)) <= s0 + 1e-9


def test_sum_T_against_high_precision():
    inst = ProblemInstance(c=2.05, X=512.0, eps=0.1)
    x = inst.tau
    got = sum_T(inst, x)
    with mpmath.workdps(40):
        xs = mpmath.mpf(repr(x))
        c = mpmath.mpf("2.05")
        re = mpmath.fsum(mpmath.cos(2 * mpmath.pi * mpmath.frac(mpmath.mpf(n) ** c * xs))
                         for n in range(513, 1025))
        im = mpmath.fsum(mpmath.sin(2 * mpmath.pi * mpmath.frac(mpmath.mpf(n) ** c * xs))
                         for n in range(513, 1025))
    assert abs(got - complex(float(re), float(im))) <= 1e-8 * max(1.0, abs(got))


def test_conjugate_symmetry():
    inst = ProblemInstance(c=2.05, X=256.0, eps=0.1)
    for x in (inst.tau / 2, inst.tau / 9):
        assert abs(sum_S(inst, -x) - sum_S(inst, x).conjugate()) < 1e-12 * 300
        assert abs(sum_T(inst, -x) - sum_T(inst, x).conjugate()) < 1e-12 * 300
        assert abs(integral_I(inst, -x) - integral_I(inst, x).conjugate()) < 1e-9


def test_integral_at_zero_is_length():
    inst = ProblemInstance(c=2.05, X=777.0, eps=0.1)
    assert integral_I(inst, 0.0) == complex(777.0, 0.0)
    assert integral_I(inst, np.array([1e-6, 0.0]))[1] == complex(777.0, 0.0)
    with pytest.raises(ValueError, match="finite"):
        integral_I(inst, np.array([1e-6, math.nan]))


@pytest.mark.parametrize("phase_sum", [sum_S, sum_T])
@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_phase_sums_refuse_non_finite_x(phase_sum, x):
    # unchecked, NaN gave nan+nanj and an infinite x a RuntimeWarning from
    # the phase's reduction mod 1
    inst = ProblemInstance(c=2.05, X=64.0, eps=0.1)
    for arg in (x, np.array([1e-6, x, 0.0])):
        with pytest.raises(ValueError, match="^x must be finite$"):
            phase_sum(inst, arg)


def test_integral_closed_form_c1():
    inst = inst_c1(50.0)
    for x in (0.013, 1.7, -0.4):
        want = (cmath.exp(2j * math.pi * 100 * x) - cmath.exp(2j * math.pi * 50 * x)) \
            / (2j * math.pi * x)
        assert integral_I(inst, x) == pytest.approx(want, abs=1e-10)


def test_integral_raises_when_unconverged(monkeypatch):
    # a zero tolerance is never met: the 32- and 48-node estimates differ
    # at least by rounding
    monkeypatch.setattr(sums, "_I_ABS_TOL", 0.0)
    inst = ProblemInstance(c=1.5, X=100.0, eps=0.1)
    with pytest.raises(ConvergenceError, match="integral_I") as info:
        integral_I(inst, 0.01)
    assert info.value.routine == "integral_I" and info.value.error > 0


@pytest.mark.parametrize("c", [1e-300, 1e-17, 1e-12, 1e-8])
def test_integral_raises_where_t_to_the_c_loses_the_interval(c):
    # s = t^c lies within c log(2X) of 1 on [X, 2X], and rounding s to
    # float64 loses that interval: unchecked, |I(0.1)| read 0 at c = 1e-300
    # and 0.694 at c = 1e-17, where it is about X = 64; at c = 1e-12 the
    # rules differ, and at c = 1e-8 they hold.  x = 0 gives X exactly
    inst = ProblemInstance(c=c, X=64.0)
    assert integral_I(inst, 0.0) == complex(64.0, 0.0)
    if c > 1e-12:
        assert abs(abs(integral_I(inst, 0.1)) - 64.0) <= sums._I_ABS_TOL * 64.0
    else:
        with pytest.raises(ConvergenceError, match="integral_I"):
            integral_I(inst, np.array([0.0, 0.1]))


def test_integral_first_derivative_bound():
    inst = ProblemInstance(c=2.05, X=1024.0, eps=0.1)
    for x in (inst.tau, inst.tau / 5, -inst.tau / 2, 1e-5):
        assert abs(integral_I(inst, x)) <= 1.0 / (abs(x) * 1024.0 ** 1.05) + 1e-9


def test_integral_against_mpmath():
    inst = ProblemInstance(c=2.05, X=256.0, eps=0.1)
    x = inst.tau / 2
    got = integral_I(inst, x)
    with mpmath.workdps(30):
        f = lambda t: mpmath.e ** (2j * mpmath.pi * (t ** mpmath.mpf("2.05") * mpmath.mpf(repr(x))))
        want = mpmath.quad(f, [256, 320, 384, 448, 512])
    assert abs(got - complex(want)) < 1e-6 * 256


def _panel_integral_I(inst, x, abs_tol_factor=1e-9):
    """Oracle: I(x) by composite 10-point Gauss-Legendre panels in t, one per
    local oscillation period, doubled until two estimates agree within
    abs_tol_factor * X (the method integral_I used before Levin)."""
    X, c = inst.X, inst.c
    if x == 0.0:
        return complex(X, 0.0)
    gl_nodes, gl_weights = np.polynomial.legendre.leggauss(10)
    panels = int(math.ceil(abs(x) * c * (2 * X) ** (c - 1) * X)) + 4
    fast = (2 * X) ** c * abs(x) < 1e6

    def estimate(num):
        edges = np.linspace(X, 2 * X, num + 1)
        half = 0.5 * (edges[1] - edges[0])
        mid = 0.5 * (edges[1:] + edges[:-1])
        if fast:
            t = mid[:, None] + half * gl_nodes[None, :]
            phase = np.mod(t ** c * x, 1.0)
        else:
            t = mid.astype(LONG)[:, None] + LONG(half) * gl_nodes[None, :].astype(LONG)
            phase = np.mod(t ** LONG(c) * LONG(x), LONG(1)).astype(float)
        return complex(half * np.sum(np.exp(2j * np.pi * phase) @ gl_weights))

    est = estimate(panels)
    for _ in range(6):
        est2 = estimate(2 * panels)
        if abs(est2 - est) <= abs_tol_factor * X:
            return est2
        est, panels = est2, 2 * panels
    raise AssertionError("panel oracle did not converge")


@pytest.mark.parametrize("X,c", [(256.0, 2.05), (512.0, 2.05), (1024.0, 2.05),
                                 (4096.0, 2.05), (1000.0, 1.5)])
def test_integral_matches_panel_oracle_on_moment_grids(X, c):
    # the fine moment grid on [0, tau], tau itself included, and random x in
    # [-tau, tau]; mpmath at 64 panels is itself off by 3e-3 * X at x = tau,
    # X = 4096, so the panel method is the oracle here
    inst = ProblemInstance(c=c, X=X, eps=0.1)
    rng = np.random.default_rng(int(X))
    xs = np.concatenate([moment_grid(inst, 64), rng.uniform(-inst.tau, inst.tau, 20)])
    want = np.array([_panel_integral_I(inst, float(x)) for x in xs])
    assert np.max(np.abs(integral_I(inst, xs) - want)) <= 1e-12 * X


def test_integral_is_independent_of_the_batch():
    inst = ProblemInstance(c=2.05, X=1024.0, eps=0.1)
    grid = moment_grid(inst, 16)
    xs = np.concatenate([grid, -grid[1:]])
    full = integral_I(inst, xs)
    assert full.dtype == complex and full.shape == xs.shape
    single = [integral_I(inst, float(x)) for x in xs]
    assert all(type(v) is complex for v in single)
    assert np.array_equal(full, np.array(single))
    perm = np.random.default_rng(5).permutation(len(xs))
    assert np.array_equal(integral_I(inst, xs[perm]), full[perm])
    assert np.array_equal(integral_I(inst, xs[3:40:2]), full[3:40:2])
    assert np.array_equal(integral_I(inst, xs.reshape(-1, 1))[:, 0], full)


@pytest.mark.parametrize("X", [256.0, 1e4])
@pytest.mark.parametrize("c", [1.01, 1.5, 2.05, 3.0])
def test_levin_recurrence_matches_the_dense_solve(c, X):
    # the top-down recurrence in Chebyshev coefficients against the dense
    # collocation solve, at every x of the moment grid that takes the Levin
    # branch, for both node counts
    inst = ProblemInstance(c=c, X=X, eps=0.1)
    A, B = LONG(X) ** LONG(c), LONG(2 * X) ** LONG(c)
    grid = moment_grid(inst, 64)
    for n in sums._LEVELS:
        xs = grid[2 * np.pi * grid * float(B - A) >= n]
        assert len(xs) > 0
        got = sums._integral_s(xs, A, B, c, n)
        assert np.max(np.abs(got - levin_dense(xs, A, B, c, n))) <= 1e-13 * X


@pytest.mark.parametrize("X,c", [(256.0, 2.05), (1000.0, 1.5)])
def test_integral_against_mpmath_at_the_levin_switch(X, c):
    # the Levin / Gauss-Legendre switch 2 pi |x| (B - A) = n, and the
    # earlier switch at n / 2, for both node counts, each approached from
    # either side
    inst = ProblemInstance(c=c, X=X, eps=0.1)
    span = (2 * X) ** c - X ** c
    xs = [n / (share * math.pi * span) * (1 + side * 1e-9)
          for share in (2, 4) for n in (32, 48) for side in (-1, 1)]
    got = integral_I(inst, np.array(xs))
    with mpmath.workdps(30):
        cc = mpmath.mpf(repr(c))
        for x, value in zip(xs, got):
            xm = mpmath.mpf(repr(x))
            want = mpmath.quad(lambda t: mpmath.expjpi(2 * t ** cc * xm),
                               mpmath.linspace(X, 2 * X, 9))
            assert abs(value - complex(want)) <= 1e-13 * X, x


def _phase_terms(inst, which):
    """The values and weights of S (which = "S") or T, as the oracle takes them."""
    if which == "S":
        table = sieve_primes(inst.X)
        return table.powers(inst.c), table.logs
    n = np.arange(int(inst.X) + 1, int(2 * inst.X) + 1)
    return n.astype(LONG) ** LONG(inst.c), None


def _pairwise_bound(values, weights):
    """The stated tolerance of sum_S and sum_T against the fsum oracle:
    (ceil(log2 n) + 1) 2^-53 sum |w_n|."""
    total = len(values) if weights is None else float(np.sum(np.abs(weights)))
    return (math.ceil(math.log2(len(values))) + 1) * 2.0 ** -53 * total


@pytest.mark.parametrize("X,c", [(64.0, 1.1), (256.0, 2.05), (1024.0, 2.05),
                                 (4096.0, 1.5), (3000.0, 2.9)])
def test_phase_sums_match_the_fsum_oracle(X, c):
    # the merged grid of moment4, random x in [-tau, tau] and x = 0, against
    # the correctly rounded per-x sums of the same terms
    inst = ProblemInstance(c=c, X=X, eps=0.1)
    grids = [moment_grid(inst, ppo) for ppo in (sums._OCTAVE_POINTS, 2 * sums._OCTAVE_POINTS)]
    merged = np.array(sorted(set(grids[0]).union(grids[1])))
    rng = np.random.default_rng(int(X * c))
    xs = np.concatenate([merged, rng.uniform(-inst.tau, inst.tau, 40), [0.0]])
    for which, fn in (("S", sum_S), ("T", sum_T)):
        values, weights = _phase_terms(inst, which)
        want = np.array([phase_sum_fsum(values, weights, float(x)) for x in xs])
        got = fn(inst, xs)
        assert np.max(np.abs(got - want)) <= _pairwise_bound(values, weights), which
    # moment4 integrates the same values over the merged grid
    values, weights = _phase_terms(inst, "S")
    vals = np.array([abs(phase_sum_fsum(values, weights, float(x))) for x in merged])
    want = [2.0 * float(np.trapezoid(vals[np.searchsorted(merged, g)] ** 4, g)) for g in grids]
    got, err = moment4(inst, "S")
    assert got == pytest.approx(want[1], rel=1e-12)
    assert err == pytest.approx(abs(want[1] - want[0]), rel=1e-9, abs=1e-12 * want[1])


@pytest.mark.parametrize("block", [1, 3, 10, 45, 1 << 14])
@pytest.mark.parametrize("X", [10.0, 64.0, 700.0])
def test_phase_sums_are_independent_of_the_batch(X, block, monkeypatch):
    # with blocks of a few terms, a batch crosses many block edges, and
    # each value is bitwise the one computed alone at the default block
    inst = ProblemInstance(c=1.5, X=X, eps=0.1)
    grid = moment_grid(inst, 8)
    xs = np.concatenate([grid, -grid[1:], [0.0]])
    for fn in (sum_S, sum_T):
        alone = [fn(inst, float(x)) for x in xs]
        assert all(type(v) is complex for v in alone)
        monkeypatch.setattr(sums, "_PHASE_BLOCK", block)
        full = fn(inst, xs)
        assert full.dtype == complex and full.shape == xs.shape
        assert np.array_equal(full, np.array(alone))
        perm = np.random.default_rng(5).permutation(len(xs))
        assert np.array_equal(fn(inst, xs[perm]), full[perm])
        assert np.array_equal(fn(inst, xs[3:40:2]), full[3:40:2])
        assert np.array_equal(fn(inst, xs.reshape(-1, 1))[:, 0], full)
        monkeypatch.undo()


def test_moment4_trivial_upper():
    inst = ProblemInstance(c=2.05, X=256.0, eps=0.1)
    m, err = moment4(inst, "S")
    assert m <= 2 * inst.tau * abs(sum_S(inst, 0.0)) ** 4
    assert err < 0.3 * m
    mi, _ = moment4(inst, "I")
    assert mi <= 2 * inst.tau * 256.0 ** 4
    with pytest.raises(ValueError):
        moment4(inst, "Q")


def test_s_minus_i_profile():
    # the S-vs-I report's pointwise |S(x) - I(x)|: |sum log p - X| at x = 0,
    # and even in x
    inst = ProblemInstance(c=2.05, X=4096.0, eps=0.1)
    table = sieve_primes(4096.0)
    at0, plus, minus = (row["abs_S_minus_I"] for row in
                        reports._s_minus_i(np.array([0.0, inst.tau / 3, -inst.tau / 3]), inst))
    assert at0 == pytest.approx(abs(float(np.sum(table.logs)) - 4096.0), rel=1e-9)
    assert plus == pytest.approx(minus, abs=1e-6)
    rep = json.loads(reports.s_vs_i_report(X=512.0, points=3))
    assert rep["max_abs"] == max(r["abs_S_minus_I"] for r in rep["rows"])


def test_weyl_constant_sequence():
    lhs, rhs = weyl_differencing_check([1.0] * 100, 1)
    assert lhs == pytest.approx(1e4)
    assert rhs == pytest.approx(10200.0)
    assert lhs <= rhs


def test_weyl_single_spike():
    z = [0.0] * 64
    z[17] = 3.0 - 4.0j
    lhs, rhs = weyl_differencing_check(z, 8)
    assert lhs == pytest.approx(25.0)
    assert lhs <= rhs


def test_weyl_linear_phase():
    rng = np.random.default_rng(11)
    for _ in range(20):
        alpha = rng.uniform(0, 1)
        m = np.arange(65, 129)
        z = np.exp(2j * np.pi * alpha * m)
        lhs, rhs = weyl_differencing_check(z, 8)
        assert lhs <= rhs + 1e-6 * abs(rhs)


def test_weyl_random_inputs():
    rng = np.random.default_rng(23)
    for _ in range(200):
        M = int(rng.integers(1, 129))
        Q = int(rng.integers(1, M + 1))
        z = rng.normal(size=M) + 1j * rng.normal(size=M)
        lhs, rhs = weyl_differencing_check(z, Q)
        assert lhs <= rhs + 1e-9 * max(1.0, abs(rhs))
