"""Tests for the smoothing kernel and its Fourier transform."""

import math

import mpmath
import numpy as np
import pytest

from primeineq.kernel import (KernelParams, kernel_from_instance, phi_eval,
                              phi_fourier, phi_fourier_bound,
                              phi_fourier_quadrature)
from primeineq.sums import ConvergenceError


def test_params_validation():
    with pytest.raises(ValueError):
        KernelParams(0.4, 0.1, 4)   # b >= a/4
    with pytest.raises(ValueError):
        KernelParams(0.9, 0.1, 0)


@pytest.mark.parametrize("a, b, name, value", [(math.inf, 0.1, "a", math.inf),
                                               (math.nan, 0.1, "a", math.nan),
                                               (-math.inf, 0.1, "a", -math.inf),
                                               (0.9, math.inf, "b", math.inf),
                                               (0.9, math.nan, "b", math.nan)])
def test_params_refuse_non_finite_a_and_b(a, b, name, value):
    # a = inf passed the 0 < b < a/4 check
    with pytest.raises(ValueError, match=f"^{name} must be finite, got {name} = {value}$"):
        KernelParams(a, b, 4)


def test_kernel_from_instance_examples():
    p = kernel_from_instance(1.0, math.exp(10.0))
    assert (p.a, p.b, p.r) == (0.9, 0.1, 10)
    p = kernel_from_instance(0.108, 1e4)
    assert p.a == pytest.approx(0.0972)
    assert p.b == pytest.approx(0.0108)
    assert p.r == 9
    eps = math.log(math.exp(10.0)) ** -4
    p = kernel_from_instance(eps, math.exp(10.0))
    assert p.a == pytest.approx(0.9e-4)
    assert p.b == pytest.approx(1e-5)


def test_phi_three_cases():
    p = KernelParams(0.9, 0.1, 4)
    assert phi_eval(p, 0.0) == 1.0
    assert phi_eval(p, 0.8) == 1.0          # |y| <= a - b
    assert phi_eval(p, 1.0) == 0.0          # |y| >= a + b
    assert phi_eval(p, -1.3) == 0.0
    assert phi_eval(p, 0.9) == pytest.approx(0.5)   # edge midpoint


def test_phi_edge_midpoint_strict_mode():
    p = KernelParams(0.9, 0.1, 4 + 1)
    assert phi_eval(p, 0.9) == pytest.approx(0.5)


def test_phi_shape():
    p = KernelParams(0.9, 0.1, 5)
    ys = np.linspace(0.0, 1.1, 400)
    vals = [phi_eval(p, float(y)) for y in ys]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))   # non-increasing
    for y in (0.3, 0.85, 0.95):
        assert phi_eval(p, y) == phi_eval(p, -y)


def _mp_irwin_hall_cdf(x, n: int):
    # alternating-sum closed form; at 60 digits its cancellation is harmless
    if x <= 0:
        return mpmath.mpf(0)
    if x >= n:
        return mpmath.mpf(1)
    return mpmath.fsum((-1) ** k * mpmath.binomial(n, k) * (x - k) ** n
                       for k in range(int(mpmath.floor(x)) + 1)) / mpmath.factorial(n)


def _mp_phi(p: KernelParams, y: float) -> float:
    # P(|y| - a <= S <= |y| + a) for S = h (2U - n), U Irwin-Hall, from the
    # exact binary values of a, h and y
    n = p.r
    with mpmath.workdps(60):
        a, h, y = mpmath.mpf(p.a), mpmath.mpf(p.h), abs(mpmath.mpf(y))
        return float(_mp_irwin_hall_cdf(((y + a) / h + n) / 2, n)
                     - _mp_irwin_hall_cdf(((y - a) / h + n) / 2, n))


_BOXES = (1, 2, 6, 10, 20, 27, 40)


@pytest.mark.parametrize("n", _BOXES)
def test_phi_matches_mpmath(n):
    # the alternating sum in double precision was off by 3.6e-7 at n = 20
    # and by 1.0 at n = 40
    p = KernelParams(0.9, 0.1, n)
    ys = np.linspace(p.a - p.b - 0.01, p.a + p.b + 0.01, 221)
    want = np.array([_mp_phi(p, y) for y in ys])
    assert np.max(np.abs(phi_eval(p, ys) - want)) <= 1e-14
    assert np.max(np.abs(phi_eval(p, -ys) - want)) <= 1e-14


@pytest.mark.parametrize("n", _BOXES)
def test_phi_monotone_on_the_ramp(n):
    p = KernelParams(0.9, 0.1, n)
    vals = phi_eval(p, np.linspace(p.a - p.b, p.a + p.b, 100001))
    assert vals[0] == 1.0 and vals[-1] == 0.0
    assert np.all(np.diff(vals) <= 0.0)


def test_phi_eval_takes_scalars_and_arrays():
    p = KernelParams(0.9, 0.1, 7 + 1)
    ys = np.array([[0.0, 0.83, 0.9], [-0.95, 1.0, 2.0]])
    vals = phi_eval(p, ys)
    assert vals.shape == ys.shape
    for y, v in zip(ys.ravel(), vals.ravel()):
        got = phi_eval(p, float(y))
        assert type(got) is float and got == v
    assert phi_eval(p, np.array([])).shape == (0,)


def test_phi_fourier_at_zero_and_sine_zeros():
    p = KernelParams(0.9, 0.1, 4)
    assert phi_fourier(p, 0.0) == pytest.approx(2 * p.a)
    for k in (1, 2, 5):
        x = k / (2 * p.a)
        assert abs(phi_fourier(p, x)) < 1e-12


def test_phi_fourier_against_quadrature():
    p = KernelParams(0.9, 0.1, 4)
    direct = phi_fourier_quadrature(p, 1.3)
    assert phi_fourier(p, 1.3) == pytest.approx(direct, abs=1e-8)


def test_quadrature_raises_when_the_oscillation_is_unresolved():
    # x (a + b) = 1.4e7 periods of cos(2 pi x y) on [0, a + b]: 2^23
    # intervals, the finest of the 16 levels, give under one node per period
    p = KernelParams(1e7, 1e6, 4)
    with pytest.raises(ConvergenceError) as info:
        phi_fourier_quadrature(p, 1.3)
    assert info.value.routine == "phi_fourier_quadrature"


def test_fourier_bound_holds():
    rng = np.random.default_rng(5)
    for r in range(1, 9):
        for n in (r, r + 1):
            p = KernelParams(0.9, 0.1, n)
            xs = rng.uniform(-1e3, 1e3, 5000)
            assert np.all(np.abs(phi_fourier(p, xs))
                          <= phi_fourier_bound(p, xs) + 1e-12)


def test_fourier_bound_example_value():
    p = KernelParams(0.9, 0.1, 4)
    want = min(1.8, 1 / (10 * math.pi),
               (1 / (10 * math.pi)) * (4 / (2 * math.pi)) ** 4)
    assert phi_fourier_bound(p, 10.0) == pytest.approx(want)


def test_fourier_bound_tail_decays():
    p = KernelParams(0.9, 0.1, 4)
    start = p.r / (2 * math.pi * p.b)
    xs = start * np.array([1.5, 3.0, 6.0, 12.0])
    vals = phi_fourier_bound(p, xs)
    assert np.all(np.diff(vals) < 0)


def test_plancherel_spot_check():
    # sum of phi over a small multiset equals the integral of Phi against
    # the matching exponential sum
    p = KernelParams(0.9, 0.1, 6)
    ys = np.array([0.1, -0.3, 0.5, 0.85])
    direct = sum(phi_eval(p, float(y)) for y in ys)
    xs = np.linspace(-200.0, 200.0, 400001)
    integrand = phi_fourier(p, xs) * np.cos(2 * np.pi * xs[:, None] * ys[None, :]).sum(axis=1)
    via_fourier = np.trapezoid(integrand, xs)
    assert via_fourier == pytest.approx(direct, abs=1e-4)


def test_pointwise_guard_for_huge_r():
    p = KernelParams(0.9, 0.1, 60)
    with pytest.raises(ValueError):
        phi_eval(p, 0.9)
    # Fourier side still fine
    assert np.isfinite(phi_fourier(p, 3.7))
