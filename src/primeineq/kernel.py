"""Smoothing kernel: a near-indicator bump and its Fourier transform.

The kernel is the classical Segal construction: the indicator of [-a, a]
convolved with the density of a sum of n independent uniforms on [-b/n, b/n].
It equals 1 on [-(a-b), a-b], vanishes outside [-(a+b), a+b], and its Fourier
transform has the closed form

    Phi(x) = sin(2*pi*a*x)/(pi*x) * (sin(2*pi*h*x)/(2*pi*h*x))^n,   h = b/n,

which is bounded by min(2a, 1/(pi|x|), (1/(pi|x|)) * (n/(2*pi*|x|*b))^n).

Here r = n is the number of boxes: the kernel is C^{r-1}, and the bound
above, at n = r, is the standard one quoted for a C^r kernel.  A genuinely
C^r kernel is the one of r + 1 boxes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sums import ConvergenceError


@dataclass(frozen=True)
class KernelParams:
    a: float
    b: float
    r: int   # number of boxes

    def __post_init__(self):
        for name in ("a", "b"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {name} = {value}")
        if not (0 < self.b < self.a / 4):
            raise ValueError(f"need 0 < b < a/4, got a={self.a}, b={self.b}")
        if self.r < 1:
            raise ValueError(f"need r >= 1, got r={self.r}")

    @property
    def h(self) -> float:
        return self.b / self.r


def kernel_from_instance(eps: float, X: float) -> KernelParams:
    """Parameters used by the solvers: a = 9*eps/10, b = eps/10, r = floor(log X).

    b < a/4 holds automatically (eps/10 < 9*eps/40).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if X < 3:
        raise ValueError("X must be >= 3")
    return KernelParams(0.9 * eps, 0.1 * eps, int(math.floor(math.log(X))))


_CDF_BLOCK = 1 << 16   # points per block of the Irwin-Hall recurrence


def _irwin_hall_cdf(x: np.ndarray, n: int) -> np.ndarray:
    """CDF of a sum of n independent uniforms on [0, 1], at every point of
    the 1-d array x.

    Recurrence F_m(x) = (x F_{m-1}(x) + (m - x) F_{m-1}(x - 1)) / m from
    F_1(x) = clip(x, 0, 1).  Where F_m(x) lies strictly between 0 and 1 its
    weights x/m and (m - x)/m are in [0, 1], so every step is a convex
    combination and no accuracy is lost to cancellation, at any n.  Work
    and memory are O(n^2) and O(n) per point, a block of points at a time.
    """
    out = np.empty(len(x))
    for start in range(0, len(x), _CDF_BLOCK):
        shifted = x[start:start + _CDF_BLOCK, None] - np.arange(n)   # x - k
        F = np.clip(shifted, 0.0, 1.0)   # F_1(x - k), k = 0, ..., n - 1
        for m in range(2, n + 1):
            s = shifted[:, :n - m + 1]
            F = (s * F[:, :-1] + (m - s) * F[:, 1:]) / m   # F_m(x - k)
        out[start:start + _CDF_BLOCK] = np.clip(F[:, 0], 0.0, 1.0)
    return out


def phi_eval(p: KernelParams, y):
    """Pointwise kernel value, exact up to double rounding, for a scalar y
    (gives a float) or an array (gives an array of the same shape).

    phi(y) = P(|y| - a <= S <= |y| + a) for S the n-fold uniform sum on
    [-b, b], i.e. the box indicator convolved with the sum's density.  On
    the ramp a - b < |y| < a + b the upper event always holds (b < a/4),
    and S is symmetric, so phi(y) = P(S <= a - |y|), one Irwin-Hall CDF.
    """
    n = p.r
    if n > 40:
        raise ValueError(
            f"pointwise kernel evaluation supports at most 40 boxes, got {n}; "
            "only the Fourier side is available at this smoothing order")
    ay = np.abs(np.asarray(y, dtype=float))
    out = np.where(ay <= p.a - p.b, 1.0, 0.0)
    ramp = (ay > p.a - p.b) & (ay < p.a + p.b)
    # S = h (2U - n) with U Irwin-Hall, so S <= s iff U <= (s / h + n) / 2
    out[ramp] = _irwin_hall_cdf(((p.a - ay[ramp]) / p.h + n) / 2.0, n)
    return float(out) if out.ndim == 0 else out


def phi_fourier(p: KernelParams, x) -> float:
    """Closed-form Fourier transform; Phi(0) = 2a by continuity.

    Accepts a scalar or ndarray.
    """
    x = np.asarray(x, dtype=float)
    n = p.r
    h = p.h
    with np.errstate(divide="ignore", invalid="ignore"):
        box = np.where(x == 0.0, 2.0 * p.a, np.sin(2.0 * np.pi * p.a * x) / (np.pi * x))
        u = 2.0 * np.pi * h * x
        kern = np.where(u == 0.0, 1.0, np.sin(u) / np.where(u == 0.0, 1.0, u)) ** n
    out = box * kern
    return float(out) if out.ndim == 0 else out


def phi_fourier_bound(p: KernelParams, x) -> float:
    """min(2a, 1/(pi|x|), (1/(pi|x|)) * (n/(2*pi*|x|*b))^n) with n = r, the
    quoted bound.  At x = 0 the first branch gives 2a.
    """
    x = np.asarray(x, dtype=float)
    n = p.r
    ax = np.abs(x)
    with np.errstate(divide="ignore", over="ignore"):
        inv = np.where(ax == 0.0, np.inf, 1.0 / (np.pi * ax))
        ratio = np.where(ax == 0.0, np.inf, n / (2.0 * np.pi * ax * p.b))
        tail = inv * ratio ** n
    out = np.minimum(2.0 * p.a, np.minimum(inv, tail))
    return float(out) if out.ndim == 0 else out


_QUAD_REL_TOL = 1e-9   # phi_fourier_quadrature's stopping criterion


def phi_fourier_quadrature(p: KernelParams, x: float) -> float:
    """Direct numeric transform of phi; independent oracle for phi_fourier.

    Trapezoid rule with interval doubling on [-(a+b), a+b]; the integrand
    is real and even in y when paired with its mirror, so we integrate
    2 * phi(y) * cos(2*pi*x*y) over [0, a+b], from 256 intervals up.  Each
    doubling evaluates only the new midpoints.  ConvergenceError when 16
    levels (up to 2^23 intervals) bring no two successive estimates within
    _QUAD_REL_TOL.
    """
    def integrand(y: np.ndarray) -> np.ndarray:
        return 2.0 * phi_eval(p, y) * np.cos(2.0 * np.pi * x * y)

    top = p.a + p.b
    n = 256
    ends = 0.5 * float(np.sum(integrand(np.array([0.0, top]))))
    inner = float(np.sum(integrand(np.linspace(0.0, top, n + 1)[1:-1])))
    est = top / n * (ends + inner)
    for _ in range(15):
        inner += float(np.sum(integrand((np.arange(n) + 0.5) * (top / n))))
        n *= 2
        prev, est = est, top / n * (ends + inner)
        error = abs(est - prev)
        if error <= _QUAD_REL_TOL * max(1.0, abs(est)):
            return est
    raise ConvergenceError("phi_fourier_quadrature", error)
