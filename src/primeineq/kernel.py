"""Smoothing kernel: a near-indicator bump and its Fourier transform.

The kernel is the classical Segal construction: the indicator of [-a, a]
convolved with the density of a sum of n independent uniforms on [-b/n, b/n].
It equals 1 on [-(a-b), a-b], vanishes outside [-(a+b), a+b], and its Fourier
transform has the closed form

    Phi(x) = sin(2*pi*a*x)/(pi*x) * (sin(2*pi*h*x)/(2*pi*h*x))^n,   h = b/n,

which is bounded by min(2a, 1/(pi|x|), (1/(pi|x|)) * (n/(2*pi*|x|*b))^n).

With n = r boxes the kernel is C^{r-1} and the bound above, at n = r, is the
standard one quoted for a C^r kernel.  Both readings are supported: the
default uses n = r boxes and matches the quoted bound exactly; pass
``strict_smooth=True`` to get a genuinely C^r kernel from n = r + 1 boxes,
with the Fourier bound adjusted to the r+1 power.
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
    r: int
    strict_smooth: bool = False

    def __post_init__(self):
        if not (0 < self.b < self.a / 4):
            raise ValueError(f"need 0 < b < a/4, got a={self.a}, b={self.b}")
        if self.r < 1:
            raise ValueError(f"need r >= 1, got r={self.r}")

    @property
    def n_boxes(self) -> int:
        return self.r + 1 if self.strict_smooth else self.r

    @property
    def h(self) -> float:
        return self.b / self.n_boxes


def kernel_from_instance(eps: float, X: float, strict_smooth: bool = False) -> KernelParams:
    """Parameters used by the solvers: a = 9*eps/10, b = eps/10, r = floor(log X).

    b < a/4 holds automatically (eps/10 < 9*eps/40).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if X < 3:
        raise ValueError("X must be >= 3")
    return KernelParams(0.9 * eps, 0.1 * eps, int(math.floor(math.log(X))), strict_smooth)


def _irwin_hall_cdf(x: float, n: int) -> float:
    """CDF of a sum of n independent uniforms on [0, 1].

    Alternating-sum closed form; compensated summation keeps it usable for
    n <= 40, which covers every r the pointwise kernel is evaluated at.
    """
    if x <= 0.0:
        return 0.0
    if x >= n:
        return 1.0
    terms = []
    for k in range(int(math.floor(x)) + 1):
        terms.append((-1.0) ** k * math.comb(n, k) * (x - k) ** n)
    return max(0.0, min(1.0, math.fsum(terms) / math.factorial(n)))


def _sum_uniform_cdf(s: float, n: int, h: float) -> float:
    # CDF of a sum of n uniforms on [-h, h]: rescale to Irwin-Hall.
    return _irwin_hall_cdf((s / h + n) / 2.0, n)


def phi_eval(p: KernelParams, y: float) -> float:
    """Pointwise kernel value, exact up to double rounding.

    phi(y) = P(y - a <= S <= y + a) for S the n-fold uniform sum, i.e. the
    box indicator convolved with the sum's density.
    """
    n = p.n_boxes
    if n > 40:
        raise ValueError(
            f"pointwise kernel evaluation supports at most 40 boxes, got {n}; "
            "only the Fourier side is available at this smoothing order")
    y = abs(y)
    if y <= p.a - p.b:
        return 1.0
    if y >= p.a + p.b:
        return 0.0
    return _sum_uniform_cdf(y + p.a, n, p.h) - _sum_uniform_cdf(y - p.a, n, p.h)


def phi_fourier(p: KernelParams, x) -> float:
    """Closed-form Fourier transform; Phi(0) = 2a by continuity.

    Accepts a scalar or ndarray.
    """
    x = np.asarray(x, dtype=float)
    n = p.n_boxes
    h = p.h
    with np.errstate(divide="ignore", invalid="ignore"):
        box = np.where(x == 0.0, 2.0 * p.a, np.sin(2.0 * np.pi * p.a * x) / (np.pi * x))
        u = 2.0 * np.pi * h * x
        kern = np.where(u == 0.0, 1.0, np.sin(u) / np.where(u == 0.0, 1.0, u)) ** n
    out = box * kern
    return float(out) if out.ndim == 0 else out


def phi_fourier_bound(p: KernelParams, x) -> float:
    """min(2a, 1/(pi|x|), (1/(pi|x|)) * (n/(2*pi*|x|*b))^n) with n = n_boxes.

    At x = 0 the first branch gives 2a.  For the default mode n = r and this
    is exactly the quoted bound.
    """
    x = np.asarray(x, dtype=float)
    n = p.n_boxes
    ax = np.abs(x)
    with np.errstate(divide="ignore", over="ignore"):
        inv = np.where(ax == 0.0, np.inf, 1.0 / (np.pi * ax))
        ratio = np.where(ax == 0.0, np.inf, n / (2.0 * np.pi * ax * p.b))
        tail = inv * ratio ** n
    out = np.minimum(2.0 * p.a, np.minimum(inv, tail))
    return float(out) if out.ndim == 0 else out


def phi_fourier_quadrature(p: KernelParams, x: float, rel_tol: float = 1e-9) -> float:
    """Direct numeric transform of phi; independent oracle for phi_fourier.

    Adaptive trapezoid with interval doubling on [-(a+b), a+b]; the integrand
    is real and even in y when paired with its mirror, so we integrate
    2 * phi(y) * cos(2*pi*x*y) over [0, a+b].  ConvergenceError after 16
    doublings without agreement.
    """
    top = p.a + p.b
    n = 256
    prev = None
    for _ in range(16):
        ys = np.linspace(0.0, top, n + 1)
        vals = np.array([phi_eval(p, float(y)) for y in ys])
        integrand = 2.0 * vals * np.cos(2.0 * np.pi * x * ys)
        est = float(np.trapezoid(integrand, ys))
        if prev is not None:
            error = abs(est - prev)
            if error <= rel_tol * max(1.0, abs(est)):
                return est
        prev = est
        n *= 2
    raise ConvergenceError("phi_fourier_quadrature", error)
