"""Independent oracles used by the tests.

These deliberately avoid the code paths they check: square roots come from
integer-square-root interval bounds, Fibonacci from plain addition,
integrals from Simpson quadrature, and uniformity from a hand-rolled
Kolmogorov-Smirnov statistic.
"""

from fractions import Fraction
from math import isqrt


def sqrt_bounds(d: int, scale_digits: int = 12) -> tuple[Fraction, Fraction]:
    """Rational lo < sqrt(d) < hi with hi - lo = 10^-scale_digits."""
    s = 10**scale_digits
    lo = isqrt(d * s * s)
    return Fraction(lo, s), Fraction(lo + 1, s)


def interval_nearest_int(a: Fraction, b: Fraction, d: int) -> int:
    """Nearest integer (ties toward +inf) to a + b*sqrt(d) by interval arithmetic.

    Only returns when the interval pins a single answer; doubles the digits
    of the bracket until it does.  Ties cannot be decided this way, so
    callers use it on irrational inputs only (b != 0).
    """
    digits = 12
    while True:
        lo_s, hi_s = sqrt_bounds(d, digits)
        if b >= 0:
            lo, hi = a + b * lo_s, a + b * hi_s
        else:
            lo, hi = a + b * hi_s, a + b * lo_s
        n_lo = (2 * lo.numerator + lo.denominator) // (2 * lo.denominator)
        n_hi = (2 * hi.numerator + hi.denominator) // (2 * hi.denominator)
        if n_lo == n_hi:
            return n_lo
        digits *= 2


def fib_additive(n_max: int) -> list[int]:
    """F_0 .. F_n_max by the additive recurrence."""
    fs = [0, 1]
    while len(fs) <= n_max:
        fs.append(fs[-1] + fs[-2])
    return fs[: n_max + 1]


def simpson(f, a: float, b: float, n: int = 20000) -> float:
    """Composite Simpson rule; n must be even."""
    h = (b - a) / n
    total = f(a) + f(b)
    for i in range(1, n):
        total += f(a + i * h) * (4 if i % 2 else 2)
    return total * h / 3


def ks_statistic_uniform(samples, lo: float, hi: float) -> float:
    """Kolmogorov-Smirnov distance of samples to Uniform[lo, hi)."""
    xs = sorted(samples)
    n = len(xs)
    d = 0.0
    for i, x in enumerate(xs):
        cdf = min(max((x - lo) / (hi - lo), 0.0), 1.0)
        d = max(d, abs((i + 1) / n - cdf), abs(i / n - cdf))
    return d
