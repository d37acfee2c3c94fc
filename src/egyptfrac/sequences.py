"""Reference integer sequences and their doubly exponential growth constant.

Generalized Sylvester numbers s_1(m) = m+1, s_{n+1} = s_n^2 - s_n + 1 (the
classical Sylvester sequence is m = 1), Fibonacci numbers by fast doubling,
and the power-of-two subsequence F_{2^n}.  Terms have roughly 2^n digits, so
depth caps guard against accidental memory blowups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DepthExceeded
from .exactnum import _integer

SYLVESTER_DEPTH_CAP = 24
FIB2_DEPTH_CAP = 24

__all__ = [
    "SYLVESTER_DEPTH_CAP",
    "FIB2_DEPTH_CAP",
    "sylvester",
    "sylvester_terms",
    "fib",
    "fib_pow2",
    "GrowthEstimate",
    "growth_constant",
]


def sylvester(m: int, n: int) -> int:
    """n-th generalized Sylvester number s_n(m)."""
    return sylvester_terms(m, _integer("n", n, 1))[-1]


def sylvester_terms(m: int, count: int) -> list[int]:
    """First ``count`` terms s_1(m) .. s_count(m), by direct recurrence."""
    count = _integer("count", count, 1)
    if count > SYLVESTER_DEPTH_CAP:
        raise DepthExceeded(f"count={count} exceeds depth cap {SYLVESTER_DEPTH_CAP}")
    m = _integer("m", m, 1)
    out = [m + 1]
    for _ in range(count - 1):
        s = out[-1]
        out.append(s * s - s + 1)
    return out


def fib(n: int) -> int:
    """F_n by fast doubling: F_2k = F_k(2F_{k+1}-F_k), F_{2k+1} = F_k^2+F_{k+1}^2."""
    n = _integer("n", n, 0)
    a, b = 0, 1  # F_0, F_1
    for i in range(n.bit_length() - 1, -1, -1):
        c = a * (2 * b - a)
        d = a * a + b * b
        if (n >> i) & 1:
            a, b = d, c + d
        else:
            a, b = c, d
    return a


def fib_pow2(n: int) -> int:
    """F_{2^n}, the n-th term of the Millin-series denominators."""
    n = _integer("n", n, 1)
    if n > FIB2_DEPTH_CAP:
        raise DepthExceeded(f"n={n} exceeds depth cap {FIB2_DEPTH_CAP}")
    return fib(1 << n)


@dataclass(frozen=True)
class GrowthEstimate:
    """Estimate of the constant c(m) with s_n(m) ~ c(m)^(2^n).

    ``c_hat`` is exp(2^-depth * ln s_depth(m)), a float printed to 12
    significant digits; the logarithm of the big integer is taken from its
    bit length plus the leading 64 bits.  ``residual_bound`` is the tail
    estimate c_hat * 2^-depth / s_depth(m) of the truncation at ``depth``
    only, rendered in scientific notation (it underflows floats quickly, so
    it is computed in log space); it does not cover the rounding of c_hat,
    whose error is about 1e-12.
    """

    m: int
    depth: int
    c_hat: str
    residual_bound: str


def _log_bigint(n: int) -> float:
    """Natural log of a positive big integer from bit length + 64-bit mantissa."""
    bits = n.bit_length()
    if bits <= 64:
        return math.log(n)
    shift = bits - 64
    return math.log(n >> shift) + shift * math.log(2)


def growth_constant(m: int, depth: int) -> GrowthEstimate:
    """Growth-constant estimate c_hat = s_depth(m)^(2^-depth) with error bound."""
    depth = _integer("depth", depth)
    if not 4 <= depth <= 16:
        raise DepthExceeded(f"depth must be in [4, 16], got {depth}")
    m = _integer("m", m, 1)
    s = sylvester(m, depth)
    ln_s = _log_bigint(s)
    c_hat = math.exp(ln_s / 2.0**depth)
    log10_res = math.log10(c_hat) - depth * math.log10(2) - ln_s / math.log(10)
    exp10 = math.floor(log10_res)
    mant = 10.0 ** (log10_res - exp10)
    return GrowthEstimate(
        m=m,
        depth=depth,
        c_hat=f"{c_hat:.12g}",
        residual_bound=f"{mant:.2f}e{exp10:d}",
    )
