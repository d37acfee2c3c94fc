"""Reference integer sequences and their doubly exponential growth constant.

Generalized Sylvester numbers s_1(m) = m+1, s_{n+1} = s_n^2 - s_n + 1 (the
classical Sylvester sequence is m = 1) and the Millin-series denominators
F_{2^n} by Lucas doubling, each family in one pass.  A term has about 2^n
times the bits of the first, so each is held to ``exactnum.TERM_BIT_CAP``: the
first term past it raises DepthExceeded once the terms before it are built.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .exactnum import _check_term, _integer

__all__ = [
    "sylvester_terms",
    "fib_pow2_terms",
    "GrowthEstimate",
    "growth_constant",
]


def sylvester_terms(m: int, count: int) -> list[int]:
    """First ``count`` terms s_1(m) .. s_count(m), by direct recurrence.  Each
    s^2 - s + 1 > s^2/2 is checked before it is formed too: it has at least
    2b - 2 bits for a b-bit s."""
    count = _integer("count", count, 1)
    m = _integer("m", m, 1)
    out = [m + 1]
    _check_term("s_1", out[0].bit_length())
    for n in range(2, count + 1):
        s = out[-1]
        _check_term(f"s_{n}", 2 * s.bit_length() - 2, at_least=True)
        out.append(s * s - s + 1)
        _check_term(f"s_{n}", out[-1].bit_length())
    return out


def fib_pow2_terms(count: int) -> list[int]:
    """First ``count`` terms F_2, F_4, .., F_{2^count}, by Lucas doubling.

    With phi = (1 + sqrt 5)/2, Binet's forms give phi^m = (L_m + F_m sqrt 5)/2
    and its conjugate psi^m = (L_m - F_m sqrt 5)/2.  Squaring the first and
    matching rational and sqrt 5 parts gives F_{2m} = F_m L_m and
    L_{2m} = (L_m^2 + 5 F_m^2)/2.  Multiplying the two gives
    (phi psi)^m = (L_m^2 - 5 F_m^2)/4, which is 1 for even m as phi psi = -1,
    so 5 F_m^2 = L_m^2 - 4 and L_{2m} = L_m^2 - 2.  Every m = 2^n is even, so
    one pass (F, L) -> (F L, L^2 - 2) from (F_2, L_2) = (1, 3) yields them all.

    Each F L is checked before it is formed too: it has >= bits(F) + bits(L) - 1 bits.
    """
    count = _integer("count", count, 1)
    out, lucas = [1], 3  # F_2, L_2
    for n in range(2, count + 1):
        _check_term(f"F_{{2^{n}}}", out[-1].bit_length() + lucas.bit_length() - 1, at_least=True)
        out.append(out[-1] * lucas)
        _check_term(f"F_{{2^{n}}}", out[-1].bit_length())
        # the L past the last term would cost as much as that term: skip it
        if len(out) < count:
            lucas = lucas * lucas - 2
    return out


class GrowthEstimate(NamedTuple):
    """Estimate of the constant c(m) with s_n(m) ~ c(m)^(2^n).

    ``c_hat`` is exp(2^-depth * ln s_depth(m)), a float printed to 12
    significant digits; ``math.log`` takes the logarithm of the exact big
    integer, whatever its size.  ``residual_bound`` is the tail
    estimate c_hat * 2^-depth / s_depth(m) of the truncation at ``depth``
    only, rendered in scientific notation (it underflows floats quickly, so
    it is computed in log space); it does not cover the rounding of c_hat,
    whose error is about 1e-12.
    """

    m: int
    depth: int
    c_hat: str
    residual_bound: str


def growth_constant(m: int, depth: int) -> GrowthEstimate:
    """Growth-constant estimate c_hat = s_depth(m)^(2^-depth) with error bound."""
    depth = _integer("depth", depth, 4, 16)
    m = _integer("m", m, 1)
    s = sylvester_terms(m, depth)[-1]
    ln_s = math.log(s)
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
