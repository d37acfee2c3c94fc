"""Exact arithmetic over rationals and real quadratic irrationals.

Rationals are plain ``fractions.Fraction`` (arbitrary precision, always in
lowest terms, positive denominator).  Irrationals of the form a + b*sqrt(D)
with a, b rational and D a positive non-square integer are represented by
:class:`QuadraticValue`.  No floating point is used anywhere in this module:
signs, comparisons, rounding, and decimal rendering are all decided with
integer arithmetic, so every result is exact.

Quadratic signs, floors and inverses read one integer view of a value,
x = (A + B*sqrt(rad))/q with q the lcm of the denominators of a and b:
floor(x) = (A + f) // q, where f = floor(B*sqrt(rad)) is r = isqrt(B^2*rad)
for B >= 0 and -r - 1 for B < 0.

The one global rounding convention, used everywhere in the package, is
nearest-integer with ties toward +infinity: round(x) = floor(x + 1/2).

Exact terms roughly square in size each step, so rendering them is a cost of
its own: ``str(int)`` is quadratic in the number of digits and refuses values
above the interpreter's int-to-string limit (4300 digits by default).
:func:`int_to_decimal_str` renders integers above ``DECIMAL_PATH_BITS`` bits by
divide and conquer in the ``decimal`` module instead, at maximum precision with
``Inexact`` trapped, so a conversion that would round raises rather than print a
wrong digit.  :func:`format_value` and :func:`to_decimal` go through it and
render values of any size without ``sys.set_int_max_str_digits(0)``.  The
conversion itself, :func:`_int_to_decimal`, returns the ``Decimal``, with which
``expansion`` seeds the decimal arithmetic that renders an expansion's rows.
"""

from __future__ import annotations

import operator
import re
from decimal import (
    MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, DivisionByZero, Inexact, InvalidOperation,
    Overflow, localcontext,
)
from fractions import Fraction
from math import isqrt, lcm

from .errors import DepthExceeded, RadicandMismatch

__all__ = [
    "TERM_BIT_CAP",
    "QuadraticValue",
    "ExactValue",
    "nearest_int",
    "floor_value",
    "ceil_value",
    "sign_of",
    "to_decimal",
    "parse_value",
    "format_value",
    "decimal_digits",
    "int_to_decimal_str",
]

def _int_sign(x: int) -> int:
    return (x > 0) - (x < 0)


def _is_square(n: int) -> bool:
    r = isqrt(n)
    return r * r == n


def _integer_view(x: "QuadraticValue") -> tuple[int, int, int]:
    """Integers (A, B, q) with x = (A + B*sqrt(rad))/q, q = lcm of the denominators."""
    a, b = x.a, x.b
    q = lcm(a.denominator, b.denominator)
    return a.numerator * (q // a.denominator), b.numerator * (q // b.denominator), q


class QuadraticValue:
    """An exact element ``a + b*sqrt(rad)`` of a real quadratic field.

    ``a`` and ``b`` are rationals, ``rad`` is a fixed positive non-square
    integer, so each value denotes a unique real number.  Arithmetic with
    ints, Fractions and same-radicand QuadraticValues is supported through
    the usual operators; mixing different radicands raises
    :class:`~egyptfrac.errors.RadicandMismatch`.
    """

    __slots__ = ("a", "b", "rad")

    def __init__(self, a, b, rad: int):
        if not isinstance(rad, int) or rad < 1:
            raise ValueError(f"radicand must be a positive integer, got {rad!r}")
        if _is_square(rad):
            raise ValueError(f"radicand must not be a perfect square, got {rad}")
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))
        object.__setattr__(self, "rad", rad)

    def __setattr__(self, name, value):
        raise AttributeError("QuadraticValue is immutable")

    def __delattr__(self, name):
        raise AttributeError("QuadraticValue is immutable")

    # -- construction helpers -------------------------------------------

    def _lift(self, other) -> "QuadraticValue | None":
        if isinstance(other, QuadraticValue):
            if other.rad != self.rad:
                raise RadicandMismatch(
                    f"cannot combine sqrt({self.rad}) with sqrt({other.rad})"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return QuadraticValue(other, 0, self.rad)
        return None

    # -- predicates -------------------------------------------------------

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def sign(self) -> int:
        """Sign of the real number a + b*sqrt(rad), decided exactly.

        When a and b do not disagree in sign the answer is immediate;
        otherwise compare a^2 against rad*b^2, cleared of denominators as the
        ints (a.num*b.den)^2 and rad*(b.num*a.den)^2.  They are never equal,
        since rad is not a square and a, b are both nonzero here.
        """
        a, b = self.a, self.b
        sa, sb = _int_sign(a.numerator), _int_sign(b.numerator)
        if sb == 0:
            return sa
        if sa == 0 or sa == sb:
            return sb
        a_sq = (a.numerator * b.denominator) ** 2
        return sa if a_sq > self.rad * (b.numerator * a.denominator) ** 2 else sb

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return QuadraticValue(self.a + o.a, self.b + o.b, self.rad)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return QuadraticValue(self.a - o.a, self.b - o.b, self.rad)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return QuadraticValue(o.a - self.a, o.b - self.b, self.rad)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return QuadraticValue(
            self.a * o.a + self.rad * self.b * o.b,
            self.a * o.b + self.b * o.a,
            self.rad,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadraticValue":
        """Exact reciprocal via the conjugate: q/(A+B*sqrt(D)) = q*(A-B*sqrt(D))/(A^2-D*B^2)."""
        A, B, q = _integer_view(self)
        # the norm is 0 only for A = B = 0, since rad is not a square
        norm = A * A - self.rad * B * B
        if norm == 0:
            raise ZeroDivisionError("division by zero quadratic value")
        return QuadraticValue(Fraction(q * A, norm), Fraction(-q * B, norm), self.rad)

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __neg__(self):
        return QuadraticValue(-self.a, -self.b, self.rad)

    def __pos__(self):
        return self

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- comparisons ------------------------------------------------------

    def _cmp(self, other) -> int | None:
        o = self._lift(other)
        if o is None:
            return None
        return (self - o).sign()

    def __eq__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c == 0

    def __lt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c < 0

    def __le__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c >= 0

    def __hash__(self):
        # values with b == 0 are numerically rational and must hash like one
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.rad))

    def __repr__(self):
        return f"QuadraticValue({self.a!r}, {self.b!r}, rad={self.rad})"

    def __str__(self):
        return format_value(self)


ExactValue = Fraction | QuadraticValue


def _exact(x) -> ExactValue:
    """The exact-input rule of every entry point: a QuadraticValue with b != 0
    as is, one with b = 0 as its rational ``a``, else ``Fraction(x)``."""
    if isinstance(x, QuadraticValue):
        return x if x.b else x.a
    return Fraction(x)


def _integer(name: str, x, lo: int | None = None, hi: int | None = None) -> int:
    """The integer-argument rule of every entry point: ``operator.index(x)``,
    or a TypeError that names the argument; then a ValueError that names it
    unless ``lo <= x <= hi`` (a bound left as None is not checked)."""
    try:
        x = operator.index(x)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {x!r}") from None
    if hi is not None and not lo <= x <= hi:
        raise ValueError(f"{name} must be in [{lo}, {hi}], got {x}")
    if lo is not None and x < lo:
        raise ValueError(f"{name} must be >= {lo}, got {x}")
    return x


TERM_BIT_CAP = 2**24  # the one term-size rule: no exact term of more bits is formed


def _check_term(name: str, bits: int, at_least: bool = False) -> None:
    """Raise DepthExceeded naming the term ``name`` if ``bits`` (its bit length,
    or a lower bound on it if ``at_least``) passes TERM_BIT_CAP, read at call time."""
    if bits > TERM_BIT_CAP:
        at = "at least " if at_least else ""
        raise DepthExceeded(f"{name} has {at}{bits} bits, past the term cap of {TERM_BIT_CAP} bits")


def sign_of(x) -> int:
    """Sign of an exact value; the input goes through the exact-input rule."""
    x = _exact(x)
    return x.sign() if isinstance(x, QuadraticValue) else _int_sign(x.numerator)


def _quad_floor(x: QuadraticValue) -> int:
    """Exact floor of a quadratic value, from its integer view alone.

    Write x = (A + B*sqrt(rad))/q with integers A, B and q >= 1, and let
    r = isqrt(B^2 * rad).  For B != 0, B*sqrt(rad) is irrational, so its
    floor is r when B > 0 and -r - 1 when B < 0; for B = 0 it is 0 = r.
    With N = A + floor(B*sqrt(rad)) and 0 <= t < 1 the fractional part,
    floor((N + t)/q) = floor(N/q), because q*floor(N/q) <= N <= N + t <
    N + 1 <= q*(floor(N/q) + 1).  So the floor is one integer division.
    """
    A, B, q = _integer_view(x)
    r = isqrt(B * B * x.rad)
    return (A + (r if B >= 0 else -r - 1)) // q


def nearest_int(x) -> int:
    """Nearest integer floor(x + 1/2) to an exact value.

    Exact ties round toward +infinity.  The input goes through the
    exact-input rule first, so the result is always an int.
    """
    x = _exact(x)
    if isinstance(x, QuadraticValue):
        return _quad_floor(x + Fraction(1, 2))
    # floor(x + 1/2) via one integer floor division (denominator is > 0)
    return (2 * x.numerator + x.denominator) // (2 * x.denominator)


def floor_value(x) -> int:
    """Floor of an exact value; the input goes through the exact-input rule."""
    x = _exact(x)
    if isinstance(x, QuadraticValue):
        return _quad_floor(x)
    return x.numerator // x.denominator


def ceil_value(x) -> int:
    """Ceiling of an exact value; the input goes through the exact-input rule."""
    return -floor_value(-_exact(x))


# Integers with more bits than this are rendered through ``decimal``; read at
# call time.  Below 14,000 bits str() is faster and every value has fewer than
# 4300 digits, so the interpreter's default int-to-string limit never applies.
DECIMAL_PATH_BITS = 14_000
_LEAF_BITS = 128  # pieces this small convert with Decimal(int) directly


def _exact_context() -> Context:
    """A ``decimal`` context in which every operation is exact or raises:
    maximum precision and exponent range, with ``Inexact`` trapped."""
    return Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN,
                   traps=[InvalidOperation, DivisionByZero, Overflow, Inexact])


def _int_to_decimal(n: int) -> Decimal:
    """The exact ``Decimal`` of an int, the one binary-to-decimal conversion.

    Large values are split at half their bit length, ``n = hi * 2**w + lo``,
    and recombined in ``decimal`` arithmetic with memoised powers of two (the
    subquadratic conversion CPython 3.12 adopted for ``str(int)``), in the
    context of :func:`_exact_context`.
    """
    if n.bit_length() <= DECIMAL_PATH_BITS:
        return Decimal(n)
    two = Decimal(2)
    pow2: dict[int, Decimal] = {}

    def w2pow(w: int) -> Decimal:
        result = pow2.get(w)
        if result is None:
            if w <= _LEAF_BITS:
                result = two**w
            elif w - 1 in pow2:
                result = pow2[w - 1] + pow2[w - 1]
            else:
                # smaller half first, so an odd w finds w - 1 memoised
                half = w >> 1
                result = w2pow(half) * w2pow(w - half)
            pow2[w] = result
        return result

    def inner(m: int, w: int) -> Decimal:
        if w <= _LEAF_BITS:
            return Decimal(m)
        w2 = w >> 1
        hi = m >> w2
        lo = m - (hi << w2)
        return inner(lo, w2) + inner(hi, w - w2) * w2pow(w2)

    with localcontext(_exact_context()):
        result = inner(abs(n), n.bit_length())
        return -result if n < 0 else result


def int_to_decimal_str(n: int) -> str:
    """Decimal text of an int, equal to ``str(n)`` for every size.

    Values above ``DECIMAL_PATH_BITS`` bits are the ``str()`` of
    :func:`_int_to_decimal`, so that a conversion that would round raises
    rather than print a wrong digit.  ``n`` follows the integer-argument rule.
    """
    n = _integer("n", n)
    if n.bit_length() <= DECIMAL_PATH_BITS:
        return str(n)
    return str(_int_to_decimal(n))


def to_decimal(x, digits: int) -> str:
    """Correctly rounded decimal expansion of an int, Fraction, or QuadraticValue.

    ``digits`` fractional digits are produced by exact scaling: the value is
    multiplied by 10^digits and rounded with :func:`nearest_int` (ties toward
    +infinity, the package-wide convention).  Any other input goes through
    the exact-input rule first.
    """
    digits = _integer("digits", digits, 1, 10**6)
    m = nearest_int(_exact(x) * 10**digits)
    q, r = divmod(abs(m), 10**digits)
    sign = "-" if m < 0 else ""
    return f"{sign}{int_to_decimal_str(q)}.{int_to_decimal_str(r).zfill(digits)}"


_INT_RE = re.compile(r"^\s*([+-]?\d+)\s*$")
_FRAC_RE = re.compile(r"^\s*([+-]?\d+)\s*/\s*(\d+)\s*$")
_QUAD_RE = re.compile(
    r"^\s*\(\s*([+-]?\d+)\s*([+-])\s*(\d+)\s*sqrt\s*(\d+)\s*\)\s*/\s*(\d+)\s*$"
)


def _rational_parts(text: str) -> tuple[int, int] | None:
    """``(p, q)`` of an ``INT`` or ``INT/POSINT`` text as written, not
    reduced (``INT`` gives q = 1); None for any other text."""
    m = _INT_RE.match(text)
    if m:
        return int(m.group(1)), 1
    m = _FRAC_RE.match(text)
    if m:
        den = int(m.group(2))
        if den == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return int(m.group(1)), den
    return None


def parse_value(text: str) -> ExactValue:
    """Parse the exact-value grammar used by the CLI.

    Accepted forms (whitespace optional): ``INT``, ``INT/POSINT``, and
    ``( INT (+|-) POSINT sqrt POSINT ) / POSINT``, e.g. ``(5-1 sqrt 5)/2``.
    """
    parts = _rational_parts(text)
    if parts is not None:
        return Fraction(*parts)
    m = _QUAD_RE.match(text)
    if m:
        a_num, sgn, b_num, rad, den = m.groups()
        den = int(den)
        b = int(b_num)
        if den == 0:
            raise ValueError(f"zero denominator in {text!r}")
        if b == 0:
            raise ValueError(f"sqrt coefficient must be positive in {text!r}")
        if sgn == "-":
            b = -b
        return QuadraticValue(Fraction(int(a_num), den), Fraction(b, den), int(rad))
    raise ValueError(f"cannot parse exact value: {text!r}")


def format_value(x) -> str:
    """Serialize an exact value, after the exact-input rule, in the grammar
    accepted by :func:`parse_value`; a rational prints as ``num/den``."""
    x = _exact(x)
    if isinstance(x, Fraction):
        return f"{int_to_decimal_str(x.numerator)}/{int_to_decimal_str(x.denominator)}"
    a_num, b_num, q = _integer_view(x)
    sgn = "+" if b_num > 0 else "-"
    return (
        f"({int_to_decimal_str(a_num)}{sgn}{int_to_decimal_str(abs(b_num))}"
        f" sqrt {int_to_decimal_str(x.rad)})/{int_to_decimal_str(q)}"
    )


def decimal_digits(n: int) -> int:
    """Number of decimal digits of |n|, computed without str() conversion.

    ``n`` follows the integer-argument rule.  With b the bit length of
    |n| >= 1, 2**(b-1) <= |n| < 2**b, so the digit count D = floor(log10|n|) + 1
    satisfies floor((b-1)*log10(2)) + 1 <= D <= floor(b*log10(2)) + 1.  The
    bounds lo and hi below use 3010299956/10^10 < log10(2) < 3010299957/10^10,
    so lo <= floor((b-1)*log10(2)) + 1 <= D <= floor(b*log10(2)) + 1 <= hi:
    whenever lo == hi, D = lo with no power of ten formed.  Otherwise D is
    found by comparing |n| with the powers of ten from 10**lo up.
    """
    n = abs(_integer("n", n))
    if n == 0:
        return 1
    b = n.bit_length()
    lo = ((b - 1) * 3010299956) // 10**10 + 1
    hi = (b * 3010299957) // 10**10 + 1
    if lo == hi:
        return lo
    d, power = lo, 10**lo
    while power <= n:
        power *= 10
        d += 1
    return d
