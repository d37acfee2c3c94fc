"""Unit-fraction expansion engine: greedy, odd-greedy, and pseudo-greedy.

Expansions run over exact values.  The pseudo-greedy rule picks
a_n = round(1/x_n + beta) with ties toward +infinity, for an exact offset
beta >= 0 (1 by default; :mod:`egyptfrac.recovery` uses others); the
remainder updates as x_{n+1} = x_n - 1/a_n.  Every pseudo-greedy record
carries its gap eps_n = 1/x_n + beta - a_n.  For rational input p/q
(reduced first) at beta = 1 the engine also tracks the unreduced
bookkeeping pair x_n = c_n/d_n together with the centered residue e_n of
d_n mod c_n, so that eps_n = e_n/c_n.  The pair is deliberately never
reduced: the recurrences c_{n+1} = c_n - e_n and d_{n+1} = d_n * a_n are
representation dependent, and fixing the reduced starting point makes
every trace reproducible.  At any other beta no pair is kept.

A pseudo-greedy step breaks down, and raises
:class:`~egyptfrac.errors.RecoveryBreakdown`, when x_n <= 0 or a_n < 1.
Only beta < 1/2 reaches it: since eps_n < 1/2, a_n > 1/x_n + beta - 1/2, so
for beta >= 1/2 every a_n exceeds 1/x_n > 0 and x_n - 1/a_n stays positive.

Printing an expansion is a cost of its own: a_n and x_n have twice the digits
of the row before, and a binary-to-decimal conversion of each costs
O(M(n) log n).  :func:`_decimal_rows`, through which the CLI's ``expand`` and
``recover`` both print rational rows, converts only the first row and reads
every later row off the one before it, in exact ``decimal`` arithmetic.  With
x_n = u_n/v_n in lowest terms and r_n = v_n - u_n*a_n (a big number times a
small one, so linear), every kind of expansion satisfies:

- a_n = (v_n - r_n)/u_n, since v_n - r_n = u_n*a_n;
- x_{n+1} = x_n - 1/a_n = (u_n*a_n - v_n)/(v_n*a_n) = -r_n/(v_n*a_n);
- k_n = -r_n/u_{n+1} is a positive integer, and v_{n+1} = v_n*a_n/k_n.
  Proof: x_{n+1} > 0 whenever there is a row n+1, so -r_n > 0, and with
  g = gcd(-r_n, v_n*a_n) >= 1 the lowest terms of -r_n/(v_n*a_n) are
  (-r_n/g)/(v_n*a_n/g).  So u_{n+1} = -r_n/g, hence k_n = g, and
  v_{n+1} = v_n*a_n/g;
- a pseudo-greedy d_n is v_n*c_n/u_n, since c_n/d_n = u_n/v_n, and the
  division is exact as u_n/v_n is in lowest terms.

So each row costs one ``Decimal`` multiplication and short exact divisions.
"""

from __future__ import annotations

from decimal import Decimal
from enum import Enum
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .errors import (
    NegativeBeta, NonPositiveInput, NotReduced, OddGreedyOnIrrational, RecoveryBreakdown,
)
from .exactnum import (
    QuadraticValue, _check_term, _exact, _exact_context, _int_to_decimal, _integer, ceil_value,
    decimal_digits, nearest_int, sign_of,
)

NAIVE_DIGIT_LIMIT = 10**5

__all__ = [
    "NAIVE_DIGIT_LIMIT",
    "ExpansionKind",
    "ExpansionStatus",
    "ExpansionRecord",
    "Expansion",
    "expand",
    "GapStep",
    "gap_sequence_naive",
]


class ExpansionKind(Enum):
    GREEDY = "greedy"
    ODD_GREEDY = "odd_greedy"
    PSEUDO_GREEDY = "pseudo_greedy"


class ExpansionStatus(Enum):
    EXACT = "exact"          # remainder reached 0: finite expansion
    ZERO_GAP = "zero_gap"    # rational pseudo-greedy hit eps = 0; tail implied
    MAX_TERMS = "max_terms"  # term budget exhausted with no exact end


class ExpansionRecord(NamedTuple):
    """One expansion step: term ``a``, remainder ``x`` before the step.

    A pseudo-greedy record has the gap ``eps`` = 1/x + beta - a; greedy and
    odd-greedy records have None.  Over rationals at beta = 1 the exact
    unreduced bookkeeping ``c``, ``d``, ``e`` is present too, all three or
    none; otherwise each is None.
    """

    n: int
    a: int
    x: Fraction | QuadraticValue
    eps: Fraction | QuadraticValue | None = None
    c: int | None = None
    d: int | None = None
    e: int | None = None


class Expansion(NamedTuple):
    kind: ExpansionKind
    records: list[ExpansionRecord]
    status: ExpansionStatus
    zero_gap_at: int | None  # first index with eps = 0, when tracked


def _offset(beta) -> Fraction | QuadraticValue:
    """The pseudo-greedy offset by the exact-input rule; a negative one raises
    :class:`~egyptfrac.errors.NegativeBeta`."""
    beta = _exact(beta)
    if sign_of(beta) < 0:
        raise NegativeBeta(f"beta must be >= 0, got {beta}")
    return beta


def expand(
    r,
    kind: ExpansionKind,
    max_terms: int,
    *,
    stop_at_first_zero: bool = False,
    beta=1,
) -> Expansion:
    """Expand a positive exact value into unit fractions.

    ``r`` and the pseudo-greedy offset ``beta`` go through the exact-input
    rule of :mod:`egyptfrac.exactnum`; a negative ``beta`` raises
    :class:`~egyptfrac.errors.NegativeBeta`, and a ``beta`` other than 1 for
    another kind raises ``ValueError``.  Emits up to ``max_terms`` records;
    greedy expansions of rationals stop early when the remainder hits 0
    exactly.  A rational pseudo-greedy record at beta = 1 holds the exact
    bookkeeping ``c``, ``d``, ``e``, however many digits ``d`` has; which
    ``d`` to print is the caller's choice.  For such a run,
    ``stop_at_first_zero`` truncates the stream at the first zero gap (the
    rest of the gap sequence is zero by persistence); by default the stream
    runs to the full term budget.  Any other run keeps no gap bookkeeping,
    so ``stop_at_first_zero`` raises ``ValueError`` there.  A pseudo-greedy
    breakdown (see the module docstring) raises
    :class:`~egyptfrac.errors.RecoveryBreakdown` naming its step, and a
    term of more than :data:`~egyptfrac.exactnum.TERM_BIT_CAP` bits raises
    :class:`~egyptfrac.errors.DepthExceeded` before it is recorded (by a
    greedy or odd-greedy run sooner, see below).

    Each step roughly squares the size of d_n, so the last step of a run
    costs about as much as all earlier ones.  Three rules keep that cost down:

    - The rational pseudo-greedy remainder at beta = 1 is read off the pair,
      not subtracted: from e_n = d_n - (a_n - 1)*c_n, a_n*c_n - d_n = c_n - e_n,
      so x_n - 1/a_n = (a_n*c_n - d_n)/(a_n*d_n) = c_{n+1}/d_{n+1}, and
      ``Fraction(c, d)`` reduces against the small c_{n+1} alone.
    - A run stops at its last record: x_{N+1} (and d_{N+1}) would be the
      largest values of the run, and no record holds them.  A rational
      greedy or odd-greedy run, the only kind whose remainder can reach 0
      and end the expansion, reads ``EXACT`` off x_n = u_n/v_n in lowest
      terms: x_n - 1/a_n = 0 exactly when u_n*a_n = v_n.  A pseudo-greedy
      remainder that reaches 0 is a breakdown at the next step, not an end.
    - A greedy or odd-greedy run bounds its next term before it forms the
      remainder.  a_n is the least integer (k = 1, greedy) or odd integer
      (k = 2, odd-greedy) >= 1/x_n, so a_n - k < 1/x_n.  If a_n > k, then
      x_{n+1} = x_n - 1/a_n < k/(a_n(a_n - k)) and a_{n+1} >= 1/x_{n+1} >
      a_n(a_n - k)/k.  If a_n has b bits and 2^(b-2) >= k, a_n - k >=
      2^(b-2) and a_{n+1} > 2^(2b-3)/k: a_{n+1} has at least 2b - 1 - k
      bits, a count at most 1 (so true of every a_{n+1} >= 1) otherwise.
      A run raises ``DepthExceeded`` as soon as that count passes the cap.
    """
    r = _exact(r)
    if not isinstance(kind, ExpansionKind):
        raise ValueError(f"unknown expansion kind {kind!r}")
    max_terms = _integer("max_terms", max_terms, 1)
    if sign_of(r) <= 0:
        raise NonPositiveInput(f"expansion requires r > 0, got {r}")
    beta = _offset(beta)
    pseudo = kind is ExpansionKind.PSEUDO_GREEDY
    if beta != 1 and not pseudo:
        raise ValueError(f"beta is a pseudo-greedy offset, got beta = {beta} for {kind.value}")

    rational = isinstance(r, Fraction)
    if kind is ExpansionKind.ODD_GREEDY and not rational:
        raise OddGreedyOnIrrational("odd-greedy expansion requires a rational input")

    pseudo_book = rational and pseudo and beta == 1
    if stop_at_first_zero and not pseudo_book:
        raise ValueError("stop_at_first_zero needs a rational pseudo-greedy run at beta = 1, "
                         "the only run that tracks zero gaps")
    can_end = rational and not pseudo
    status = ExpansionStatus.MAX_TERMS
    records: list[ExpansionRecord] = []
    zero_gap_at: int | None = None
    x = r
    if pseudo_book:
        c, d = r.numerator, r.denominator

    for n in range(1, max_terms + 1):
        if pseudo and not pseudo_book and sign_of(x) <= 0:
            raise RecoveryBreakdown(n, f"remainder x_{n} = {x} is not positive")
        inv = 1 / x
        if pseudo:
            y = inv + beta
            a = nearest_int(y)
            if a < 1:
                raise RecoveryBreakdown(n, f"recovered term a_{n} = {a} < 1")
        elif kind is ExpansionKind.GREEDY:
            a = ceil_value(inv)
        else:
            a = ceil_value(inv) | 1  # the smallest odd integer >= 1/x_n
        _check_term(f"a_{n}", a.bit_length())

        if pseudo_book:
            e = d - (a - 1) * c
            records.append(ExpansionRecord(n=n, a=a, x=x, eps=y - a, c=c, d=d, e=e))
            if e == 0 and zero_gap_at is None:
                zero_gap_at = n
                if stop_at_first_zero:
                    break
        else:
            records.append(ExpansionRecord(n=n, a=a, x=x, eps=y - a if pseudo else None))

        if can_end and x.numerator * a == x.denominator:
            status = ExpansionStatus.EXACT
            break
        if n == max_terms:
            break
        if not pseudo:
            k = 1 if kind is ExpansionKind.GREEDY else 2
            _check_term(f"a_{n + 1}", 2 * a.bit_length() - 1 - k, at_least=True)
        if pseudo_book:
            c, d = c - e, d * a
            x = Fraction(c, d)
        else:
            x = x - Fraction(1, a)

    if zero_gap_at is not None:
        status = ExpansionStatus.ZERO_GAP
    return Expansion(kind, records, status, zero_gap_at)


# a Mersenne prime: residues modulo it are linear to read off an int and, as
# it is below 10**19, off a Decimal too
_CHECK_MODULUS = 2**61 - 1


def _decimal_rows(records: list[ExpansionRecord], digit_cap: int):
    """Yield ``(a, u, v, d)``, the decimal text of each record of a rational
    expansion (``expand``'s rows, or ``recover``'s), with x = u/v in lowest
    terms.  d is None where the record has none or where it has more than
    ``digit_cap`` decimal digits (at 0, no d and no digit count): the cap
    decides only what is printed, never what a record holds.

    Only the first row's v is converted from binary; later rows follow from
    the row before by the identities of the module docstring, in a context
    where every operation is exact or raises.  Each row's v, a and d are
    compared with the record modulo ``_CHECK_MODULUS``, which is linear on
    both sides; a mismatch, a division that is not exact, or a k_n that is
    not a positive integer raises ``AssertionError`` naming the row, so a
    digit that is not the record's is never yielded.  A record that breaks
    x_{n+1} = x_n - 1/a_n shows at the row after it; nothing follows the
    last row, whose a is checked against its own record only.
    """
    ctx = _exact_context()
    modulus = Decimal(_CHECK_MODULUS)

    def check(n: int, what: str, value: Decimal, want: int) -> None:
        if int(ctx.remainder(value, modulus)) != want % _CHECK_MODULUS:
            raise AssertionError(f"row {n}: the decimal {what} is not the record's")

    def exact_divide(n: int, what: str, num: Decimal, den: Decimal) -> Decimal:
        quotient, rest = ctx.divmod(num, den)
        if rest:
            raise AssertionError(f"row {n}: {what} is not an integer")
        return quotient

    v_dec = None
    for rec in records:
        n, u, v = rec.n, rec.x.numerator, rec.x.denominator
        if v_dec is None:
            v_dec = _int_to_decimal(v)
        else:
            k, rest = divmod(-r, u)
            if rest or k <= 0:
                raise AssertionError(f"row {n}: x is not x - 1/a of row {n - 1}")
            v_dec = exact_divide(n, "v", ctx.multiply(v_dec, a_dec), _int_to_decimal(k))
        check(n, "v", v_dec, v)
        r = v - u * rec.a
        u_dec = _int_to_decimal(u)
        a_dec = exact_divide(n, "a", ctx.subtract(v_dec, _int_to_decimal(r)), u_dec)
        check(n, "a", a_dec, rec.a)
        d_text = None
        if rec.d is not None and digit_cap and decimal_digits(rec.d) <= digit_cap:
            d_dec = exact_divide(n, "d", ctx.multiply(v_dec, _int_to_decimal(rec.c)), u_dec)
            check(n, "d", d_dec, rec.d)
            d_text = str(d_dec)
        yield str(a_dec), str(u_dec), str(v_dec), d_text


class GapStep(NamedTuple):
    c: int
    e: int
    eps: Fraction


def gap_sequence_naive(p: int, q: int, max_terms: int) -> list[GapStep]:
    """Gap sequence of the pseudo-greedy expansion of p/q, by full arithmetic.

    Keeps the exact unreduced d_n, so it serves as the oracle for the
    modular fast path.  d_n roughly squares per step; the walk stops once
    its decimal length exceeds ``NAIVE_DIGIT_LIMIT`` (read at call time),
    and every emitted step is exact.  The input must already be in lowest
    terms.
    """
    p, q = _integer("p", p, 1), _integer("q", q, 1)
    if gcd(p, q) != 1:
        raise NotReduced(f"{p}/{q} is not in lowest terms")
    max_terms = _integer("max_terms", max_terms, 1)

    out: list[GapStep] = []
    c, d = p, q
    while len(out) < max_terms and decimal_digits(d) <= NAIVE_DIGIT_LIMIT:
        rem = d % c
        e = rem - c if 2 * rem >= c else rem
        out.append(GapStep(c, e, Fraction(e, c)))
        a = (d - e) // c + 1
        c, d = c - e, d * a
    return out
