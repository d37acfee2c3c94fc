"""Recovering a doubly exponential sequence from its reciprocal sum.

The recovery iteration reads terms off a reciprocal sum r with an offset
beta: a_n = round(1/x_n + beta), x_{n+1} = x_n - 1/a_n (ties toward
+infinity).  This is the pseudo-greedy rule of :mod:`egyptfrac.expansion`
at offset beta, and :func:`recover_sequence` walks it with
:func:`~egyptfrac.expansion.expand`.  Under the characterization hypotheses
it reproduces the sequence exactly once a_n clears the threshold
8*(beta + 1/3)^2; below the threshold the formula is still applied, since
for the canonical inputs the early terms come out right anyway.

beta = 1 on r = 1 yields the Sylvester sequence; beta = 1/3 on
r = (5 - sqrt 5)/2 yields F_{2^n}.  All arithmetic is exact (rational or
quadratic); a breakdown (a_n < 1 or x_{n+1} <= 0) raises rather than
clamps, because silent repair would mask violated hypotheses.

:func:`verify_characterization` checks a given sequence against the rule
by its own loop, a route separate from the walk: it rounds each
1/x_n + beta itself and compares the result with the given term.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import SumExceeds
from .exactnum import QuadraticValue, _exact, _integer, nearest_int, sign_of
from .expansion import ExpansionKind, ExpansionRecord, _offset, expand

__all__ = [
    "CharacterizationCheck",
    "threshold",
    "recover_sequence",
    "verify_characterization",
]


@dataclass(frozen=True)
class CharacterizationCheck:
    """Per-index report for a candidate sequence against a reciprocal sum.

    ``formula_ok`` is None below the threshold (no guarantee there), else
    whether round(1/x_n + beta) reproduces a_n exactly.
    """

    n: int
    a: int
    delta: Fraction | QuadraticValue
    threshold_met: bool
    formula_ok: bool | None


def threshold(beta) -> Fraction | QuadraticValue:
    """The exact recovery threshold 8*(beta + 1/3)^2.

    ``beta`` goes through the exact-input rule of :mod:`egyptfrac.exactnum`.
    A negative offset raises :class:`~egyptfrac.errors.NegativeBeta`.
    """
    t = _offset(beta) + Fraction(1, 3)
    return 8 * t * t


def recover_sequence(r, beta, n_terms: int) -> list[ExpansionRecord]:
    """The records of a_n = round(1/x_n + beta) from x_1 = r, for ``n_terms``
    steps: ``expand(r, PSEUDO_GREEDY, n_terms, beta=beta).records``.

    ``n_terms`` follows the integer-argument rule.  Each record's ``eps`` is
    the exact gap 1/x_n + beta - a_n, and the recovery guarantee applies to
    the records with ``a >= threshold(beta)``, where |eps| < 1/2 holds.
    Raises :class:`~egyptfrac.errors.RecoveryBreakdown` as soon as a
    recovered term drops below 1 or a remainder stops being positive.
    """
    n_terms = _integer("n_terms", n_terms, 1)
    return expand(r, ExpansionKind.PSEUDO_GREEDY, n_terms, beta=beta).records


def _term(t) -> int:
    """A sequence term by the integer-argument rule, as a plain int; a bool
    is not a term."""
    if not isinstance(t, bool):
        try:
            return _integer("term", t, 1)
        except (TypeError, ValueError):
            pass
    raise ValueError("sequence terms must be positive integers")


def verify_characterization(a, r, beta) -> list[CharacterizationCheck]:
    """Check the recovery formula against a given sequence prefix.

    For each index reports the exact gap delta_n = 1/x_n + beta - a_n and,
    where a_n clears the threshold, whether the formula reproduces a_n.  The
    reciprocal sum of the given terms must stay strictly below r.  ``r``
    and ``beta`` go through the exact-input rule of :mod:`egyptfrac.exactnum`;
    each term is a positive integer by its integer-argument rule (numpy
    integers included, bools not) and is reported as a plain ``int``.  As in
    :func:`recover_sequence`, the remainder after the last term is never
    formed.
    """
    terms = [_term(t) for t in a]
    if not terms:
        raise ValueError("sequence must be nonempty")
    r, beta = _exact(r), _exact(beta)
    thr = threshold(beta)

    total = sum(Fraction(1, t) for t in terms)
    if sign_of(r - total) <= 0:
        raise SumExceeds(
            f"reciprocal sum of the given terms ({total}) must be strictly below r"
        )

    checks: list[CharacterizationCheck] = []
    x = r
    for n, a_n in enumerate(terms, start=1):
        y = 1 / x + beta
        met = sign_of(a_n - thr) >= 0
        checks.append(
            CharacterizationCheck(
                n=n,
                a=a_n,
                delta=y - a_n,
                threshold_met=met,
                formula_ok=(nearest_int(y) == a_n) if met else None,
            )
        )
        if n == len(terms):
            break
        x = x - Fraction(1, a_n)
    return checks
