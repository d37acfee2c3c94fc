"""One exact-input rule at every library entry point.

Each function that takes an exact value reads it the same way: a
QuadraticValue with b != 0 as it is, one with b = 0 as its rational ``a``,
and anything else through ``Fraction(x)``.  So every way of writing a value
must give the result of its exact form, type for type, and no float may
reach a returned record.
"""

from decimal import Decimal
from fractions import Fraction

import pytest

from egyptfrac.exactnum import QuadraticValue, format_value, nearest_int, sign_of, to_decimal
from egyptfrac.expansion import ExpansionKind, expand
from egyptfrac.recovery import recover_sequence, threshold, verify_characterization

SYLVESTER_PREFIX = [2, 3, 7, 43]  # reciprocal sum 1 - 1/1806

ENTRY_POINTS = {
    "expand-greedy": lambda v: expand(v, ExpansionKind.GREEDY, 6),
    "expand-odd_greedy": lambda v: expand(v, ExpansionKind.ODD_GREEDY, 6),
    "expand-pseudo_greedy": lambda v: expand(v, ExpansionKind.PSEUDO_GREEDY, 6),
    "expand-beta": lambda v: expand(1, ExpansionKind.PSEUDO_GREEDY, 6, beta=v),
    "recover_sequence-r": lambda v: recover_sequence(v, 1, 5),
    "recover_sequence-beta": lambda v: recover_sequence(1, v, 5),
    # 1/3 + 1/7 stays below the smallest input, 1/2
    "verify_characterization-r": lambda v: verify_characterization([3, 7], v, 1),
    "verify_characterization-beta": lambda v: verify_characterization(SYLVESTER_PREFIX, 1, v),
    "threshold": threshold,
    "format_value": format_value,
    "to_decimal": lambda v: to_decimal(v, 12),
    "nearest_int": nearest_int,
    "sign_of": sign_of,
}

# (input as given, its exact form)
INPUTS = {
    "int": (3, Fraction(3)),
    "float": (0.5, Fraction(1, 2)),
    "Decimal": (Decimal("0.75"), Fraction(3, 4)),
    "str": ("7/2", Fraction(7, 2)),
    "quadratic_b0": (QuadraticValue(Fraction(5, 3), 0, 5), Fraction(5, 3)),
}


def leaves(value):
    """Every scalar inside a result: tuple (a record's fields included) and
    list items, recursively."""
    if isinstance(value, (list, tuple)):
        for item in value:
            yield from leaves(item)
    else:
        yield value


@pytest.mark.parametrize("given, exact", INPUTS.values(), ids=INPUTS.keys())
@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_given_form_matches_exact_form(entry, given, exact):
    got = entry(given)
    # repr names each value's type, so Fraction(1, 2) and a b = 0
    # QuadraticValue, equal as numbers, do not pass for each other
    assert repr(got) == repr(entry(exact))
    assert not [leaf for leaf in leaves(got) if isinstance(leaf, float)]


def test_leaves_look_inside_records():
    got = expand(Fraction(11, 29), ExpansionKind.PSEUDO_GREEDY, 6)
    want = [got.kind,
            *(v for r in got.records for v in (r.n, r.a, r.x, r.eps, r.c, r.d, r.e)),
            got.status, got.zero_gap_at]
    assert len(want) == 45
    assert list(leaves(got)) == want
