"""One integer-argument rule at every library entry point.

Each public integer argument is read by ``operator.index``: an ``int``, a
``bool`` or a numpy integer becomes a plain ``int``, and anything else (a
float, even an integral one, a string, None, a Fraction) is a TypeError
whose message starts with the argument's name.  A value below the
argument's lower bound is a ValueError that names it.
"""

import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from egyptfrac import (
    ExpansionKind,
    expand,
    fib_pow2_terms,
    gap_sequence_fast,
    gap_sequence_naive,
    growth_constant,
    recover_sequence,
    scan_conjecture,
    sylvester_terms,
    to_decimal,
)
from egyptfrac.exactnum import decimal_digits, int_to_decimal_str
from egyptfrac.randwalk import run_walks


def walk(c0=10.0, steps=20, trials=30, seed=7):
    stats, hits = run_walks(c0, steps, trials, seed)
    return stats, hits.tolist()


def scan(q_min=1, q_max=4, n_max=20, jobs=1):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "scan.csv"
        summary = scan_conjecture(q_min, q_max, n_max, out, jobs=jobs)
        return summary._replace(wall_time_s=0.0), out.read_bytes()


# id: (argument name, lowest valid value or None, call with that argument set)
ENTRY_POINTS = {
    "expand-max_terms": ("max_terms", 1, lambda v: expand(
        Fraction(11, 29), ExpansionKind.PSEUDO_GREEDY, v)),
    "expand-digit_cap": ("digit_cap", 1, lambda v: expand(
        Fraction(11, 29), ExpansionKind.PSEUDO_GREEDY, 6, v)),
    "gap_sequence_naive-p": ("p", 1, lambda v: gap_sequence_naive(v, 29, 8)),
    "gap_sequence_naive-q": ("q", 1, lambda v: gap_sequence_naive(11, v, 8)),
    "gap_sequence_naive-max_terms": ("max_terms", 1, lambda v: gap_sequence_naive(11, 29, v)),
    "gap_sequence_fast-p": ("p", 1, lambda v: gap_sequence_fast(v, 29, 8)),
    "gap_sequence_fast-q": ("q", 1, lambda v: gap_sequence_fast(11, v, 8)),
    "gap_sequence_fast-n_max": ("n_max", 1, lambda v: gap_sequence_fast(11, 29, v)),
    "gap_sequence_fast-past_zero": ("past_zero", 0, lambda v: gap_sequence_fast(11, 29, 50, v)),
    "recover_sequence-n_terms": ("n_terms", 1, lambda v: recover_sequence(Fraction(1, 2), 1, v)),
    "sylvester_terms-m": ("m", 1, lambda v: sylvester_terms(v, 4)),
    "sylvester_terms-count": ("count", 1, lambda v: sylvester_terms(2, v)),
    "fib_pow2_terms-count": ("count", 1, fib_pow2_terms),
    "growth_constant-m": ("m", 1, lambda v: growth_constant(v, 6)),
    "growth_constant-depth": ("depth", 4, lambda v: growth_constant(2, v)),
    "to_decimal-digits": ("digits", 1, lambda v: to_decimal(Fraction(1, 3), v)),
    "int_to_decimal_str-n": ("n", None, int_to_decimal_str),
    "decimal_digits-n": ("n", None, decimal_digits),
    "scan_conjecture-q_min": ("q_min", 1, lambda v: scan(q_min=v)),
    "scan_conjecture-q_max": ("q_max", 1, lambda v: scan(q_max=v)),
    "scan_conjecture-n_max": ("n_max", 1, lambda v: scan(n_max=v)),
    "scan_conjecture-jobs": ("jobs", 1, lambda v: scan(jobs=v)),
    "run_walks-steps": ("steps", 1, lambda v: walk(steps=v)),
    "run_walks-trials": ("trials", 1, lambda v: walk(trials=v)),
    "run_walks-seed": ("seed", None, lambda v: walk(seed=v)),
}

NOT_INTEGERS = {"float": 2.5, "integral_float": 3.0, "str": "3", "None": None,
                "Fraction": Fraction(3)}

BOUNDED = {k: v for k, v in ENTRY_POINTS.items() if v[1] is not None}
# entries where True (= 1) is a valid value
ONE_IS_VALID = {k: v for k, v in ENTRY_POINTS.items() if (v[1] or 0) <= 1}


def leaves(value):
    """Every scalar inside a result: tuple (a record's fields included), list
    and dict items, recursively."""
    if isinstance(value, (list, tuple)):
        for item in value:
            yield from leaves(item)
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from leaves(key)
            yield from leaves(item)
    else:
        yield value


def assert_same_result(got, want):
    assert got == want
    assert [type(leaf) for leaf in leaves(got)] == [type(leaf) for leaf in leaves(want)]


@pytest.mark.parametrize("value", NOT_INTEGERS.values(), ids=NOT_INTEGERS.keys())
@pytest.mark.parametrize("name, lo, call", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_non_integer_is_named(name, lo, call, value):
    with pytest.raises(TypeError, match=f"^{name} must be an integer"):
        call(value)


@pytest.mark.parametrize("name, lo, call", ONE_IS_VALID.values(), ids=ONE_IS_VALID.keys())
def test_bool_is_its_plain_int(name, lo, call):
    assert_same_result(call(True), call(1))


@pytest.mark.parametrize("name, lo, call", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_numpy_integer_is_its_plain_int(name, lo, call):
    value = max(lo or 0, 1)
    assert_same_result(call(np.int64(value)), call(value))


@pytest.mark.parametrize("name, lo, call", BOUNDED.values(), ids=BOUNDED.keys())
def test_below_lower_bound_is_named(name, lo, call):
    with pytest.raises(ValueError, match=f"^{name} must be "):
        call(lo - 1)


class TestWalkStart:
    """``c0`` is a real number: any other type, bool included, is a
    TypeError that names it, and the result holds ``float(c0)``."""

    @pytest.mark.parametrize("value", ["10", True, None, 3 + 0j], ids=repr)
    def test_non_real_is_named(self, value):
        with pytest.raises(TypeError, match="^c0 must be a real number"):
            run_walks(value, 5, 5, 1)

    @pytest.mark.parametrize("value", [10, Fraction(10), np.float32(10), np.int64(10)], ids=repr)
    def test_real_is_its_float(self, value):
        got = walk(c0=value)
        assert type(got[0].c0) is float
        assert_same_result(got, walk(c0=10.0))
