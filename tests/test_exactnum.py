import decimal
import functools
import inspect
import math
import operator
import random
import re
import sys
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from egyptfrac import exactnum
from egyptfrac.cli import main
from egyptfrac.errors import RadicandMismatch
from egyptfrac.exactnum import (
    DECIMAL_PATH_BITS,
    QuadraticValue,
    ceil_value,
    decimal_digits,
    floor_value,
    format_value,
    int_to_decimal_str,
    nearest_int,
    parse_value,
    sign_of,
    to_decimal,
)

from oracles import interval_nearest_int, interval_sign, sqrt_bounds

MILLIN_SUM = QuadraticValue(Fraction(5, 2), Fraction(-1, 2), 5)


def q5(a, b):
    return QuadraticValue(Fraction(a), Fraction(b), 5)


fractions_st = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6)


class TestRatNearestInt:
    @pytest.mark.parametrize(
        "x, expected",
        [
            (Fraction(40, 11), 4),  # 29/11 + 1, the first 11/29 term
            (Fraction(7, 2), 4),    # tie rounds toward +inf
            (Fraction(-1, 2), 0),
            (Fraction(0), 0),
            (Fraction(-7, 2), -3),
        ],
    )
    def test_examples(self, x, expected):
        assert nearest_int(x) == expected

    def test_difference_in_half_open_window(self):
        rng = random.Random(1234)
        for _ in range(10**4):
            x = Fraction(rng.randint(-(10**9), 10**9), rng.randint(1, 10**9))
            n = nearest_int(x)
            assert Fraction(-1, 2) < n - x <= Fraction(1, 2)

    @given(fractions_st)
    @example(Fraction(1, 2))  # an exact tie rounds up: n - x = 1/2
    @example(Fraction(-1, 2))
    def test_window_hypothesis(self, x):
        n = nearest_int(x)
        assert Fraction(-1, 2) < n - x <= Fraction(1, 2)


class TestQuadArith:
    def test_millin_sum_inverse(self):
        inv = q5(1, 0) / MILLIN_SUM
        assert inv == q5(Fraction(5, 10), Fraction(1, 10))
        assert MILLIN_SUM * inv == q5(1, 0)

    def test_identity(self):
        one = q5(1, 0)
        x = q5(Fraction(3, 7), Fraction(-2, 9))
        assert one * x == x

    def test_rational_subtraction_touches_only_a(self):
        assert MILLIN_SUM - 1 == q5(Fraction(3, 2), Fraction(-1, 2))

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            q5(1, 1) / q5(0, 0)

    def test_radicand_mismatch(self):
        for op in (operator.add, operator.sub, operator.mul, operator.truediv,
                   operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(RadicandMismatch):
                op(q5(1, 1), QuadraticValue(1, 1, 2))

    def test_square_radicand_rejected(self):
        with pytest.raises(ValueError, match=r"^radicand must not be a perfect square, got 9$"):
            QuadraticValue(1, 1, 9)

    @pytest.mark.parametrize("rad", [0, -5])
    def test_radicand_below_one_is_a_value_error(self, rad):
        with pytest.raises(ValueError, match=rf"^rad must be >= 1, got {rad}$"):
            QuadraticValue(1, 1, rad)

    @pytest.mark.parametrize("rad", [5.0, "5", Fraction(5)], ids=repr)
    def test_non_integer_radicand_is_a_type_error(self, rad):
        with pytest.raises(TypeError, match=rf"^rad must be an integer, got {re.escape(repr(rad))}$"):
            QuadraticValue(1, 1, rad)

    def test_numpy_integer_radicand_is_its_plain_int(self):
        np = pytest.importorskip("numpy")
        x = QuadraticValue(1, 1, np.int64(5))
        assert type(x.rad) is int
        assert x == q5(1, 1)
        assert format_value(x) == "(1+1 sqrt 5)/1"

    def test_mixed_with_fraction(self):
        x = Fraction(1, 3) + q5(0, Fraction(1, 10))
        assert x == q5(Fraction(1, 3), Fraction(1, 10))

    @given(
        st.fractions(max_denominator=100, min_value=-50, max_value=50),
        st.fractions(max_denominator=100, min_value=-50, max_value=50),
    )
    def test_self_division_round_trip(self, a, b):
        x = q5(a, b)
        if x.is_zero():
            return
        assert x / x == q5(1, 0)
        # the conjugate formula, written out: (a + b sqrt5)(a - b sqrt5) = a^2 - 5 b^2
        norm = a * a - 5 * b * b
        assert x * q5(a / norm, -b / norm) == q5(1, 0)


def sqrt5_bracket(x):
    """Rationals lo < x < hi, from a bracket of sqrt(5) that shares no code
    with QuadraticValue."""
    lo, hi = sqrt_bounds(5)
    return tuple(sorted((x.a + x.b * lo, x.a + x.b * hi)))


ORDER_VALUES = [MILLIN_SUM, q5(2, -1), q5(0, Fraction(1, 10)), q5(1, 1), q5(Fraction(-3, 7), 1)]


class TestQuadOperators:
    @pytest.mark.parametrize("x", ORDER_VALUES, ids=str)
    @pytest.mark.parametrize("f", [
        Fraction(-1, 4), Fraction(0), Fraction(1, 5), Fraction(138196601, 10**8),
        Fraction(7, 5), Fraction(17, 5),
    ], ids=str)
    def test_order_against_fraction(self, x, f):
        lo, hi = sqrt5_bracket(x)
        assert f < lo or f > hi  # the bracket decides
        above = f < lo
        assert (x > f, x >= f, x < f, x <= f) == (above, above, not above, not above)
        # reflected: Fraction defers to QuadraticValue
        assert (f < x, f <= x, f > x, f >= x) == (above, above, not above, not above)

    @pytest.mark.parametrize("x", ORDER_VALUES, ids=str)
    @pytest.mark.parametrize("y", ORDER_VALUES, ids=str)
    def test_order_between_values(self, x, y):
        if x.a == y.a and x.b == y.b:
            assert (x < y, x <= y, x > y, x >= y) == (False, True, False, True)
            return
        (x_lo, x_hi), (y_lo, y_hi) = sqrt5_bracket(x), sqrt5_bracket(y)
        assert x_hi < y_lo or y_hi < x_lo  # the brackets decide
        below = x_hi < y_lo
        assert (x < y, x <= y, x > y, x >= y) == (below, below, not below, not below)

    @pytest.mark.parametrize("a", [0, 7, -3, Fraction(3, 7), Fraction(-1, 2)], ids=str)
    def test_rational_value_hashes_like_its_rational(self, a):
        assert hash(QuadraticValue(a, 0, 5)) == hash(a)
        assert len({QuadraticValue(a, 0, 5), Fraction(a)}) == 1

    def test_equal_values_hash_equal(self):
        assert hash(q5(Fraction(2, 2), 1)) == hash(QuadraticValue(1, Fraction(3, 3), 5))

    def test_truthiness(self):
        assert not q5(0, 0)
        assert q5(0, 1) and q5(1, 0) and q5(2, -1)

    def test_repr(self):
        assert repr(q5(Fraction(1, 2), -1)) == (
            "QuadraticValue(Fraction(1, 2), Fraction(-1, 1), rad=5)")

    def test_unary_plus_is_identity(self):
        assert +MILLIN_SUM is MILLIN_SUM

    def test_immutable(self):
        x = q5(1, 1)
        for name in ("a", "b", "rad", "other"):
            with pytest.raises(AttributeError):
                setattr(x, name, 2)
        for name in ("a", "b", "rad"):
            with pytest.raises(AttributeError, match="QuadraticValue is immutable"):
                delattr(x, name)
        assert (x.a, x.b, x.rad) == (1, 1, 5)

    @pytest.mark.parametrize("op", [
        lambda x: x + "x", lambda x: "x" + x, lambda x: x - "x", lambda x: "x" - x,
        lambda x: x * "x", lambda x: x / "x", lambda x: "x" / x, lambda x: x + 1.5,
        lambda x: x < "x", lambda x: x <= "x", lambda x: x > "x", lambda x: x >= "x",
    ], ids=["add", "radd", "sub", "rsub", "mul", "truediv", "rtruediv", "add-float",
            "lt", "le", "gt", "ge"])
    def test_foreign_operand_is_a_type_error(self, op):
        with pytest.raises(TypeError):
            op(MILLIN_SUM)

    def test_foreign_operand_is_unequal(self):
        assert MILLIN_SUM != "x" and not MILLIN_SUM == "x"


class TestQuadSign:
    def test_millin_first_three_bound_is_positive(self):
        assert sign_of(q5(1583, -319)) == 1

    def test_zero(self):
        assert sign_of(q5(0, 0)) == 0

    def test_two_minus_sqrt5(self):
        # 2^2 = 4 < 5 = rad * b^2
        assert sign_of(q5(2, -1)) == -1

    @given(
        st.fractions(max_denominator=1000, min_value=-100, max_value=100),
        st.fractions(max_denominator=1000, min_value=-100, max_value=100),
    )
    def test_antisymmetric(self, a, b):
        x = q5(a, b)
        assert sign_of(-x) == -sign_of(x)
        assert (sign_of(x) == 0) == (a == 0 and b == 0)

    @given(
        st.fractions(max_denominator=1000, min_value=-100, max_value=100),
        st.fractions(max_denominator=1000, min_value=-100, max_value=100),
    )
    def test_sign_matches_interval_oracle(self, a, b):
        # the oracle brackets a + b*sqrt(d) between rationals
        for d in (2, 3, 5, 7, 10, 9_999_999_999):
            assert sign_of(QuadraticValue(a, b, d)) == interval_sign(a, b, d), d

    # p - q*sqrt(d) with p^2 - d*q^2 = +-1: |value| < 1/p, so only
    # A^2 against rad*B^2 decides the sign; the shared denominator 7 puts the
    # same cancellation behind an lcm
    @pytest.mark.parametrize("p, q, d", [
        (99, 70, 2), (41, 29, 2), (26, 15, 3), (161, 72, 5), (682, 305, 5),
        (8, 3, 7), (19, 6, 10), (100_000, 1, 9_999_999_999),
    ])
    @pytest.mark.parametrize("den", [1, 7])
    @pytest.mark.parametrize("flip", [1, -1])
    def test_sign_of_near_cancelling_values(self, p, q, d, den, flip):
        a, b = Fraction(flip * p, den), Fraction(-flip * q, den)
        assert sign_of(QuadraticValue(a, b, d)) == interval_sign(a, b, d)


class TestQuadNearestInt:
    def test_millin_first_term_value(self):
        x = q5(Fraction(25, 30), Fraction(3, 30))
        assert interval_nearest_int(x.a, x.b, 5) == 1  # oracle agrees
        assert nearest_int(x) == 1

    def test_rational_delegation(self):
        assert nearest_int(q5(Fraction(7, 3), 0)) == 2

    def test_built_from_arithmetic(self):
        x = MILLIN_SUM.inverse() + Fraction(1, 3)
        assert nearest_int(x) == 1

    @given(st.fractions(max_denominator=10**4, min_value=-(10**4), max_value=10**4))
    def test_agrees_with_rational_on_b_zero(self, a):
        assert nearest_int(q5(a, 0)) == math.floor(a + Fraction(1, 2))

    def test_against_interval_oracle(self):
        rng = random.Random(99)
        for _ in range(300):
            a = Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 10**4))
            b = Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 10**4))
            if b == 0:
                continue
            got = nearest_int(q5(a, b))
            assert got == interval_nearest_int(a, b, 5)

    def test_other_radicands(self):
        for d in (2, 3, 7, 10, 9999999999):
            x = QuadraticValue(Fraction(1, 3), Fraction(5, 7), d)
            assert nearest_int(x) == interval_nearest_int(x.a, x.b, d)

    def test_huge_b_coefficient(self):
        # b*sqrt(5) is a 51-digit irrational; its floor must still be exact
        x = q5(0, 10**50)
        assert nearest_int(x) == interval_nearest_int(x.a, x.b, 5)


class TestInputContract:
    """Every rounding function treats non-quadratic input as ``Fraction(x)``."""

    @pytest.mark.parametrize("f, result_type", [
        (nearest_int, int),
        (floor_value, int),
        (ceil_value, int),
        (sign_of, int),
        pytest.param(functools.partial(to_decimal, digits=3), str, id="to_decimal"),
    ])
    @pytest.mark.parametrize("x", [0.5, decimal.Decimal("2.5"), "7/2", True])
    def test_same_as_fraction(self, f, result_type, x):
        got = f(x)
        assert type(got) is result_type
        assert got == f(Fraction(x))


def _pell_units(d: int, count: int) -> list[tuple[int, int]]:
    """Solutions (p, q) of p^2 - d*q^2 = 1 past 10^31, found by plain search then powers."""
    q = 1
    while math.isqrt(d * q * q + 1) ** 2 != d * q * q + 1:
        q += 1
    p1, q1 = math.isqrt(d * q * q + 1), q
    p, q, out = p1, q1, []
    # (p + q*sqrt(d)) * (p1 + q1*sqrt(d)) is the next unit
    while len(out) < count:
        if p > 10**31:
            out.append((p, q))
        p, q = p * p1 + d * q * q1, p * q1 + q * p1
    return out


def _oracle_floor(x: QuadraticValue) -> int:
    return interval_nearest_int(x.a - Fraction(1, 2), x.b, x.rad)


def _oracle_sign(x: QuadraticValue) -> int:
    if x.a == 0 and x.b == 0:
        return 0
    return 1 if _oracle_floor(x) >= 0 else -1


def _integer_view_cases(d: int) -> list[QuadraticValue]:
    """Values in Q(sqrt(d)) whose floor, sign and inverse are checked by the oracle."""
    rng = random.Random(d)
    cases = []
    for _ in range(12):
        a = Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 10**4))
        b = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**4))
        cases += [QuadraticValue(a, b, d), QuadraticValue(a, -b, d), QuadraticValue(a, 0, d)]
    # p - q*sqrt(d) = 1/(p + q*sqrt(d)) is below 10**-31: integers approached
    # from above and below, with and without a shared denominator
    for p, q in _pell_units(d, 2):
        for n in (-3, 0, 1, 10**12):
            cases += [QuadraticValue(n + p, -q, d), QuadraticValue(n - p, q, d)]
        cases.append(QuadraticValue(Fraction(p, 7), Fraction(-q, 7), d))
    cases += [QuadraticValue(Fraction(7 * 10**31 + s, 10**31), 0, d) for s in (-1, 0, 1)]
    # a 10**4-digit b against an a of the opposite sign that nearly cancels it
    b = 10**9999 + rng.randint(1, 10**100)
    a = -math.isqrt(b * b * d) + rng.randint(-3, 3)
    cases += [QuadraticValue(a, b, d), QuadraticValue(-a, -b, d), QuadraticValue(0, 0, d)]
    return cases


_RADICANDS = [2, 3, 7, 9_999_999_999]


class TestIntegerViewAgainstOracle:
    """floor, ceil, sign and inverse against interval arithmetic on sqrt(d)."""

    @pytest.mark.parametrize("d", _RADICANDS)
    def test_floor_and_ceil(self, d):
        for x in _integer_view_cases(d):
            assert floor_value(x) == _oracle_floor(x), x
            assert ceil_value(x) == -_oracle_floor(-x), x

    @pytest.mark.parametrize("d", _RADICANDS)
    def test_sign(self, d):
        for x in _integer_view_cases(d):
            assert x.sign() == _oracle_sign(x), x
            assert (-x).sign() == -_oracle_sign(x), x

    @pytest.mark.parametrize("d", _RADICANDS)
    def test_inverse(self, d):
        for x in _integer_view_cases(d):
            if x.a == 0 and x.b == 0:
                with pytest.raises(ZeroDivisionError):
                    x.inverse()
                continue
            inv = x.inverse()
            assert x * inv == 1, x
            assert _oracle_sign(inv) == _oracle_sign(x), x


class TestQuadToDecimal:
    def test_millin_bound(self):
        v = q5(Fraction(1583, 638), Fraction(-319, 638))
        assert to_decimal(v, 7) == "1.3631572"

    def test_millin_sum(self):
        assert to_decimal(MILLIN_SUM, 7) == "1.3819660"

    def test_zero(self):
        assert to_decimal(q5(0, 0), 3) == "0.000"

    def test_negative_value(self):
        assert to_decimal(q5(-2, -1), 4) == "-4.2361"  # -(2+sqrt5) = -4.23606...

    def test_digits_bounds(self):
        with pytest.raises(ValueError):
            to_decimal(MILLIN_SUM, 0)
        with pytest.raises(ValueError):
            to_decimal(MILLIN_SUM, 10**6 + 1)

    def test_non_quadratic_input_is_coerced(self):
        assert to_decimal(1, 3) == "1.000"
        assert to_decimal(Fraction(-1, 3), 4) == "-0.3333"
        assert to_decimal("7/2", 2) == "3.50"
        assert to_decimal(0.25, 1) == "0.3"  # 2.5 is a tie, rounded up

    def test_reparse_is_close(self):
        rng = random.Random(5)
        for _ in range(100):
            a = Fraction(rng.randint(-(10**4), 10**4), rng.randint(1, 100))
            b = Fraction(rng.randint(-(10**4), 10**4), rng.randint(1, 100))
            x = q5(a, b)
            for digits in (3, 8):
                back = Fraction(to_decimal(x, digits))
                diff = x - back
                tol = Fraction(10) ** (1 - digits)
                assert (tol - diff).sign() > 0 and (diff + tol).sign() > 0


class TestParseFormat:
    @pytest.mark.parametrize(
        "text, value",
        [
            ("11/29", Fraction(11, 29)),
            ("1", Fraction(1)),
            ("-3", Fraction(-3)),
            (" 7 / 2 ", Fraction(7, 2)),
            ("(5-1 sqrt 5)/2", MILLIN_SUM),
            ("(5 - 1 sqrt 5) / 2", MILLIN_SUM),
            ("(0+1 sqrt 5)/5", q5(0, Fraction(1, 5))),
            ("(-3+2 sqrt 7)/4", QuadraticValue(Fraction(-3, 4), Fraction(2, 4), 7)),
        ],
    )
    def test_parse(self, text, value):
        assert parse_value(text) == value

    @pytest.mark.parametrize(
        "text",
        ["", "abc", "1/0", "(5-1 sqrt 5)/0", "(5-0 sqrt 5)/2", "(5-1 sqrt 4)/2",
         "5/2/3", "(5-1 root 5)/2", "1.5"],
    )
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            parse_value(text)

    def test_round_trip(self):
        for text in ("11/29", "(5-1 sqrt 5)/2", "(0+1 sqrt 5)/5", "(-3+2 sqrt 7)/4"):
            v = parse_value(text)
            assert parse_value(format_value(v)) == v

    def test_format_rational(self):
        assert format_value(Fraction(11, 29)) == "11/29"
        assert format_value(Fraction(4)) == "4/1"
        assert format_value(q5(Fraction(1, 2), 0)) == "1/2"


class TestNearestDispatch:
    def test_dispatch(self):
        assert nearest_int(Fraction(7, 2)) == 4
        assert nearest_int(3) == 3
        assert nearest_int(q5(Fraction(7, 2), 0)) == 4


class TestDecimalDigits:
    @pytest.mark.parametrize("n", [0, 1, 9, 10, 999, 1000, 10**17 - 1, 10**17, 7**300])
    def test_matches_str(self, n):
        assert decimal_digits(n) == len(str(n))
        assert decimal_digits(-n) == len(str(n))

    @pytest.mark.parametrize("k", [1, 4300, 10**5])
    def test_power_of_ten_boundaries(self, k):
        p = 10**k
        assert decimal_digits(p - 1) == k
        assert decimal_digits(p) == k + 1
        assert decimal_digits(p + 1) == k + 1
        assert decimal_digits(-p) == k + 1

    # bit lengths where 30103/100000, a bound just above log10(2), used to
    # overestimate the digit count of 2**m by one
    @pytest.mark.parametrize("m", [13301, 26602, 37767, 39903])
    def test_powers_of_two(self, m):
        with str_limit(0):
            assert decimal_digits(2**m) == len(str(2**m))
            assert decimal_digits(2**m - 1) == len(str(2**m - 1))

    def test_every_bit_length(self):
        """Both ends 2**(b-1) and 2**b - 1 of every bit length b <= 20,000.

        len(str(n)) at all 40,000 ends takes seconds (str is quadratic), so
        the reference is the definition, the number of powers of ten <= n,
        and that count is checked against len(str(n)) at every 32nd b.
        Both branches of decimal_digits must run below b = 2,000: the
        bit-length shortcut and the fallback that forms powers of ten.
        """
        lines = _branch_lines()
        seen = set()

        def tracer(frame, event, arg):
            if frame.f_code is decimal_digits.__code__:
                return lambda frame, event, arg: seen.add(frame.f_lineno)

        digits, power = 1, 10  # 10**(digits - 1) <= n < power
        old = sys.gettrace()
        sys.settrace(tracer)
        try:
            for b in range(1, 20_001):
                if b == 2_000:
                    sys.settrace(old)
                for n in (1 << (b - 1), (1 << b) - 1):
                    while power <= n:
                        power *= 10
                        digits += 1
                    assert decimal_digits(n) == digits, n.bit_length()
        finally:
            sys.settrace(old)
        assert lines <= seen
        with str_limit(0):
            for b in range(1, 20_001, 32):
                for n in (1 << (b - 1), (1 << b) - 1):
                    assert decimal_digits(n) == decimal_digits(-n) == len(str(n)), b

    def test_powers_of_ten_up_to_6000_digits(self):
        with str_limit(0):
            for k in [*range(1, 6001, 29), 6000]:
                for n in (10**k - 1, 10**k, 10**k + 1):
                    assert decimal_digits(n) == decimal_digits(-n) == len(str(n)), k


def _branch_lines() -> set[int]:
    """Line numbers of decimal_digits' shortcut return and of its
    powers-of-ten loop."""
    source, first = inspect.getsourcelines(decimal_digits)
    marks = ("return lo", "power *= 10")
    found = {first + i for i, line in enumerate(source) if line.strip() in marks}
    assert len(found) == len(marks)
    return found


@contextmanager
def str_limit(digits):
    """Set the interpreter's int-to-string limit (0 lifts it), then restore it."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def _edge_ints():
    out = [0, 1, -1]
    for k in (1, 2, 4300, 4301, 6000):
        for n in (10**k - 1, 10**k, 10**k + 1):
            out += [n, -n]
    for w in (DECIMAL_PATH_BITS - 1, DECIMAL_PATH_BITS, DECIMAL_PATH_BITS + 1, 50_000):
        for n in (2**w - 1, 2**w, 2**w + 1):
            out += [n, -n]
    return out


class TestIntToDecimalStr:
    def test_edges_match_str(self):
        with str_limit(0):
            for n in _edge_ints():
                assert int_to_decimal_str(n) == str(n), n.bit_length()

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 200_000), st.integers(0, 2**64), st.booleans(),
    )
    def test_random_sizes_match_str(self, bits, seed, negative):
        n = random.Random(seed).getrandbits(bits)
        if negative:
            n = -n
        with str_limit(0):
            assert int_to_decimal_str(n) == str(n)

    @given(st.integers(-(2**600), 2**600))
    def test_decimal_path_on_small_values(self, n):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(exactnum, "DECIMAL_PATH_BITS", 1)
            assert int_to_decimal_str(n) == str(n)

    @pytest.mark.parametrize("t", [1, 2, 3, 64, 14_000])
    def test_split_edges_match_str(self, t, monkeypatch):
        # around one and two pieces of the split, at any threshold t >= 1
        monkeypatch.setattr(exactnum, "DECIMAL_PATH_BITS", t)
        rng = random.Random(t)
        with str_limit(0):
            for bits in (t - 1, t, t + 1, 2 * t, 2 * t + 1):
                for n in {2**bits - 1, 2**bits, rng.getrandbits(bits) | 2 ** max(bits - 1, 0)}:
                    for value in (n, -n):
                        assert str(exactnum._int_to_decimal(value)) == str(value), (t, bits)

    def test_rounding_raises_instead_of_printing(self, monkeypatch):
        # with too little precision the Inexact trap must fire
        monkeypatch.setattr(exactnum, "MAX_PREC", 50)
        with pytest.raises(decimal.Inexact):
            int_to_decimal_str(3**20_000)

    def test_default_limit_does_not_apply(self):
        n = 7**30_000  # about 25k digits, above the 4300-digit default
        with str_limit(4300):
            with pytest.raises(ValueError):
                str(n)
            text = int_to_decimal_str(-n)
        assert text[0] == "-" and len(text) == 1 + decimal_digits(n)


class TestHugeValuesUnderDefaultLimit:
    """Library rendering must not depend on the interpreter's str() limit."""

    NUM = 3**45_000 + 1  # about 21.5k digits
    DEN = 2**70_001 - 1  # about 21.1k digits, coprime to 3 and 7

    def test_format_value(self):
        num, den = self.NUM, self.DEN
        with str_limit(0):
            cases = [
                (Fraction(num, den), f"{num}/{den}"),
                (Fraction(-num), f"-{num}/1"),
                (
                    QuadraticValue(Fraction(num, 3), Fraction(-den, 7), 5),
                    f"({num * 7}-{den * 3} sqrt 5)/21",
                ),
            ]
        with str_limit(4300):
            for x, expected in cases:
                assert format_value(x) == expected

    @pytest.mark.parametrize("x, digits", [
        (Fraction(-NUM, 7), 3),
        (Fraction(1, DEN), 30_000),  # over 8k fractional digits after the zeros
    ])
    def test_to_decimal(self, x, digits):
        m = math.floor(x * 10**digits + Fraction(1, 2))
        q, r = divmod(abs(m), 10**digits)
        with str_limit(0):
            expected = f"{'-' if m < 0 else ''}{q}.{r:0{digits}d}"
        with str_limit(4300):
            assert to_decimal(x, digits) == expected


_CLI_CASES = [
    pytest.param(["expand", "--r", "185/358", "--kind", "pseudo", "--terms", "14"],
                 id="expand-rational"),
    pytest.param(["expand", "--r", "(5-1 sqrt 5)/2", "--kind", "greedy", "--terms", "9"],
                 id="expand-quadratic"),
    pytest.param(["recover", "--sum", "(5-1 sqrt 5)/2", "--beta", "1/3", "--terms", "13"],
                 id="recover-millin"),
    pytest.param(["recover", "--sum", "1", "--beta", "1", "--terms", "12"],
                 id="recover-sylvester"),
    pytest.param(["seq", "sylvester", "--m", "1", "--terms", "14"], id="seq-sylvester"),
    pytest.param(["seq", "fib2", "--terms", "16"], id="seq-fib2"),
]


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
@pytest.mark.parametrize("argv", _CLI_CASES)
def test_cli_bytes_unchanged_by_decimal_path(argv, fmt, capsys, monkeypatch):
    argv = [*argv, "--format", fmt]
    assert main(argv) == 0
    default = capsys.readouterr()
    monkeypatch.setattr(exactnum, "DECIMAL_PATH_BITS", 64)
    assert main(argv) == 0
    patched = capsys.readouterr()
    assert patched.out == default.out
    assert patched.err == default.err
