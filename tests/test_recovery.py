import enum
import random
from fractions import Fraction
from math import gcd

import pytest

from egyptfrac.errors import (
    NegativeBeta,
    NonPositiveInput,
    RecoveryBreakdown,
    SumExceeds,
)
from egyptfrac.exactnum import QuadraticValue, sign_of
from egyptfrac.expansion import ExpansionKind, expand
from egyptfrac.recovery import recover_sequence, threshold, verify_characterization
from egyptfrac.sequences import fib_pow2, sylvester_terms

from oracles import offset_pseudo_greedy

MILLIN_SUM = QuadraticValue(Fraction(5, 2), Fraction(-1, 2), 5)
INV_SQRT5 = QuadraticValue(0, Fraction(1, 5), 5)  # 1/sqrt(5) = sqrt(5)/5


class TestThreshold:
    def test_beta_one(self):
        # 128/9: the integer condition is a_n >= 15
        assert threshold(1) == Fraction(128, 9)
        assert 14 < Fraction(128, 9) < 15

    def test_beta_third(self):
        assert threshold(Fraction(1, 3)) == Fraction(32, 9)
        assert 3 < Fraction(32, 9) < 4

    def test_beta_zero(self):
        assert threshold(0) == Fraction(8, 9)

    def test_negative(self):
        with pytest.raises(NegativeBeta):
            threshold(Fraction(-1, 2))

    def test_coerces_non_quadratic_input(self):
        assert threshold("1/3") == Fraction(32, 9)
        assert threshold(0.5) == Fraction(50, 9)  # 8 (5/6)^2

    def test_quadratic_beta(self):
        # (sqrt5/5 + 1/3)^2 = 1/5 + 1/9 + (2/15) sqrt5, times 8
        assert threshold(INV_SQRT5) == QuadraticValue(Fraction(112, 45), Fraction(16, 15), 5)
        # about 4.875: a_n >= 5 is the integer condition
        assert sign_of(threshold(INV_SQRT5) - 4) > 0 > sign_of(threshold(INV_SQRT5) - 5)
        # b = 0 is the rational formula
        assert threshold(QuadraticValue(1, 0, 5)) == Fraction(128, 9)

    def test_negative_quadratic(self):
        with pytest.raises(NegativeBeta, match="beta must be >= 0"):
            threshold(QuadraticValue(1, -1, 5))


class TestRecoverSequence:
    def test_sylvester_from_one(self):
        recs = recover_sequence(1, 1, 6)
        assert [r.a for r in recs] == [2, 3, 7, 43, 1807, 3263443]
        assert all(r.eps == 0 for r in recs)

    def test_sylvester_generalized(self):
        assert [r.a for r in recover_sequence(Fraction(1, 3), 1, 3)] == [4, 13, 157]
        assert [r.a for r in recover_sequence(Fraction(1, 3), 1, 3)] == sylvester_terms(3, 3)

    def test_millin(self):
        recs = recover_sequence(MILLIN_SUM, Fraction(1, 3), 5)
        assert [r.a for r in recs] == [1, 3, 21, 987, 2178309]
        # the first two terms sit below the a_n >= 4 threshold but still come out right
        thr = threshold(Fraction(1, 3))
        assert [r.a >= thr for r in recs] == [False, False, True, True, True]

    def test_delta_window_by_construction(self):
        # rounding pins eps into [-1/2, 1/2); the -1/2 endpoint is
        # attainable on tie steps (e.g. 177/314 at n = 6)
        rng = random.Random(21)
        for _ in range(50):
            r = Fraction(rng.randint(1, 400), rng.randint(200, 800))
            for rec in recover_sequence(r, 1, 7):
                assert Fraction(-1, 2) <= rec.eps < Fraction(1, 2)

    def test_threshold_met_strict_delta_on_canonical_runs(self):
        # where the ratio hypotheses hold, the guarantee is strict |eps| < 1/2
        runs = [(recover_sequence(Fraction(1, m), 1, 8), 1) for m in range(1, 31)]
        runs.append((recover_sequence(MILLIN_SUM, Fraction(1, 3), 8), Fraction(1, 3)))
        runs.append((recover_sequence(MILLIN_SUM, INV_SQRT5, 8), INV_SQRT5))
        checked = 0
        for recs, beta in runs:
            for rec in recs:
                if rec.a >= threshold(beta):
                    checked += 1
                    half = Fraction(1, 2)
                    assert sign_of(half - rec.eps) > 0 and sign_of(rec.eps + half) > 0
        assert checked > 100

    def test_offset_rule_against_oracle(self):
        # the one loop of a_n = round(1/x_n + beta), against a walk on
        # Fraction pairs that shares none of its code: every reduced p/q
        # with q < 40, 1, Millin and sqrt 2, at three offsets, 9 terms each
        inputs = [((Fraction(p, q), 0), 0) for q in range(2, 40)
                  for p in range(1, q) if gcd(p, q) == 1]
        inputs += [((1, 0), 0), ((Fraction(5, 2), Fraction(-1, 2)), 5), ((0, 1), 2)]
        assert len(inputs) == 476

        def pair(v):
            return (v.a, v.b) if isinstance(v, QuadraticValue) else (v, 0)

        runs = breakdowns = 0
        for (a, b), rad in inputs:
            r = QuadraticValue(a, b, rad) if b else Fraction(a)
            for beta in (Fraction(1, 3), Fraction(1), Fraction(2)):
                want, step = offset_pseudo_greedy((a, b), beta, 9, rad)
                if step is not None:
                    breakdowns += 1
                    with pytest.raises(RecoveryBreakdown) as exc:
                        expand(r, ExpansionKind.PSEUDO_GREEDY, 9, beta=beta)
                    assert exc.value.step == step, (r, beta)
                got = [] if step == 1 else expand(
                    r, ExpansionKind.PSEUDO_GREEDY, len(want), beta=beta).records
                assert [(rec.n, rec.a, pair(rec.x), pair(rec.eps)) for rec in got] == want, (r, beta)
                runs += 1
        assert (runs, breakdowns) == (1428, 474)

    def test_sylvester_fixed_point_all_m(self):
        for m in range(1, 31):
            recs = recover_sequence(Fraction(1, m), 1, 8)
            assert [r.a for r in recs] == sylvester_terms(m, 8)

    def test_millin_fixed_point(self):
        recs = recover_sequence(MILLIN_SUM, Fraction(1, 3), 8)
        assert [r.a for r in recs] == [fib_pow2(n) for n in range(1, 9)]

    def test_breakdown_term_below_one(self):
        with pytest.raises(RecoveryBreakdown) as exc:
            recover_sequence(Fraction(3), 0, 2)
        assert exc.value.step == 1

    def test_breakdown_remainder_hits_zero(self):
        # beta = 0 on 2/3: a_1 = 2, a_2 = 6, then x_3 = 0
        assert [r.a for r in recover_sequence(Fraction(2, 3), 0, 2)] == [2, 6]
        with pytest.raises(RecoveryBreakdown) as exc:
            recover_sequence(Fraction(2, 3), 0, 3)
        assert exc.value.step == 3

    def test_validation(self):
        with pytest.raises(NonPositiveInput):
            recover_sequence(Fraction(-1), 1, 3)
        with pytest.raises(NegativeBeta):
            recover_sequence(Fraction(1), Fraction(-1), 3)
        with pytest.raises(ValueError):
            recover_sequence(Fraction(1), 1, 0)

    def test_quadratic_beta(self):
        recs = recover_sequence(MILLIN_SUM, INV_SQRT5, 6)
        assert [r.a for r in recs] == [fib_pow2(n) for n in range(1, 7)]


class TestStopAtTheLastRecord:
    """A run of k terms is the first k records of a longer run: stopping at
    the last record drops no record and adds none."""

    @pytest.mark.parametrize("r, beta", [(MILLIN_SUM, Fraction(1, 3)), (1, 1)],
                             ids=["millin", "sylvester"])
    def test_recover_prefix(self, r, beta):
        long = recover_sequence(r, beta, 10)
        for k in range(1, 8):
            assert recover_sequence(r, beta, k) == long[:k]

    def test_verify_prefix(self):
        terms = [fib_pow2(n) for n in range(1, 11)]
        long = verify_characterization(terms, MILLIN_SUM, Fraction(1, 3))
        for k in range(1, 8):
            assert verify_characterization(terms[:k], MILLIN_SUM, Fraction(1, 3)) == long[:k]


class TestVerifyCharacterization:
    def test_sylvester_prefix_all_zero_delta(self):
        checks = verify_characterization(sylvester_terms(1, 8), 1, 1)
        assert all(c.delta == 0 for c in checks)
        assert all(c.formula_ok for c in checks if c.threshold_met)
        # s_n >= 15 from n = 4 on
        assert [c.threshold_met for c in checks] == [False] * 3 + [True] * 5

    def test_millin_prefix_formula_from_n3(self):
        terms = [fib_pow2(n) for n in range(1, 9)]
        checks = verify_characterization(terms, MILLIN_SUM, Fraction(1, 3))
        for c in checks:
            if c.n >= 3:
                assert c.threshold_met and c.formula_ok

    def test_millin_beta_inv_sqrt5_small_delta(self):
        terms = [fib_pow2(n) for n in range(1, 9)]
        checks = verify_characterization(terms, MILLIN_SUM, INV_SQRT5)
        tol = Fraction(1, 100)
        for c in checks:
            if c.n >= 5:
                assert sign_of(tol - c.delta) > 0 and sign_of(c.delta + tol) > 0

    def test_delta_vanishes_at_correct_beta(self):
        terms = [fib_pow2(n) for n in range(1, 9)]
        right = verify_characterization(terms, MILLIN_SUM, INV_SQRT5)
        wrong = verify_characterization(terms, MILLIN_SUM, Fraction(1, 3))
        for n in (6, 7, 8):
            d_right = abs(right[n - 1].delta)
            d_wrong = abs(wrong[n - 1].delta)
            assert sign_of(d_wrong - d_right) > 0  # 1/3 is not the limit offset

    def test_sum_exceeds(self):
        with pytest.raises(SumExceeds):
            verify_characterization([2], Fraction(1, 2), 1)
        with pytest.raises(SumExceeds):
            verify_characterization([2, 3, 6], Fraction(1), 1)

    def test_degenerate_sequences(self):
        with pytest.raises(ValueError):
            verify_characterization([], Fraction(1), 1)
        with pytest.raises(ValueError):
            verify_characterization([2, 0], Fraction(1), 1)

    @pytest.mark.parametrize("terms", [[True], [2, False]], ids=["true", "false"])
    def test_bool_terms_rejected(self, terms):
        with pytest.raises(ValueError, match="sequence terms must be positive integers"):
            verify_characterization(terms, 2, 1)

    def test_int_terms_accepted(self):
        checks = verify_characterization([2, 3], 1, 1)
        assert [c.a for c in checks] == [2, 3]
        assert all(type(c.a) is int for c in checks)

    def test_index_terms_become_ints(self):
        # any integer by operator.index (numpy.int64 too); stored as int
        Term = enum.IntEnum("Term", {"TWO": 2, "THREE": 3})
        checks = verify_characterization([Term.TWO, Term.THREE], 1, 1)
        assert [c.a for c in checks] == [2, 3]
        assert all(type(c.a) is int for c in checks)

    @pytest.mark.parametrize("terms", [[2.0], [Fraction(2)], ["2"], [2, -3]],
                             ids=["float", "fraction", "str", "negative"])
    def test_non_integer_terms_rejected(self, terms):
        with pytest.raises(ValueError, match="sequence terms must be positive integers"):
            verify_characterization(terms, 2, 1)


class TestMillinFirstThreeBound:
    def test_exact_inequality(self):
        # 1/F_2 + 1/F_4 + 1/F_8 = 29/21 >= (1583 - 319*sqrt(5))/638
        lhs = sum(Fraction(1, fib_pow2(n)) for n in range(1, 4))
        assert lhs == Fraction(29, 21)
        bound = QuadraticValue(Fraction(1583, 638), Fraction(-319, 638), 5)
        assert sign_of(lhs - bound) >= 0
