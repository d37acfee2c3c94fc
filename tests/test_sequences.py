import math
from fractions import Fraction

import pytest

from egyptfrac import sequences
from egyptfrac.errors import DepthExceeded
from egyptfrac.sequences import (
    SYLVESTER_DEPTH_CAP,
    fib_pow2_terms,
    growth_constant,
    sylvester_terms,
)

from oracles import fib_additive


class TestSylvester:
    def test_classic_first_five(self):
        assert sylvester_terms(1, 5) == [2, 3, 7, 43, 1807]

    def test_m2(self):
        assert sylvester_terms(2, 3) == [3, 7, 43]

    def test_m4(self):
        assert sylvester_terms(4, 3) == [5, 21, 421]

    def test_single_term_matches_list(self):
        # OEIS A000058, the classical Sylvester sequence
        known = [2, 3, 7, 43, 1807, 3263443, 10650056950807, 113423713055421844361000443]
        for n in range(1, 9):
            assert sylvester_terms(1, n)[-1] == known[n - 1]

    def test_single_term_matches_product_identity(self):
        # s_{n+1}(m) - 1 = m * s_1(m) * ... * s_n(m), from s_{n+1} - 1 = s_n (s_n - 1)
        for m in (1, 3, 10):
            for n in range(1, 9):
                assert sylvester_terms(m, n + 1)[-1] - 1 == m * math.prod(sylvester_terms(m, n))

    def test_depth_cap(self):
        with pytest.raises(DepthExceeded):
            sylvester_terms(1, SYLVESTER_DEPTH_CAP + 1)

    def test_depth_cap_read_at_call_time(self, monkeypatch):
        monkeypatch.setattr(sequences, "SYLVESTER_DEPTH_CAP", 3)
        monkeypatch.setattr(sequences, "FIB2_DEPTH_CAP", 3)
        assert sylvester_terms(1, 3) == [2, 3, 7]
        for call in (lambda: sylvester_terms(1, 4), lambda: fib_pow2_terms(4)):
            with pytest.raises(DepthExceeded, match="exceeds depth cap 3"):
                call()

    def test_bad_args(self):
        with pytest.raises(ValueError):
            sylvester_terms(0, 3)
        with pytest.raises(ValueError):
            sylvester_terms(1, 0)

    def test_partial_sum_identity(self):
        # sum_{k<n} 1/s_k(m) == 1/m - 1/(s_n(m) - 1), exactly
        for m in range(1, 51):
            terms = sylvester_terms(m, 10)
            partial = Fraction(0)
            for n in range(1, 11):
                assert partial == Fraction(1, m) - Fraction(1, terms[n - 1] - 1)
                partial += Fraction(1, terms[n - 1])


class TestFibPow2:
    def test_first_five(self):
        assert fib_pow2_terms(5) == [1, 3, 21, 987, 2178309]

    def test_n6(self):
        assert fib_pow2_terms(6)[-1] == 10610209857723

    def test_definition(self):
        oracle = fib_additive(2**12)
        for n in range(1, 13):
            assert fib_pow2_terms(n)[-1] == oracle[2**n]

    def test_terms_against_additive_oracle(self):
        oracle = fib_additive(2**12)
        assert fib_pow2_terms(12) == [oracle[2**n] for n in range(1, 13)]

    def test_single_term_is_last_of_list(self):
        # a shorter run skips the Lucas number past its last term; its last
        # term must still be the longer run's
        terms = fib_pow2_terms(12)
        for n in range(1, 13):
            assert fib_pow2_terms(n)[-1] == terms[n - 1]

    def test_depth_cap(self):
        with pytest.raises(DepthExceeded):
            fib_pow2_terms(25)

    def test_ratio_bound(self):
        # 3*F_{2^n}^2 <= 2*F_{2^{n+1}}, the exact form of F^2/F' <= 2/3
        terms = fib_pow2_terms(13)
        for f, f_next in zip(terms, terms[1:]):
            assert 3 * f**2 <= 2 * f_next


class TestGrowthConstant:
    def test_classic_constant(self):
        est = growth_constant(1, 8)
        assert abs(float(est.c_hat) - 1.2640847) <= 1e-6

    def test_depth_convergence(self):
        c5 = float(growth_constant(1, 5).c_hat)
        c8 = float(growth_constant(1, 8).c_hat)
        assert abs(c5 - c8) < 1e-4

    def test_monotone_convergent(self):
        cs = {d: float(growth_constant(1, d).c_hat) for d in range(4, 12)}
        diffs = [abs(cs[d] - cs[d + 1]) for d in range(4, 11)]
        assert all(d2 <= d1 for d1, d2 in zip(diffs, diffs[1:]))

    def test_self_consistency_m2(self):
        est = growth_constant(2, 8)
        c = float(est.c_hat)
        assert c > 1
        s8 = sylvester_terms(2, 8)[-1]
        # s8 within [c^256 / 2, 2 * c^256], compared in log space
        assert abs(256 * math.log(c) - math.log2(s8) * math.log(2)) <= math.log(2)

    def test_residual_positive_and_shrinking(self):
        prev = None
        for depth in range(4, 12):
            r = float(growth_constant(1, depth).residual_bound)
            assert r > 0
            if prev is not None:
                assert r < prev
            prev = r

    def test_residual_bounds_actual_error(self):
        # depth-8 estimate is good to ~1e-29; the shipped bound must cover
        # the distance to a much deeper estimate
        c8 = float(growth_constant(1, 8).c_hat)
        c12 = float(growth_constant(1, 12).c_hat)
        bound = float(growth_constant(1, 8).residual_bound)
        assert abs(c8 - c12) <= bound + 1e-15  # float noise floor

    def test_depth_range(self):
        with pytest.raises(DepthExceeded):
            growth_constant(1, 3)
        with pytest.raises(DepthExceeded):
            growth_constant(1, 17)
