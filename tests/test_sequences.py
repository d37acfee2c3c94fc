import math
from fractions import Fraction

import pytest

from egyptfrac import exactnum
from egyptfrac.errors import DepthExceeded
from egyptfrac.sequences import fib_pow2_terms, growth_constant, sylvester_terms

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

    def test_depth_cap(self, monkeypatch):
        # as in expand: a term of exactly TERM_BIT_CAP bits is returned, and
        # the next one raises, named, from its bound 2b - 2 before it is formed
        for m in (1, 4, 10**6):
            want = sylvester_terms(m, 5)
            bits = [s.bit_length() for s in want]
            monkeypatch.setattr(exactnum, "TERM_BIT_CAP", bits[3])
            assert sylvester_terms(m, 4) == want[:4]
            with pytest.raises(DepthExceeded, match=rf"^s_5 has at least {2 * bits[3] - 2} bits, "
                                                    rf"past the term cap of {bits[3]} bits$"):
                sylvester_terms(m, 5)
            monkeypatch.undo()

    def test_depth_cap_read_at_call_time(self, monkeypatch):
        # the cap bounds m, not only the index: s_1(2^40) has 41 bits, so s_2
        # has at least 80, past a 64-bit cap; so has s_1(2^64)
        monkeypatch.setattr(exactnum, "TERM_BIT_CAP", 64)
        assert sylvester_terms(2**40, 1) == [2**40 + 1]
        with pytest.raises(DepthExceeded, match=r"^s_2 has at least 80 bits, past the term cap "
                                                r"of 64 bits$"):
            sylvester_terms(2**40, 3)
        with pytest.raises(DepthExceeded, match=r"^s_1 has 65 bits, past the term cap of 64 bits$"):
            sylvester_terms(2**64, 1)

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

    def test_depth_cap(self, monkeypatch):
        # a term of exactly the cap is returned; F_{2^5} = F_{2^4} L_{2^4}
        # raises from its bound bits(F) + bits(L) - 1 before it is formed
        want = fib_pow2_terms(5)
        bits = [f.bit_length() for f in want]
        bound = bits[3] + (want[4] // want[3]).bit_length() - 1
        monkeypatch.setattr(exactnum, "TERM_BIT_CAP", bits[3])
        assert fib_pow2_terms(4) == want[:4]
        with pytest.raises(DepthExceeded, match=rf"^F_{{2\^5}} has at least {bound} bits, "
                                                rf"past the term cap of {bits[3]} bits$"):
            fib_pow2_terms(5)

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

    @pytest.mark.parametrize("m, depth, c_hat, residual_bound", [
        (1, 16, "1.26408473531", "1.91e-6675"),
        (2, 12, "1.59791021803", "6.93e-838"),
        (3, 4, "1.88068094319", "4.80e-6"),
        (7, 9, "2.74167747444", "2.91e-227"),
        (50, 16, "7.10650938732", "7.69e-55819"),
        (199, 14, "14.1244690723", "6.20e-18845"),
    ])
    def test_pinned_strings(self, m, depth, c_hat, residual_bound):
        # the logarithm is a float: these strings hold on Python 3.10-3.13
        assert growth_constant(m, depth) == (m, depth, c_hat, residual_bound)

    def test_depth_range(self):
        # the integer-argument rule's ValueError: DepthExceeded means a term
        # past the term cap only
        for depth in (3, 17):
            with pytest.raises(ValueError, match=rf"^depth must be in \[4, 16\], got {depth}$") as info:
                growth_constant(1, depth)
            assert type(info.value) is ValueError

    def test_m_past_the_term_cap_raises(self, monkeypatch):
        monkeypatch.setattr(exactnum, "TERM_BIT_CAP", 64)
        with pytest.raises(DepthExceeded, match=r"^s_2 has at least 80 bits"):
            growth_constant(2**40, 4)


class TestTermBitCap:
    """Both families check each term before it is formed, from a lower bound
    on its size; tests/test_cli.py checks the messages of both checks."""

    def test_lower_bounds_hold(self):
        # s^2 - s + 1 has at least 2b - 2 bits for a b-bit s; F L at least
        # bits(F) + bits(L) - 1, with L = F_{2^(n+1)} / F_{2^n}
        for m in range(1, 60):
            s = sylvester_terms(m, 7)
            assert all(b.bit_length() >= 2 * a.bit_length() - 2 for a, b in zip(s, s[1:])), m
        f = fib_pow2_terms(12)
        for a, b in zip(f, f[1:]):
            assert b.bit_length() >= a.bit_length() + (b // a).bit_length() - 1
