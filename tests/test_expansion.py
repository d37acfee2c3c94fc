import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egyptfrac import exactnum, expansion
from egyptfrac.errors import (
    DepthExceeded, NegativeBeta, NonPositiveInput, NotReduced, OddGreedyOnIrrational,
)
from egyptfrac.exactnum import QuadraticValue, nearest_int
from egyptfrac.expansion import (
    ExpansionKind,
    ExpansionStatus,
    expand,
    gap_sequence_naive,
)
from egyptfrac.recovery import recover_sequence

MILLIN_SUM = QuadraticValue(Fraction(5, 2), Fraction(-1, 2), 5)

# the published pseudo-greedy table for 11/29
TABLE_A = [4, 9, 56, 2924, 10684297, 114154191699913]
TABLE_X = [
    Fraction(11, 29),
    Fraction(15, 116),
    Fraction(19, 1044),
    Fraction(5, 14616),
    Fraction(1, 10684296),
    Fraction(1, 114154191699912),
]
TABLE_EPS = [
    Fraction(-4, 11),
    Fraction(-4, 15),
    Fraction(-1, 19),
    Fraction(1, 5),
    Fraction(0),
    Fraction(0),
]
TABLE_C = [11, 15, 19, 20, 16, 16]
TABLE_E = [-4, -4, -1, 4, 0, 0]


def pseudo(r, terms, **kw):
    return expand(r, ExpansionKind.PSEUDO_GREEDY, terms, **kw)


class TestEleventwentyninths:
    def test_full_table(self):
        res = pseudo(Fraction(11, 29), 6)
        assert [r.a for r in res.records] == TABLE_A
        assert [r.x for r in res.records] == TABLE_X
        assert [r.eps for r in res.records] == TABLE_EPS
        assert [r.c for r in res.records] == TABLE_C
        assert [r.e for r in res.records] == TABLE_E
        assert res.status is ExpansionStatus.ZERO_GAP
        assert res.zero_gap_at == 5

    def test_unreduced_state_vs_displayed(self):
        # x_4 displays as 5/14616 but the bookkeeping pair is 20/58464
        rec = pseudo(Fraction(11, 29), 6).records[3]
        assert rec.c == 20 and rec.d == 58464
        assert rec.x == Fraction(5, 14616)
        assert rec.eps == Fraction(rec.e, rec.c)

    def test_stop_at_first_zero(self):
        res = pseudo(Fraction(11, 29), 10, stop_at_first_zero=True)
        assert len(res.records) == 5
        assert res.records[-1].eps == 0
        assert res.status is ExpansionStatus.ZERO_GAP


class TestKnownExpansions:
    def test_pseudo_of_one_is_sylvester(self):
        res = pseudo(Fraction(1), 5)
        assert [r.a for r in res.records] == [2, 3, 7, 43, 1807]
        assert all(r.eps == 0 for r in res.records)
        assert res.zero_gap_at == 1

    def test_greedy_5_6_terminates(self):
        res = expand(Fraction(5, 6), ExpansionKind.GREEDY, 10)
        assert [r.a for r in res.records] == [2, 3]
        assert res.status is ExpansionStatus.EXACT

    @pytest.mark.parametrize("r, kind, terms, stop, want, status", [
        pytest.param(Fraction(1, 2), ExpansionKind.GREEDY, 1, False, [2],
                     ExpansionStatus.EXACT, id="exact-on-the-last-term"),
        pytest.param(Fraction(5, 6), ExpansionKind.GREEDY, 2, False, [2, 3],
                     ExpansionStatus.EXACT, id="exact-at-the-budget"),
        pytest.param(Fraction(5, 6), ExpansionKind.GREEDY, 5, False, [2, 3],
                     ExpansionStatus.EXACT, id="exact-before-the-budget"),
        pytest.param(Fraction(11, 29), ExpansionKind.PSEUDO_GREEDY, 10, True, TABLE_A[:5],
                     ExpansionStatus.ZERO_GAP, id="stop-at-first-zero"),
    ])
    def test_status_where_the_stream_ends(self, r, kind, terms, stop, want, status):
        res = expand(r, kind, terms, stop_at_first_zero=stop)
        assert [rec.a for rec in res.records] == want
        assert res.status is status

    def test_odd_greedy_3_7(self):
        res = expand(Fraction(3, 7), ExpansionKind.ODD_GREEDY, 10)
        assert [r.a for r in res.records] == [3, 11, 231]
        assert res.status is ExpansionStatus.EXACT

    def test_odd_greedy_even_denominator_runs_on(self):
        res = expand(Fraction(1, 2), ExpansionKind.ODD_GREEDY, 6)
        assert [r.a for r in res.records] == [3, 7, 43, 1807, 3263443, 10650056950807]
        assert res.status is ExpansionStatus.MAX_TERMS

    def test_pseudo_of_unit_fractions(self):
        for m in (1, 2, 7, 30):
            res = pseudo(Fraction(1, m), 3)
            assert res.records[0].a == m + 1
            assert res.records[0].eps == 0
            assert res.zero_gap_at == 1

    def test_quadratic_pseudo_runs_to_budget(self):
        res = pseudo(MILLIN_SUM, 4)
        assert res.status is ExpansionStatus.MAX_TERMS
        assert [r.a for r in res.records[:3]] == [2, 2, 4]  # beta=1 rule, not Millin's 1/3
        # every pseudo-greedy record has its gap; the (c, d, e) pair is rational only
        assert all(r.eps == 1 / r.x + 1 - r.a for r in res.records)
        assert all(isinstance(r.eps, QuadraticValue) for r in res.records)
        assert all(r.c is None and r.d is None and r.e is None for r in res.records)

    def test_quadratic_greedy_finds_millin_terms(self):
        res = expand(MILLIN_SUM, ExpansionKind.GREEDY, 5)
        assert [r.a for r in res.records] == [1, 3, 21, 987, 2178309]
        assert res.status is ExpansionStatus.MAX_TERMS


class TestTermBitCap:
    """A term of more than TERM_BIT_CAP bits raises DepthExceeded before it is
    recorded, in every kind and in recovery; a greedy or odd-greedy run raises
    it before it forms the remainder, from a lower bound on the next term;
    the cap is read at call time."""

    @pytest.mark.parametrize("records, k", [
        (lambda n: expand(MILLIN_SUM, ExpansionKind.GREEDY, n).records, 1),
        (lambda n: expand(Fraction(185, 358), ExpansionKind.ODD_GREEDY, n).records, 2),
        (lambda n: pseudo(Fraction(185, 358), n).records, None),
        (lambda n: pseudo(Fraction(185, 358), n, beta=Fraction(3, 4)).records, None),
        (lambda n: pseudo(MILLIN_SUM, n).records, None),
        (lambda n: recover_sequence(MILLIN_SUM, Fraction(1, 3), n), None),
    ], ids=["greedy", "odd_greedy", "pseudo", "pseudo-beta", "pseudo-quadratic", "recover"])
    def test_first_term_past_the_cap_raises(self, monkeypatch, records, k):
        want = records(5)
        bits = [rec.a.bit_length() for rec in want]
        assert bits[3] < bits[4]
        # a term of exactly the cap is recorded, and the next, larger one
        # raises; a_5 has at least 2b - 1 - k bits when a_4 has b
        size = bits[4] if k is None else f"at least {2 * bits[3] - 1 - k}"
        monkeypatch.setattr(exactnum, "TERM_BIT_CAP", bits[3])
        assert records(4) == want[:4]
        with pytest.raises(DepthExceeded, match=rf"^a_5 has {size} bits, past the term cap "
                                                rf"of {bits[3]} bits$"):
            records(5)

    @pytest.mark.parametrize("r, kind, k", [
        (MILLIN_SUM, ExpansionKind.GREEDY, 1),
        (Fraction(185, 358), ExpansionKind.ODD_GREEDY, 2),
    ], ids=["greedy", "odd_greedy"])
    def test_term_past_a_cap_its_bound_passes_raises(self, monkeypatch, r, kind, k):
        # with the cap at the bound, x_5 and a_5 are formed, and the check
        # after the term raises
        want = expand(r, kind, 5).records
        bits = [rec.a.bit_length() for rec in want]
        bound = 2 * bits[3] - 1 - k
        assert bits[3] < bound < bits[4]
        monkeypatch.setattr(exactnum, "TERM_BIT_CAP", bound)
        with pytest.raises(DepthExceeded, match=rf"^a_5 has {bits[4]} bits, past the term cap "
                                                rf"of {bound} bits$"):
            expand(r, kind, 5)

    @pytest.mark.parametrize("kind, k", [(ExpansionKind.GREEDY, 1), (ExpansionKind.ODD_GREEDY, 2)])
    def test_next_term_bounds_hold(self, kind, k):
        # the docstring's a_{n+1} > a_n(a_n - k)/k and its bit count 2b - 1 - k
        rng = random.Random(29)
        for _ in range(300):
            a = [rec.a for rec in expand(random_reduced(rng, 200), kind, 7).records]
            for prev, nxt in zip(a, a[1:]):
                assert k * nxt > prev * (prev - k), (kind, a)
                assert nxt.bit_length() >= 2 * prev.bit_length() - 1 - k, (kind, a)


class TestExpandValidation:
    def test_nonpositive(self):
        with pytest.raises(NonPositiveInput):
            expand(Fraction(0), ExpansionKind.GREEDY, 3)
        with pytest.raises(NonPositiveInput):
            expand(Fraction(-2, 3), ExpansionKind.PSEUDO_GREEDY, 3)
        with pytest.raises(NonPositiveInput):
            expand(QuadraticValue(2, -1, 5), ExpansionKind.GREEDY, 3)

    def test_odd_greedy_needs_rational(self):
        with pytest.raises(OddGreedyOnIrrational):
            expand(MILLIN_SUM, ExpansionKind.ODD_GREEDY, 3)

    @pytest.mark.parametrize("r, kind", [(Fraction(11, 29), "pseudo"), (MILLIN_SUM, "greedy")])
    def test_kind_must_be_a_member(self, r, kind):
        with pytest.raises(ValueError, match=f"unknown expansion kind '{kind}'"):
            expand(r, kind, 4)

    def test_bad_budgets(self):
        with pytest.raises(ValueError):
            expand(Fraction(1, 2), ExpansionKind.GREEDY, 0)
        with pytest.raises(ValueError):
            expand(Fraction(1, 2), ExpansionKind.GREEDY, 3, digit_cap=0)

    def test_negative_beta(self):
        with pytest.raises(NegativeBeta, match="beta must be >= 0"):
            pseudo(Fraction(11, 29), 4, beta=Fraction(-1, 3))

    @pytest.mark.parametrize("kind", [ExpansionKind.GREEDY, ExpansionKind.ODD_GREEDY])
    def test_beta_is_pseudo_greedy_only(self, kind):
        with pytest.raises(ValueError, match="beta is a pseudo-greedy offset"):
            expand(Fraction(11, 29), kind, 4, beta=2)
        assert expand(Fraction(11, 29), kind, 4, beta=1) == expand(Fraction(11, 29), kind, 4)

    def test_bookkeeping_at_beta_one_only(self):
        # another offset keeps no (c, d, e) pair and reports no zero gap
        res = pseudo(Fraction(1, 2), 4, beta=2)
        assert [r.a for r in res.records] == [4, 6, 14, 86]  # 2 x Sylvester
        assert all(r.eps == 0 and r.c is None and r.d is None and r.e is None
                   for r in res.records)
        assert res.status is ExpansionStatus.MAX_TERMS and res.zero_gap_at is None

    @pytest.mark.parametrize("r, kind, beta", [
        (Fraction(11, 29), ExpansionKind.GREEDY, 1),
        (Fraction(11, 29), ExpansionKind.ODD_GREEDY, 1),
        (MILLIN_SUM, ExpansionKind.PSEUDO_GREEDY, 1),
        (Fraction(1, 2), ExpansionKind.PSEUDO_GREEDY, 2),
    ], ids=["greedy", "odd", "quadratic", "beta-2"])
    def test_stop_at_first_zero_needs_gap_bookkeeping(self, r, kind, beta):
        # these runs track no zero gap, so they cannot stop at one
        with pytest.raises(ValueError, match="^stop_at_first_zero needs"):
            expand(r, kind, 3, stop_at_first_zero=True, beta=beta)

    def test_digit_cap_omits_d(self):
        res = pseudo(Fraction(11, 29), 6, digit_cap=3)
        ds = [r.d for r in res.records]
        assert ds[0] == 29 and ds[1] == 116
        assert ds[3] is None  # 58464 has 5 digits
        assert all(r.c is not None and r.e is not None for r in res.records)


def random_reduced(rng, hi):
    while True:
        p, q = rng.randint(1, hi), rng.randint(1, hi)
        f = Fraction(p, q)
        if f > 0:
            return f


class TestPseudoGreedyInvariants:
    def test_gap_window_and_definition(self):
        rng = random.Random(7)
        for _ in range(60):
            r = random_reduced(rng, 10**4)
            res = pseudo(r, 10)
            for rec in res.records:
                assert Fraction(-1, 2) <= rec.eps < Fraction(1, 2)
                assert rec.a == nearest_int(1 / rec.x + 1)
                assert rec.eps == 1 / rec.x + 1 - rec.a

    def test_persistence_three_steps_past_zero(self):
        rng = random.Random(8)
        seen = 0
        for _ in range(80):
            r = random_reduced(rng, 500)
            res = pseudo(r, 14)
            if res.zero_gap_at is not None and res.zero_gap_at + 3 <= len(res.records):
                seen += 1
                for rec in res.records[res.zero_gap_at - 1 :][:4]:
                    assert rec.eps == 0
        assert seen >= 30  # zeros are common at this scale; the check must bite

    def test_pg_sylvester_recurrence(self):
        # a_{n+1} = a_n^2/(1 - eps_n) - a_n + (1 - eps_{n+1}), exactly
        rng = random.Random(9)
        for _ in range(40):
            r = random_reduced(rng, 10**4)
            recs = pseudo(r, 9).records
            for r1, r2 in zip(recs, recs[1:]):
                assert r2.a == r1.a**2 / (1 - r1.eps) - r1.a + (1 - r2.eps)

    def test_bookkeeping_recurrences(self):
        rng = random.Random(10)
        for _ in range(40):
            r = random_reduced(rng, 10**4)
            recs = pseudo(r, 9, digit_cap=10**6).records
            assert recs[0].c == r.numerator and recs[0].d == r.denominator
            for r1, r2 in zip(recs, recs[1:]):
                assert r2.c == r1.c - r1.e
                assert r2.d == r1.d * r1.a
                assert 2 * r2.c <= 3 * r1.c  # one-step form of c = O(1.5^n)
                assert r1.x == Fraction(r1.c, r1.d)

    def test_reconstruction_and_positivity(self):
        rng = random.Random(11)
        for _ in range(40):
            r = random_reduced(rng, 10**4)
            recs = pseudo(r, 9).records
            partial = Fraction(0)
            for rec in recs:
                assert rec.x == r - partial
                assert rec.a >= 1 and rec.x > 0
                partial += Fraction(1, rec.a)
            assert r - partial > 0  # pseudo-greedy never lands on 0

    @settings(max_examples=60, deadline=None)
    @given(st.fractions(min_value=Fraction(1, 10**4), max_value=2, max_denominator=10**4))
    def test_gap_window_hypothesis(self, r):
        for rec in pseudo(r, 8).records:
            assert Fraction(-1, 2) <= rec.eps < Fraction(1, 2)


class TestStopAtTheLastRecord:
    """A run of k terms is the first k records of a longer run: stopping at
    the last record drops no record, adds none and changes no status."""

    def test_pseudo_greedy_prefix(self):
        rng = random.Random(12)
        for _ in range(40):
            r = random_reduced(rng, 10**4)
            k = rng.randint(1, 7)
            short, long = pseudo(r, k), pseudo(r, k + 3)
            assert len(short.records) == k
            assert short.records == long.records[:k]
            zero_at = next((rec.n for rec in long.records[:k] if rec.eps == 0), None)
            assert short.zero_gap_at == zero_at
            assert short.status is (
                ExpansionStatus.ZERO_GAP if zero_at else ExpansionStatus.MAX_TERMS)

    @pytest.mark.parametrize("kind", [ExpansionKind.PSEUDO_GREEDY, ExpansionKind.GREEDY])
    def test_quadratic_prefix(self, kind):
        long = expand(MILLIN_SUM, kind, 9)
        for k in range(1, 7):
            short = expand(MILLIN_SUM, kind, k)
            assert short.records == long.records[:k]
            assert short.status is ExpansionStatus.MAX_TERMS


class TestDecimalRowsGuard:
    """The decimal renderer checks each row against its record modulo
    2**61 - 1 and names the first row that does not follow."""

    @pytest.mark.parametrize("kind", list(ExpansionKind))
    @pytest.mark.parametrize("row", range(1, 5))
    def test_raised_a_names_the_next_row(self, kind, row):
        records = expand(Fraction(5, 121), kind, 6).records  # 5 greedy terms
        doctored = list(records)
        doctored[row - 1] = records[row - 1]._replace(a=records[row - 1].a + 1)
        rows = expansion._decimal_rows(doctored)
        for _ in range(row):
            next(rows)  # each row up to the doctored one prints as recorded
        with pytest.raises(AssertionError, match=rf"^row {row + 1}: "):
            next(rows)

    def test_wrong_d_names_its_row(self):
        records = expand(Fraction(185, 358), ExpansionKind.PSEUDO_GREEDY, 6).records
        doctored = list(records)
        doctored[3] = records[3]._replace(d=records[3].d + 1)
        with pytest.raises(AssertionError, match=r"^row 4: the decimal d "):
            list(expansion._decimal_rows(doctored))

    def test_faithful_records_render_as_str(self):
        records = expand(Fraction(185, 358), ExpansionKind.PSEUDO_GREEDY, 12).records
        assert list(expansion._decimal_rows(records)) == [
            (str(rec.a), str(rec.x.numerator), str(rec.x.denominator), str(rec.d))
            for rec in records
        ]


class TestGreedyInvariants:
    def test_greedy_terminates_on_rationals(self):
        rng = random.Random(12)
        for _ in range(60):
            q = rng.randint(2, 200)
            p = rng.randint(1, q)
            res = expand(Fraction(p, q), ExpansionKind.GREEDY, p + 1)
            assert res.status is ExpansionStatus.EXACT  # numerators strictly decrease

    def test_greedy_reconstruction(self):
        res = expand(Fraction(4, 17), ExpansionKind.GREEDY, 10)
        assert sum(Fraction(1, r.a) for r in res.records) == Fraction(4, 17)


class TestGapSequenceNaive:
    def test_11_29(self):
        steps = gap_sequence_naive(11, 29, 5)
        assert [s.c for s in steps] == [11, 15, 19, 20, 16]
        assert [s.e for s in steps] == [-4, -4, -1, 4, 0]
        assert [s.eps for s in steps] == TABLE_EPS[:5]

    def test_unit_fraction_zero_immediately(self):
        for m in (1, 2, 17, 100):
            steps = gap_sequence_naive(1, m, 3)
            assert steps[0].e == 0 and steps[0].eps == 0

    def test_one_over_one(self):
        steps = gap_sequence_naive(1, 1, 2)
        assert steps[0].c == 1 and steps[0].e == 0

    def test_not_reduced(self):
        with pytest.raises(NotReduced):
            gap_sequence_naive(2, 4, 5)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            gap_sequence_naive(0, 1, 5)
        with pytest.raises(ValueError):
            gap_sequence_naive(1, 1, 0)

    def test_digit_limit_stops_early(self, monkeypatch):
        monkeypatch.setattr(expansion, "NAIVE_DIGIT_LIMIT", 10)
        steps = gap_sequence_naive(11, 29, 50)
        assert 0 < len(steps) < 50

    def test_matches_expand_bookkeeping(self):
        rng = random.Random(13)
        for _ in range(30):
            q = rng.randint(1, 10**4)
            p = rng.randint(1, 10**4)
            f = Fraction(p, q)
            steps = gap_sequence_naive(f.numerator, f.denominator, 8)
            recs = pseudo(f, 8, digit_cap=10**6).records
            for s, rec in zip(steps, recs):
                assert (s.c, s.e, s.eps) == (rec.c, rec.e, rec.eps)
