import pickle
import random
from fractions import Fraction
from math import gcd

import pytest

from egyptfrac import gapfast
from egyptfrac.errors import NotReduced
from egyptfrac.expansion import gap_sequence_naive
from egyptfrac.gapfast import GapTrace, gap_sequence_fast

DEEP_PAIRS = [(185, 358), (367, 537), (3, 179), (149, 278), (293, 417), (437, 556)]


def kernel_fields(trace):
    return trace.c, trace.e, trace.n0, trace.steps


def prefix_fields(p, q, n_max, past_zero=0):
    """``kernel_fields`` of the scan's route: the kernel's exact prefix, then
    a chain seeded from the last exact d_K."""
    cs, es = [p], []
    n, n0, _, _ = gapfast._kernel(p, q, n_max, past_zero, cs, es)
    return cs, es, n0, n


def switch_step(p, q, budget):
    """First step n whose d_n exceeds ``budget`` bits, from exact d_n."""
    d = q
    for n, step in enumerate(gap_sequence_naive(p, q, 64), start=1):
        if d.bit_length() > budget:
            return n
        d *= (d - step.e) // step.c + 1
    raise AssertionError(f"{p}/{q} stays within {budget} bits for 64 steps")


class TestElevenTwentynine:
    def test_published_trace(self):
        t = gap_sequence_fast(11, 29, 50)
        assert t.e == [-4, -4, -1, 4, 0]
        assert t.c[:5] == [11, 15, 19, 20, 16]
        assert t.c[5] == 16  # c_{N+1} = c_N - e_N
        assert t.n0 == 5 and t.terminated and t.steps == 5
        assert t.eps == [
            Fraction(-4, 11),
            Fraction(-4, 15),
            Fraction(-1, 19),
            Fraction(1, 5),
            Fraction(0),
        ]

    def test_idempotent_prefixes(self):
        short = gap_sequence_fast(11, 29, 3)
        full = gap_sequence_fast(11, 29, 50)
        assert not short.terminated and short.steps == 3
        assert short.e == full.e[:3] and short.c == full.c[:4]

    def test_past_zero_extension(self):
        t = gap_sequence_fast(11, 29, 50, past_zero=3)
        assert t.n0 == 5 and t.steps == 8
        assert t.e[4:] == [0, 0, 0, 0]
        assert t.c[5:] == [16, 16, 16, 16]


class TestGapTraceContract:
    """GapTrace is an immutable named tuple with seven fields in this order."""

    FIELDS = ("p", "q", "c", "e", "terminated", "n0", "steps")

    def test_fields_in_order(self):
        assert GapTrace._fields == self.FIELDS

    def test_built_by_position_and_by_keyword(self):
        values = (11, 29, [11, 15, 19, 20, 16, 16], [-4, -4, -1, 4, 0], True, 5, 5)
        by_position = GapTrace(*values)
        by_keyword = GapTrace(**dict(zip(self.FIELDS, values)))
        assert by_position == by_keyword == values == gap_sequence_fast(11, 29, 50)
        assert tuple(getattr(by_keyword, name) for name in self.FIELDS) == values

    def test_fields_cannot_be_assigned(self):
        t = gap_sequence_fast(11, 29, 50)
        for name in (*self.FIELDS, "eps"):
            with pytest.raises(AttributeError):
                setattr(t, name, None)
        assert t.n0 == 5

    def test_pickle_round_trip(self):
        t = gap_sequence_fast(185, 358, 100, past_zero=2)
        back = pickle.loads(pickle.dumps(t))
        assert type(back) is GapTrace and back == t
        assert back.eps == t.eps

    def test_eps_from_fields(self):
        t = GapTrace(5, 9, [5, 4, 6, 5], [1, -2, 1], False, None, 3)
        assert t.eps == [Fraction(1, 5), Fraction(-1, 2), Fraction(1, 6)]


class TestTrivialInputs:
    @pytest.mark.parametrize("q", [1, 2, 17, 99991])
    def test_numerator_one_terminates_immediately(self, q):
        t = gap_sequence_fast(1, q, 50)
        assert t.n0 == 1 and t.e == [0] and t.c == [1, 1]

    def test_not_reduced(self):
        with pytest.raises(NotReduced):
            gap_sequence_fast(2, 4, 10)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            gap_sequence_fast(0, 1, 10)
        with pytest.raises(ValueError):
            gap_sequence_fast(1, 1, 0)
        with pytest.raises(ValueError):
            gap_sequence_fast(1, 1, 5, past_zero=-1)

    def test_improper_fraction(self):
        # p > q is allowed; oracle must agree
        t = gap_sequence_fast(5, 2, 20)
        n = gap_sequence_naive(5, 2, t.steps)
        assert t.c[: t.steps] == [s.c for s in n]
        assert t.e == [s.e for s in n]


class TestTraceInvariants:
    def test_random_pairs(self):
        rng = random.Random(101)
        for _ in range(40):
            q = rng.randint(1, 10**6)
            p = rng.randint(1, 10**6)
            g = gcd(p, q)
            p, q = p // g, q // g
            t = gap_sequence_fast(p, q, 2000, past_zero=3)
            assert t.c[0] == p
            for k in range(t.steps):
                assert t.c[k + 1] == t.c[k] - t.e[k]
                assert -t.c[k] <= 2 * t.e[k] < t.c[k]
                assert 2 * t.c[k + 1] <= 3 * t.c[k]
            if t.terminated:
                assert t.e[t.n0 - 1] == 0
                assert all(e == 0 for e in t.e[t.n0 - 1 :])

    def test_even_c_tie_maps_to_lower_endpoint(self):
        # find steps with residue exactly c/2 and check e = -c/2 was chosen
        rng = random.Random(55)
        found = 0
        for _ in range(4000):
            q = rng.randint(1, 3000)
            p = rng.randint(1, 3000)
            g = gcd(p, q)
            t = gap_sequence_fast(p // g, q // g, 60)
            for k in range(t.steps):
                if t.c[k] % 2 == 0 and t.e[k] == -t.c[k] // 2:
                    found += 1
            if found >= 5:
                break
        assert found >= 5

    def test_maxiter_budget_respected(self):
        t = gap_sequence_fast(499, 500, 3)
        assert t.steps == 3 and not t.terminated and t.n0 is None

    def test_e_equals_scaled_gap_product(self):
        # e_n = c_1 * eps_n * prod_{k<n} (1 - eps_k), exactly: the link
        # between the gap products and the integer bookkeeping
        for p, q in [(11, 29), (499, 500), (7, 93), (123, 88)]:
            t = gap_sequence_fast(p, q, 100)
            prod = Fraction(1)
            for k in range(t.steps):
                assert t.e[k] == p * t.eps[k] * prod
                prod *= 1 - t.eps[k]


class TestExactPrefixMatchesModular:
    """The scan's kernel (exact prefix, then a chain seeded from d_K) must give
    the same trace as ``gap_sequence_fast``, which runs the chain from d_1."""

    def test_every_pair_up_to_q150(self):
        for q in range(1, 151):
            for p in range(1, q + 1):
                if gcd(p, q) == 1:
                    assert prefix_fields(p, q, 1000) == kernel_fields(
                        gap_sequence_fast(p, q, 1000)
                    ), (p, q)

    @pytest.mark.parametrize("p, q", DEEP_PAIRS)
    def test_deep_pairs_past_zero(self, p, q):
        t = gap_sequence_fast(p, q, 100, past_zero=3)
        assert t.n0 >= 16 and t.steps == t.n0 + 3
        assert prefix_fields(p, q, 100, past_zero=3) == kernel_fields(t)

    def test_default_budget_switches_inside_the_deepest_trace(self):
        # 185/358 (n0 = 20) leaves the exact prefix well before its zero,
        # so a scan exercises both parts and the seeding of the chain
        assert 2 < switch_step(185, 358, gapfast.EXACT_BITS) < 20

    @pytest.mark.parametrize("budget", [8, 64, None])
    @pytest.mark.parametrize("p, q", [(185, 358), (367, 537), (11, 29), (499, 500)])
    def test_n_max_on_either_side_of_the_switch(self, monkeypatch, budget, p, q):
        if budget is None:
            budget = gapfast.EXACT_BITS
        monkeypatch.setattr(gapfast, "EXACT_BITS", budget)
        k = switch_step(p, q, budget)
        for n_max in range(max(1, k - 2), k + 3):
            for past_zero in (0, 2):
                assert prefix_fields(p, q, n_max, past_zero) == kernel_fields(
                    gap_sequence_fast(p, q, n_max, past_zero)
                ), (n_max, past_zero)

    @pytest.mark.parametrize("budget", [8, 64])
    def test_small_budgets_switch_early(self, monkeypatch, budget):
        monkeypatch.setattr(gapfast, "EXACT_BITS", budget)
        for q in range(1, 80):
            for p in range(1, q + 1):
                if gcd(p, q) == 1:
                    assert prefix_fields(p, q, 200, past_zero=2) == kernel_fields(
                        gap_sequence_fast(p, q, 200, past_zero=2)
                    ), (p, q)
        for p, q in DEEP_PAIRS:
            assert prefix_fields(p, q, 100, past_zero=3) == kernel_fields(
                gap_sequence_fast(p, q, 100, past_zero=3)
            ), (p, q)
