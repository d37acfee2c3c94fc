"""Acceptance suite: one test per criterion, each printing a PASS line.

Every check runs at its stated tolerance (exact where exact); the
per-criterion lines print outside pytest's capture so they always show.
"""

import os
import random
import re
import time
from fractions import Fraction
from math import gcd

import pytest

from egyptfrac.cli import main
from egyptfrac.exactnum import QuadraticValue, sign_of
from egyptfrac.expansion import ExpansionKind, expand, gap_sequence_naive
from egyptfrac.gapfast import gap_sequence_fast
from egyptfrac.randwalk import analytic_drift, run_walks
from egyptfrac.recovery import recover_sequence, verify_characterization
from egyptfrac.scanner import scan_conjecture
from egyptfrac.sequences import fib_pow2, sylvester_terms

MILLIN_SUM = QuadraticValue(Fraction(5, 2), Fraction(-1, 2), 5)
INV_SQRT5 = QuadraticValue(0, Fraction(1, 5), 5)


@pytest.fixture
def report(capsys):
    def _report(tag: str, started: float, detail: str) -> None:
        with capsys.disabled():
            print(f"ACCEPTANCE {tag} PASS ({time.perf_counter() - started:.2f}s): {detail}")

    return _report


def test_c1_expand_11_29_table(capsys, report):
    started = time.perf_counter()
    code = main(["expand", "--r", "11/29", "--kind", "pseudo", "--terms", "6",
                 "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [int(r[1]) for r in rows] == [4, 9, 56, 2924, 10684297, 114154191699913]
    assert [Fraction(r[2]) for r in rows] == [
        Fraction(11, 29), Fraction(15, 116), Fraction(19, 1044),
        Fraction(5, 14616), Fraction(1, 10684296), Fraction(1, 114154191699912),
    ]
    assert [Fraction(r[6]) for r in rows] == [
        Fraction(-4, 11), Fraction(-4, 15), Fraction(-1, 19),
        Fraction(1, 5), Fraction(0), Fraction(0),
    ]
    report("C1", started, "expand --r 11/29 reproduces the published table exactly")


def test_c2_fast_vs_naive_oracle(report):
    # the modular route, which never forms d_n, against exact d_n arithmetic
    # on the first min(n0, 12) terms of every reduced pair
    started = time.perf_counter()
    pairs = [(p, q) for q in range(1, 41) for p in range(1, q + 1) if gcd(p, q) == 1]
    mismatched = []
    for p, q in pairs:
        fast = gap_sequence_fast(p, q, 12)
        naive = gap_sequence_naive(p, q, 12)
        assert len(naive) >= fast.steps, (p, q)
        if list(zip(fast.c, fast.e)) != [(s.c, s.e) for s in naive[:fast.steps]]:
            mismatched.append((p, q))
    assert mismatched == []
    assert len(pairs) == 490
    report("C2", started,
           f"fast == naive on all {len(pairs)} reduced pairs q <= 40, 12-term prefixes")


def test_c3_conjecture_scan_q500(tmp_path, report):
    started = time.perf_counter()
    out = tmp_path / "scan500.csv"
    summary = scan_conjecture(1, 500, 10**4, out, jobs=min(4, os.cpu_count() or 1))
    assert summary.pairs_maxiter == 0
    assert summary.pairs_zero == summary.pairs_total
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == summary.pairs_total
    by_pair = {tuple(map(int, r.split(",")[:2])): r.split(",") for r in rows}
    assert by_pair[(11, 29)][2] == "5"  # the published zero index
    assert all(by_pair[(1, q)][2] == "1" for q in range(1, 501))
    report("C3", started,
           f"all {summary.pairs_total} reduced pairs q <= 500 reach a zero gap "
           f"(max n0 = {max(summary.n0_histogram)})")


def test_c4_sylvester_recovery(report):
    started = time.perf_counter()
    assert [r.a for r in recover_sequence(1, 1, 8)] == sylvester_terms(1, 8)
    for m in range(1, 31):
        got = [r.a for r in recover_sequence(Fraction(1, m), 1, 6)]
        assert got == sylvester_terms(m, 6)
    report("C4", started, "recovery at beta=1 reproduces s_n and s_n(m) for m <= 30 exactly")


def test_c5_millin_recovery(report):
    started = time.perf_counter()
    want = [fib_pow2(n) for n in range(1, 9)]
    got = [r.a for r in recover_sequence(MILLIN_SUM, Fraction(1, 3), 8)]
    assert got == want
    checks = verify_characterization(want, MILLIN_SUM, INV_SQRT5)
    tol = Fraction(1, 100)
    for c in checks:
        if 5 <= c.n <= 8:
            assert sign_of(tol - c.delta) > 0 and sign_of(c.delta + tol) > 0
    report("C5", started,
           "recovery at beta=1/3 reproduces F_{2^n}; |delta| < 1/100 at beta=1/sqrt(5) for n=5..8")


def test_c6_growth_constant(capsys, report):
    started = time.perf_counter()
    code = main(["seq", "growth", "--m", "1", "--depth", "8"])
    out = capsys.readouterr().out
    assert code == 0
    c_hat = float(re.search(r"= ([0-9.]+)", out).group(1))
    assert abs(c_hat - 1.2640847) <= 1e-6
    report("C6", started, f"seq growth --m 1 --depth 8 gives c_hat = {c_hat}")


def test_c7_drift_and_monte_carlo(report):
    started = time.perf_counter()
    expr, value = analytic_drift()
    assert abs(value - (-0.0452287)) <= 1e-7
    stats = run_walks(10.0, 1, 10**6, seed=20260810)[0]
    assert abs(stats.mean_log_t - value) <= 3 * stats.stderr_log_t
    report("C7", started,
           f"drift {value:.7f} matches closed form; 1e6-sample mean within "
           f"{abs(stats.mean_log_t - value) / stats.stderr_log_t:.2f} stderr")


def test_c8_invariant_property_suite(report):
    started = time.perf_counter()
    rng = random.Random(20260810)
    pairs = []
    while len(pairs) < 200:
        p = rng.randint(1, 10**9)
        q = rng.randint(1, 10**9)
        g = gcd(p, q)
        pairs.append((p // g, q // g))
    for p, q in pairs:
        trace = gap_sequence_fast(p, q, 10**4, past_zero=3)
        for k in range(trace.steps):
            assert Fraction(-1, 2) <= trace.eps[k] < Fraction(1, 2)
            assert trace.c[k + 1] == trace.c[k] - trace.e[k]
            assert 2 * trace.c[k + 1] <= 3 * trace.c[k]
        if trace.terminated:
            assert all(e == 0 for e in trace.e[trace.n0 - 1 :])
            assert trace.steps == trace.n0 + 3
        # naive-checked prefix: modular route == exact route on 8 terms
        naive = gap_sequence_naive(p, q, 8)
        n_cmp = min(trace.steps, len(naive))
        assert trace.c[:n_cmp] == [s.c for s in naive[:n_cmp]]
        assert trace.e[:n_cmp] == [s.e for s in naive[:n_cmp]]
    # the gap recurrence a_{n+1} = a_n^2/(1-eps_n) - a_n + (1-eps_{n+1}),
    # exact on the first 8 definitional records
    for p, q in pairs[:60]:
        recs = expand(Fraction(p, q), ExpansionKind.PSEUDO_GREEDY, 8).records
        for r1, r2 in zip(recs, recs[1:]):
            assert r2.a == r1.a**2 / (1 - r1.eps) - r1.a + (1 - r2.eps)
    report("C8", started,
           "window, c-recurrence, 3/2-growth, zero persistence, and the gap "
           "recurrence hold on 200 random reduced rationals with p, q <= 1e9")


def test_c9_exact_inequalities(report):
    started = time.perf_counter()
    for n in range(1, 13):
        assert 3 * fib_pow2(n) ** 2 <= 2 * fib_pow2(n + 1)
    lhs = Fraction(1, 1) + Fraction(1, 3) + Fraction(1, 21)
    bound = QuadraticValue(Fraction(1583, 638), Fraction(-319, 638), 5)
    assert sign_of(lhs - bound) >= 0
    report("C9", started,
           "3*F_{2^n}^2 <= 2*F_{2^{n+1}} for n <= 12; 1 + 1/3 + 1/21 >= (1583-319*sqrt5)/638")
