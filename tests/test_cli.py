import csv
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from oracles import (
    DIGIT_CAP, expansion_csv, expansion_records, expansion_rows_str, expansion_table_cells,
    no_str_digit_limit,
)

from egyptfrac import cli, exactnum, expansion
from egyptfrac.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExpandCommand:
    def test_11_29_csv_matches_published_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "expand", "--r", "11/29", "--kind", "pseudo", "--terms", "6",
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,a,x,c,d,e,eps"
        rows = [l.split(",") for l in lines[1:]]
        assert len(rows) == 6
        assert [r[1] for r in rows] == [
            "4", "9", "56", "2924", "10684297", "114154191699913",
        ]
        assert [Fraction(r[2]) for r in rows] == [
            Fraction(11, 29), Fraction(15, 116), Fraction(19, 1044),
            Fraction(5, 14616), Fraction(1, 10684296), Fraction(1, 114154191699912),
        ]
        assert [Fraction(r[6]) for r in rows] == [
            Fraction(-4, 11), Fraction(-4, 15), Fraction(-1, 19),
            Fraction(1, 5), Fraction(0), Fraction(0),
        ]

    def test_json_lines_are_strict_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "expand", "--r", "11/29", "--kind", "pseudo", "--terms", "6",
            "--format", "json",
        )
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert len(rows) == 6
        assert rows[3]["eps"] == "1/5"  # reduced display form
        assert rows[3]["c"] == "20" and rows[3]["e"] == "4"  # unreduced bookkeeping

    def test_stop_at_zero_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "expand", "--r", "11/29", "--kind", "pseudo", "--terms", "8",
            "--stop-at-zero", "--format", "csv",
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 1 + 5

    def test_stop_at_zero_without_gap_bookkeeping_is_domain_error(self, capsys):
        # a quadratic run tracks no zero gap, so it cannot stop at one
        code, out, err = run_cli(
            capsys, "expand", "--r", "(5-1 sqrt 5)/2", "--kind", "pseudo", "--terms", "3",
            "--stop-at-zero",
        )
        assert code == 1 and out == ""
        assert err.startswith("error[ValueError]: stop_at_first_zero ")

    def test_continue_past_zero_is_a_usage_error(self, capsys):
        # running past the first zero gap is the default; no flag restates it
        code, out, err = run_cli(
            capsys, "expand", "--r", "11/29", "--kind", "pseudo", "--terms", "7",
            "--continue-past-zero",
        )
        assert code == 2 and out == ""
        assert "unrecognized arguments: --continue-past-zero" in err

    def test_table_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "expand", "--r", "5/6", "--kind", "greedy", "--terms", "5",
        )
        assert code == 0
        assert "a" in out.splitlines()[0]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_table_view_only_for_table(self, capsys, monkeypatch, fmt):
        # machine formats render eps once, through format_value (a rational x
        # comes from the decimal renderer); the table's own view (_pretty) is
        # never built for them
        def no_table(value):
            raise AssertionError("table view built for --format " + fmt)

        rendered = []
        real = cli.format_value
        monkeypatch.setattr(cli, "_pretty", no_table)
        monkeypatch.setattr(cli, "format_value", lambda v: rendered.append(v) or real(v))
        code, _, _ = run_cli(
            capsys, "expand", "--r", "11/29", "--kind", "pseudo", "--terms", "6",
            "--format", fmt,
        )
        assert code == 0 and len(rendered) == 6

    def test_quadratic_input(self, capsys):
        code, out, _ = run_cli(
            capsys, "expand", "--r", "(5-1 sqrt 5)/2", "--kind", "greedy",
            "--terms", "4", "--format", "json",
        )
        assert code == 0
        rows = [json.loads(l) for l in out.strip().splitlines()]
        assert [r["a"] for r in rows] == ["1", "3", "21", "987"]
        assert rows[0]["x"] == "(5-1 sqrt 5)/2"

    def test_odd_kind_on_irrational_is_domain_error(self, capsys):
        code, _, err = run_cli(
            capsys, "expand", "--r", "(5-1 sqrt 5)/2", "--kind", "odd", "--terms", "3",
        )
        assert code == 1
        assert "OddGreedyOnIrrational" in err

    def test_nonterminated_flag_on_stderr(self, capsys):
        code, _, err = run_cli(
            capsys, "expand", "--r", "1/2", "--kind", "odd", "--terms", "4",
        )
        assert code == 0
        assert "NONTERMINATED" in err

    def test_digit_cap_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "expand", "--r", "11/29", "--kind", "pseudo", "--terms", "6",
            "--digit-cap", "3", "--format", "json",
        )
        assert code == 0
        rows = [json.loads(l) for l in out.strip().splitlines()]
        assert rows[0]["d"] == "29" and rows[3]["d"] is None

    @pytest.mark.parametrize("cap, shown", [("3437", True), ("3436", False)])
    def test_digit_cap_boundary(self, capsys, monkeypatch, cap, shown):
        # 185/358's d_14 has exactly 3,437 digits.  The records hold every d,
        # d_17's 27,472 digits included, and the flag alone decides which d
        # is printed
        results = []

        def spy(*args, **kwargs):
            results.append(expansion.expand(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(cli, "expand", spy)
        code, out, _ = run_cli(
            capsys, "expand", "--r", "185/358", "--kind", "pseudo", "--terms", "17",
            "--digit-cap", cap, "--format", "json",
        )
        assert code == 0
        [records] = [result.records for result in results]
        assert all(rec.d is not None for rec in records)
        with no_str_digit_limit():
            want = [str(rec.d) for rec in records]
        assert len(want[13]) == 3437
        got = [json.loads(line)["d"] for line in out.splitlines()]
        assert got == [d if len(d) <= int(cap) else None for d in want]
        assert (got[13] is not None) is shown

    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_digit_cap_below_one_stops_before_expand(self, capsys, monkeypatch, cap):
        calls = []
        monkeypatch.setattr(cli, "expand", lambda *a, **k: calls.append((a, k)))
        code, out, err = run_cli(
            capsys, "expand", "--r", "185/358", "--kind", "pseudo", "--terms", "20",
            "--digit-cap", cap,
        )
        assert (code, out, calls) == (1, "", [])
        assert err == f"error[ValueError]: digit_cap must be >= 1, got {cap}\n"

    @pytest.mark.parametrize("value", ["lots", "3"])
    def test_digit_cap_comes_from_the_flag_alone(self, capsys, monkeypatch, value):
        argv = ["expand", "--r", "11/29", "--kind", "pseudo", "--terms", "6", "--format", "json"]
        want = run_cli(capsys, *argv)
        monkeypatch.setenv("EGYPT_DIGIT_CAP", value)
        assert run_cli(capsys, *argv) == want

    def test_term_past_the_bit_cap_is_domain_error(self, capsys):
        # each odd-greedy term of 185/358 doubles in size: a_24 has about
        # 11.9M bits, so a_25 has at least 23.8M, past TERM_BIT_CAP (2^24);
        # the run stops before it forms x_25
        code, out, err = run_cli(
            capsys, "expand", "--r", "185/358", "--kind", "odd", "--terms", "30",
            "--format", "csv", "--digit-cap", "1",
        )
        assert code == 1 and out == ""
        assert err == ("error[DepthExceeded]: a_25 has at least 23786083 bits, "
                       "past the term cap of 16777216 bits\n")


def oracle_rows(r, kind, terms, digit_cap=DIGIT_CAP):
    return expansion_rows_str(expansion_records(r, kind, terms), digit_cap)


class TestExpandRowsMatchStrOracle:
    """Every printed expand row equals the row printed by ``str()`` of the
    same records (tests/oracles.py), which shares no code with the decimal
    renderer or with ``int_to_decimal_str``."""

    def expand_json(self, capsys, r, kind, terms, *extra):
        code, out, _ = run_cli(capsys, "expand", "--r", str(r), "--kind", kind,
                               "--terms", str(terms), "--format", "json", *extra)
        assert code == 0
        return [json.loads(line) for line in out.splitlines()]

    def test_random_rationals(self, capsys):
        rng = random.Random(2026)
        for _ in range(300):
            q = rng.randint(1, 10**6)
            r = Fraction(rng.randint(1, 2 * q), q)
            for kind in ("greedy", "odd", "pseudo"):
                terms = rng.randint(1, 13)
                got = self.expand_json(capsys, r, kind, terms)
                assert got == oracle_rows(r, kind, terms), (r, kind, terms)

    @pytest.fixture(scope="class")
    def full_size(self):
        return oracle_rows(Fraction(185, 358), "pseudo", 20)

    @pytest.mark.parametrize("fmt", ["csv", "json", "table"])
    def test_full_size(self, capsys, full_size, fmt):
        code, out, _ = run_cli(capsys, "expand", "--r", "185/358", "--kind", "pseudo",
                               "--terms", "20", "--format", fmt)
        assert code == 0
        lines = out.splitlines()
        if fmt == "csv":
            assert out == expansion_csv(full_size)
        elif fmt == "json":
            assert [json.loads(line) for line in lines] == full_size
        else:
            # every cell is one word; an empty one leaves nothing to split
            assert lines[0].split() == ["n", "a", "x", "eps", "c", "e", "d"]
            assert [line.split() for line in lines[2:]] == expansion_table_cells(full_size)

    def test_digit_cap_shows_d(self, capsys):
        # d_18 has 54,940 digits, above the default cap of 10**4
        got = self.expand_json(capsys, "185/358", "pseudo", 18, "--digit-cap", str(10**6))
        assert all(row["d"] is not None for row in got)
        assert got == oracle_rows(Fraction(185, 358), "pseudo", 18, 10**6)

    def test_greedy_run_that_ends_exact(self, capsys):
        code, out, err = run_cli(capsys, "expand", "--r", "5/121", "--kind", "greedy",
                                 "--terms", "10", "--format", "json")
        got = [json.loads(line) for line in out.splitlines()]
        assert (code, err) == (0, "")
        assert [row["a"] for row in got] == [
            "25", "757", "763309", "873960180913", "1527612795642093418846225"]
        assert got[-1]["x"] == "1/1527612795642093418846225"
        assert got == oracle_rows(Fraction(5, 121), "greedy", 10)

    @pytest.mark.parametrize("kind", ["greedy", "odd", "pseudo"])
    def test_x_above_one_with_a_huge_numerator(self, capsys, kind):
        # u has more than DECIMAL_PATH_BITS bits in every row, and a = 1
        r = Fraction(10**5000 + 3, 7)
        with no_str_digit_limit():
            text = f"{r.numerator}/{r.denominator}"
        got = self.expand_json(capsys, text, kind, 3)
        assert [row["a"] for row in got] == ["1", "1", "1"]
        assert got == oracle_rows(r, kind, 3)


class TestGapsCommand:
    def test_fast_json_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "gaps", "--r", "11/29", "--terms", "50", "--method", "fast",
            "--format", "json",
        )
        assert code == 0
        trace = json.loads(out)
        assert trace == {
            "p": 11,
            "q": 29,
            "c": ["11", "15", "19", "20", "16", "16"],
            "e": ["-4", "-4", "-1", "4", "0"],
            "n0": 5,
            "steps": 5,
            "terminated": True,
        }

    def test_naive_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "gaps", "--r", "11/29", "--terms", "5", "--method", "naive",
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,c,e,eps"
        assert lines[1] == "1,11,-4,-4/11"

    def test_both_agree_exit_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "gaps", "--r", "17/23", "--terms", "12", "--method", "both",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["agree"] is True

    def test_both_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "gaps", "--r", "17/23", "--terms", "12", "--method", "both",
            "--format", "csv",
        )
        assert code == 0
        header, row = csv.reader(io.StringIO(out))
        assert header == ["p", "q", "compared_terms", "mismatch_indices", "agree"]
        assert row[:2] == ["17", "23"] and row[3:] == ["", "True"]

    def test_both_stops_at_the_naive_digit_limit(self, capsys):
        # 185/358 reaches its zero gap at n = 20, two steps after d_n passes
        # the naive route's 10^5 digits
        code, out, _ = run_cli(
            capsys, "gaps", "--r", "185/358", "--terms", "20", "--method", "both",
        )
        assert code == 0
        assert out == "compared 18 terms: agree\n"

    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    def test_both_compares_the_naive_length(self, capsys, monkeypatch, fmt):
        monkeypatch.setattr(expansion, "NAIVE_DIGIT_LIMIT", 30)
        n = len(expansion.gap_sequence_naive(185, 358, 20))
        assert 0 < n < 20
        code, out, _ = run_cli(
            capsys, "gaps", "--r", "185/358", "--terms", "20", "--method", "both",
            "--format", fmt,
        )
        assert code == 0
        if fmt == "table":
            assert out == f"compared {n} terms: agree\n"
        elif fmt == "json":
            assert json.loads(out)["compared_terms"] == n
        else:
            header, row = csv.reader(io.StringIO(out))
            assert row[header.index("compared_terms")] == str(n)

    def test_unreduced_is_domain_error(self, capsys):
        code, _, err = run_cli(
            capsys, "gaps", "--r", "2/4", "--terms", "5", "--method", "fast",
        )
        assert code == 1
        assert "NotReduced" in err

    def test_integer_input_means_q_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "gaps", "--r", "3", "--terms", "5", "--method", "fast",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["q"] == 1


def perturbed_naive(real, pair=(11, 29), step=3):
    """gap_sequence_naive with e_step of one pair off by one."""

    def naive(p, q, *args, **kwargs):
        steps = real(p, q, *args, **kwargs)
        if (p, q) == pair:
            steps[step - 1] = steps[step - 1]._replace(e=steps[step - 1].e + 1)
        return steps

    return naive


def perturbed_fast(real, pair=(11, 29), step=3):
    """gap_sequence_fast with e_step of one pair off by one."""

    def fast(p, q, *args, **kwargs):
        trace = real(p, q, *args, **kwargs)
        if (p, q) == pair:
            e = list(trace.e)
            e[step - 1] += 1
            trace = trace._replace(e=e)
        return trace

    return fast


class TestBothMismatch:
    """An injected disagreement on either side must surface in gaps
    --method both."""

    def test_json_report(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "gap_sequence_naive", perturbed_naive(cli.gap_sequence_naive))
        code, out, _ = run_cli(
            capsys, "gaps", "--r", "11/29", "--terms", "12", "--method", "both",
            "--format", "json",
        )
        assert code == 1
        report = json.loads(out)
        assert report["mismatch_indices"] == [3]
        assert report["compared_terms"] == 5 and report["agree"] is False

    def test_text_report(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "gap_sequence_naive", perturbed_naive(cli.gap_sequence_naive))
        code, out, _ = run_cli(
            capsys, "gaps", "--r", "11/29", "--terms", "12", "--method", "both",
        )
        assert code == 1
        assert out == "compared 5 terms: MISMATCH at [3]\n"

    def test_csv_report(self, capsys, monkeypatch):
        # two steps off, so that the indices show their separator
        naive = perturbed_naive(perturbed_naive(cli.gap_sequence_naive, step=2), step=3)
        monkeypatch.setattr(cli, "gap_sequence_naive", naive)
        code, out, _ = run_cli(
            capsys, "gaps", "--r", "11/29", "--terms", "12", "--method", "both",
            "--format", "csv",
        )
        assert code == 1
        assert list(csv.reader(io.StringIO(out))) == [
            ["p", "q", "compared_terms", "mismatch_indices", "agree"],
            ["11", "29", "5", "2 3", "False"],
        ]

    @pytest.mark.parametrize("step", [1, 3, 5])
    def test_fast_side(self, capsys, monkeypatch, step):
        monkeypatch.setattr(cli, "gap_sequence_fast",
                            perturbed_fast(cli.gap_sequence_fast, step=step))
        code, out, _ = run_cli(
            capsys, "gaps", "--r", "11/29", "--terms", "12", "--method", "both",
        )
        assert code == 1
        assert out == f"compared 5 terms: MISMATCH at [{step}]\n"


class TestRecoverCommand:
    def test_millin_quoted_value(self, capsys):
        code, out, _ = run_cli(
            capsys, "recover", "--sum", "(5-1 sqrt 5)/2", "--beta", "1/3",
            "--terms", "5", "--format", "json",
        )
        assert code == 0
        rows = [json.loads(l) for l in out.strip().splitlines()]
        assert [r["a"] for r in rows] == ["1", "3", "21", "987", "2178309"]
        assert rows[0]["threshold_met"] is False

    def test_sylvester(self, capsys):
        code, out, _ = run_cli(
            capsys, "recover", "--sum", "1", "--beta", "1", "--terms", "6",
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,a,x,delta,threshold_met"
        assert [l.split(",")[1] for l in lines[1:]] == [
            "2", "3", "7", "43", "1807", "3263443",
        ]

    def test_breakdown_is_domain_error(self, capsys):
        code, _, err = run_cli(
            capsys, "recover", "--sum", "3", "--beta", "0", "--terms", "2",
        )
        assert code == 1
        assert "RecoveryBreakdown" in err


class TestTableRendersOnce:
    """A table renders no more integers than the CSV of the same records."""

    @pytest.mark.parametrize("argv", [
        ["expand", "--r", "185/358", "--kind", "pseudo", "--terms", "14"],
        ["recover", "--sum", "(5-1 sqrt 5)/2", "--beta", "1/3", "--terms", "12"],
    ], ids=["expand", "recover"])
    def test_table_calls_at_most_csv(self, capsys, monkeypatch, argv):
        calls = {}
        for fmt in ("csv", "table"):
            count = [0]
            real = exactnum.int_to_decimal_str

            def counted(n, count=count, real=real):
                count[0] += 1
                return real(n)

            with monkeypatch.context() as m:
                m.setattr(exactnum, "int_to_decimal_str", counted)
                m.setattr(cli, "int_to_decimal_str", counted)
                code, _, _ = run_cli(capsys, *argv, "--format", fmt)
            assert code == 0
            calls[fmt] = count[0]
        assert 0 < calls["table"] <= calls["csv"]


class TestSeqCommand:
    def test_sylvester(self, capsys):
        code, out, _ = run_cli(
            capsys, "seq", "sylvester", "--m", "1", "--terms", "5", "--format", "json",
        )
        assert code == 0
        rows = [json.loads(l) for l in out.strip().splitlines()]
        assert [r["value"] for r in rows] == ["2", "3", "7", "43", "1807"]

    def test_fib2(self, capsys):
        code, out, _ = run_cli(
            capsys, "seq", "fib2", "--terms", "5", "--format", "json",
        )
        assert code == 0
        rows = [json.loads(l) for l in out.strip().splitlines()]
        assert [r["value"] for r in rows] == ["1", "3", "21", "987", "2178309"]

    def test_sylvester_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "seq", "sylvester", "--m", "1", "--terms", "5", "--format", "csv",
        )
        assert code == 0
        assert out == "n,value\n1,2\n2,3\n3,7\n4,43\n5,1807\n"

    def test_fib2_csv(self, capsys):
        code, out, _ = run_cli(capsys, "seq", "fib2", "--terms", "4", "--format", "csv")
        assert code == 0
        assert out == "n,value\n1,1\n2,3\n3,21\n4,987\n"

    @pytest.mark.parametrize("kind", [["sylvester", "--m", "1"], ["fib2"]],
                             ids=["sylvester", "fib2"])
    @pytest.mark.parametrize("terms", ["0", "-3"])
    @pytest.mark.parametrize("fmt", ["table", "csv"])
    def test_count_below_one_is_domain_error(self, capsys, kind, terms, fmt):
        code, out, err = run_cli(capsys, "seq", *kind, "--terms", terms, "--format", fmt)
        assert code == 1
        assert out == ""
        assert err == f"error[ValueError]: count must be >= 1, got {terms}\n"

    # s_4 = 43 has 6 bits, so s_5 = 1807 (11 bits) has at least 2*6 - 2; F_16
    # = 987 has 10 and L_16 = 2207 12, so F_32 (22 bits) has at least 10 + 12 - 1
    @pytest.mark.parametrize("kind, cap, msg", [
        (["sylvester", "--m", "1"], 6, "s_5 has at least 10 bits, past the term cap of 6 bits"),
        (["fib2"], 10, "F_{2^5} has at least 21 bits, past the term cap of 10 bits"),
        (["sylvester", "--m", "1"], 10, "s_5 has 11 bits, past the term cap of 10 bits"),
        (["fib2"], 21, "F_{2^5} has 22 bits, past the term cap of 21 bits"),
    ], ids=["patched-sylvester", "patched-fib2", "formed-sylvester", "formed-fib2"])
    def test_count_over_cap_is_domain_error(self, capsys, monkeypatch, kind, cap, msg):
        # a patched cap, so the suite never builds the ~12M-bit terms the
        # default one admits: at the 4th term's size the 5th raises from its
        # lower bound before it is formed; at that bound, once it is formed
        monkeypatch.setattr(exactnum, "TERM_BIT_CAP", cap)
        code, out, err = run_cli(capsys, "seq", *kind, "--terms", "5", "--format", "csv")
        assert code == 1
        assert out == ""
        assert err == f"error[DepthExceeded]: {msg}\n"

    def test_growth_table(self, capsys):
        code, out, _ = run_cli(capsys, "seq", "growth", "--m", "1", "--depth", "8")
        assert code == 0
        assert "1.2640847" in out and "<=" in out

    def test_growth_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "seq", "growth", "--m", "1", "--depth", "8", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert abs(float(payload["c_hat"]) - 1.2640847) <= 1e-6
        assert float(payload["residual_bound"]) > 0

    def test_growth_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "seq", "growth", "--m", "1", "--depth", "8", "--format", "csv",
        )
        assert code == 0
        header, row = csv.reader(io.StringIO(out))
        assert header == ["m", "depth", "c_hat", "residual_bound"]
        assert row[:2] == ["1", "8"]
        assert abs(float(row[2]) - 1.2640847) <= 1e-6 and float(row[3]) > 0

    def test_depth_error(self, capsys):
        code, _, err = run_cli(capsys, "seq", "growth", "--m", "1", "--depth", "3")
        assert code == 1
        assert err == "error[ValueError]: depth must be in [4, 16], got 3\n"


class TestWalkCommand:
    def test_stats_json(self, capsys, tmp_path):
        hits = tmp_path / "hits.csv"
        code, out, _ = run_cli(
            capsys, "walk", "--c0", "10", "--steps", "50", "--trials", "20",
            "--seed", "5", "--hits-out", str(hits),
        )
        assert code == 0
        stats = json.loads(out)
        assert stats["generator_id"] == "splitmix64-mix-v1"
        assert stats["trials"] == 20 and stats["seed"] == 5
        lines = hits.read_text().splitlines()
        assert lines[0] == "trial,hit_step"
        assert len(lines) == 21

    @pytest.mark.parametrize("c0", ["nan", "inf"])
    def test_non_finite_start_rejected(self, capsys, c0):
        code, out, err = run_cli(
            capsys, "walk", "--c0", c0, "--steps", "5", "--trials", "2", "--seed", "1",
        )
        assert code == 1 and out == ""
        assert err.startswith("error[ValueError]") and "c0" in err

    def test_boundary_start(self, capsys):
        code, out, _ = run_cli(
            capsys, "walk", "--c0", "1", "--steps", "5", "--trials", "3", "--seed", "1",
        )
        assert code == 0
        stats = json.loads(out)
        assert stats["hit_fraction"] == 1.0 and stats["mean_hit_time"] == 0.0
        assert stats["mean_log_t"] is None

    _WALK_THREADS = """
import json, os, sys
from egyptfrac.cli import main
code = main(["walk", "--c0", "10", "--steps", "20", "--trials", "8", "--seed", "1"])
print(json.dumps([code, len(os.listdir("/proc/self/task")),
                  os.environ.get("OPENBLAS_NUM_THREADS")]), file=sys.stderr)
"""

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc/self/task")
    @pytest.mark.parametrize("user_value", [None, "2"])
    def test_walk_starts_no_blas_threads(self, user_value):
        # OpenBLAS reads its thread count from any of these; a user's own
        # OPENBLAS_NUM_THREADS wins, and the variable is back as it was
        env = {k: v for k, v in TestEntryPoints.ENV.items()
               if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
        if user_value is not None:
            env["OPENBLAS_NUM_THREADS"] = user_value
        pytest.importorskip("numpy")
        proc = subprocess.run([sys.executable, "-c", self._WALK_THREADS], env=env,
                              capture_output=True, text=True, timeout=120)
        code, tasks, after = json.loads(proc.stderr.splitlines()[-1])
        assert (code, after) == (0, user_value)
        if user_value is None:
            assert tasks == 1
        elif (os.cpu_count() or 1) >= 2:
            assert tasks == 2


class TestScanCommand:
    def test_scan_and_summary(self, capsys, tmp_path):
        out_file = tmp_path / "scan.csv"
        code, out, _ = run_cli(
            capsys, "scan", "--qmin", "1", "--qmax", "25", "--maxiter", "1000",
            "--out", str(out_file),
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["pairs_maxiter"] == 0
        assert summary["pairs_total"] == summary["pairs_zero"]
        assert out_file.exists()

    def test_byte_identical_across_jobs(self, capsys, tmp_path, monkeypatch):
        # bytes must not depend on the worker count, even above this host's cores
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        f1, f2 = tmp_path / "one.csv", tmp_path / "two.csv"
        c1, out1, _ = run_cli(
            capsys, "scan", "--qmin", "1", "--qmax", "30", "--maxiter", "500",
            "--out", str(f1), "--jobs", "1",
        )
        c2, out2, _ = run_cli(
            capsys, "scan", "--qmin", "1", "--qmax", "30", "--maxiter", "500",
            "--out", str(f2), "--jobs", "4",
        )
        assert c1 == c2 == 0
        assert f1.read_bytes() == f2.read_bytes()
        s1, s2 = json.loads(out1), json.loads(out2)
        s1.pop("wall_time_s"), s2.pop("wall_time_s")
        assert s1 == s2

    def test_jobs_above_cpu_count_is_domain_error(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        code, _, err = run_cli(
            capsys, "scan", "--qmin", "1", "--qmax", "5", "--maxiter", "100",
            "--out", str(tmp_path / "x.csv"), "--jobs", "3",
        )
        assert code == 1
        assert err.startswith("error[ValueError]: jobs")

    def test_maxiter_echo_matches_csv(self, capsys, tmp_path, monkeypatch):
        # every MAXITER row is echoed to stderr once, in (q, p) order, for any --jobs
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        echoes = []
        for jobs in ("1", "2"):
            out_file = tmp_path / f"scan{jobs}.csv"
            code, _, err = run_cli(
                capsys, "scan", "--qmin", "1", "--qmax", "30", "--maxiter", "3",
                "--out", str(out_file), "--jobs", jobs,
            )
            assert code == 0
            rows = [l.split(",") for l in out_file.read_text().splitlines()[1:]]
            leads = [f"MAXITER: {p}/{q} produced no zero gap within 3 steps"
                     for p, q, _, _, _, status, _ in rows if status == "MAXITER"]
            assert leads
            assert err.splitlines() == leads
            echoes.append(err)
        assert echoes[0] == echoes[1]

    def test_resume_flag(self, capsys, tmp_path):
        out_file = tmp_path / "scan.csv"
        assert run_cli(
            capsys, "scan", "--qmin", "1", "--qmax", "10", "--maxiter", "100",
            "--out", str(out_file),
        )[0] == 0
        assert run_cli(
            capsys, "scan", "--qmin", "1", "--qmax", "15", "--maxiter", "100",
            "--out", str(out_file), "--resume",
        )[0] == 0
        rows = out_file.read_text().splitlines()
        assert rows[-1].split(",")[1] == "15"

    @staticmethod
    def group_lines(out_file, qs):
        """The ``--verbose`` line of each q in ``qs``, from the pairs in the CSV."""
        qcol = [l.split(",")[1] for l in out_file.read_text().splitlines()[1:]]
        return [f"q={q}: {qcol.count(str(q))} pairs" for q in qs]

    def test_verbose_prints_one_line_per_group(self, capsys, tmp_path):
        out_file = tmp_path / "scan.csv"
        code, _, err = run_cli(
            capsys, "scan", "--qmin", "1", "--qmax", "12", "--maxiter", "100",
            "--out", str(out_file), "--verbose",
        )
        assert code == 0
        assert err.splitlines() == self.group_lines(out_file, range(1, 13))
        assert "q=12: 4 pairs" in err  # 1, 5, 7 and 11 over 12

    def test_verbose_resume_prints_fresh_groups_only(self, capsys, tmp_path):
        out_file = tmp_path / "scan.csv"
        args = ("scan", "--qmin", "1", "--maxiter", "100", "--out", str(out_file), "--verbose")
        assert run_cli(capsys, *args, "--qmax", "10")[0] == 0
        code, _, err = run_cli(capsys, *args, "--qmax", "15", "--resume")
        assert code == 0
        assert err.splitlines() == self.group_lines(out_file, range(11, 16))

    def test_resume_under_another_maxiter_is_domain_error(self, capsys, tmp_path):
        out_file = tmp_path / "scan.csv"
        args = ("scan", "--qmin", "1", "--qmax", "20", "--out", str(out_file))
        assert run_cli(capsys, *args, "--maxiter", "3")[0] == 0
        before = out_file.read_bytes()
        code, out, err = run_cli(capsys, *args, "--maxiter", "10000", "--resume")
        assert (code, out) == (1, "")
        assert err.startswith("error[CorruptCheckpoint]: the row of 2/7 is not what n_max=10000")
        assert out_file.read_bytes() == before


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no interpreter digit limit"
)
class TestIntDigitLimit:
    """main lifts the interpreter-wide int/str digit limit for its own call
    only: huge input parses, and the caller's limit is back afterwards."""

    @pytest.fixture(autouse=True)
    def default_limit(self):
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        yield
        sys.set_int_max_str_digits(saved)

    @pytest.mark.parametrize(
        "argv, want",
        [
            (["seq", "sylvester", "--m", "1", "--terms", "3"], 0),
            (["recover", "--sum", "3", "--beta", "0", "--terms", "2"], 1),
            (["expand", "--nope"], 2),
        ],
    )
    def test_limit_restored(self, capsys, argv, want):
        assert run_cli(capsys, *argv)[0] == want
        assert sys.get_int_max_str_digits() == 4300

    def test_huge_input_parses(self, capsys):
        den = "1" + "0" * 4998 + "7"
        code, out, _ = run_cli(
            capsys, "expand", "--r", f"1/{den}", "--kind", "greedy", "--terms", "2",
            "--format", "json",
        )
        assert code == 0
        row = json.loads(out)
        assert row["a"] == den and row["x"] == f"1/{den}"
        assert sys.get_int_max_str_digits() == 4300


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        assert run_cli(capsys, "expand", "--nope", "1")[0] == 2

    def test_unknown_subcommand(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

    def test_malformed_value(self, capsys):
        assert run_cli(
            capsys, "expand", "--r", "one half", "--kind", "pseudo", "--terms", "3",
        )[0] == 2

    def test_missing_required(self, capsys):
        assert run_cli(capsys, "expand", "--r", "1/2", "--terms", "3")[0] == 2

    def test_type_error_names_the_parser(self, capsys):
        # the parser's type= functions are imported on first call; argparse
        # must still name the real function
        code, out, err = run_cli(capsys, "expand", "--r", "x", "--kind", "pseudo", "--terms", "3")
        assert code == 2 and out == ""
        assert err.endswith("argument --r: invalid parse_value value: 'x'\n")

    @pytest.mark.parametrize("text", ["1_1/29", "11/+29", "11/-29"])
    @pytest.mark.parametrize("command", [
        ["gaps", "--terms", "3", "--method", "fast"],
        ["expand", "--kind", "pseudo", "--terms", "3"],
    ], ids=["gaps", "expand"])
    def test_one_rational_grammar(self, capsys, command, text):
        # gaps --r takes exactly the INT and INT/POSINT forms of expand --r
        code, out, err = run_cli(capsys, *command, "--r", text)
        assert code == 2 and out == ""
        assert "argument --r: invalid " in err and f"value: {text!r}" in err

    def test_expand_help(self, capsys, monkeypatch):
        # argparse writes the --digit-cap default into the help
        monkeypatch.setenv("COLUMNS", "80")
        code, out, _ = run_cli(capsys, "expand", "--help")
        assert code == 0
        assert out == lines(
            "usage: egyptfrac expand [-h] --r VALUE --kind {greedy,odd,pseudo} --terms N",
            "                        [--digit-cap K] [--stop-at-zero]",
            "                        [--format {table,json,csv}]",
            "",
            "options:",
            "  -h, --help            show this help message and exit",
            "  --r VALUE             exact value, e.g. 11/29 or '(5-1 sqrt 5)/2'",
            "  --kind {greedy,odd,pseudo}",
            "  --terms N",
            "  --digit-cap K         omit d beyond K decimal digits (default 10000)",
            "  --stop-at-zero        truncate a rational pseudo-greedy stream at the first",
            "                        zero gap",
            "  --format {table,json,csv}",
            "                        output format (default: table)",
        )


class TestEntryPoints:
    # the subprocess imports the package from this checkout's src, installed or not
    ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"),
         *filter(None, [os.environ.get("PYTHONPATH")])]))

    def test_module_runner(self):
        proc = subprocess.run(
            [sys.executable, "-m", "egyptfrac", "--version"],
            env=self.ENV,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "egyptfrac" in proc.stdout

    def test_console_script_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "egyptfrac", "expand", "--help"],
            env=self.ENV,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "--stop-at-zero" in proc.stdout


def lines(*rows):
    # exact expected stdout; table rows keep their trailing padding
    return "".join(row + "\n" for row in rows)


class TestPinnedOutput:
    """Exact stdout of command x format pairs, pinned byte for byte."""

    GAP_ROWS = (
        "1  11  -4  -4/11",
        "2  15  -4  -4/15",
        "3  19  -1  -1/19",
        "4  20  4   1/5  ",
        "5  16  0   0/1  ",
    )

    def test_gaps_fast_csv(self, capsys):
        code, out, err = run_cli(
            capsys, "gaps", "--r", "11/29", "--terms", "50", "--method", "fast",
            "--format", "csv",
        )
        assert code == 0 and err == ""
        assert out == lines(
            "n,c,e,eps",
            "1,11,-4,-4/11",
            "2,15,-4,-4/15",
            "3,19,-1,-1/19",
            "4,20,4,1/5",
            "5,16,0,0/1",
        )

    def test_gaps_fast_table(self, capsys):
        code, out, err = run_cli(
            capsys, "gaps", "--r", "11/29", "--terms", "50", "--method", "fast",
            "--format", "table",
        )
        assert code == 0
        assert out == lines("n  c   e   eps  ", "-  --  --  -----", *self.GAP_ROWS)
        assert err == "terminated=True n0=5 steps=5\n"

    def test_gaps_naive_json(self, capsys):
        code, out, err = run_cli(
            capsys, "gaps", "--r", "11/29", "--terms", "5", "--method", "naive",
            "--format", "json",
        )
        assert code == 0 and err == ""
        assert out == lines(
            '{"n": 1, "c": "11", "e": "-4", "eps": "-4/11"}',
            '{"n": 2, "c": "15", "e": "-4", "eps": "-4/15"}',
            '{"n": 3, "c": "19", "e": "-1", "eps": "-1/19"}',
            '{"n": 4, "c": "20", "e": "4", "eps": "1/5"}',
            '{"n": 5, "c": "16", "e": "0", "eps": "0/1"}',
        )

    def test_gaps_naive_table(self, capsys):
        code, out, err = run_cli(
            capsys, "gaps", "--r", "11/29", "--terms", "5", "--method", "naive",
        )
        assert code == 0 and err == ""
        assert out == lines("n  c   e   eps  ", "-  --  --  -----", *self.GAP_ROWS)

    def test_recover_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "recover", "--sum", "(5-1 sqrt 5)/2", "--beta", "1/3",
            "--terms", "3", "--format", "csv",
        )
        assert code == 0
        assert out == lines(
            "n,a,x,delta,threshold_met",
            "1,1,(5-1 sqrt 5)/2,(-5+3 sqrt 5)/30,False",
            "2,3,(3-1 sqrt 5)/2,(-7+3 sqrt 5)/6,False",
            "3,21,(7-3 sqrt 5)/6,(-61+27 sqrt 5)/6,True",
        )

    def test_recover_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "recover", "--sum", "1", "--beta", "1", "--terms", "4",
        )
        assert code == 0
        assert out == lines(
            "n  a   delta~        threshold_met",
            "-  --  ------------  -------------",
            "1  2   0.0000000000  False        ",
            "2  3   0.0000000000  False        ",
            "3  7   0.0000000000  False        ",
            "4  43  0.0000000000  True         ",
        )

    def test_seq_sylvester_table(self, capsys):
        code, out, _ = run_cli(capsys, "seq", "sylvester", "--m", "1", "--terms", "5")
        assert code == 0
        assert out == lines(
            "n  value", "-  -----", "1  2    ", "2  3    ", "3  7    ", "4  43   ",
            "5  1807 ",
        )

    def test_seq_fib2_table(self, capsys):
        code, out, _ = run_cli(capsys, "seq", "fib2", "--terms", "4", "--format", "table")
        assert code == 0
        assert out == lines(
            "n  value", "-  -----", "1  1    ", "2  3    ", "3  21   ", "4  987  ",
        )

    def test_expand_quadratic_table(self, capsys):
        code, out, err = run_cli(
            capsys, "expand", "--r", "(5-1 sqrt 5)/2", "--kind", "greedy", "--terms", "4",
        )
        assert code == 0
        assert out == lines(
            "n  a    x                  eps  c  e  d",
            "-  ---  -----------------  ---  -  -  -",
            "1  1    (5-1 sqrt 5)/2                 ",
            "2  3    (3-1 sqrt 5)/2                 ",
            "3  21   (7-3 sqrt 5)/6                 ",
            "4  987  (47-21 sqrt 5)/42              ",
        )
        assert err == "NONTERMINATED: no exact end within 4 terms\n"

    # a quadratic pseudo-greedy row has its gap 1/x + 1 - a, written as
    # format_value writes it, and no (c, d, e) bookkeeping
    def test_expand_quadratic_pseudo_table(self, capsys):
        code, out, err = run_cli(
            capsys, "expand", "--r", "(5-1 sqrt 5)/2", "--kind", "pseudo", "--terms", "4",
        )
        assert code == 0
        assert out == lines(
            "n  a  x               eps               c  e  d",
            "-  -  --------------  ----------------  -  -  -",
            "1  2  (5-1 sqrt 5)/2  (-5+1 sqrt 5)/10         ",
            "2  2  (4-1 sqrt 5)/2  (-3+2 sqrt 5)/11         ",
            "3  4  (3-1 sqrt 5)/2  (-3+1 sqrt 5)/2          ",
            "4  9  (5-2 sqrt 5)/4  (-20+8 sqrt 5)/5         ",
        )
        assert err == "NONTERMINATED: no exact end within 4 terms\n"

    def test_expand_quadratic_pseudo_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "expand", "--r", "(5-1 sqrt 5)/2", "--kind", "pseudo", "--terms", "4",
            "--format", "csv",
        )
        assert code == 0
        assert out == lines(
            "n,a,x,c,d,e,eps",
            "1,2,(5-1 sqrt 5)/2,,,,(-5+1 sqrt 5)/10",
            "2,2,(4-1 sqrt 5)/2,,,,(-3+2 sqrt 5)/11",
            "3,4,(3-1 sqrt 5)/2,,,,(-3+1 sqrt 5)/2",
            "4,9,(5-2 sqrt 5)/4,,,,(-20+8 sqrt 5)/5",
        )
