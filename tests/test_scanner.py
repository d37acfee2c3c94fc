import os
from collections import Counter
from functools import lru_cache
from math import gcd

import pytest
from oracles import scan_row_naive

from egyptfrac import gapfast, scanner
from egyptfrac.errors import CorruptCheckpoint
from egyptfrac.gapfast import GapTrace, gap_sequence_fast
from egyptfrac.scanner import (
    coprime_numerators,
    diagnose_tail,
    scan_conjecture,
    _reusable_groups,
)


def read_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "p,q,n0,steps,max_c,status,tail_sign_index"
    return lines[1:]


@lru_cache(maxsize=None)
def naive_lines(q_max, n_max):
    """CSV rows of a scan of q = 1..q_max, each derived from exact gap steps."""
    return [",".join("" if v is None else str(v) for v in scan_row_naive(p, q, n_max))
            for q in range(1, q_max + 1) for p in range(1, q + 1) if gcd(p, q) == 1]


def no_pool(*args, **kwargs):
    raise AssertionError("a worker pool was started")


def without_q(data, qs):
    """Scan file bytes with every row of the given q values removed."""
    lines = data.splitlines(keepends=True)
    return b"".join(lines[:1] + [l for l in lines[1:] if int(l.split(b",")[1]) not in qs])


# files the program never writes, each with the error that names its first
# bad line; a resume must refuse each of them, since it continues one scan
# of q = 1..12 under n_max = 100 and does not merge or repair files
NOT_A_PREFIX = {
    "starts_after_q_min": (
        lambda full: without_q(full, {1, 2, 3, 4}),
        "expected the row of 1/1, got b'1,5,1,1,1,ZERO,1\\n'"),
    "missing_mid_file_q": (
        lambda full: without_q(full, {6}),
        "expected the row of 1/6, got b'1,7,1,1,1,ZERO,1\\n'"),
    "empty_line": (
        lambda full: full.replace(b"\n1,7,", b"\n\n1,7,"),
        "expected the row of 1/7, got b'\\n'"),
    "crlf": (
        lambda full: full.replace(b"\n", b"\r\n"),
        "unexpected header b'p,q,n0,steps,max_c,status,tail_sign_index\\r\\n'"),
    "cut_off_other_header": (
        lambda full: b"p,q,n1",
        "unexpected header b'p,q,n1'"),
    "leading_zero": (
        lambda full: full.replace(b"\n1,7,", b"\n01,7,"),
        "expected the row of 1/7, got b'01,7,1,1,1,ZERO,1\\n'"),
    "wrong_p_in_partial_q": (
        lambda full: full[: full.index(b"\n7,12,") + 1].replace(b"\n5,12,", b"\n7,12,"),
        "expected the row of 5/12, got b'7,12,2,2,5,ZERO,1\\n'"),
    "rows_past_q_max": (
        lambda full: full + b"1,13,1,1,13,ZERO,1\n",
        "rows past q=12"),
    "swapped_rows": (
        lambda full: full.replace(b"\n2,7,4,4,5,ZERO,4\n3,7,3,3,3,ZERO,3\n",
                                  b"\n3,7,3,3,3,ZERO,3\n2,7,4,4,5,ZERO,4\n"),
        "expected the row of 2/7, got b'3,7,3,3,3,ZERO,3\\n'"),
    "wrong_q_in_p_order": (
        lambda full: full.replace(b"\n3,7,", b"\n3,8,"),
        "expected the row of 3/7, got b'3,8,3,3,3,ZERO,3\\n'"),
    "zero_n0_not_steps": (
        lambda full: full.replace(b"\n2,7,4,4,", b"\n2,7,4,5,"),
        "the row of 2/7 is not what n_max=100 produces"),
    "maxiter_with_n0": (
        lambda full: full.replace(b"\n2,7,4,4,5,ZERO,", b"\n2,7,4,100,5,MAXITER,"),
        "the row of 2/7 is not what n_max=100 produces"),
    "zero_n0_past_n_max": (
        lambda full: full.replace(b"\n2,7,4,4,", b"\n2,7,101,101,"),
        "the row of 2/7 is not what n_max=100 produces"),
}


class TestDiagnoseTail:
    def test_11_29(self):
        assert diagnose_tail(gap_sequence_fast(11, 29, 50)) == 4

    def test_all_zero_trace(self):
        assert diagnose_tail(gap_sequence_fast(1, 7, 10)) == 1

    def test_alternating_signs_has_no_tail(self):
        synthetic = GapTrace(
            p=5, q=9, c=[5, 4, 6, 5], e=[1, -2, 1, -1],
            terminated=False, n0=None, steps=4,
        )
        assert diagnose_tail(synthetic) is None

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            diagnose_tail(GapTrace(1, 1, [1], [], False, None, 0))

    def test_tail_claim_rechecked_on_random_traces(self):
        # from the tail index on every e is >= 0 and the e before it is not,
        # so c, with c_{k+1} = c_k - e_k, cannot increase on the tail
        for q in range(2, 60):
            for p in coprime_numerators(q):
                trace = gap_sequence_fast(p, q, 1000)
                t = diagnose_tail(trace)
                if t is None:
                    assert trace.e[-1] < 0
                    continue
                assert all(e >= 0 for e in trace.e[t - 1:])
                assert t == 1 or trace.e[t - 2] < 0
                tail_c = trace.c[t - 1:]
                assert all(x >= y for x, y in zip(tail_c, tail_c[1:]))


class TestScanConjecture:
    def test_small_scan(self, tmp_path):
        out = tmp_path / "scan.csv"
        summary = scan_conjecture(1, 30, 1000, out)
        rows = read_rows(out)
        assert summary.pairs_total == len(rows) == sum(
            1 for q in range(1, 31) for p in range(1, q + 1) if gcd(p, q) == 1
        )
        assert summary.pairs_zero + summary.pairs_maxiter == summary.pairs_total
        assert summary.pairs_maxiter == 0
        assert summary.wall_time_s > 0
        # ordered by (q, p)
        seen = [(int(r.split(",")[1]), int(r.split(",")[0])) for r in rows]
        assert seen == sorted(seen)

    def test_known_rows(self, tmp_path):
        out = tmp_path / "scan.csv"
        scan_conjecture(1, 29, 1000, out)
        rows = {tuple(r.split(",")[:2]): r.split(",") for r in read_rows(out)}
        r1129 = rows[("11", "29")]
        assert r1129[2] == "5" and r1129[5] == "ZERO"
        for q in (5, 12, 29):
            assert rows[("1", str(q))][2] == "1"

    def test_histogram_counts(self, tmp_path):
        out = tmp_path / "scan.csv"
        summary = scan_conjecture(1, 20, 500, out)
        assert sum(summary.n0_histogram.values()) == summary.pairs_zero
        assert summary.max_c >= 19

    def test_deterministic_across_jobs(self, tmp_path, monkeypatch):
        # bytes must not depend on the worker count, even above this host's cores
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        s1 = scan_conjecture(1, 40, 1000, out1, jobs=1)
        s2 = scan_conjecture(1, 40, 1000, out2, jobs=3)
        assert out1.read_bytes() == out2.read_bytes()
        assert (s1.pairs_total, s1.pairs_zero, s1.n0_histogram, s1.max_c) == (
            s2.pairs_total,
            s2.pairs_zero,
            s2.n0_histogram,
            s2.max_c,
        )

    def test_monotone_n0_under_larger_budget(self, tmp_path):
        a = scan_conjecture(1, 25, 50, tmp_path / "s.csv")
        rows_small = read_rows(tmp_path / "s.csv")
        scan_conjecture(1, 25, 5000, tmp_path / "l.csv")
        rows_large = read_rows(tmp_path / "l.csv")
        assert a.pairs_maxiter == 0  # everything already ZERO at 50 here
        assert rows_small == rows_large

    def test_resume_reuses_complete_q(self, tmp_path):
        out = tmp_path / "scan.csv"
        scan_conjecture(1, 15, 1000, out)
        first = out.read_bytes()
        # extending the range keeps earlier rows byte-identical
        scan_conjecture(1, 25, 1000, out, resume=True)
        assert out.read_bytes().startswith(first)
        full = scan_conjecture(1, 25, 1000, tmp_path / "fresh.csv")
        assert out.read_bytes() == (tmp_path / "fresh.csv").read_bytes()
        assert full.pairs_total == len(read_rows(out))

    def test_resume_drops_trailing_partial_q(self, tmp_path):
        out = tmp_path / "scan.csv"
        scan_conjecture(1, 12, 1000, out)
        lines = out.read_text().splitlines()
        out.write_text("\n".join(lines[:-2]) + "\n")  # cut into q = 12's rows
        scan_conjecture(1, 12, 1000, out, resume=True)
        fresh = tmp_path / "fresh.csv"
        scan_conjecture(1, 12, 1000, fresh)
        assert out.read_bytes() == fresh.read_bytes()

    def test_resume_rejects_garbage(self, tmp_path):
        out = tmp_path / "scan.csv"
        out.write_text("p,q,n0,steps,max_c,status,tail_sign_index\nnot,a,row\n")
        with pytest.raises(CorruptCheckpoint):
            scan_conjecture(1, 5, 100, out, resume=True)

    def test_resume_rejects_wrong_header(self, tmp_path):
        out = tmp_path / "scan.csv"
        out.write_text("something else\n")
        with pytest.raises(CorruptCheckpoint):
            scan_conjecture(1, 5, 100, out, resume=True)

    def test_resume_rejects_out_of_range_q(self, tmp_path):
        out = tmp_path / "scan.csv"
        scan_conjecture(1, 8, 100, out)
        with pytest.raises(CorruptCheckpoint):
            scan_conjecture(3, 8, 100, out, resume=True)

    def test_resume_rejects_incomplete_mid_file_q(self, tmp_path):
        out = tmp_path / "scan.csv"
        scan_conjecture(1, 10, 100, out)
        lines = out.read_text().splitlines()
        # remove one row of q = 5 (mid-file)
        drop = next(i for i, l in enumerate(lines) if l.split(",")[1] == "5")
        del lines[drop]
        out.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorruptCheckpoint):
            scan_conjecture(1, 10, 100, out, resume=True)

    def test_without_resume_overwrites(self, tmp_path):
        out = tmp_path / "scan.csv"
        out.write_text("garbage that would not parse\n")
        scan_conjecture(1, 5, 100, out)
        assert read_rows(out)

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            scan_conjecture(0, 5, 100, tmp_path / "x.csv")
        with pytest.raises(ValueError):
            scan_conjecture(5, 4, 100, tmp_path / "x.csv")
        with pytest.raises(ValueError):
            scan_conjecture(1, 5, 100, tmp_path / "x.csv", jobs=0)

    def test_jobs_bounded_by_cpu_count(self, tmp_path, monkeypatch):
        # the bound is checked before any worker process starts
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(scanner, "Pool", no_pool)
        with pytest.raises(ValueError, match="jobs"):
            scan_conjecture(1, 5, 100, tmp_path / "x.csv", jobs=3)
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_bad_budget_leaves_output_untouched(self, tmp_path, monkeypatch, jobs):
        # n_max is checked with the other arguments, before the output is
        # truncated or any worker process starts
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(scanner, "Pool", no_pool)
        out = tmp_path / "scan.csv"
        scan_conjecture(1, 5, 100, out)
        before = out.read_bytes()
        with pytest.raises(ValueError, match="n_max"):
            scan_conjecture(1, 5, 0, out, jobs=jobs)
        assert out.read_bytes() == before

    @pytest.mark.parametrize("name, value", [
        ("q_min", 1.0), ("q_max", 5.0), ("n_max", 2.5), ("jobs", 1.5)])
    def test_non_integer_argument_leaves_output_untouched(self, tmp_path, monkeypatch,
                                                         name, value):
        # a float would pass the range checks; it must be refused by name
        # before the output is truncated or any worker process starts
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(scanner, "Pool", no_pool)
        out = tmp_path / "scan.csv"
        out.write_text("text that must survive\n")
        args = dict(q_min=1, q_max=5, n_max=100, jobs=1, out_path=out)
        args[name] = value
        with pytest.raises(TypeError, match=f"^{name} must be an integer"):
            scan_conjecture(**args)
        assert out.read_text() == "text that must survive\n"

    @pytest.mark.parametrize("case", sorted(NOT_A_PREFIX))
    def test_resume_requires_a_prefix_of_the_scan(self, tmp_path, case):
        fresh = tmp_path / "fresh.csv"
        scan_conjecture(1, 12, 100, fresh)
        out = tmp_path / "scan.csv"
        edit, message = NOT_A_PREFIX[case]
        out.write_bytes(edit(fresh.read_bytes()))
        before = out.read_bytes()
        assert before != fresh.read_bytes()
        with pytest.raises(CorruptCheckpoint) as exc:
            scan_conjecture(1, 12, 100, out, resume=True)
        assert str(exc.value) == message
        assert out.read_bytes() == before

    def test_resume_rejects_rows_of_another_budget(self, tmp_path):
        # MAXITER after 3 steps is not what 10000 steps give, and a ZERO
        # after more than 3 steps is not what 3 steps give
        out = tmp_path / "scan.csv"
        assert scan_conjecture(1, 20, 3, out).pairs_maxiter == 52
        before = out.read_bytes()
        with pytest.raises(CorruptCheckpoint, match=r"of 2/7 is not what n_max=10000"):
            scan_conjecture(1, 20, 10000, out, resume=True)
        assert out.read_bytes() == before
        scan_conjecture(1, 20, 10000, out)
        before = out.read_bytes()
        with pytest.raises(CorruptCheckpoint, match=r"n_max=3\b"):
            scan_conjecture(1, 20, 3, out, resume=True)
        assert out.read_bytes() == before

    def test_resume_keeps_zero_rows_under_a_larger_budget(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert scan_conjecture(1, 25, 50, out).pairs_maxiter == 0
        scan_conjecture(1, 30, 5000, out, resume=True)
        fresh = tmp_path / "fresh.csv"
        scan_conjecture(1, 30, 5000, fresh)
        assert out.read_bytes() == fresh.read_bytes()

    def test_resume_formats_only_computed_groups(self, tmp_path, monkeypatch):
        # reused groups stay as the bytes already in the file; only the
        # computed ones are formatted
        out = tmp_path / "scan.csv"
        scan_conjecture(1, 20, 1000, out)
        full = out.read_bytes()
        out.write_bytes(full[: full.index(b"\n4,15,") + 1])
        formatted = []
        format_rows = scanner._format_rows
        monkeypatch.setattr(scanner, "_format_rows",
                            lambda rows: formatted.append(rows[0][1]) or format_rows(rows))
        scan_conjecture(1, 20, 1000, out, resume=True)
        assert formatted == list(range(15, 21))
        assert out.read_bytes() == full

    def test_resume_after_cut_at_any_byte(self, tmp_path):
        # a killed write can stop anywhere in a line, the header included;
        # whatever the cut (at any byte of a q <= 5 scan, and in the last two
        # groups of a q <= 30 scan), resume must reproduce the fresh scan and
        # never trust a cut-off row
        out = tmp_path / "scan.csv"
        for q_max, first_cut in ((5, b""), (30, b"\n1,29,")):
            fresh = tmp_path / f"fresh{q_max}.csv"
            scan_conjecture(1, q_max, 1000, fresh)
            full = fresh.read_bytes()
            start = full.index(first_cut) + 1 if first_cut else 0
            for cut in range(start, len(full)):
                out.write_bytes(full[:cut])
                scan_conjecture(1, q_max, 1000, out, resume=True)
                assert out.read_bytes() == full, f"q <= {q_max}, cut at byte {cut}"


class Interrupted(Exception):
    pass


class TestStreamedOutput:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_kill_then_resume(self, tmp_path, monkeypatch, jobs):
        # a run that dies after q = k leaves the header and every group up to
        # k on disk, and --resume finishes it byte-identical to a fresh scan
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        k = 17
        seen = []

        def die_after_k(q, rows):
            seen.append(q)
            if q == k:
                raise Interrupted

        out = tmp_path / "scan.csv"
        with pytest.raises(Interrupted):
            scan_conjecture(1, 30, 1000, out, jobs=jobs, progress=die_after_k)
        assert seen == list(range(1, k + 1))
        lines = read_rows(out)
        assert [(int(l.split(",")[1]), int(l.split(",")[0])) for l in lines] == [
            (q, p) for q in range(1, k + 1) for p in coprime_numerators(q)
        ]
        resumed = []
        scan_conjecture(1, 30, 1000, out, jobs=jobs, resume=True,
                        progress=lambda q, rows: resumed.append(q))
        assert resumed == list(range(k + 1, 31))
        fresh = tmp_path / "fresh.csv"
        scan_conjecture(1, 30, 1000, fresh)
        assert out.read_bytes() == fresh.read_bytes()

    def test_progress_rows_are_csv_tuples(self, tmp_path):
        out = tmp_path / "scan.csv"
        got = []
        scan_conjecture(1, 12, 3, out, progress=lambda q, rows: got.extend(rows))
        assert all(type(r) is tuple and len(r) == 7 for r in got)
        assert [",".join("" if v is None else str(v) for v in r) for r in got] == read_rows(out)
        assert {r[5] for r in got} == {"ZERO", "MAXITER"}


class TestPool:
    def test_fewer_q_than_chunks(self, tmp_path, monkeypatch):
        # three q values over two workers: fewer q than the pool's chunks
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        scan_conjecture(1, 3, 1000, out1, jobs=1)
        scan_conjecture(1, 3, 1000, out2, jobs=2)
        assert out1.read_bytes() == out2.read_bytes()

    def test_resume_of_complete_file_starts_no_pool(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        out = tmp_path / "scan.csv"
        scan_conjecture(1, 20, 1000, out)
        before = out.read_bytes()
        monkeypatch.setattr(scanner, "Pool", no_pool)
        fresh = []
        scan_conjecture(1, 20, 1000, out, jobs=2, resume=True,
                        progress=lambda q, rows: fresh.append(q))
        assert out.read_bytes() == before
        assert fresh == []

    def test_resume_larger_range_with_pool(self, tmp_path, monkeypatch):
        # a checkpoint cut mid-group, resumed to a larger q_max by two
        # workers, matches a fresh single-process scan
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        out = tmp_path / "scan.csv"
        scan_conjecture(1, 40, 1000, out)
        lines = out.read_text().splitlines(keepends=True)
        cut = next(i for i, l in enumerate(lines) if l.split(",")[1:2] == ["23"]) + 3
        out.write_text("".join(lines[:cut]))
        resumed = scan_conjecture(1, 70, 1000, out, jobs=2, resume=True)
        fresh = tmp_path / "fresh.csv"
        full = scan_conjecture(1, 70, 1000, fresh, jobs=1)
        assert out.read_bytes() == fresh.read_bytes()
        assert (resumed.pairs_total, resumed.n0_histogram, resumed.max_c) == (
            full.pairs_total, full.n0_histogram, full.max_c)


class TestCheckpointParser:
    def test_loads_complete_groups(self, tmp_path):
        # one (pairs, n0 counts, max_c) tally per q group, read off its rows,
        # and the file position at the end of the last group
        out = tmp_path / "scan.csv"
        scan_conjecture(1, 9, 100, out)
        with open(out, "r+b") as fh:
            groups = list(_reusable_groups(fh, 1, 9, 100))
            assert fh.tell() == out.stat().st_size
        assert [pairs for pairs, _, _ in groups] == [
            len(coprime_numerators(q)) for q in range(1, 10)]
        rows = [row.split(",") for row in read_rows(out)]
        for q, (_, counts, max_c) in enumerate(groups, 1):
            group = [r for r in rows if r[1] == str(q)]
            assert counts == Counter(int(r[2]) for r in group if r[2])
            assert max_c == max(int(r[4]) for r in group)


class TestSampleRerun:
    def test_rows_match_fresh_traces(self, tmp_path):
        # re-run a sample of scanned pairs and recheck both the trace
        # invariants and the row fields derived from them
        out = tmp_path / "scan.csv"
        scan_conjecture(1, 60, 1000, out)
        rows = read_rows(out)
        for row in rows[:: max(1, len(rows) // 50)]:
            p, q, n0, steps, max_c, status, _tail = row.split(",")
            t = gap_sequence_fast(int(p), int(q), 1000)
            assert t.n0 == (int(n0) if n0 else None)
            assert t.steps == int(steps)
            assert max(t.c) == int(max_c)
            assert (status == "ZERO") == t.terminated
            for k in range(t.steps):
                assert t.c[k + 1] == t.c[k] - t.e[k]
                assert -t.c[k] <= 2 * t.e[k] < t.c[k]


class TestRowsMatchNaiveOracle:
    # every field of every row, against rows built from exact d_n arithmetic
    # (tests/oracles.py), whichever of the kernel's loops produced it: at
    # EXACT_BITS = 0 every trace runs the residue chain from d_1 = q, at 64
    # most leave the exact prefix after a few steps
    @pytest.mark.parametrize("exact_bits", [0, 64, None], ids=["bits0", "bits64", "default"])
    @pytest.mark.parametrize("n_max", [3, 1000])
    def test_every_row(self, tmp_path, monkeypatch, n_max, exact_bits):
        if exact_bits is not None:
            monkeypatch.setattr(gapfast, "EXACT_BITS", exact_bits)
        out = tmp_path / "scan.csv"
        scan_conjecture(1, 60, n_max, out)
        assert read_rows(out) == naive_lines(60, n_max)

    @pytest.mark.parametrize("p, q", [(149, 278), (293, 417), (437, 556)])
    def test_rows_deep_in_the_chain(self, tmp_path, p, q):
        # n0 = 17, reached in the residue chain at the default EXACT_BITS,
        # which must track max_c and the tail as the exact prefix does
        out = tmp_path / "scan.csv"
        scan_conjecture(q, q, 1000, out)
        row = next(r for r in read_rows(out) if r.startswith(f"{p},"))
        assert row == ",".join("" if v is None else str(v) for v in scan_row_naive(p, q, 1000))


class TestCoprimeNumerators:
    def test_matches_gcd(self):
        for q in range(1, 3001):
            assert coprime_numerators(q) == [p for p in range(1, q + 1) if gcd(p, q) == 1], q


class TestGroupSelfCheck:
    # every row comes from the shared kernel; each group's deepest row is
    # recomputed from its full trace, so a kernel that reports a wrong
    # max_c or last negative step for that pair stops the scan before its
    # group is written
    @pytest.mark.parametrize("field", [2, 3], ids=["max_c", "tail"])
    def test_wrong_deepest_row_is_caught(self, tmp_path, monkeypatch, field):
        q, n_max = 29, 1000
        steps = {p: gap_sequence_fast(p, q, n_max).steps for p in coprime_numerators(q)}
        deep = max(steps, key=steps.get)  # the first p with the most steps
        real = scanner._kernel

        def wrong(p, q_, *args):
            got = real(p, q_, *args)
            if (p, q_) != (deep, q):
                return got
            return got[:field] + (got[field] + 1,) + got[field + 1:]

        monkeypatch.setattr(scanner, "_kernel", wrong)
        out = tmp_path / "scan.csv"
        with pytest.raises(AssertionError, match=f"row of {deep}/{q} differs"):
            scan_conjecture(1, 40, n_max, out)
        assert {int(r.split(",")[1]) for r in read_rows(out)} == set(range(1, q))

    def test_wrong_exact_prefix_step_is_caught(self, tmp_path, monkeypatch):
        # the recheck runs the residue chain from d_1 = q, not the exact
        # prefix that wrote the row: a prefix divmod that is off by one only
        # on d_n of more than 1,500 bits (chain operands stay far smaller)
        # first changes a deepest row at 58/157
        real = divmod

        def wrong(a, b):
            quotient, rest = real(a, b)
            return (quotient + 1 if a.bit_length() > 1500 else quotient), rest

        monkeypatch.setattr(gapfast, "divmod", wrong, raising=False)
        out = tmp_path / "scan.csv"
        with pytest.raises(AssertionError, match="row of 58/157 differs"):
            scan_conjecture(1, 200, 10**4, out)
        assert {int(r.split(",")[1]) for r in read_rows(out)} == set(range(1, 157))
