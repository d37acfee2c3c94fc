"""Exhaustive gap-sequence scan over reduced rationals p/q.

For every reduced pair with 1 <= p <= q in a q-range, runs the fast gap
computation and records whether the gap sequence reached 0 (status ZERO)
within the iteration budget, or not (status MAXITER).  MAXITER rows are the
interesting output -- potential counterexample leads -- and are surfaced
loudly by the CLI, but they are not errors.

Every row comes from one call of the gap kernel (``gapfast``), which keeps
the largest c and the last negative gap as it steps, so no trace is built
per pair.  Each q group's deepest row (the most steps; the smallest p among
equals) is recomputed through ``gap_sequence_fast``, which runs the residue
chain from d_1 = q where the row's kernel kept d_n exact, and
``diagnose_tail``; it must equal the row the kernel gave, or the scan stops
with an ``AssertionError`` before writing that group.

A row is a plain tuple in CSV column order,
``(p, q, n0, steps, max_c, status, tail_sign_index)``, from the worker that
computes it through the pool transfer to the progress callback; no object
is built per pair.  The unit of work is one q group: a worker returns only
its rows, and the parent formats each group as CSV.  With several workers,
``Pool.imap`` hands out runs of consecutive q values.

Output is a CSV ordered by (q, p), byte-identical regardless of the number
of worker processes.  Each q group is appended and flushed as soon as it and
every group before it are done, so an interrupted scan leaves the header and
whole groups.  --resume appends to such a file and never rewrites what it
keeps: the file must be a prefix of what the scan writes (the header, then
the groups of q_min, q_min + 1, ... in canonical form), and each kept row
must be what the budget produces (ZERO after n0 <= n_max steps, or MAXITER
after exactly n_max).  The check reads one q group at a time and matches
all its lines at once; only a group that fails it is walked line by line,
to name its first bad row or find where the file was cut.  A trailing
partial group, a cut-off last line or header included, is truncated and
recomputed; anything else is a corrupt checkpoint, reported before the file
changes.  A fresh scan is a resume from an empty file.
"""

from __future__ import annotations

import os
import re
import time
from collections import Counter
from contextlib import closing
from functools import partial
from itertools import compress, islice
from math import ceil
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

from .errors import CorruptCheckpoint, IoError
from .exactnum import _integer
from .gapfast import GapTrace, _kernel, gap_sequence_fast

__all__ = [
    "ScanSummary",
    "scan_conjecture",
    "diagnose_tail",
    "coprime_numerators",
]

_CSV_HEADER = b"p,q,n0,steps,max_c,status,tail_sign_index\n"
_INT = rb"[1-9][0-9]*"
# pool chunks per worker process; more chunks balance better and stream in
# smaller steps, fewer cost less task overhead
_CHUNKS_PER_JOB = 8


class ScanSummary(NamedTuple):
    q_min: int
    q_max: int
    pairs_total: int
    pairs_zero: int
    pairs_maxiter: int
    n0_histogram: dict[int, int]
    max_c: int
    wall_time_s: float


def diagnose_tail(trace: GapTrace) -> int | None:
    """The trace's ``tail_sign_index``: the 1-based first index t with
    e_k >= 0 for every observed k >= t.

    None when the last observed e is negative; 1 when no e is.  A trace with
    no steps is a ``ValueError``.
    """
    es = trace.e
    if not es:
        raise ValueError("trace has no steps to diagnose")
    for i in range(len(es) - 1, -1, -1):
        if es[i] < 0:
            return None if i == len(es) - 1 else i + 2
    return 1


def coprime_numerators(q: int) -> list[int]:
    """Numerators p with 1 <= p <= q and gcd(p, q) = 1."""
    keep = bytearray(b"\x01") * q  # keep[p - 1] for p = 1..q
    m, f = q, 2
    while f * f <= m:
        if m % f == 0:
            keep[f - 1::f] = bytes(q // f)  # strike every multiple of the prime f
            while m % f == 0:
                m //= f
        f += 1
    if m > 1:  # the one prime factor above sqrt(q)
        keep[m - 1::m] = bytes(q // m)
    return list(compress(range(1, q + 1), keep))


def _format_rows(rows: list[tuple]) -> bytes:
    """CSV lines of ``rows``, each ending in a newline."""
    return "".join(
        f"{p},{q},{'' if n0 is None else n0},{steps},{max_c},{status},"
        f"{'' if tail is None else tail}\n"
        for p, q, n0, steps, max_c, status, tail in rows
    ).encode()


def _scan_q(q: int, n_max: int) -> list[tuple]:
    """Rows of one q group: the unit of work of a scan.

    Every row comes from one ``_kernel`` call.  The group's deepest row (most
    steps, smallest p among equals) is recomputed by the residue chain alone
    and must equal the row the kernel gave it.
    """
    kernel = _kernel
    rows = []
    for p in coprime_numerators(q):
        n, n0, max_c, last_neg = kernel(p, q, n_max)
        rows.append((p, q, n0, n, max_c, "MAXITER" if n0 is None else "ZERO",
                     None if last_neg == n else last_neg + 1))
    deepest = max(rows, key=itemgetter(3))
    p = deepest[0]
    # both looked up as module globals: the benchmark tracer wraps them
    trace = gap_sequence_fast(p, q, n_max)
    if deepest != (p, q, trace.n0, trace.steps, max(trace.c),
                   "ZERO" if trace.terminated else "MAXITER", diagnose_tail(trace)):
        raise AssertionError(
            f"scan row of {p}/{q} differs from its trace under n_max={n_max}")
    return rows


def Pool(*args, **kwargs):
    """:class:`multiprocessing.pool.Pool`, imported when the first pool starts
    so that a scan with ``jobs=1`` never loads :mod:`multiprocessing`."""
    from multiprocessing import Pool

    return Pool(*args, **kwargs)


def _fresh_groups(todo: range, n_max: int, jobs: int):
    """Yield the rows of each q in ``todo`` in order, computed lazily."""
    scan_q = partial(_scan_q, n_max=n_max)
    if jobs == 1:
        yield from map(scan_q, todo)
        return
    chunksize = max(1, ceil(len(todo) / (jobs * _CHUNKS_PER_JOB)))
    with Pool(processes=jobs) as pool:
        yield from pool.imap(scan_q, todo, chunksize=chunksize)


def _row_pattern(n_max: int) -> re.Pattern:
    """The checkpoint row rule under budget ``n_max``; each match is one line.

    A row is canonical: positive integers without leading zeros, a ``\\n``
    line end, and n0 and tail possibly empty.  Equal digits are equal
    numbers, so the budget rules are text comparisons: a ZERO row has steps
    equal to n0 (a back-reference), a MAXITER row no n0 and steps n_max (a
    literal); the status is looked ahead past max_c.  The groups are p, q,
    n0 (set on a ZERO row only), ``off`` and max_c, where ``off`` holds the
    steps of any other canonical row: one that is not what ``n_max``
    produces.  n0 <= n_max is left to the caller.
    """
    return re.compile(
        rb"^(%(i)b),(%(i)b),"
        rb"(?:(%(i)b),\3,(?=[0-9]+,Z)|,%(n)d,(?=[0-9]+,M)|(?:%(i)b)?,(%(i)b),)"
        rb"(%(i)b),(?:ZERO|MAXITER),(?:%(i)b)?\n" % {b"i": _INT, b"n": n_max},
        re.MULTILINE,
    )


def _check_lines(lines: list[bytes], ps: list[int], q: int, n_max: int, row: re.Pattern) -> None:
    """Walk a group that failed the group check: raise ``CorruptCheckpoint``
    naming its first bad row, or return at the cut of a partial group."""
    for p, line in zip(ps, lines):
        if not line.endswith(b"\n"):  # a cut-off last line
            return
        m = row.fullmatch(line)
        if m is None or (int(m[1]), int(m[2])) != (p, q):
            raise CorruptCheckpoint(f"expected the row of {p}/{q}, got {line[:80]!r}")
        if m[4] or m[3] and int(m[3]) > n_max:
            raise CorruptCheckpoint(f"the row of {p}/{q} is not what n_max={n_max} produces")


def _reusable_groups(fh, q_min: int, q_max: int, n_max: int):
    """Yield ``(pairs, n0 counts, max_c)`` of each whole q group the scan
    file already holds.

    Checks the file against the prefix rule of the module docstring and
    raises ``CorruptCheckpoint`` before changing it; then truncates a trailing
    partial group, leaving ``fh`` where the next group is appended.  Each
    group is read in one call and checked with one ``findall``: every line
    must match the row rule of ``n_max``, its p column must be the coprime
    numerators of q, its q column q alone.  A group that fails is walked
    line by line, which names the first bad row or finds the cut.
    """
    header = fh.readline()
    if header != _CSV_HEADER:
        if not _CSV_HEADER.startswith(header):
            raise CorruptCheckpoint(f"unexpected header {header[:80]!r}")
        # empty, or a header cut off before its newline: the scan starts afresh
        fh.seek(0)
        fh.truncate()
        return
    row = _row_pattern(n_max)
    end = fh.tell()
    for q in range(q_min, q_max + 1):
        ps = coprime_numerators(q)
        lines = list(islice(fh, len(ps)))
        rows = row.findall(b"".join(lines))
        if len(rows) == len(ps):
            p_col, q_col, n0s, off, max_cs = zip(*rows)
            counts = Counter(n0s)
            del counts[b""]
            tally = {int(n0): k for n0, k in counts.items()}
            if (list(map(int, p_col)) == ps and q_col.count(b"%d" % q) == len(ps)
                    and off.count(b"") == len(ps) and max(tally, default=0) <= n_max):
                end = fh.tell()
                yield len(ps), tally, max(map(int, max_cs))
                continue
        _check_lines(lines, ps, q, n_max, row)
        break  # a partial group: the file ends in it
    if fh.readline().endswith(b"\n"):  # never after a break: that hit the end
        raise CorruptCheckpoint(f"rows past q={q_max}")
    fh.seek(end)
    fh.truncate()


def _write(fh, text: bytes, path: Path) -> None:
    """Append ``text`` to the scan output and flush it, so a killed run keeps it."""
    try:
        fh.write(text)
        fh.flush()
    except OSError as exc:
        raise IoError(f"cannot write scan output {path}: {exc}") from exc


def scan_conjecture(
    q_min: int,
    q_max: int,
    n_max: int,
    out_path,
    jobs: int = 1,
    resume: bool = False,
    progress=None,
) -> ScanSummary:
    """Scan all reduced p/q with q_min <= q <= q_max; write CSV, return summary.

    ``n_max`` is the iteration budget per pair and must be at least 1.
    ``q_min``, ``q_max``, ``n_max`` and ``jobs`` must be integers; a
    TypeError names the one that is not.
    ``jobs`` worker processes share the work; more than ``os.cpu_count()`` is
    rejected.  Every argument is checked before the output is touched or a
    worker starts.  The output is opened once: with ``resume`` an existing
    file is kept, and it must be a prefix of this scan's output whose rows
    are what ``n_max`` produces (see the module docstring); otherwise it is
    truncated.  Each missing q group is then computed, appended and flushed
    in q order, so an interrupted scan leaves whole groups that ``resume``
    reuses.  ``progress`` may be a callable taking ``(q, rows)``;
    it is called after each freshly computed group has been written, with
    ``rows`` a list of ``(p, q, n0, steps, max_c, status, tail_sign_index)``
    tuples in CSV column order.
    """
    q_min = _integer("q_min", q_min, 1)
    q_max, n_max = _integer("q_max", q_max, q_min), _integer("n_max", n_max, 1)
    jobs = _integer("jobs", jobs, 1, os.cpu_count() or 1)
    out_path = Path(out_path)
    started = time.perf_counter()

    try:
        fh = open(out_path, "r+b" if resume and out_path.exists() else "w+b")
    except OSError as exc:
        raise IoError(f"cannot write scan output {out_path}: {exc}") from exc
    pairs_total = overall_max_c = 0
    histogram: Counter[int] = Counter()

    def tally(pairs: int, counts: dict[int, int], max_c: int) -> None:
        nonlocal pairs_total, overall_max_c
        pairs_total += pairs
        histogram.update(counts)
        overall_max_c = max(overall_max_c, max_c)

    with fh:
        reused = 0
        try:
            for reused, group in enumerate(_reusable_groups(fh, q_min, q_max, n_max), 1):
                tally(*group)
        except OSError as exc:
            raise IoError(f"cannot read checkpoint {out_path}: {exc}") from exc
        if fh.tell() == 0:
            _write(fh, _CSV_HEADER, out_path)
        todo = range(q_min + reused, q_max + 1)
        with closing(_fresh_groups(todo, n_max, jobs)) as fresh:
            for q, rows in zip(todo, fresh):
                _write(fh, _format_rows(rows), out_path)
                tally(len(rows), Counter(r[2] for r in rows if r[2] is not None),
                      max(r[4] for r in rows))
                if progress is not None:
                    progress(q, rows)

    pairs_zero = sum(histogram.values())
    return ScanSummary(
        q_min=q_min,
        q_max=q_max,
        pairs_total=pairs_total,
        pairs_zero=pairs_zero,
        pairs_maxiter=pairs_total - pairs_zero,
        n0_histogram=dict(sorted(histogram.items())),
        max_c=overall_max_c,
        wall_time_s=time.perf_counter() - started,
    )
