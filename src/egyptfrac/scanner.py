"""Exhaustive gap-sequence scan over reduced rationals p/q.

For every reduced pair with 1 <= p <= q in a q-range, runs the fast gap
computation and records whether the gap sequence reached 0 (status ZERO)
within the iteration budget, or not (status MAXITER).  MAXITER rows are the
interesting output -- potential counterexample leads -- and are surfaced
loudly by the CLI, but they are not errors.

A row is a plain tuple in CSV column order,
``(p, q, n0, steps, max_c, status, tail_sign_index)``, from the worker that
computes it through the pool transfer and the progress callback to the
checkpoint parser; no object is built per pair.  The unit of work is one q
group: a worker returns only its rows, and the parent formats every group,
fresh or read back from the checkpoint, as CSV in one place.  With several
workers, ``Pool.imap`` hands out runs of consecutive q values.

Output is a CSV ordered by (q, p), byte-identical regardless of the number
of worker processes.  Each q group is written and flushed as soon as it and
every group before it are done, so an interrupted scan leaves the header and
whole groups.  The checkpoint granularity for --resume is one full q value:
only newline-terminated lines are read as rows, a q whose row count matches
its coprime count is trusted and reused, a trailing partial q (including a
cut-off last line) is recomputed, and anything else in the file that does
not parse back cleanly is reported as a corrupt checkpoint.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from contextlib import closing
from dataclasses import dataclass
from functools import partial
from math import ceil, gcd
from multiprocessing import Pool
from pathlib import Path

from .errors import CorruptCheckpoint, IoError
from .gapfast import GapTrace, gap_sequence_fast

__all__ = [
    "ScanSummary",
    "TailDiagnosis",
    "scan_conjecture",
    "diagnose_tail",
    "coprime_numerators",
]

_CSV_HEADER = "p,q,n0,steps,max_c,status,tail_sign_index"
# pool chunks per worker process; more chunks balance better and stream in
# smaller steps, fewer cost less task overhead
_SPANS_PER_JOB = 8


@dataclass(frozen=True)
class ScanSummary:
    q_min: int
    q_max: int
    pairs_total: int
    pairs_zero: int
    pairs_maxiter: int
    n0_histogram: dict[int, int]
    max_c: int
    wall_time_s: float


@dataclass(frozen=True)
class TailDiagnosis:
    """Finite-prefix tail-sign diagnostic for one trace.

    ``tail_start`` is the smallest index t with e_k >= 0 for every observed
    k >= t (None when the last observed e is negative).  From t on, the
    recurrence c_{k+1} = c_k - e_k forces c to be non-increasing, and for a
    terminated trace constant from n0 + 1 onward; both facts are rechecked
    directly against the arrays rather than trusted.
    """

    tail_start: int | None
    c_nonincreasing: bool | None
    c_constant_after_zero: bool | None


def _tail_start(es: list[int]) -> int | None:
    """1-based first index of the all-nonnegative suffix of ``es``.

    None when the last entry is negative; 1 when no entry is.
    """
    for i in range(len(es) - 1, -1, -1):
        if es[i] < 0:
            return None if i == len(es) - 1 else i + 2
    return 1


def diagnose_tail(trace: GapTrace) -> TailDiagnosis:
    es, cs = trace.e, trace.c
    if not es:
        raise ValueError("trace has no steps to diagnose")
    t = _tail_start(es)
    if t is None:
        return TailDiagnosis(None, None, None)
    tail_c = cs[t - 1 :]
    noninc = all(x >= y for x, y in zip(tail_c, tail_c[1:]))
    constant = None
    if trace.terminated:
        after = cs[trace.n0 :]
        constant = all(x == after[0] for x in after)
    return TailDiagnosis(t, noninc, constant)


def coprime_numerators(q: int) -> list[int]:
    """Numerators p with 1 <= p <= q and gcd(p, q) = 1."""
    return [p for p in range(1, q + 1) if gcd(p, q) == 1]


def _format_rows(rows: list[tuple]) -> str:
    """CSV lines of ``rows``, each ending in a newline."""
    return "".join(
        f"{p},{q},{'' if n0 is None else n0},{steps},{max_c},{status},"
        f"{'' if tail is None else tail}\n"
        for p, q, n0, steps, max_c, status, tail in rows
    )


def _scan_q(q: int, n_max: int) -> list[tuple]:
    """Rows of one q group: the unit of work of a scan."""
    rows = []
    for p in coprime_numerators(q):
        # looked up as a module global on every call: the benchmark tracer wraps it
        trace = gap_sequence_fast(p, q, n_max)
        rows.append((
            p, q, trace.n0, trace.steps, max(trace.c),
            "ZERO" if trace.terminated else "MAXITER", _tail_start(trace.e),
        ))
    return rows


def _fresh_groups(todo: list[int], n_max: int, jobs: int):
    """Yield the rows of each q in ``todo`` in order, computed lazily."""
    scan_q = partial(_scan_q, n_max=n_max)
    if jobs == 1:
        yield from map(scan_q, todo)
        return
    chunksize = max(1, ceil(len(todo) / (jobs * _SPANS_PER_JOB)))
    with Pool(processes=jobs) as pool:
        yield from pool.imap(scan_q, todo, chunksize=chunksize)


def _parse_row(line: str, lineno: int) -> tuple:
    parts = line.split(",")
    if len(parts) != 7:
        raise CorruptCheckpoint(f"line {lineno}: expected 7 fields, got {len(parts)}")
    try:
        p, q = int(parts[0]), int(parts[1])
        n0 = int(parts[2]) if parts[2] else None
        steps, max_c = int(parts[3]), int(parts[4])
        status = parts[5]
        tail = int(parts[6]) if parts[6] else None
    except ValueError as exc:
        raise CorruptCheckpoint(f"line {lineno}: {exc}") from None
    if status not in ("ZERO", "MAXITER") or (status == "ZERO") != (n0 is not None):
        raise CorruptCheckpoint(f"line {lineno}: inconsistent status {status!r}")
    return p, q, n0, steps, max_c, status, tail


def _load_checkpoint(path: Path, q_min: int, q_max: int) -> dict[int, list[tuple]]:
    """Parse completed q-groups out of an existing scan file.

    Only newline-terminated lines are rows: a cut-off last line is dropped,
    so its q counts as a trailing partial group and is recomputed.
    """
    try:
        lines = path.read_text().split("\n")
    except OSError as exc:
        raise IoError(f"cannot read checkpoint {path}: {exc}") from exc
    if lines == [""]:  # empty file
        return {}
    if lines[0] != _CSV_HEADER:
        raise CorruptCheckpoint(f"unexpected header {lines[0]!r}")
    groups: dict[int, list[tuple]] = {}
    order: list[int] = []
    # the last piece follows the final newline: empty, or a cut-off row
    for lineno, line in enumerate(lines[1:-1], start=2):
        if not line:
            continue
        row = _parse_row(line, lineno)
        q = row[1]
        if not q_min <= q <= q_max:
            raise CorruptCheckpoint(f"line {lineno}: q={q} outside scanned range")
        if q not in groups:
            if order and q <= order[-1]:
                raise CorruptCheckpoint(f"line {lineno}: q values out of order")
            order.append(q)
            groups[q] = []
        groups[q].append(row)
    complete: dict[int, list[tuple]] = {}
    for idx, q in enumerate(order):
        rows = groups[q]
        if [r[0] for r in rows] == coprime_numerators(q):
            complete[q] = rows
        elif idx == len(order) - 1:
            pass  # trailing partial q: recompute it
        else:
            raise CorruptCheckpoint(f"q={q} is incomplete mid-file")
    return complete


def _write(fh, text: str, path: Path) -> None:
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
    ``jobs`` worker processes share the work; more than ``os.cpu_count()`` is
    rejected.  Every argument is checked before the output is touched or a
    worker starts.  The output is opened once the checkpoint (with
    ``resume``) has been read; the header goes first, then each q group,
    reused or freshly computed, is formatted, written and flushed in q order
    as soon as it is ready, so an interrupted scan leaves whole groups that
    ``resume`` reuses.  ``progress`` may be a callable taking ``(q, rows)``;
    it is called after each freshly computed group has been written, with
    ``rows`` a list of ``(p, q, n0, steps, max_c, status, tail_sign_index)``
    tuples in CSV column order.
    """
    if q_min < 1 or q_max < q_min:
        raise ValueError(f"need 1 <= q_min <= q_max, got {q_min}..{q_max}")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    cores = os.cpu_count() or 1
    if not 1 <= jobs <= cores:
        raise ValueError(f"jobs must be in [1, {cores}] (the CPU count), got {jobs}")
    out_path = Path(out_path)
    started = time.perf_counter()

    cached: dict[int, list[tuple]] = {}
    if resume and out_path.exists():
        cached = _load_checkpoint(out_path, q_min, q_max)
    todo = [q for q in range(q_min, q_max + 1) if q not in cached]

    try:
        fh = open(out_path, "w", newline="")
    except OSError as exc:
        raise IoError(f"cannot write scan output {out_path}: {exc}") from exc
    pairs_total = overall_max_c = 0
    histogram: Counter[int] = Counter()
    with fh, closing(_fresh_groups(todo, n_max, jobs)) as fresh:
        _write(fh, _CSV_HEADER + "\n", out_path)
        for q in range(q_min, q_max + 1):
            rows = cached.get(q)
            computed = rows is None
            if computed:
                rows = next(fresh)
            _write(fh, _format_rows(rows), out_path)
            pairs_total += len(rows)
            overall_max_c = max(overall_max_c, max(r[4] for r in rows))
            histogram.update(r[2] for r in rows if r[2] is not None)
            if computed and progress is not None:
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
