"""Exhaustive gap-sequence scan over reduced rationals p/q.

For every reduced pair with 1 <= p <= q in a q-range, runs the fast gap
computation and records whether the gap sequence reached 0 (status ZERO)
within the iteration budget, or not (status MAXITER).  MAXITER rows are the
interesting output -- potential counterexample leads -- and are surfaced
loudly by the CLI, but they are not errors.

Output is a CSV ordered by (q, p), byte-identical regardless of the number
of worker processes.  The checkpoint granularity for --resume is one full q
value: a q whose row count matches its coprime count is trusted and reused,
a trailing partial q is recomputed, and anything else in the file that does
not parse back cleanly is reported as a corrupt checkpoint.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from math import gcd
from multiprocessing import Pool
from pathlib import Path

from .errors import CorruptCheckpoint, IoError
from .gapfast import GapTrace, gap_sequence_fast

__all__ = [
    "ScanRecord",
    "ScanSummary",
    "TailDiagnosis",
    "scan_conjecture",
    "diagnose_tail",
    "coprime_numerators",
]

_CSV_HEADER = "p,q,n0,steps,max_c,status,tail_sign_index"


@dataclass(frozen=True)
class ScanRecord:
    p: int
    q: int
    n0: int | None
    steps: int
    max_c: int
    status: str  # ZERO | MAXITER
    tail_sign_index: int | None


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


def _scan_record(p: int, q: int, n_max: int) -> ScanRecord:
    trace = gap_sequence_fast(p, q, n_max)
    return ScanRecord(
        p=p,
        q=q,
        n0=trace.n0,
        steps=trace.steps,
        max_c=max(trace.c),
        status="ZERO" if trace.terminated else "MAXITER",
        tail_sign_index=_tail_start(trace.e),
    )


def _scan_q(args: tuple[int, int]) -> tuple[int, list[ScanRecord]]:
    q, n_max = args
    return q, [_scan_record(p, q, n_max) for p in coprime_numerators(q)]


def _format_row(r: ScanRecord) -> str:
    n0 = "" if r.n0 is None else str(r.n0)
    tail = "" if r.tail_sign_index is None else str(r.tail_sign_index)
    return f"{r.p},{r.q},{n0},{r.steps},{r.max_c},{r.status},{tail}"


def _parse_row(line: str, lineno: int) -> ScanRecord:
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
    return ScanRecord(p, q, n0, steps, max_c, status, tail)


def _load_checkpoint(path: Path, q_min: int, q_max: int) -> dict[int, list[ScanRecord]]:
    """Parse completed q-groups out of an existing scan file."""
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise IoError(f"cannot read checkpoint {path}: {exc}") from exc
    if not lines:
        return {}
    if lines[0] != _CSV_HEADER:
        raise CorruptCheckpoint(f"unexpected header {lines[0]!r}")
    groups: dict[int, list[ScanRecord]] = {}
    order: list[int] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        rec = _parse_row(line, lineno)
        if not q_min <= rec.q <= q_max:
            raise CorruptCheckpoint(f"line {lineno}: q={rec.q} outside scanned range")
        if rec.q not in groups:
            if order and rec.q <= order[-1]:
                raise CorruptCheckpoint(f"line {lineno}: q values out of order")
            order.append(rec.q)
            groups[rec.q] = []
        groups[rec.q].append(rec)
    complete: dict[int, list[ScanRecord]] = {}
    for idx, q in enumerate(order):
        rows = groups[q]
        if [r.p for r in rows] == coprime_numerators(q):
            complete[q] = rows
        elif idx == len(order) - 1:
            pass  # trailing partial q: recompute it
        else:
            raise CorruptCheckpoint(f"q={q} is incomplete mid-file")
    return complete


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

    ``jobs`` worker processes share the work; more than ``os.cpu_count()`` is
    rejected.  ``progress`` may be a callable taking (q, records) for per-q
    reporting.
    """
    if q_min < 1 or q_max < q_min:
        raise ValueError(f"need 1 <= q_min <= q_max, got {q_min}..{q_max}")
    cores = os.cpu_count() or 1
    if not 1 <= jobs <= cores:
        raise ValueError(f"jobs must be in [1, {cores}] (the CPU count), got {jobs}")
    out_path = Path(out_path)
    started = time.perf_counter()

    cached: dict[int, list[ScanRecord]] = {}
    if resume and out_path.exists():
        cached = _load_checkpoint(out_path, q_min, q_max)

    todo = [q for q in range(q_min, q_max + 1) if q not in cached]
    fresh: dict[int, list[ScanRecord]] = {}
    if todo:
        work = [(q, n_max) for q in todo]
        if jobs == 1:
            for q, rows in map(_scan_q, work):
                fresh[q] = rows
                if progress is not None:
                    progress(q, rows)
        else:
            with Pool(processes=jobs) as pool:
                chunk = max(1, len(work) // (jobs * 8))
                for q, rows in pool.imap(_scan_q, work, chunksize=chunk):
                    fresh[q] = rows
                    if progress is not None:
                        progress(q, rows)

    pairs_total = pairs_zero = 0
    histogram: dict[int, int] = {}
    overall_max_c = 0
    try:
        with open(out_path, "w", newline="") as fh:
            fh.write(_CSV_HEADER + "\n")
            for q in range(q_min, q_max + 1):
                for rec in cached.get(q) or fresh[q]:
                    fh.write(_format_row(rec) + "\n")
                    pairs_total += 1
                    overall_max_c = max(overall_max_c, rec.max_c)
                    if rec.n0 is not None:
                        pairs_zero += 1
                        histogram[rec.n0] = histogram.get(rec.n0, 0) + 1
    except OSError as exc:
        raise IoError(f"cannot write scan output {out_path}: {exc}") from exc

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
