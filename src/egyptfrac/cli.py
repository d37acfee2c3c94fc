"""Command-line surface for the package.

Subcommands: expand, gaps, scan, recover, seq, walk.  The default output is
a human table; ``--format json`` emits JSON-lines and ``--format csv``
comma-separated rows, both schema-stable (see the README format reference).
``_emit`` makes every ``--format`` choice: each command hands it row dicts,
and ``expand``, ``recover``, ``seq growth`` and ``gaps --method both`` a
human view for the table.  The one exception is ``gaps --method fast``,
whose json is a single trace object and whose table adds a status line on
stderr.  ``scan`` and ``walk`` print one JSON summary and have no
``--format``.
Exit codes: 0 success, 1 domain error (message names the error), 2 usage
error.

Each command imports the modules it runs when it is dispatched; building the
parser and ``--version`` load only this module and :mod:`egyptfrac.errors`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .errors import EgyptError, IoError


class _Lazy:
    """A function of another egyptfrac module, imported on its first call, so
    that each command loads only the modules it runs.

    It is a module attribute, so a caller can replace it here (the benchmark's
    tracer wraps it).  ``__wrapped__`` is the real function, which
    ``inspect.signature`` follows, and ``__name__`` its name, which argparse
    prints when a ``type=`` conversion fails.
    """

    def __init__(self, module: str, name: str):
        self._module = module
        self.__name__ = name
        self._fn = None

    @property
    def __wrapped__(self):
        if self._fn is None:
            module = f"{__package__}.{self._module}"
            __import__(module)
            self._fn = getattr(sys.modules[module], self.__name__)
        return self._fn

    def __call__(self, *args, **kwargs):
        return self.__wrapped__(*args, **kwargs)


scan_conjecture = _Lazy("scanner", "scan_conjecture")
gap_sequence_fast = _Lazy("gapfast", "gap_sequence_fast")
gap_sequence_naive = _Lazy("expansion", "gap_sequence_naive")
expand = _Lazy("expansion", "expand")
recover_sequence = _Lazy("recovery", "recover_sequence")
run_walks = _Lazy("randwalk", "run_walks")  # raises MissingDependency without numpy
format_value = _Lazy("exactnum", "format_value")
int_to_decimal_str = _Lazy("exactnum", "int_to_decimal_str")
parse_value = _Lazy("exactnum", "parse_value")

# ExpansionKind member names: the enum loads with expansion, on dispatch
_KINDS = {"greedy": "GREEDY", "odd": "ODD_GREEDY", "pseudo": "PSEUDO_GREEDY"}

_BLAS_THREADS_ENV = "OPENBLAS_NUM_THREADS"


def _table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    lines = [fmt.format(*headers), "  ".join("-" * w for w in widths)]
    lines.extend(fmt.format(*row) for row in rows)
    return "\n".join(lines)


def _opt(value, render=str) -> str:
    return "" if value is None else render(value)


def _csv_cell(value) -> str:
    # a list (gaps --method both's mismatch_indices) is one space-separated field
    return " ".join(map(str, value)) if isinstance(value, list) else _opt(value)


def _emit(fmt: str, columns: list[str], rows, table=None) -> None:
    """Write row dicts in the chosen ``--format``: each as a JSON line, or
    its ``columns`` cells as CSV or a table.  Every command makes its
    ``--format`` choice here, apart from ``gaps --method fast``'s json trace
    object and table-mode stderr status line.  ``table()`` returns the text
    of a human view in place of the plain table; it runs only for
    ``--format table``, and then ``rows`` is never iterated, so a lazy
    ``rows`` builds no dict that the table does not show."""
    if fmt == "json":
        for row in rows:
            print(json.dumps(row))
    elif fmt == "csv":
        print(",".join(columns))
        for row in rows:
            print(",".join(_csv_cell(row[k]) for k in columns))
    elif table is not None:
        print(table())
    else:
        print(_table(columns, [[_opt(row[k]) for k in columns] for row in rows]))


def _pretty(value) -> str:
    # a rational in a table shows 4 rather than 4/1; machine formats keep
    # canonical num/den, and a quadratic value shows as format_value writes it
    den = getattr(value, "denominator", None)
    if den is None:
        return format_value(value)
    num = int_to_decimal_str(value.numerator)
    return num if den == 1 else f"{num}/{int_to_decimal_str(den)}"


# ---------------------------------------------------------------- expand --


def _cmd_expand(args) -> int:
    from fractions import Fraction

    from .expansion import DEFAULT_DIGIT_CAP, ExpansionKind, ExpansionStatus, _decimal_rows

    result = expand(
        args.r,
        ExpansionKind[_KINDS[args.kind]],
        args.terms,
        digit_cap=DEFAULT_DIGIT_CAP if args.digit_cap is None else args.digit_cap,
        stop_at_first_zero=args.stop_at_zero,
    )
    records = result.records
    # (a, u, v, d) per record, x = u/v; a quadratic x comes whole as u
    if isinstance(records[0].x, Fraction):
        texts = _decimal_rows(records)
    else:
        texts = ((int_to_decimal_str(rec.a), format_value(rec.x), None, None) for rec in records)

    def table():
        return _table(["n", "a", "x", "eps", "c", "e", "d"], [
            [str(rec.n), a, u if v in (None, "1") else f"{u}/{v}", _opt(rec.eps, _pretty),
             _opt(rec.c, int_to_decimal_str), _opt(rec.e, int_to_decimal_str), _opt(d)]
            for rec, (a, u, v, d) in zip(records, texts)
        ])

    rows = (
        {
            "n": rec.n,
            "a": a,
            "x": u if v is None else f"{u}/{v}",
            "c": None if rec.c is None else int_to_decimal_str(rec.c),
            "d": d,
            "e": None if rec.e is None else int_to_decimal_str(rec.e),
            "eps": None if rec.eps is None else format_value(rec.eps),
        }
        for rec, (a, u, v, d) in zip(records, texts)
    )
    _emit(args.format, ["n", "a", "x", "c", "d", "e", "eps"], rows, table)
    if result.status is ExpansionStatus.MAX_TERMS:
        print(
            f"NONTERMINATED: no exact end within {args.terms} terms",
            file=sys.stderr,
        )
    elif result.status is ExpansionStatus.ZERO_GAP:
        print(
            f"zero gap from n = {result.zero_gap_at}; all later gaps are 0",
            file=sys.stderr,
        )
    return 0


# ------------------------------------------------------------------ gaps --


def _parse_pq(text: str) -> tuple[int, int]:
    # the rational forms of parse_value, but raw p/q, deliberately NOT
    # normalised: the trace contract rejects unreduced input rather than
    # silently fixing it
    from .exactnum import _rational_parts

    parts = _rational_parts(text)
    if parts is None:
        raise ValueError(f"expected p/q, got {text!r}")
    return parts


def _trace_json(trace) -> str:
    return json.dumps(
        {
            "p": trace.p,
            "q": trace.q,
            "c": [int_to_decimal_str(c) for c in trace.c],
            "e": [int_to_decimal_str(e) for e in trace.e],
            "n0": trace.n0,
            "steps": trace.steps,
            "terminated": trace.terminated,
        }
    )


def _cmd_gaps(args) -> int:
    from fractions import Fraction

    p, q = args.r
    # one (c_n, e_n) list per method; a fast trace's c also holds c_{N+1},
    # which zip drops
    steps = {}
    if args.method != "naive":
        fast = gap_sequence_fast(p, q, args.terms)
        steps["fast"] = list(zip(fast.c, fast.e))
    if args.method != "fast":
        steps["naive"] = [(s.c, s.e) for s in gap_sequence_naive(p, q, args.terms)]

    if args.method == "both":
        # zip stops at the shorter list: the naive route may stop early, at
        # its digit limit
        pairs = list(zip(steps["fast"], steps["naive"]))
        mismatches = [n for n, (f, s) in enumerate(pairs, start=1) if f != s]
        report = {
            "p": p,
            "q": q,
            "compared_terms": len(pairs),
            "mismatch_indices": mismatches,
            "agree": not mismatches,
        }
        verdict = "agree" if not mismatches else f"MISMATCH at {mismatches}"
        _emit(args.format, list(report), [report], lambda: f"compared {len(pairs)} terms: {verdict}")
        return 1 if mismatches else 0

    if args.method == "fast" and args.format == "json":
        print(_trace_json(fast))
        return 0
    rows = [
        {"n": n, "c": int_to_decimal_str(c), "e": int_to_decimal_str(e),
         "eps": format_value(Fraction(e, c))}
        for n, (c, e) in enumerate(steps[args.method], start=1)
    ]
    _emit(args.format, ["n", "c", "e", "eps"], rows)
    if args.method == "fast" and args.format == "table":
        print(
            f"terminated={fast.terminated} n0={_opt(fast.n0)} steps={fast.steps}",
            file=sys.stderr,
        )
    return 0


# ------------------------------------------------------------------ scan --


def _cmd_scan(args) -> int:
    def progress(q, rows):
        for p, _, _, _, _, status, _ in rows:
            if status == "MAXITER":
                print(
                    f"MAXITER: {p}/{q} produced no zero gap within {args.maxiter} steps",
                    file=sys.stderr,
                )
        if args.verbose:
            print(f"q={q}: {len(rows)} pairs", file=sys.stderr)

    summary = scan_conjecture(
        args.qmin,
        args.qmax,
        args.maxiter,
        args.out,
        jobs=args.jobs,
        resume=args.resume,
        progress=progress,
    )
    payload = summary._asdict()
    payload["wall_time_s"] = round(summary.wall_time_s, 3)
    print(json.dumps(payload))
    return 0


# --------------------------------------------------------------- recover --


def _cmd_recover(args) -> int:
    from .exactnum import ceil_value, to_decimal
    from .recovery import threshold

    records = recover_sequence(args.sum, args.beta, args.terms)
    # a term meets the threshold 8(beta + 1/3)^2 iff it meets its ceiling
    least = ceil_value(threshold(args.beta))

    def table():
        return _table(["n", "a", "delta~", "threshold_met"], [
            [str(rec.n), int_to_decimal_str(rec.a), to_decimal(rec.eps, 10),
             str(rec.a >= least)]
            for rec in records
        ])

    rows = (
        {
            "n": rec.n,
            "a": int_to_decimal_str(rec.a),
            "x": format_value(rec.x),
            "delta": format_value(rec.eps),
            "threshold_met": rec.a >= least,
        }
        for rec in records
    )
    _emit(args.format, ["n", "a", "x", "delta", "threshold_met"], rows, table)
    return 0


# ------------------------------------------------------------------- seq --


def _cmd_seq(args) -> int:
    from . import sequences

    if args.seq_kind == "growth":
        est = sequences.growth_constant(args.m, args.depth)._asdict()
        _emit(args.format, list(est), [est], lambda: (
            f"c_hat(m={est['m']}, depth={est['depth']}) = {est['c_hat']}"
            f"  (|error| <= {est['residual_bound']})"
        ))
        return 0
    if args.seq_kind == "sylvester":
        values = sequences.sylvester_terms(args.m, args.terms)
    else:
        values = sequences.fib_pow2_terms(args.terms)
    rows = [{"n": n, "value": int_to_decimal_str(v)} for n, v in enumerate(values, start=1)]
    _emit(args.format, ["n", "value"], rows)
    return 0


# ------------------------------------------------------------------ walk --


def _cmd_walk(args) -> int:
    # walk calls no BLAS routine, but OpenBLAS starts a spinning worker per
    # extra core when numpy loads; ask for none, for this first import only,
    # unless the user chose a number.  numpy loads through randwalk, as in
    # run_walks: loading numpy alone first left the walk a larger peak RSS.
    if "numpy" not in sys.modules and _BLAS_THREADS_ENV not in os.environ:
        os.environ[_BLAS_THREADS_ENV] = "1"
        try:
            from . import randwalk  # noqa: F401  (MissingDependency without numpy)
        finally:
            del os.environ[_BLAS_THREADS_ENV]

    stats, hit_steps = run_walks(args.c0, args.steps, args.trials, args.seed)
    if args.hits_out:
        try:
            with open(args.hits_out, "w", newline="") as fh:
                fh.write("trial,hit_step\n")
                for i, h in enumerate(hit_steps):
                    fh.write(f"{i},{h if h >= 0 else ''}\n")
        except OSError as exc:
            raise IoError(f"cannot write hitting times to {args.hits_out}: {exc}") from exc
    print(json.dumps(stats._asdict()))
    return 0


# ---------------------------------------------------------------- parser --


def _add_format(sub, default="table"):
    sub.add_argument(
        "--format",
        choices=("table", "json", "csv"),
        default=default,
        help="output format (default: %(default)s)",
    )


class _ExpandHelp(argparse.HelpFormatter):
    """Writes ``expansion.DEFAULT_DIGIT_CAP`` into ``expand --help`` when the
    help is shown, so that building the parser does not import expansion."""

    def _get_help_string(self, action):
        from .expansion import DEFAULT_DIGIT_CAP

        return action.help.replace("DEFAULT_DIGIT_CAP", str(DEFAULT_DIGIT_CAP))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="egyptfrac",
        description="Exact Egyptian-fraction expansions, gap sequences, and reciprocal-sum recovery.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_expand = sub.add_parser("expand", help="unit-fraction expansion of an exact value",
                              formatter_class=_ExpandHelp)
    p_expand.add_argument("--r", type=parse_value, required=True, metavar="VALUE",
                          help="exact value, e.g. 11/29 or '(5-1 sqrt 5)/2'")
    p_expand.add_argument("--kind", choices=sorted(_KINDS), required=True)
    p_expand.add_argument("--terms", type=int, required=True, metavar="N")
    p_expand.add_argument("--digit-cap", type=int, default=None, metavar="K",
                          help="omit d beyond K decimal digits (default DEFAULT_DIGIT_CAP)")
    p_expand.add_argument("--stop-at-zero", action="store_true",
                          help="truncate a rational pseudo-greedy stream at the first zero gap")
    _add_format(p_expand)
    p_expand.set_defaults(fn=_cmd_expand)

    p_gaps = sub.add_parser("gaps", help="gap sequence of a rational, fast and/or naive")
    p_gaps.add_argument("--r", type=_parse_pq, required=True, metavar="P/Q",
                        help="reduced rational p/q (unreduced input is rejected)")
    p_gaps.add_argument("--terms", type=int, required=True, metavar="N")
    p_gaps.add_argument("--method", choices=("fast", "naive", "both"), required=True)
    _add_format(p_gaps)
    p_gaps.set_defaults(fn=_cmd_gaps)

    p_scan = sub.add_parser("scan", help="scan all reduced p/q over a q range")
    p_scan.add_argument("--qmin", type=int, required=True)
    p_scan.add_argument("--qmax", type=int, required=True)
    p_scan.add_argument("--maxiter", type=int, required=True,
                        help="per-pair iteration budget before MAXITER status")
    p_scan.add_argument("--out", required=True, metavar="PATH")
    p_scan.add_argument("--resume", action="store_true",
                        help="reuse complete q values from an existing output file")
    p_scan.add_argument("--jobs", type=int, default=1, metavar="K")
    p_scan.add_argument("--verbose", action="store_true")
    p_scan.set_defaults(fn=_cmd_scan)

    p_recover = sub.add_parser("recover", help="recover a sequence from its reciprocal sum")
    p_recover.add_argument("--sum", type=parse_value, required=True, metavar="VALUE")
    p_recover.add_argument("--beta", type=parse_value, required=True, metavar="VALUE")
    p_recover.add_argument("--terms", type=int, required=True, metavar="N")
    _add_format(p_recover)
    p_recover.set_defaults(fn=_cmd_recover)

    p_seq = sub.add_parser("seq", help="reference sequences and growth constant")
    seq_sub = p_seq.add_subparsers(dest="seq_kind", required=True)
    s_syl = seq_sub.add_parser("sylvester")
    s_syl.add_argument("--m", type=int, required=True)
    s_syl.add_argument("--terms", type=int, required=True)
    _add_format(s_syl)
    s_fib = seq_sub.add_parser("fib2")
    s_fib.add_argument("--terms", type=int, required=True)
    _add_format(s_fib)
    s_gro = seq_sub.add_parser("growth")
    s_gro.add_argument("--m", type=int, required=True)
    s_gro.add_argument("--depth", type=int, required=True)
    _add_format(s_gro)
    p_seq.set_defaults(fn=_cmd_seq)

    p_walk = sub.add_parser("walk", help="multiplicative random-walk simulation")
    p_walk.add_argument("--c0", type=float, required=True)
    p_walk.add_argument("--steps", type=int, required=True)
    p_walk.add_argument("--trials", type=int, required=True)
    p_walk.add_argument("--seed", type=int, required=True)
    p_walk.add_argument("--hits-out", metavar="PATH", default=None,
                        help="write per-trial hitting times as CSV")
    p_walk.set_defaults(fn=_cmd_walk)

    return parser


def main(argv=None) -> int:
    # huge --r input and integer JSON fields need int()/str() past the
    # interpreter-wide digit limit; lift it for this call only
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (EgyptError, ZeroDivisionError, ValueError, OverflowError) as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
