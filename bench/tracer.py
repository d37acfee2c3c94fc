"""Run one egyptfrac CLI command with a span recorded around each layer.

    python3 bench/tracer.py SUMMARY_JSON CLI_ARGS...

The package is not changed: the public functions of each module are wrapped
by replacing the attribute where the calling module looks them up (for
example ``egyptfrac.scanner.gap_sequence_fast`` and ``egyptfrac.cli.expand``).
Spans are kept in memory and, when the command ends, summarised per name
(calls, total time, self time) into SUMMARY_JSON together with the counters.
Self time is a span's duration minus its child spans and minus the time the
tracer itself spent between them.  The exit code is the command's.

Pool workers are forked with the wrappers in place, but their spans die with
them: for ``scan --jobs K`` with K > 1 only the parent's spans are recorded.
"""

import builtins
import sys
import time

perf_counter = time.perf_counter


def _import_cli():
    """Import egyptfrac.cli, timing the numpy import it triggers separately."""
    real_import = builtins.__import__
    numpy_s = 0.0

    def timed_import(name, globals=None, locals=None, fromlist=(), level=0):
        nonlocal numpy_s
        if name == "numpy" and level == 0 and "numpy" not in sys.modules:
            start = perf_counter()
            try:
                return real_import(name, globals, locals, fromlist, level)
            finally:
                numpy_s += perf_counter() - start
        return real_import(name, globals, locals, fromlist, level)

    builtins.__import__ = timed_import
    start = perf_counter()
    try:
        import egyptfrac.cli as cli
    finally:
        builtins.__import__ = real_import
    return cli, perf_counter() - start - numpy_s, numpy_s


# Imported before anything else so that no module the CLI needs is already
# loaded when its import is timed.
CLI, IMPORT_S, IMPORT_NUMPY_S = _import_cli()

import inspect  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import pickle  # noqa: E402
import tracemalloc  # noqa: E402
from array import array  # noqa: E402
from fractions import Fraction  # noqa: E402
from multiprocessing.reduction import ForkingPickler  # noqa: E402

from egyptfrac import expansion, randwalk, recovery, scanner  # noqa: E402


class Tracer:
    """In-memory span store: one entry per call of a wrapped function."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.excluded = array("d")  # tracer time spent inside the span
        self.stack = [-1]
        self.counters: dict[str, float] = {}

    def add(self, name: str, value) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def peak(self, name: str, value) -> None:
        self.counters[name] = max(self.counters.get(name, 0), value)

    def span(self, name: str, fn, observe=None):
        """Wrap ``fn`` in a span; ``observe(result, args, kwargs)`` runs after
        the span closes and its time is excluded from the enclosing span."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)

        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self.stack[-1])
            self.excluded.append(0.0)
            self.end.append(0.0)
            self.stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self.stack.pop()
            if observe is not None:
                observe(result, args, kwargs)
                owner = self.stack[-1]
                if owner >= 0:
                    self.excluded[owner] += perf_counter() - self.end[idx]
            return result

        return wrapper

    def summary(self) -> dict:
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        spans = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            entry = spans[self.names[self.name_id[i]]]
            dur = self.end[i] - self.start[i]
            entry["calls"] += 1
            entry["total_s"] += dur
            entry["self_s"] += dur - child[i] - self.excluded[i]
        return {"spans": spans, "counters": self.counters}


def _operand_bits(x) -> int:
    if isinstance(x, int):
        return x.bit_length()
    if isinstance(x, Fraction):
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    return max(_operand_bits(x.a), _operand_bits(x.b))  # a + b*sqrt(rad)


def install(t: Tracer) -> None:
    def fast_seen(trace, args, kwargs):
        n = trace.steps
        t.add("gapfast.gap_sequence_fast.steps", n)
        # computed from the step count: outer step k runs k - 1 residue-chain
        # iterations, and its largest modulus is c_1 * ... * c_k
        t.add("gapfast.gap_sequence_fast.inner_iters", n * (n - 1) // 2)
        t.peak("gapfast.gap_sequence_fast.max_modulus_bits",
               math.prod(trace.c[:n]).bit_length())

    scanner.gap_sequence_fast = t.span("gapfast.gap_sequence_fast", scanner.gap_sequence_fast, fast_seen)
    CLI.gap_sequence_fast = t.span("gapfast.gap_sequence_fast", CLI.gap_sequence_fast, fast_seen)
    scanner.diagnose_tail = t.span("scanner.diagnose_tail", scanner.diagnose_tail)

    scan = CLI.scan_conjecture
    scan_sig = inspect.signature(scan)

    def scan_counted(*args, **kwargs):
        bound = scan_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        jobs = bound.arguments["jobs"]
        t.add("scanner.rows_computed", 0)
        t.add("scanner.transfer_bytes", 0)
        t.add("scanner.transfer_s", 0.0)

        def rows_seen(_, progress_args, __):
            q, rows = progress_args
            t.add("scanner.rows_computed", len(rows))
            if jobs > 1:
                # computed, not measured: replay the pool's pickling of one
                # q's result in the parent
                start = perf_counter()
                blob = ForkingPickler.dumps((q, rows))
                pickle.loads(blob)
                t.add("scanner.transfer_s", perf_counter() - start)
                t.add("scanner.transfer_bytes", len(blob))

        user_progress = bound.arguments["progress"] or (lambda q, rows: None)
        bound.arguments["progress"] = t.span("cli.progress", user_progress, rows_seen)
        summary = scan(*bound.args, **bound.kwargs)
        t.add("scanner.rows_reused", summary.pairs_total - t.counters["scanner.rows_computed"])
        t.add("scanner.out_bytes", os.path.getsize(bound.arguments["out_path"]))
        return summary

    CLI.scan_conjecture = t.span("scanner.scan_conjecture", scan_counted)

    CLI.format_value = t.span(
        "exactnum.format_value", CLI.format_value,
        lambda s, a, k: t.add("exactnum.format_value.chars", len(s)))
    expansion.decimal_digits = t.span("exactnum.decimal_digits", expansion.decimal_digits)

    def operand_seen(_, args, kwargs):
        t.peak("exactnum.max_operand_bits", _operand_bits(args[0]))

    expansion.nearest_int = t.span("exactnum.nearest_int", expansion.nearest_int, operand_seen)
    recovery.nearest_int = t.span("exactnum.nearest_int", recovery.nearest_int, operand_seen)
    CLI.expand = t.span(
        "expansion.expand", CLI.expand,
        lambda r, a, k: t.add("expansion.expand.terms", len(r.records)))
    CLI.gap_sequence_naive = t.span(
        "expansion.gap_sequence_naive", CLI.gap_sequence_naive,
        lambda r, a, k: t.add("expansion.gap_sequence_naive.steps", len(r)))
    CLI.recover_sequence = t.span(
        "recovery.recover_sequence", CLI.recover_sequence,
        lambda r, a, k: t.add("recovery.recover_sequence.terms", len(r)))

    walks = CLI.run_walks

    def walks_with_peak(*args, **kwargs):
        tracemalloc.start()
        try:
            return walks(*args, **kwargs)
        finally:
            t.peak("randwalk.peak_alloc_mib", tracemalloc.get_traced_memory()[1] / 2**20)
            tracemalloc.stop()

    CLI.run_walks = t.span("randwalk.run_walks", walks_with_peak)

    # samples drawn, counted where the counter-based generator is called
    block = randwalk._uniform_block

    def block_counted(seed, trials, step_lo, n_steps):
        t.add("randwalk.steps_drawn", len(trials) * n_steps)
        return block(seed, trials, step_lo, n_steps)

    randwalk._uniform_block = block_counted


def main() -> int:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    try:
        return tracer.span("cli.main", CLI.main)(argv)
    finally:
        record = tracer.summary()
        record["counters"]["cli.import.s"] = IMPORT_S
        record["counters"]["cli.import_numpy.s"] = IMPORT_NUMPY_S
        with open(summary_path, "w") as fh:
            json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main())
