"""Independent oracles used by the tests.

These deliberately avoid the code paths they check: square roots come from
integer-square-root interval bounds, Fibonacci from plain addition,
integrals from Simpson quadrature, uniformity from a hand-rolled
Kolmogorov-Smirnov statistic, random walks from a SplitMix64 of their own
and one array per whole block of steps, scan rows from exact (naive) gap
steps, printed expansion rows from the interpreter's own ``str(int)``, and
the offset pseudo-greedy walk from pairs of Fractions rounded by interval
bounds.

Run as a script, it prints the CSV of a rational expansion from ``str()``,
for comparison with ``egyptfrac expand ... --format csv``::

    python3 tests/oracles.py --r 185/358 --kind pseudo --terms 20 [--digit-cap K]

It decides which ``d`` to print by itself: ``d`` shows only when
``d < 10**K``, with K = ``DIGIT_CAP`` unless given.
"""

import sys
from contextlib import contextmanager
from fractions import Fraction
from math import isqrt, log, sqrt


def sqrt_bounds(d: int, scale_digits: int = 12) -> tuple[Fraction, Fraction]:
    """Rational lo < sqrt(d) < hi with hi - lo = 10^-scale_digits."""
    s = 10**scale_digits
    lo = isqrt(d * s * s)
    return Fraction(lo, s), Fraction(lo + 1, s)


def interval_nearest_int(a: Fraction, b: Fraction, d: int) -> int:
    """Nearest integer (ties toward +inf) to a + b*sqrt(d) by interval arithmetic.

    Only returns when the interval pins a single answer; doubles the digits
    of the bracket until it does.  Ties cannot be decided this way, so
    callers use it on irrational inputs only (b != 0).
    """
    digits = 12
    while True:
        lo_s, hi_s = sqrt_bounds(d, digits)
        if b >= 0:
            lo, hi = a + b * lo_s, a + b * hi_s
        else:
            lo, hi = a + b * hi_s, a + b * lo_s
        n_lo = (2 * lo.numerator + lo.denominator) // (2 * lo.denominator)
        n_hi = (2 * hi.numerator + hi.denominator) // (2 * hi.denominator)
        if n_lo == n_hi:
            return n_lo
        digits *= 2


def interval_sign(a: Fraction, b: Fraction, d: int) -> int:
    """Sign of a + b*sqrt(d), by the brackets of :func:`sqrt_bounds` alone.

    Doubles the digits of the bracket until it excludes 0, so it returns only
    for a nonzero value; b = 0 is decided by the sign of a.
    """
    if b == 0:
        return (a > 0) - (a < 0)
    digits = 12
    while True:
        lo_s, hi_s = sqrt_bounds(d, digits)
        lo, hi = sorted((a + b * lo_s, a + b * hi_s))
        if lo > 0 or hi < 0:
            return 1 if lo > 0 else -1
        digits *= 2


def offset_pseudo_greedy(r, beta: Fraction, n_terms: int, d: int = 0):
    """The walk a_n = nearest integer to 1/x_n + beta (ties toward +inf),
    x_{n+1} = x_n - 1/a_n, on pairs ``(a, b)`` of Fractions that stand for
    a + b*sqrt(d).

    ``r`` is the pair of x_1 (b = 0 for a rational, with any d).  An
    irrational 1/x_n + beta rounds through :func:`interval_nearest_int`, a
    rational y by the integer division floor(y + 1/2).  Returns
    ``(records, breakdown)``: the records ``(n, a, x, eps)``, with x and
    eps = 1/x_n + beta - a_n as pairs, and the first step with x_n <= 0 or
    a_n < 1 (None when all ``n_terms`` steps ran).
    """
    x = (Fraction(r[0]), Fraction(r[1]))
    records = []
    for n in range(1, n_terms + 1):
        if interval_sign(*x, d) <= 0:
            return records, n
        a_x, b_x = x
        norm = a_x * a_x - b_x * b_x * d  # 1/x = (a_x - b_x sqrt d)/norm
        y = (a_x / norm + beta, -b_x / norm)
        if y[1] == 0:
            num, den = y[0].numerator, y[0].denominator
            term = (2 * num + den) // (2 * den)
        else:
            term = interval_nearest_int(*y, d)
        if term < 1:
            return records, n
        records.append((n, term, x, (y[0] - term, y[1])))
        x = (a_x - Fraction(1, term), b_x)
    return records, None


def fib_additive(n_max: int) -> list[int]:
    """F_0 .. F_n_max by the additive recurrence."""
    fs = [0, 1]
    while len(fs) <= n_max:
        fs.append(fs[-1] + fs[-2])
    return fs[: n_max + 1]


def simpson(f, a: float, b: float, n: int = 20000) -> float:
    """Composite Simpson rule; n must be even."""
    h = (b - a) / n
    total = f(a) + f(b)
    for i in range(1, n):
        total += f(a + i * h) * (4 if i % 2 else 2)
    return total * h / 3


def ks_statistic_uniform(samples, lo: float, hi: float) -> float:
    """Kolmogorov-Smirnov distance of samples to Uniform[lo, hi)."""
    xs = sorted(samples)
    n = len(xs)
    d = 0.0
    for i, x in enumerate(xs):
        cdf = min(max((x - lo) / (hi - lo), 0.0), 1.0)
        d = max(d, abs((i + 1) / n - cdf), abs(i / n - cdf))
    return d


def splitmix64_finalizer(z):
    """The SplitMix64 output function of a uint64 array, out of place.

    Adds the golden gamma and mixes, so ``z = 0`` gives the first output of
    SplitMix64 seeded with 0.  Every operation makes a new array.
    """
    import numpy as np

    z = z + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def splitmix64_uniform(seed: int, trials, step_lo: int, n_steps: int):
    """The walk's uniform samples, shape ``(len(trials), n_steps)``.

    ``u = fin(fin((trial << 32) | step) ^ seed) / 2^64`` as the randwalk
    module docstring states it, from :func:`splitmix64_finalizer` alone.
    """
    import numpy as np

    trials = np.asarray(trials, dtype=np.uint64)
    steps = np.uint64(step_lo) + np.arange(n_steps, dtype=np.uint64)
    counters = (trials[:, None] << np.uint64(32)) | steps[None, :]
    bits = splitmix64_finalizer(splitmix64_finalizer(counters) ^ np.uint64(seed % 2**64))
    return bits.astype(np.float64) * 2.0**-64


def run_walks_whole_block(c0: float, steps: int, trials: int, seed: int, block: int = 512):
    """The random walk with every block held as ``trials x block`` arrays.

    The same samples (from :func:`splitmix64_uniform`, not the walk's own
    generator) and the same sums as ``randwalk.run_walks``, without its
    slabs of rows: the taken steps of a block are summed as one
    ``lt[used]``, so every float must match bit for bit.  Returns
    ``(WalkStats, hit_step)``.
    """
    import numpy as np

    from egyptfrac.randwalk import WalkStats

    hit_step = np.full(trials, 0 if c0 == 1 else -1, dtype=np.int64)
    active = np.arange(0 if c0 == 1 else trials, dtype=np.uint64)
    log_c = np.full(trials, log(c0), dtype=np.float64)
    sum_lt = sum_lt2 = 0.0
    n_lt = 0
    for lo in range(0, steps, block):
        if active.size == 0:
            break
        width = min(block, steps - lo)
        lt = np.log(0.5 + splitmix64_uniform(seed, active, lo, width))
        path = log_c[active][:, None] + np.cumsum(lt, axis=1)
        below = path <= 0.0
        hit_any = below.any(axis=1)
        first = np.argmax(below, axis=1)
        consumed = np.where(hit_any, first + 1, width)
        used = np.arange(width)[None, :] < consumed[:, None]
        sum_lt += float(lt[used].sum())
        sum_lt2 += float((lt[used] ** 2).sum())
        n_lt += int(consumed.sum())
        hit_step[active[hit_any].astype(np.int64)] = lo + first[hit_any] + 1
        log_c[active[~hit_any].astype(np.int64)] = path[~hit_any, -1]
        active = active[~hit_any]

    mean = sum_lt / n_lt if n_lt else None
    stderr = None
    if n_lt >= 2:
        var = (sum_lt2 - n_lt * mean * mean) / (n_lt - 1)
        stderr = sqrt(max(var, 0.0) / n_lt)
    hits = hit_step >= 0
    n_hits = int(hits.sum())
    stats = WalkStats(
        trials=trials, steps=steps, c0=c0, mean_log_t=mean, stderr_log_t=stderr,
        hit_fraction=n_hits / trials,
        mean_hit_time=float(hit_step[hits].mean()) if n_hits else None, seed=seed,
    )
    return stats, hit_step


def scan_row_naive(p: int, q: int, n_max: int) -> tuple:
    """The scan row of reduced p/q under budget ``n_max``, from exact d_n.

    ``(p, q, n0, steps, max_c, status, tail_sign_index)`` as the scanner
    writes it, derived from ``expansion.gap_sequence_naive`` alone.  That
    function runs to its term budget and does not stop at a zero gap, so it
    is asked for twice as many terms each round until a zero shows or
    ``n_max`` terms are in.  max_c covers c_1..c_{N+1}, where
    c_{N+1} = c_N - e_N; the tail index is the first 1-based index t with
    e_k >= 0 for every k >= t (None when e_N < 0).
    """
    from egyptfrac.expansion import gap_sequence_naive

    terms = 1
    while True:
        terms = min(2 * terms, n_max)
        gaps = gap_sequence_naive(p, q, terms)
        zeros = [n for n, g in enumerate(gaps, 1) if g.e == 0]
        if zeros or len(gaps) == n_max:
            break
        if len(gaps) < terms:
            raise AssertionError(f"{p}/{q}: d_n passed the naive digit limit first")
    n0 = zeros[0] if zeros else None
    gaps = gaps[: n0 or n_max]
    es = [g.e for g in gaps]
    cs = [g.c for g in gaps] + [gaps[-1].c - gaps[-1].e]
    tail = len(es)
    if es[-1] < 0:
        tail = None
    else:
        while tail > 1 and es[tail - 2] >= 0:
            tail -= 1
    return (p, q, n0, len(es), max(cs), "MAXITER" if n0 is None else "ZERO", tail)


@contextmanager
def no_str_digit_limit():
    """Lift the interpreter's int-to-string digit limit (where it has one)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


# the default of ``expand --digit-cap``, written out rather than read from
# the package
DIGIT_CAP = 10**4


def expansion_rows_str(records, digit_cap: int = DIGIT_CAP) -> list[dict]:
    """The ``expand`` rows of rational records, every int printed by ``str()``.

    The same keys as the CLI's json rows: a missing value is None, and a
    rational prints as ``num/den``.  A ``d`` of more than ``digit_cap``
    decimal digits, that is one with ``d >= 10**digit_cap``, is None too.
    """
    bound = 10**digit_cap

    def text(value):
        if value is None:
            return None
        if isinstance(value, Fraction):
            return f"{value.numerator}/{value.denominator}"
        return str(value)

    with no_str_digit_limit():
        return [
            {"n": rec.n, "a": text(rec.a), "x": text(rec.x), "c": text(rec.c),
             "d": text(rec.d) if rec.d is not None and rec.d < bound else None,
             "e": text(rec.e), "eps": text(rec.eps)}
            for rec in records
        ]


def expansion_table_cells(rows: list[dict]) -> list[list[str]]:
    """The non-empty cells of each ``expand`` table row, in table order: an
    integral x or eps shows without its ``/1``."""
    def pretty(value):
        return value[:-2] if value is not None and value.endswith("/1") else value

    return [
        [c for c in (str(row["n"]), row["a"], pretty(row["x"]), pretty(row["eps"]),
                     row["c"], row["e"], row["d"]) if c]
        for row in rows
    ]


def expansion_csv(rows: list[dict]) -> str:
    """The ``expand --format csv`` text of :func:`expansion_rows_str` rows."""
    columns = ["n", "a", "x", "c", "d", "e", "eps"]
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join("" if row[k] is None else str(row[k]) for k in columns))
    return "\n".join(lines) + "\n"


def expansion_records(r, kind: str, terms: int) -> list:
    """The records behind ``egyptfrac expand --r R --kind KIND --terms N``
    for a rational R, given as a Fraction or as ``P/Q`` text."""
    from egyptfrac.expansion import ExpansionKind, expand

    kinds = {"greedy": "GREEDY", "odd": "ODD_GREEDY", "pseudo": "PSEUDO_GREEDY"}
    if isinstance(r, str):
        num, _, den = r.partition("/")
        r = Fraction(int(num), int(den or 1))
    return expand(r, ExpansionKind[kinds[kind]], terms).records


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(
        description="print the expand --format csv text of a rational from str()")
    parser.add_argument("--r", required=True)
    parser.add_argument("--kind", choices=("greedy", "odd", "pseudo"), required=True)
    parser.add_argument("--terms", type=int, required=True)
    parser.add_argument("--digit-cap", type=int, default=DIGIT_CAP)
    args = parser.parse_args()
    with no_str_digit_limit():
        records = expansion_records(args.r, args.kind, args.terms)
    sys.stdout.write(expansion_csv(expansion_rows_str(records, args.digit_cap)))
