"""Fast gap-sequence computation: an exact prefix, then a modular residue chain.

The pseudo-greedy expansion of p/q is driven by c_1 = p and d_1 = q: step n
takes the centered residue e_n of d_n mod c_n in [-c_n/2, c_n/2), then
d_{n+1} = d_n * ((d_n - e_n)/c_n + 1) and c_{n+1} = c_n - e_n.  The c_n stay
small, but d_n = q*a_1*...*a_{n-1} grows doubly exponentially.  The kernel
therefore runs two loops, one after the other.

Exact prefix: while d_n < 2**EXACT_BITS it is kept whole, and a step is one
``divmod`` and one multiplication.  With a, t = divmod(d_n, c_n) the residue
is e_n = t or e_n = t - c_n, so (d_n - e_n)/c_n is a or a + 1 and the next
factor a_n is a + 1 when e_n = t and a + 2 when e_n = t - c_n.  Most pairs
reach their first zero gap here.

Modular chain: from the first d_K past the budget on (or from d_1 = q when
the prefix is skipped), d is no longer updated.  Each outer step n >= K
instead runs the residue chain below along k = K..n, seeded with d_K, and
only ever stores numbers modulo products of the small c-values.  Step n's
moduli involve c_n, which is unknown before step n runs, so the chain
cannot be advanced incrementally: each outer step reruns it from d_K.

Modulus bookkeeping (the load-bearing detail): at outer step n the chain
carries d_k modulo M_k = c_k * c_{k+1} * ... * c_n -- including the leading
factor c_k, not just the product from c_{k+1} on.  The integer d_k - e_k is
exactly divisible by c_k, and both the dividend and the modulus M_k are
multiples of c_k, so the canonical representative of (d_k - e_k) mod M_k is
itself divisible by c_k; dividing it by c_k yields (d_k - e_k)/c_k modulo
M_k / c_k = c_{k+1}...c_n, which is exactly the modulus the next step
needs.  Without the extra factor the quotient would be undefined.  The chain
checks that divisibility at every link.

Both loops are one private kernel.  As it steps it keeps the largest c and
the last step with e < 0, which is all a scan row needs, and it records c_n
and e_n only for a caller that passes lists to fill.  The exact prefix
serves only the scan's rows: ``gap_sequence_fast``, the one public route,
runs the chain alone from d_1 = q and never forms d_n.  So the scan's
per-group self-check compares the prefix with the chain, and ``gaps`` and
the tests compare the chain with exact arithmetic
(``expansion.gap_sequence_naive``), which this module does not import.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import gcd
from operator import mul
from typing import NamedTuple

from .errors import NotReduced
from .exactnum import _integer

__all__ = ["GapTrace", "gap_sequence_fast"]

# Largest bit length of d_n that the kernel keeps exact; read at call time.
EXACT_BITS = 2048


class GapTrace(NamedTuple):
    """Result of the modular gap computation for one reduced pair p/q.

    ``c`` holds c_1..c_{N+1} and ``e`` holds e_1..e_N where N = ``steps``;
    ``n0`` is the first index with e = 0 when one was found within budget.
    An immutable named tuple: fields cannot be reassigned, and a trace
    compares equal to any tuple with the same seven values in field order.
    """

    p: int
    q: int
    c: list[int]
    e: list[int]
    terminated: bool
    n0: int | None
    steps: int

    @property
    def eps(self) -> list[Fraction]:
        """The gaps eps_n = e_n / c_n for n = 1..N, built on each access."""
        return [Fraction(e, c) for e, c in zip(self.e, self.c)]


def _kernel(p: int, q: int, n_max: int, past_zero: int = 0,
            cs: list[int] | None = None, es: list[int] | None = None, prefix: bool = True) -> tuple:
    """Run the exact prefix (unless ``prefix`` is false) and then the residue
    chain for reduced p/q (see the module docstring); the one kernel behind
    ``gap_sequence_fast`` and every scan row.

    Steps until n_max steps or ``past_zero`` steps after the first zero gap.
    Returns ``(n, n0, max_c, last_neg)``: the steps taken, the first zero
    index or None, the largest of c_1..c_{n+1}, and the last step with
    e < 0 (0 if none).  e_k and c_{k+1} are appended to ``es`` and ``cs``
    only when the caller passes them.  The arguments are not checked.
    """
    bound = 1 << EXACT_BITS if prefix else 0
    c, d = p, q
    n0 = None
    limit = n_max
    max_c = c
    last_neg = n = 0
    while n < limit and d < bound:
        n += 1
        a, t = divmod(d, c)
        # center t = d_n mod c_n into [-c_n/2, c_n/2); a_n is a + 2 or a + 1
        if 2 * t >= c:
            e = t - c
            d *= a + 2
            c -= e  # e < 0: c grows
            last_neg = n
            if c > max_c:
                max_c = c
        else:
            e = t
            d *= a + 1
            c -= e
            if e == 0 and n0 is None:
                n0 = n
                limit = n + past_zero
        if cs is not None:
            es.append(e)
            cs.append(c)
    if n == limit:
        return n, n0, max_c, last_neg

    # the residue chain from d_K = d; chain_c[i] is c_{K+i}, chain_e[i] e_{K+i}
    k0 = n
    chain_c, chain_e = [c], []
    while n < limit:
        n += 1
        # suffix[i] = c_{K+i} * ... * c_n, the modulus M_{K+i}; suffix[-1] = 1
        suffix = list(accumulate(reversed(chain_c), mul))[::-1] + [1]
        t = d % suffix[0]
        for i, e in enumerate(chain_e):
            u, rem = divmod((t - e) % suffix[i], chain_c[i])
            if rem:
                raise AssertionError(
                    f"modulus-chain violation at p={p} q={q} n={n} k={k0 + i + 1}: "
                    "tracked residue of d_k - e_k is not divisible by c_k"
                )
            t = t * (u + 1) % suffix[i + 1]
        # t is now d_n mod c_n; center it into [-c_n/2, c_n/2)
        e = t - c if 2 * t >= c else t
        c -= e
        chain_e.append(e)
        chain_c.append(c)
        if e < 0:
            last_neg = n
            if c > max_c:
                max_c = c
        elif e == 0 and n0 is None:
            n0 = n
            limit = n + past_zero
    if cs is not None:
        es += chain_e
        cs += chain_c[1:]
    return n, n0, max_c, last_neg


def gap_sequence_fast(p: int, q: int, n_max: int, past_zero: int = 0) -> GapTrace:
    """Gap sequence of the pseudo-greedy expansion of p/q, Algorithm-1 style.

    Stops at the first zero gap (``terminated=True``) or after ``n_max``
    steps.  ``past_zero`` extends a terminated trace by that many extra
    steps beyond the first zero, which property tests use to watch the zero
    persist; the zeros are genuinely recomputed, not assumed.  Every step
    runs the residue chain from d_1 = q; d_n is never formed.
    """
    p, q = _integer("p", p, 1), _integer("q", q, 1)
    if gcd(p, q) != 1:
        raise NotReduced(f"{p}/{q} is not in lowest terms")
    n_max, past_zero = _integer("n_max", n_max, 1), _integer("past_zero", past_zero, 0)
    cs, es = [p], []
    n, n0, _, _ = _kernel(p, q, n_max, past_zero, cs, es, prefix=False)
    return GapTrace(p, q, cs, es, n0 is not None, n0, n)
