"""Multiplicative random-walk model for the bookkeeping numerators.

The c-values of a rational gap trace satisfy c_{n+1}/c_n = 1 - e_n/c_n with
e_n/c_n in [-1/2, 1/2), which motivates modeling them as c_{n+1} = t_n * c_n
with t_n uniform on [1/2, 3/2).  The drift E[log t] = (3/2) ln 3 - ln 2 - 1
is negative, so walks sink toward 1; this module provides the closed form
and a deterministic Monte-Carlo simulator for hitting-time statistics.

Randomness is counter-based so that results are a pure function of
(seed, trial, step) and therefore identical no matter how trials are split
across workers or blocks::

    u(seed, trial, step) = fin(fin((trial << 32) | step) ^ seed) / 2^64
    t = 1/2 + u

where ``fin`` is the SplitMix64 finalizer (add golden gamma, two
xor-multiply rounds, final xor-shift).  This fixed algorithm is named by
``GENERATOR_ID`` in every result.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .errors import MissingDependency
from .exactnum import _integer

try:
    import numpy as np
except ImportError as exc:  # numpy is the optional ``walk`` extra
    raise MissingDependency(
        f"the random walk needs numpy, which cannot be imported ({exc}); "
        "install egyptfrac[walk]") from exc

GENERATOR_ID = "splitmix64-mix-v1"

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SHIFT1, _SHIFT2, _SHIFT3 = np.uint64(30), np.uint64(27), np.uint64(31)
_U64_MASK = (1 << 64) - 1
_TRIAL_CAP = 1 << 32
_STEP_CAP = 1 << 32
# steps drawn at a time, and samples per slab of rows within such a block:
# 64 rows of 512 steps, 256 KiB per float64 array, so that a slab's arrays
# stay in a core's L2 cache (the fastest of 2^12..2^16 on a 2-core Xeon with
# 2 MiB of L2 per core); both read at call time
_BLOCK_STEPS = 512
_SLAB_SAMPLES = 1 << 15

__all__ = ["GENERATOR_ID", "WalkStats", "analytic_drift", "run_walks"]


@dataclass(frozen=True)
class WalkStats:
    """Summary of a batch of multiplicative random walks.

    ``mean_log_t``/``stderr_log_t`` aggregate every step actually taken
    (samples past a trial's hitting step are not drawn); both are None when
    no step was taken at all (c0 = 1 hits immediately).  ``mean_hit_time``
    averages the first step with c <= 1 over the trials that hit, and is
    None when none did.
    """

    trials: int
    steps: int
    c0: float
    mean_log_t: float | None
    stderr_log_t: float | None
    hit_fraction: float
    mean_hit_time: float | None
    seed: int
    generator_id: str = GENERATOR_ID


def analytic_drift() -> tuple[str, float]:
    """Closed form and float value of E[log t] for t uniform on [1/2, 3/2)."""
    return ("(3/2)*ln(3) - ln(2) - 1", 1.5 * math.log(3.0) - math.log(2.0) - 1.0)


def _finalize(x: np.ndarray) -> np.ndarray:
    """The SplitMix64 finalizer of a uint64 array, computed in place.

    Consumes ``x``: the caller creates and owns it, and ``x`` itself is
    returned holding the result.
    """
    x += _GAMMA
    x ^= x >> _SHIFT1
    x *= _MIX1
    x ^= x >> _SHIFT2
    x *= _MIX2
    x ^= x >> _SHIFT3
    return x


def _uniform_block(seed: np.uint64, trials: np.ndarray, step_lo: int, n_steps: int) -> np.ndarray:
    """Uniform [0,1) samples for each (trial, step) pair; shape (len(trials), n_steps).

    ``trials`` is only read; the counters are a new array that the
    generator then works on in place.
    """
    bits = (trials[:, None] << np.uint64(32)) | (
        np.uint64(step_lo) + np.arange(n_steps, dtype=np.uint64)[None, :]
    )
    _finalize(bits)
    bits ^= seed
    u = _finalize(bits).astype(np.float64)
    u *= 2.0**-64
    return u


def run_walks(c0: float, steps: int, trials: int, seed: int) -> tuple[WalkStats, np.ndarray]:
    """Deterministic Monte-Carlo run of the multiplicative walk model.

    Returns the summary statistics and the per-trial hitting steps (-1 = no
    hit).  The result is a pure function of ``(c0, steps, trials, seed)``;
    ``c0`` must be a real number other than a bool, and ``steps``,
    ``trials`` and ``seed`` integers (a TypeError names the one that is
    not).  Steps are drawn a block of 512 at a time; another block size
    would change no drawn sample and no hitting step, but it would regroup
    the float sums, so ``mean_log_t`` and ``stderr_log_t`` could differ in
    the last ulp.

    Memory: each block is drawn, accumulated and tested a slab of rows at a
    time (about 2^15 samples, 256 KiB per float64 array, small enough to
    stay in cache), and the generator and the logarithm work in place on
    the slab's own arrays.  The steps actually taken are packed in row
    order into one buffer of at most ``trials * 512`` floats, which every
    block reuses; the peak is that buffer plus a few slabs.  The packed steps are exactly those of
    the whole block in the same order, so the slabs change no float.
    """
    if isinstance(c0, bool) or not isinstance(c0, numbers.Real):
        raise TypeError(f"c0 must be a real number, got {c0!r}")
    c0 = float(c0)
    if not math.isfinite(c0):
        raise ValueError(f"c0 must be finite, got {c0}")
    if c0 < 1:
        raise ValueError(f"c0 must be >= 1, got {c0}")
    steps = _integer("steps", steps, 1, _STEP_CAP - 1)
    trials = _integer("trials", trials, 1, _TRIAL_CAP - 1)
    seed = _integer("seed", seed)
    seed_u = np.uint64(seed & _U64_MASK)
    block = _BLOCK_STEPS

    # c0 = 1 has hit before the first step: no trial is active
    hit_step = np.full(trials, 0 if c0 == 1 else -1, dtype=np.int64)
    active = np.arange(0 if c0 == 1 else trials, dtype=np.uint64)
    log_c = np.full(trials, math.log(c0), dtype=np.float64)
    sum_lt = 0.0
    sum_lt2 = 0.0
    n_lt = 0
    # the steps taken in a block, in row order; one buffer for every block,
    # since no later block takes more steps than the first, so the pages the
    # first block wrote are reused and the untouched tail is never resident
    taken = np.empty(active.size * min(block, steps), dtype=np.float64)

    for lo in range(0, steps, block):
        if active.size == 0:
            break
        width = min(block, steps - lo)
        rows = max(1, _SLAB_SAMPLES // width)
        cols = np.arange(width)[None, :]
        hit_any = np.empty(active.size, dtype=bool)
        first = np.empty(active.size, dtype=np.int64)  # valid only where hit_any
        last = np.empty(active.size, dtype=np.float64)
        n = 0
        for r in range(0, active.size, rows):
            ids = active[r:r + rows]
            lt = _uniform_block(seed_u, ids, lo, width)
            lt += 0.5
            np.log(lt, out=lt)
            # ufunc methods, not np.cumsum or ndarray.any/.sum: same values,
            # but those wrappers allocate on first use, and whether that
            # memory is freed again varies from process to process, so a
            # traced peak would not repeat
            path = np.add.accumulate(lt, axis=1)
            path += log_c[ids][:, None]
            below = path <= 0.0
            slab_hit = np.logical_or.reduce(below, axis=1)
            slab_first = np.argmax(below, axis=1)
            consumed = np.where(slab_hit, slab_first + 1, width)
            used = cols < consumed[:, None]
            k = int(np.add.reduce(consumed))
            taken[n:n + k] = lt[used]
            n += k
            hit_any[r:r + rows] = slab_hit
            first[r:r + rows] = slab_first
            last[r:r + rows] = path[:, -1]
        v = taken[:n]
        sum_lt += float(np.add.reduce(v))
        sum_lt2 += float(np.add.reduce(np.square(v, out=v)))
        n_lt += n

        hit_idx = active[hit_any].astype(np.int64)
        hit_step[hit_idx] = lo + first[hit_any] + 1
        log_c[active[~hit_any].astype(np.int64)] = last[~hit_any]
        active = active[~hit_any]

    mean = sum_lt / n_lt if n_lt else None
    stderr = None
    if n_lt >= 2:
        var = (sum_lt2 - n_lt * mean * mean) / (n_lt - 1)
        stderr = math.sqrt(max(var, 0.0) / n_lt)
    hits = hit_step >= 0
    n_hits = int(hits.sum())
    stats = WalkStats(
        trials=trials,
        steps=steps,
        c0=c0,
        mean_log_t=mean,
        stderr_log_t=stderr,
        hit_fraction=n_hits / trials,
        mean_hit_time=float(hit_step[hits].mean()) if n_hits else None,
        seed=seed,
        generator_id=GENERATOR_ID,
    )
    return stats, hit_step
