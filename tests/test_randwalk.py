import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from egyptfrac import randwalk
from egyptfrac.randwalk import GENERATOR_ID, analytic_drift, run_walks

from oracles import (
    ks_statistic_uniform,
    run_walks_whole_block,
    simpson,
    splitmix64_finalizer,
    splitmix64_uniform,
)

ROOT = Path(__file__).resolve().parents[1]

DRIFT = -0.0452287


class TestAnalyticDrift:
    def test_closed_form_value(self):
        expr, value = analytic_drift()
        assert abs(value - DRIFT) < 1e-7
        assert value < 0
        assert "ln(3)" in expr and "ln(2)" in expr

    def test_quadrature_oracle(self):
        integral = simpson(math.log, 0.5, 1.5, n=20000)
        assert abs(integral - analytic_drift()[1]) < 1e-9


class TestDeterminism:
    def test_bit_identical_runs(self):
        a = run_walks(100.0, 200, 500, seed=123)[0]
        b = run_walks(100.0, 200, 500, seed=123)[0]
        assert a == b

    def test_seed_changes_results(self):
        a = run_walks(100.0, 200, 500, seed=123)[0]
        b = run_walks(100.0, 200, 500, seed=124)[0]
        assert a.mean_log_t != b.mean_log_t

    def test_block_size_does_not_change_samples(self, monkeypatch):
        # counter-based sampling: trial/step splitting cannot change the
        # drawn values or hit steps (aggregate floats may differ by an ulp
        # from summation order, so compare those with a tight tolerance)
        monkeypatch.setattr(randwalk, "_BLOCK_STEPS", 7)
        a, hits_a = run_walks(50.0, 300, 200, seed=9)
        monkeypatch.setattr(randwalk, "_BLOCK_STEPS", 256)
        b, hits_b = run_walks(50.0, 300, 200, seed=9)
        assert (hits_a == hits_b).all()
        assert a.hit_fraction == b.hit_fraction
        assert a.mean_hit_time == b.mean_hit_time
        assert a.mean_log_t == pytest.approx(b.mean_log_t, rel=1e-12)
        assert a.stderr_log_t == pytest.approx(b.stderr_log_t, rel=1e-12)

    def test_generator_is_named(self):
        assert run_walks(2.0, 5, 10, seed=0)[0].generator_id == GENERATOR_ID


class TestEdgeCases:
    def test_start_at_boundary(self):
        stats = run_walks(1.0, 10, 50, seed=3)[0]
        assert stats.hit_fraction == 1.0
        assert stats.mean_hit_time == 0.0
        assert stats.mean_log_t is None and stats.stderr_log_t is None

    def test_validation(self):
        with pytest.raises(ValueError):
            run_walks(0.5, 10, 10, seed=1)
        with pytest.raises(ValueError):
            run_walks(2.0, 0, 10, seed=1)
        with pytest.raises(ValueError):
            run_walks(2.0, 10, 0, seed=1)

    @pytest.mark.parametrize("name, value", [
        ("steps", 10.0), ("trials", 5.5), ("seed", 1.5), ("seed", "1")])
    def test_non_integer_arguments_are_named(self, name, value):
        args = dict(c0=10.0, steps=10, trials=10, seed=1)
        args[name] = value
        with pytest.raises(TypeError, match=f"^{name} must be an integer"):
            run_walks(**args)

    def test_numpy_integers_are_integers(self):
        a = run_walks(10.0, np.int64(20), np.int32(30), np.uint64(7))[0]
        assert a == run_walks(10.0, 20, 30, 7)[0]
        assert type(a.seed) is int

    def test_no_hits_when_cap_too_small(self):
        # c0 = 1e5 cannot reach 1 in 3 steps (t >= 1/2)
        stats = run_walks(1e5, 3, 100, seed=4)[0]
        assert stats.hit_fraction == 0.0
        assert stats.mean_hit_time is None


class TestDriftStatistics:
    def test_single_step_samples_match_drift(self):
        stats = run_walks(10.0, 1, 10**5, seed=20260810)[0]
        assert stats.stderr_log_t > 0
        assert abs(stats.mean_log_t - analytic_drift()[1]) < 3 * stats.stderr_log_t

    def test_stderr_scales_inverse_sqrt(self):
        errs = {
            n: run_walks(10.0, 1, n, seed=777)[0].stderr_log_t
            for n in (10**3, 10**4, 10**5)
        }
        for n in (10**3, 10**4):
            ratio = errs[n] / errs[n * 10]
            assert abs(ratio - math.sqrt(10)) < 0.2 * math.sqrt(10)

    def test_t_samples_uniform_ks(self):
        from egyptfrac.randwalk import _uniform_block

        trials = np.arange(10**5, dtype=np.uint64)
        u = _uniform_block(np.uint64(2024), trials, 0, 1)[:, 0]
        d = ks_statistic_uniform(0.5 + u, 0.5, 1.5)
        # 1% critical value for the KS statistic at n = 1e5
        assert d < 1.6276 / math.sqrt(10**5)


class TestGenerator:
    """The in-place generator against the oracle's own out-of-place
    SplitMix64."""

    def test_oracle_is_splitmix64(self):
        # the first output of SplitMix64 seeded with 0
        assert splitmix64_finalizer(np.zeros(1, dtype=np.uint64))[0] == 0xE220A8397B1DCDAF

    @pytest.mark.parametrize("seed, trials, step_lo, n_steps", [
        (0, [0, 1, 2], 0, 5),
        (2**64 - 1, [7, 2**31, 2**32 - 1], 2**32 - 3, 3),  # up to step 2^32 - 1
        (20260810, [2**31 - 1, 2**31, 2**31 + 1], 1000, 17),
        (12345, [3], 2**32 - 1, 1),
    ])
    def test_uniform_block_matches_oracle(self, seed, trials, step_lo, n_steps):
        ids = np.array(trials, dtype=np.uint64)
        kept = ids.copy()
        u = randwalk._uniform_block(np.uint64(seed), ids, step_lo, n_steps)
        assert np.array_equal(ids, kept)  # the trials are only read
        assert u.dtype == np.float64 and u.shape == (len(trials), n_steps)
        assert np.array_equal(u, splitmix64_uniform(seed, trials, step_lo, n_steps))


class TestHittingTimes:
    def test_drift_dominated_hitting_time(self):
        # expected ~ ln(c0) / 0.0452287 ~ 254.6; heuristic model, wide band
        stats = run_walks(1e5, 10**4, 2000, seed=31)[0]
        assert stats.hit_fraction == 1.0
        predicted = math.log(1e5) / -analytic_drift()[1]
        assert predicted / 2 <= stats.mean_hit_time <= predicted * 2

    def test_hit_steps_are_consistent(self):
        stats, hits = run_walks(5.0, 2000, 300, seed=12)
        assert ((hits == -1) | (hits >= 1)).all()
        n_hit = int((hits >= 0).sum())
        assert stats.hit_fraction == n_hit / 300
        if n_hit:
            assert stats.mean_hit_time == pytest.approx(hits[hits >= 0].mean())


class TestSlabs:
    """Each block is walked a slab of rows at a time, with the taken steps
    packed in row order, so nothing is regrouped: every float is bit-identical
    to the whole-block oracle."""

    @pytest.mark.parametrize("c0, steps, trials, block", [
        pytest.param(50.0, 300, 203, 64, id="trials-not-a-slab-multiple"),
        pytest.param(50.0, 301, 200, 64, id="steps-not-a-block-multiple"),
        pytest.param(1.0, 10, 50, 64, id="c0-is-1"),
        pytest.param(1.5, 40, 97, 64, id="hits-on-step-1"),
        pytest.param(50.0, 300, 200, 7, id="block-7"),
        pytest.param(50.0, 600, 30, 512, id="block-wider-than-a-slab"),
    ])
    def test_bit_identical_to_whole_block(self, monkeypatch, c0, steps, trials, block):
        monkeypatch.setattr(randwalk, "_SLAB_SAMPLES", 3 * 64)  # 3 rows of 64
        monkeypatch.setattr(randwalk, "_BLOCK_STEPS", block)
        stats, hits = run_walks(c0, steps, trials, 9)
        want, want_hits = run_walks_whole_block(c0, steps, trials, 9, block=block)
        assert stats == want
        assert np.array_equal(hits, want_hits)
        if c0 == 1.5:
            assert (hits == 1).any()

    def test_shipped_slab_bit_identical_to_whole_block(self):
        # the shipped slab size and block, with more trials than one slab
        # holds, trials that hit in the first block, in the third and never
        rows = randwalk._SLAB_SAMPLES // randwalk._BLOCK_STEPS
        trials = 2 * rows + 5
        stats, hits = run_walks(1e12, 1100, trials, 4)
        want, want_hits = run_walks_whole_block(1e12, 1100, trials, 4)
        assert randwalk._BLOCK_STEPS == 512
        assert (hits == -1).any() and (hits > 1024).any() and (hits <= 512).any()
        assert stats == want
        assert np.array_equal(hits, want_hits)

    def test_traced_peak_repeats_across_processes(self):
        # a benchmark trace requires the tracemalloc peak of the first walk
        # in a fresh interpreter to repeat exactly from process to process
        code = textwrap.dedent("""
            import tracemalloc
            from egyptfrac import randwalk
            randwalk._SLAB_SAMPLES = 1 << 12
            tracemalloc.start()
            randwalk.run_walks(1e3, 600, 3000, 5)
            print(tracemalloc.get_traced_memory()[1])
        """)
        pythonpath = os.pathsep.join(
            [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])
        peaks = []
        for hash_seed in range(4):
            env = dict(os.environ, PYTHONPATH=pythonpath, PYTHONHASHSEED=str(hash_seed))
            proc = subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            peaks.append(int(proc.stdout))
        assert len(set(peaks)) == 1, peaks

    def test_peak_is_below_two_whole_block_arrays(self):
        # the packed buffer of taken steps (at most one trials x block array)
        # plus fixed-size slabs; a whole-block walk holds about three arrays
        tracemalloc.start()
        try:
            run_walks(1e6, 600, 4000, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 4000 * 512 * 8
