import math

import numpy as np
import pytest

from egyptfrac.randwalk import GENERATOR_ID, analytic_drift, run_walks

from oracles import ks_statistic_uniform, simpson

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

    def test_block_size_does_not_change_samples(self):
        # counter-based sampling: trial/step splitting cannot change the
        # drawn values or hit steps (aggregate floats may differ by an ulp
        # from summation order, so compare those with a tight tolerance)
        a, hits_a = run_walks(50.0, 300, 200, seed=9, block=7)
        b, hits_b = run_walks(50.0, 300, 200, seed=9, block=256)
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
