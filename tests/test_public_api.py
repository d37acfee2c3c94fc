"""The package's public names, and the hook points the benchmark tracer patches."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import egyptfrac
from egyptfrac import exactnum, expansion, gapfast, randwalk, sequences

ROOT = Path(__file__).resolve().parents[1]

# one name per exact operation: these duplicates of nearest_int, sign_of,
# the operators, to_decimal and run_walks are gone, scan rows are plain
# tuples, not ScanRecord objects, diagnose_tail returns the tail index
# itself, not a TailDiagnosis, gapfast hosts no cross-check of itself
# against exact arithmetic (gaps --method both and the tests compare them),
# recover_sequence returns expand's records, not RecoveryRecord objects, and
# F_{2^n} comes from fib_pow2_terms's one pass, not a general fib(n), and
# exactnum.TERM_BIT_CAP bounds every term, not a depth cap per family
DELETED = (
    "rat_nearest_int",
    "quad_nearest_int",
    "quad_sign",
    "quad_arith",
    "quad_to_decimal",
    "simulate_walk",
    "ScanRecord",
    "TailDiagnosis",
    "VerifyReport",
    "verify_fast_vs_naive",
    "compare_fast_naive",
    "RecoveryRecord",
    "fib",
    "sylvester",
    "fib_pow2",
    "SYLVESTER_DEPTH_CAP",
    "FIB2_DEPTH_CAP",
)

MODULES = [
    importlib.import_module(f"egyptfrac.{info.name}")
    for info in pkgutil.iter_modules(egyptfrac.__path__)
    if info.name != "__main__"
]


class TestPublicSurface:
    @pytest.mark.parametrize("module", [egyptfrac, *MODULES], ids=lambda m: m.__name__)
    def test_all_names_resolve(self, module):
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"

    def test_package_all_has_no_duplicates(self):
        assert len(egyptfrac.__all__) == len(set(egyptfrac.__all__))

    @pytest.mark.parametrize("module", [egyptfrac, *MODULES], ids=lambda m: m.__name__)
    def test_deleted_names_absent(self, module):
        for name in DELETED:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
            assert name not in getattr(module, "__all__", ())

    @pytest.mark.parametrize("call", [
        lambda: sequences.sylvester_terms(1, 3, depth_cap=5),
        lambda: sequences.fib_pow2_terms(3, depth_cap=5),
    ], ids=["sylvester_terms", "fib_pow2_terms"])
    def test_no_depth_cap_keyword(self, call):
        with pytest.raises(TypeError):
            call()

    def test_term_bit_cap_lives_in_exactnum_alone(self):
        # a copy elsewhere would be a patch target that changes nothing
        assert exactnum.TERM_BIT_CAP == 2**24
        assert [m.__name__ for m in MODULES if hasattr(m, "TERM_BIT_CAP")] == [
            "egyptfrac.exactnum"]

    def test_no_digit_limit_keyword(self):
        with pytest.raises(TypeError):
            expansion.gap_sequence_naive(11, 29, 5, digit_limit=10)

    def test_no_block_keyword(self):
        with pytest.raises(TypeError):
            randwalk.run_walks(50.0, 30, 20, 9, block=7)

    def test_no_fully_modular_keyword(self):
        with pytest.raises(TypeError):
            gapfast.gap_sequence_fast(11, 29, 5, fully_modular=True)


# every result type, with its fields in order and their defaults: one
# immutable named-tuple idiom
RECORDS = {
    "GapTrace": ("p", "q", "c", "e", "terminated", "n0", "steps"),
    "GapStep": ("c", "e", "eps"),
    "ScanSummary": ("q_min", "q_max", "pairs_total", "pairs_zero", "pairs_maxiter",
                    "n0_histogram", "max_c", "wall_time_s"),
    "ExpansionRecord": ("n", "a", "x", "eps", "c", "d", "e"),
    "Expansion": ("kind", "records", "status", "zero_gap_at"),
    "CharacterizationCheck": ("n", "a", "delta", "threshold_met", "formula_ok"),
    "GrowthEstimate": ("m", "depth", "c_hat", "residual_bound"),
    "WalkStats": ("trials", "steps", "c0", "mean_log_t", "stderr_log_t", "hit_fraction",
                  "mean_hit_time", "seed", "generator_id"),
}
DEFAULTS = {
    "ExpansionRecord": {"eps": None, "c": None, "d": None, "e": None},
    "WalkStats": {"generator_id": "splitmix64-mix-v1"},
}


@pytest.mark.parametrize("name", RECORDS)
def test_result_types_are_named_tuples(name):
    cls = getattr(egyptfrac, name)
    assert issubclass(cls, tuple)
    assert cls._fields == RECORDS[name]
    assert cls._field_defaults == DEFAULTS.get(name, {})


# spans (and counters) that each traced command must record at least once
_TRACED = [
    pytest.param(
        ["scan", "--qmin", "1", "--qmax", "12", "--maxiter", "100", "--out", "scan.csv"],
        ["cli.main", "scanner.scan_conjecture", "gapfast.gap_sequence_fast",
         "scanner.diagnose_tail", "cli.progress"],
        ["scanner.rows_computed", "scanner.out_bytes"],
        id="scan",
    ),
    pytest.param(
        ["expand", "--r", "11/29", "--kind", "pseudo", "--terms", "6", "--format", "csv"],
        ["expansion.expand", "exactnum.nearest_int", "exactnum.decimal_digits",
         "exactnum.format_value"],
        ["expansion.expand.terms", "exactnum.format_value.chars", "exactnum.max_operand_bits"],
        id="expand",
    ),
    pytest.param(
        ["recover", "--sum", "(5-1 sqrt 5)/2", "--beta", "1/3", "--terms", "4",
         "--format", "json"],
        ["recovery.recover_sequence", "exactnum.nearest_int", "exactnum.format_value"],
        ["recovery.recover_sequence.terms", "exactnum.max_operand_bits"],
        id="recover",
    ),
    pytest.param(
        ["gaps", "--r", "11/29", "--terms", "10", "--method", "both"],
        ["gapfast.gap_sequence_fast", "expansion.gap_sequence_naive"],
        ["gapfast.gap_sequence_fast.steps", "expansion.gap_sequence_naive.steps"],
        id="gaps-both",
    ),
    pytest.param(
        ["walk", "--c0", "10", "--steps", "20", "--trials", "8", "--seed", "1"],
        ["randwalk.run_walks"],
        ["randwalk.steps_drawn", "randwalk.peak_alloc_mib"],
        id="walk",
    ),
]


@pytest.mark.parametrize("argv, spans, counters", _TRACED)
def test_tracer_hook_points(tmp_path, argv, spans, counters):
    summary = tmp_path / "summary.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "tracer.py"), str(summary), *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(summary.read_text())
    for name in spans:
        assert record["spans"][name]["calls"] > 0, name
    for name in counters:
        assert record["counters"][name] > 0, name
