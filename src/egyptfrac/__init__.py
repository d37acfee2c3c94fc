"""Exact Egyptian-fraction expansions, gap sequences, and reciprocal-sum recovery.

The package computes greedy, odd-greedy, and pseudo-greedy unit-fraction
expansions of rationals and real quadratic irrationals in exact arithmetic,
gap sequences of rational pseudo-greedy expansions both naively and through
a modular residue-chain algorithm, nearest-integer recovery of doubly
exponential sequences (Sylvester, Millin) from their reciprocal sums, an
exhaustive zero-gap scanner, and the multiplicative random-walk heuristic
for the bookkeeping numerators.

One rule decides what loads: a submodule is imported when one of its names
is first used.  ``import egyptfrac`` loads no submodule, and each command of
:mod:`egyptfrac.cli` loads only the modules it runs (``seq`` loads
:mod:`~egyptfrac.sequences` and :mod:`~egyptfrac.exactnum`, for example).

Everything but the random walk uses the standard library alone.  The walk
(:mod:`egyptfrac.randwalk`) needs numpy, installed with
``pip install 'egyptfrac[walk]'``.  Its names stay out of ``__all__``, so
neither importing the package nor a star-import loads numpy.
"""

__version__ = "0.1.0"

import importlib

# The module that defines each public name.  A module loads when one of its
# names is first used, so importing the package loads none of them.
_NAMES = {
    "errors": (
        "EgyptError",
        "RadicandMismatch",
        "DepthExceeded",
        "NonPositiveInput",
        "OddGreedyOnIrrational",
        "NotReduced",
        "NegativeBeta",
        "SumExceeds",
        "RecoveryBreakdown",
        "CorruptCheckpoint",
        "IoError",
        "MissingDependency",
    ),
    "exactnum": (
        "QuadraticValue",
        "nearest_int",
        "floor_value",
        "ceil_value",
        "sign_of",
        "to_decimal",
        "parse_value",
        "format_value",
    ),
    "sequences": (
        "sylvester",
        "sylvester_terms",
        "fib",
        "fib_pow2",
        "GrowthEstimate",
        "growth_constant",
    ),
    "expansion": (
        "ExpansionKind",
        "ExpansionStatus",
        "ExpansionRecord",
        "Expansion",
        "expand",
        "GapStep",
        "gap_sequence_naive",
    ),
    "gapfast": (
        "GapTrace",
        "gap_sequence_fast",
    ),
    "recovery": (
        "CharacterizationCheck",
        "threshold",
        "recover_sequence",
        "verify_characterization",
    ),
    "scanner": (
        "ScanSummary",
        "scan_conjecture",
        "diagnose_tail",
    ),
    # randwalk imports numpy: its names stay out of __all__, so a star-import
    # never loads numpy
    "randwalk": (
        "GENERATOR_ID",
        "WalkStats",
        "analytic_drift",
    ),
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names}

__all__ = ["__version__"] + [
    name for module, names in _NAMES.items() if module != "randwalk" for name in names
]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .errors import MissingDependency

    try:
        value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    except MissingDependency as exc:
        # an AttributeError, so hasattr() answers False without numpy
        raise AttributeError(f"module {__name__!r} attribute {name!r} "
                             f"needs numpy: {exc}") from exc
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
