"""Exact Egyptian-fraction expansions, gap sequences, and reciprocal-sum recovery.

The package computes greedy, odd-greedy, and pseudo-greedy unit-fraction
expansions of rationals and real quadratic irrationals in exact arithmetic,
gap sequences of rational pseudo-greedy expansions both naively and through
a modular residue-chain algorithm, nearest-integer recovery of doubly
exponential sequences (Sylvester, Millin) from their reciprocal sums, an
exhaustive zero-gap scanner, and the multiplicative random-walk heuristic
for the bookkeeping numerators.

Everything but the random walk uses the standard library alone.  The walk
(:mod:`egyptfrac.randwalk`) needs numpy, installed with
``pip install 'egyptfrac[walk]'``; it is imported only when one of its names
is first used, so importing the package never loads numpy.
"""

__version__ = "0.1.0"

from .errors import (
    CorruptCheckpoint,
    DepthExceeded,
    EgyptError,
    IoError,
    MissingDependency,
    NegativeBeta,
    NonPositiveInput,
    NotReduced,
    OddGreedyOnIrrational,
    RadicandMismatch,
    RecoveryBreakdown,
    SumExceeds,
)
from .exactnum import (
    QuadraticValue,
    ceil_value,
    floor_value,
    format_value,
    nearest_int,
    parse_value,
    sign_of,
    to_decimal,
)
from .sequences import (
    GrowthEstimate,
    fib,
    fib_pow2,
    growth_constant,
    sylvester,
    sylvester_terms,
)
from .expansion import (
    Expansion,
    ExpansionKind,
    ExpansionRecord,
    ExpansionStatus,
    GapStep,
    expand,
    gap_sequence_naive,
)
from .gapfast import GapTrace, VerifyReport, gap_sequence_fast, verify_fast_vs_naive
from .recovery import (
    CharacterizationCheck,
    RecoveryRecord,
    recover_sequence,
    threshold,
    verify_characterization,
)
from .scanner import (
    ScanSummary,
    diagnose_tail,
    scan_conjecture,
)

__all__ = [
    "__version__",
    # errors
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
    # exact numbers
    "QuadraticValue",
    "nearest_int",
    "floor_value",
    "ceil_value",
    "sign_of",
    "to_decimal",
    "parse_value",
    "format_value",
    # sequences
    "sylvester",
    "sylvester_terms",
    "fib",
    "fib_pow2",
    "GrowthEstimate",
    "growth_constant",
    # expansions
    "ExpansionKind",
    "ExpansionStatus",
    "ExpansionRecord",
    "Expansion",
    "expand",
    "GapStep",
    "gap_sequence_naive",
    # fast gaps
    "GapTrace",
    "gap_sequence_fast",
    "VerifyReport",
    "verify_fast_vs_naive",
    # recovery
    "RecoveryRecord",
    "CharacterizationCheck",
    "threshold",
    "recover_sequence",
    "verify_characterization",
    # scanner
    "ScanSummary",
    "scan_conjecture",
    "diagnose_tail",
]

# Resolved on first use, because randwalk imports numpy.  They stay out of
# __all__, so a star-import never loads numpy.
_WALK_NAMES = ("GENERATOR_ID", "WalkStats", "analytic_drift")


def __getattr__(name):
    if name in _WALK_NAMES:
        try:
            from . import randwalk
        except MissingDependency as exc:
            # an AttributeError, so hasattr() answers False without numpy
            raise AttributeError(f"module {__name__!r} attribute {name!r} "
                                 f"needs numpy: {exc}") from exc
        return getattr(randwalk, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
