"""Single bit flips in binary floating-point words.

Exact tools for studying what one flipped bit does to an IEEE-style
binary word: class transitions (normalized / denormalized / NaN / Inf),
exact relative errors as rationals, closed-form probabilities for a
uniform random flip, and empirical validation by exhaustive enumeration
on small formats and seeded Monte Carlo sampling on large ones.
"""

from .analytic import (
    BucketConvention,
    IntervalProbabilities,
    ThresholdBounds,
    ToleranceResolutionError,
    TransitionMatrix,
    cdf_dyadic,
    decimal_threshold_bounds,
    interval_probabilities,
    tolerance_table,
    transition_matrix,
)
from .fileio import (
    InjectionEvent,
    InjectionSummary,
    inject_file,
    inject_words,
    read_words,
    words_from_bytes,
    words_to_bytes,
    write_words,
)
from .formats import (
    BINARY16,
    BINARY32,
    BINARY64,
    ExactValue,
    Field,
    FieldLocus,
    FpClass,
    FpFormat,
    TransitionRecord,
    ValueKind,
    Word,
    bit_of_locus,
    class_size,
    classify,
    decode_fields,
    decode_value,
    encode_nearest,
    flip_bit,
    locus_of_bit,
    parse_hex_word,
    recompose,
    transition,
    word_from_float,
    word_to_float,
)
from .montecarlo import (
    CampaignConfig,
    CampaignReport,
    CensusReport,
    ComparisonCell,
    ComparisonReport,
    FlipTally,
    compare,
    exhaustive_census,
    run_campaign,
)
from .rationals import decimal_str, floor_log2, log2_value, parse_rational, ratio_str
from .relerr import (
    BoundsCheck,
    CheckStatus,
    ErrorInterval,
    ErrorKind,
    RelativeError,
    SweepReport,
    bounds_sweep,
    check_bounds,
    relative_error,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # formats
    "FpFormat", "Word", "FpClass", "Field", "FieldLocus", "ExactValue",
    "ValueKind", "BINARY16", "BINARY32", "BINARY64", "decode_fields",
    "recompose", "classify", "decode_value", "locus_of_bit", "bit_of_locus",
    "class_size", "parse_hex_word", "word_from_float", "word_to_float",
    "encode_nearest",
    # single flips
    "TransitionRecord", "flip_bit", "transition",
    # relative errors
    "ErrorKind", "RelativeError", "ErrorInterval", "CheckStatus",
    "BoundsCheck", "SweepReport", "relative_error", "check_bounds",
    "bounds_sweep",
    # closed forms
    "BucketConvention", "TransitionMatrix", "IntervalProbabilities",
    "ThresholdBounds", "ToleranceResolutionError", "transition_matrix",
    "interval_probabilities", "cdf_dyadic", "decimal_threshold_bounds",
    "tolerance_table",
    # sampling and census
    "CampaignConfig", "CampaignReport", "CensusReport", "ComparisonCell",
    "ComparisonReport", "FlipTally", "run_campaign",
    "exhaustive_census", "compare",
    # streams
    "InjectionEvent", "InjectionSummary", "words_from_bytes",
    "words_to_bytes", "read_words", "write_words", "inject_words",
    "inject_file",
    # rationals
    "decimal_str", "ratio_str", "log2_value", "parse_rational", "floor_log2",
]
