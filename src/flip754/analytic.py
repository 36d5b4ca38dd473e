"""Closed-form probability models for a uniform random single bit flip.

All results are exact `Fraction`s under the two-stage uniform model:
draw a word uniformly from one class of a format, then flip one of its
W bit positions uniformly.  Three families of quantities:

* class-transition probabilities (4 x 4 matrix over Normalized,
  Denormalized, NaN, Inf);
* interval probabilities for the relative error of a flip on a
  normalized word (at least 1, strictly between 1/2 and 1, at most 1/2);
* the dyadic CDF Pr(err <= 2^-i) = (w_f + 1 - i) / W, with two-sided
  dyadic bracketing of arbitrary decimal tolerances.

Flips that land on NaN or an infinity have no finite relative error.
The MERGED bucket convention counts them with the `at least 1` mass
(the magnitude change is unbounded); SEPARATED reports them on their
own so the three finite buckets cover finite outcomes only.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .formats import CLASS_ORDER, FpClass, FpFormat
from .rationals import floor_log2, ratio_str

__all__ = [
    "BucketConvention",
    "TransitionMatrix",
    "IntervalProbabilities",
    "ThresholdBounds",
    "ToleranceResolutionError",
    "transition_matrix",
    "interval_probabilities",
    "cdf_dyadic",
    "decimal_threshold_bounds",
    "tolerance_table",
]


class BucketConvention(Enum):
    """How flips that land non-finite are bucketed; see the module docstring."""

    MERGED = "merged"
    SEPARATED = "separated"


# ── class transitions ─────────────────────────────────────────────────────


@dataclass(frozen=True)
class TransitionMatrix:
    """Exact class-transition probabilities; rows are source classes."""

    fmt: FpFormat
    entries: dict[tuple[FpClass, FpClass], Fraction]

    def __post_init__(self) -> None:
        for src in CLASS_ORDER:
            if sum(self.row(src).values()) != 1:
                raise ValueError(f"{src.name} row does not sum to 1")
            if any(p < 0 for p in self.row(src).values()):
                raise ValueError(f"{src.name} row has a negative entry")

    def entry(self, src: FpClass, dst: FpClass) -> Fraction:
        return self.entries[(src, dst)]

    def row(self, src: FpClass) -> dict[FpClass, Fraction]:
        return {dst: self.entries[(src, dst)] for dst in CLASS_ORDER}


def transition_matrix(fmt: FpFormat) -> TransitionMatrix:
    """Closed-form transition matrix for one uniform flip on `fmt`.

    Each entry is the probability that a word drawn uniformly from the
    row's class lands in the column's class after one uniform flip.
    """
    w_e, w_f, w = fmt.exponent_bits, fmt.fraction_bits, fmt.total_bits
    n_exp = (1 << w_e) - 2  # normalized exponent codes
    n_frac = 1 << w_f
    norm, den, nan, inf = (
        FpClass.NORMALIZED, FpClass.DENORMALIZED, FpClass.NAN, FpClass.INF,
    )

    e: dict[tuple[FpClass, FpClass], Fraction] = {}
    # Normalized: only exponent flips can leave the class.  An upward flip
    # (0 to 1) reaches the all-ones code with probability w_e / (n_exp W)
    # and then splits NaN : Inf by whether the fraction is nonzero; a
    # downward flip clears the exponent with the same probability.
    esc = Fraction(w_e, n_exp) / w
    e[norm, nan] = esc * (1 - Fraction(1, n_frac))
    e[norm, inf] = esc * Fraction(1, n_frac)
    e[norm, den] = esc
    e[norm, norm] = 1 - 2 * esc

    # Denormalized (zero exponent, either sign, any fraction): sign and
    # fraction flips stay put; any exponent flip normalizes.
    e[den, den] = Fraction(1 + w_f, w)
    e[den, norm] = Fraction(w_e, w)
    e[den, nan] = Fraction(0)
    e[den, inf] = Fraction(0)

    # NaN (all-ones exponent, nonzero fraction): any exponent flip drops
    # to a normalized code; a fraction flip reaches Inf only from the
    # w_f single-entry fractions, one position each.
    e[nan, norm] = Fraction(w_e, w)
    e[nan, inf] = Fraction(w_f, (n_frac - 1) * w)
    e[nan, den] = Fraction(0)
    e[nan, nan] = 1 - e[nan, norm] - e[nan, inf]

    # Inf (all-ones exponent, zero fraction): the three field types map
    # one-to-one onto the three reachable classes.
    e[inf, nan] = Fraction(w_f, w)
    e[inf, norm] = Fraction(w_e, w)
    e[inf, inf] = Fraction(1, w)
    e[inf, den] = Fraction(0)

    return TransitionMatrix(fmt, e)


# ── relative-error interval probabilities ─────────────────────────────────

# The error buckets in report order; nonfinite is populated under SEPARATED only.
BUCKET_NAMES = ("ge_one", "between_half_and_one", "le_half", "nonfinite")


@dataclass(frozen=True)
class IntervalProbabilities:
    """Exact bucket probabilities for the error of a flip on a normalized word.

    `nonfinite` is None under MERGED (its mass is folded into `ge_one`).
    The populated buckets always sum to exactly 1.
    """

    fmt: FpFormat
    convention: BucketConvention
    ge_one: Fraction
    between_half_and_one: Fraction
    le_half: Fraction
    nonfinite: Fraction | None

    def __post_init__(self) -> None:
        if sum(self.buckets().values()) != 1:
            raise ValueError("bucket probabilities do not sum to 1")

    def buckets(self) -> dict[str, Fraction]:
        """The populated buckets by name, in `BUCKET_NAMES` order."""
        names = BUCKET_NAMES if self.nonfinite is not None else BUCKET_NAMES[:-1]
        return {name: getattr(self, name) for name in names}


def interval_probabilities(
    fmt: FpFormat, convention: BucketConvention = BucketConvention.MERGED
) -> IntervalProbabilities:
    """Exact probabilities that one flip's error is >= 1, in (1/2, 1), or <= 1/2.

    Source words are uniform normalized words of `fmt`.  Sign flips and
    upward exponent flips give errors of at least 1; downward exponent
    flips that land on zero do too.  Downward flips otherwise fall in
    (1/2, 1), except the exponent's lowest entry, which gives exactly 1/2
    and joins the fraction flips in the `le_half` bucket.
    """
    w_e, w_f, w = fmt.exponent_bits, fmt.fraction_bits, fmt.total_bits
    n_exp = (1 << w_e) - 2
    # Mass of downward exponent flips that land exactly on zero (error 1).
    hits_zero = Fraction(w_e, n_exp) / w / (1 << w_f)
    # A downward flip gives error 1 - 2^-(2^(w_e-k)), which is <= 1/2 only
    # at the lowest entry and only if the word stays normalized: biased
    # exponent odd and at least 3, which 2^(w_e-1) - 2 codes satisfy.
    low_entry = Fraction((1 << (w_e - 1)) - 2, n_exp) / w
    nonfinite = Fraction(w_e, n_exp) / w

    ge_one = Fraction(1, w) + Fraction(w_e, 2 * w) + hits_zero
    between = Fraction(w_e, 2 * w) - low_entry - hits_zero
    le_half = Fraction(w_f, w) + low_entry

    if convention is BucketConvention.MERGED:
        return IntervalProbabilities(fmt, convention, ge_one, between, le_half, None)
    return IntervalProbabilities(
        fmt, convention, ge_one - nonfinite, between, le_half, nonfinite
    )


def cdf_dyadic(fmt: FpFormat, i: int) -> Fraction:
    """Pr(relative error <= 2^-i) for one flip on a normalized word.

    Exact and word-independent: (w_f + 1 - i) / W for 2 <= i <= w_f.
    Only fraction flips at entries k >= i can land at or below 2^-i.
    """
    if not 2 <= i <= fmt.fraction_bits:
        raise ValueError(
            f"dyadic index must lie in [2, {fmt.fraction_bits}], got {i}"
        )
    return Fraction(fmt.fraction_bits + 1 - i, fmt.total_bits)


# ── decimal tolerance bracketing ──────────────────────────────────────────


class ToleranceResolutionError(ValueError):
    """Tolerance falls below the finest dyadic level 2^-w_f of the format."""


@dataclass(frozen=True)
class ThresholdBounds:
    """Two-sided dyadic bracket of Pr(error <= tolerance).

    2^-i_upper >= tolerance >= 2^-i_lower, so the dyadic CDF at i_lower
    and i_upper sandwiches the exact probability.
    """

    fmt: FpFormat
    tolerance: Fraction
    i_lower: int
    i_upper: int
    lower: Fraction
    upper: Fraction


def decimal_threshold_bounds(fmt: FpFormat, tolerance: Fraction) -> ThresholdBounds:
    """Bracket Pr(error <= tolerance) between two dyadic CDF values.

    The tolerance must lie in (0, 1/4]; comparisons against powers of two
    are exact, so decimal tolerances such as 10^-11 are bracketed without
    rounding.  Raises ToleranceResolutionError when the bracket would
    need a dyadic level finer than 2^-w_f.
    """
    tolerance = Fraction(tolerance)
    if not 0 < tolerance <= Fraction(1, 4):
        raise ValueError("tolerance must lie in (0, 1/4]")
    i_upper = floor_log2(1 / tolerance)  # largest i with 2^-i >= tolerance
    i_lower = i_upper if Fraction(1, 2**i_upper) == tolerance else i_upper + 1
    if i_lower > fmt.fraction_bits:
        raise ToleranceResolutionError(
            f"tolerance {ratio_str(tolerance)} needs dyadic level 2^-{i_lower}, finer "
            f"than the format's resolution 2^-{fmt.fraction_bits}"
        )
    return ThresholdBounds(
        fmt=fmt,
        tolerance=tolerance,
        i_lower=i_lower,
        i_upper=i_upper,
        lower=cdf_dyadic(fmt, i_lower),
        upper=cdf_dyadic(fmt, i_upper),
    )


def tolerance_table(fmt: FpFormat) -> list[ThresholdBounds]:
    """Brackets for the decimal tolerances 10^-1, 10^-2, ... down to the
    finest the format resolves, and at most 10^-15; empty when even 10^-1
    needs a dyadic level finer than 2^-w_f."""
    table = []
    for m in range(1, 16):
        try:
            table.append(decimal_threshold_bounds(fmt, Fraction(1, 10**m)))
        except ToleranceResolutionError:  # so is every finer tolerance
            break
    return table
