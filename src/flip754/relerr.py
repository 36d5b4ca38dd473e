"""Exact relative errors of single bit flips, with closed-form bounds.

The relative error |x - x'| / |x| of a flip is computed as an exact
`Fraction`; no floating-point rounding enters anywhere.  For finite
nonzero sources each flip locus carries a closed-form prediction:

* sign flip: exactly 2;
* fraction entry k of a normalized word: in (2^-(k+1), 2^-k];
* exponent entry k, 0 to 1, still finite: exactly 2^(2^(w_e-k)) - 1;
* exponent entry k, 1 to 0, still normalized: exactly 1 - 2^-(2^(w_e-k));
* exponent entry k, 1 to 0, into the denormals: in (1 - 2^-(2^(w_e-k)), 1],
  hitting 1 exactly when the fraction is zero (the flip lands on zero);
* fraction entry k of a denormal with leading nonzero entry t:
  in (2^(t-k-1), 2^(t-k)];
* exponent entry k of a nonzero denormal: strictly above 2^(2^(w_e-k)) - 1,
  with no finite upper bound.  The exact excess is reported rather than
  judged, so these cases are informational.

`check_bounds` evaluates one word/position pair against the matching
prediction with exact Fractions.  `bounds_sweep` judges every position
of a whole uint64 array of words with integer comparisons only: it is a
(case, held) histogram of the flip-outcome kernel in `_vector`, the same
case analysis that the census and the campaign in `montecarlo` tally.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from ._vector import BATCH, Case, FlipKernel
# Not called here: perfbench/tracer.py looks these names up in this module.
from ._vector import classify_codes, flip_bits, msb_index, split_fields  # noqa: F401
from .formats import (
    Field,
    FieldLocus,
    FpClass,
    FpFormat,
    ValueKind,
    Word,
    bit_of_locus,
    classify,
    decode_fields,
    decode_value,
    first_nonzero_fraction_entry,
    locus_of_bit,
)
from .inject import flip_bit

__all__ = [
    "ErrorKind",
    "RelativeError",
    "ErrorInterval",
    "CheckStatus",
    "BoundsCheck",
    "SweepReport",
    "relative_error",
    "normalized_error_interval",
    "denormal_error_interval",
    "check_bounds",
    "bounds_sweep",
]


# ── exact relative error ──────────────────────────────────────────────────


class ErrorKind(Enum):
    """Whether a flip admits a finite relative error."""

    FINITE = "finite"
    NONFINITE = "nonfinite"  # x finite, x' is NaN or infinite
    UNDEFINED = "undefined"  # x is zero, NaN, or infinite


@dataclass(frozen=True)
class RelativeError:
    """Relative error of one flip; `value` is set only for FINITE."""

    kind: ErrorKind
    value: Fraction | None = None

    def __post_init__(self) -> None:
        if (self.kind is ErrorKind.FINITE) != (self.value is not None):
            raise ValueError("value must be present exactly for finite errors")


def relative_error(w: Word, pos: int) -> RelativeError:
    """Exact |x - x'| / |x| for the flip of bit `pos`, as a Fraction.

    Undefined when x is zero, NaN, or infinite; non-finite when the
    flipped word leaves the finite range.
    """
    v = decode_value(w)
    if v.kind is not ValueKind.FINITE or v.significand == 0:
        return RelativeError(ErrorKind.UNDEFINED)
    v2 = decode_value(flip_bit(w, pos))
    if v2.kind is not ValueKind.FINITE:
        return RelativeError(ErrorKind.NONFINITE)
    x = v.as_fraction()
    return RelativeError(ErrorKind.FINITE, abs(x - v2.as_fraction()) / abs(x))


# ── closed-form intervals ─────────────────────────────────────────────────


@dataclass(frozen=True)
class ErrorInterval:
    """Predicted range for a relative error; `upper=None` means unbounded.

    `exact_point` marks predictions that pin the error to a single value.
    """

    lower: Fraction
    upper: Fraction | None
    lower_open: bool = False
    upper_open: bool = False
    exact_point: Fraction | None = None

    @classmethod
    def point(cls, q: Fraction) -> "ErrorInterval":
        return cls(q, q, exact_point=q)

    def contains(self, q: Fraction) -> bool:
        if q < self.lower or (self.lower_open and q == self.lower):
            return False
        if self.upper is None:
            return True
        return q < self.upper or (not self.upper_open and q == self.upper)


def normalized_error_interval(
    w: Word, locus: FieldLocus, class_after: FpClass
) -> ErrorInterval:
    """Predicted error interval for flipping `locus` of a normalized word.

    `class_after` must match the class the flip actually produces.
    Raises ValueError when the flip lands on NaN or an infinity, where no
    finite prediction exists.
    """
    fmt = w.fmt
    if classify(w) is not FpClass.NORMALIZED:
        raise ValueError("source word is not normalized")
    actual = classify(flip_bit(w, bit_of_locus(fmt, locus)))
    if class_after is not actual:
        raise ValueError(f"flip produces {actual.name}, not {class_after.name}")

    if locus.field is Field.SIGN:
        return ErrorInterval.point(Fraction(2))
    k = locus.index
    if locus.field is Field.FRACTION:
        return ErrorInterval(
            Fraction(1, 2 ** (k + 1)), Fraction(1, 2**k), lower_open=True
        )

    # exponent entry k; place value within the biased exponent is 2^(w_e - k)
    d = 2 ** (fmt.exponent_bits - k)
    _, e, _ = decode_fields(w)
    if (e >> (fmt.exponent_bits - k)) & 1 == 0:
        if class_after in (FpClass.NAN, FpClass.INF):
            raise ValueError("flip lands on a non-finite word; no finite bound")
        return ErrorInterval.point(Fraction(2**d - 1))
    if class_after is FpClass.NORMALIZED:
        return ErrorInterval.point(1 - Fraction(1, 2**d))
    if class_after is FpClass.DENORMALIZED:
        return ErrorInterval(1 - Fraction(1, 2**d), Fraction(1), lower_open=True)
    raise ValueError("downward exponent flip cannot leave the finite range")


def denormal_error_interval(w: Word, locus: FieldLocus) -> ErrorInterval:
    """Predicted error interval for flipping `locus` of a nonzero denormal.

    Exponent flips get a one-sided interval: the error strictly exceeds
    2^(2^(w_e-k)) - 1 and has no finite upper bound.
    """
    fmt = w.fmt
    _, _, f = decode_fields(w)
    if classify(w) is not FpClass.DENORMALIZED or f == 0:
        raise ValueError("source word is not a nonzero denormal")

    if locus.field is Field.SIGN:
        return ErrorInterval.point(Fraction(2))
    k = locus.index
    if locus.field is Field.FRACTION:
        t = first_nonzero_fraction_entry(w)
        return ErrorInterval(
            Fraction(2) ** (t - k - 1), Fraction(2) ** (t - k), lower_open=True
        )
    d = 2 ** (fmt.exponent_bits - k)
    return ErrorInterval(
        Fraction(2**d - 1), None, lower_open=True, upper_open=True
    )


# ── single-case conformance check ─────────────────────────────────────────


class CheckStatus(Enum):
    CONFORMS = "conforms"
    VIOLATES = "violates"
    INFORMATIONAL = "informational"


@dataclass(frozen=True)
class BoundsCheck:
    """Outcome of testing one flip against its closed-form prediction."""

    status: CheckStatus
    error: RelativeError
    interval: ErrorInterval | None
    reference: Fraction | None
    deviation: Fraction | None
    note: str = ""


def check_bounds(w: Word, pos: int) -> BoundsCheck:
    """Compare the exact error of one flip against its predicted interval.

    Informational outcomes cover the cases with no two-sided finite
    prediction: undefined or non-finite errors, and exponent flips of
    nonzero denormals, whose exact excess over the open lower bound is
    reported in `deviation`.
    """
    fmt = w.fmt
    err = relative_error(w, pos)
    if err.kind is ErrorKind.UNDEFINED:
        return BoundsCheck(
            CheckStatus.INFORMATIONAL, err, None, None, None,
            "source word is zero, NaN, or infinite; relative error undefined",
        )
    if err.kind is ErrorKind.NONFINITE:
        return BoundsCheck(
            CheckStatus.INFORMATIONAL, err, None, None, None,
            "flipped word is NaN or infinite; no finite relative error",
        )

    locus = locus_of_bit(fmt, pos)
    after = classify(flip_bit(w, pos))
    if classify(w) is FpClass.NORMALIZED:
        iv = normalized_error_interval(w, locus, after)
        ref = iv.exact_point
        dev = err.value - ref if ref is not None else None
        ok = iv.contains(err.value)
        return BoundsCheck(
            CheckStatus.CONFORMS if ok else CheckStatus.VIOLATES,
            err, iv, ref, dev,
        )

    iv = denormal_error_interval(w, locus)
    if locus.field is Field.EXPONENT:
        held = iv.contains(err.value)
        return BoundsCheck(
            CheckStatus.INFORMATIONAL if held else CheckStatus.VIOLATES,
            err, iv, iv.lower, err.value - iv.lower,
            "one-sided bound for a denormal exponent flip; exact excess "
            "over the open lower bound is reported, not judged",
        )
    ok = iv.contains(err.value)
    return BoundsCheck(
        CheckStatus.CONFORMS if ok else CheckStatus.VIOLATES,
        err, iv, iv.exact_point,
        err.value - iv.exact_point if iv.exact_point is not None else None,
    )


# ── vectorized sweep ──────────────────────────────────────────────────────


@dataclass(frozen=True)
class SweepReport:
    """Tally of `check_bounds` outcomes over words x all positions.

    The five counters partition `cases`.  `violation_examples` holds up
    to ten (word hex, position) pairs for diagnosis.
    """

    fmt: FpFormat
    cases: int
    conforms: int
    violations: int
    informational: int
    nonfinite: int
    undefined: int
    violation_examples: tuple[tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        parts = (
            self.conforms + self.violations + self.informational
            + self.nonfinite + self.undefined
        )
        if parts != self.cases:
            raise ValueError("sweep counters do not partition the case count")


def bounds_sweep(fmt: FpFormat, bits: np.ndarray) -> SweepReport:
    """Check every (word, position) pair of `bits` against the predictions.

    Integer arithmetic only, a few thousand times faster than `check_bounds`.
    A case conforms when the after-word of the vector flip differs from the
    source exactly where its closed form says; the counters then equal those
    of `check_bounds` on every pair (tested exhaustively on small formats),
    and any other after-word counts as a violation.
    """
    b = np.asarray(bits, dtype=np.uint64).ravel()
    counts = np.zeros((Case.COUNT, 2), dtype=np.int64)  # (case, held)
    judged = np.arange(Case.COUNT) != Case.UNDEFINED
    examples: list[tuple[str, int]] = []
    for start in range(0, b.size, BATCH):
        kernel = FlipKernel(fmt, b[start : start + BATCH])
        for pos in range(fmt.total_bits):
            label, held, _ = kernel.outcome(pos)
            here = np.bincount(label * 2 + held, minlength=2 * Case.COUNT).reshape(Case.COUNT, 2)
            counts += here
            if len(examples) < 10 and here[judged, 0].any():
                bad = np.flatnonzero(~held & (label != Case.UNDEFINED))
                examples += [
                    (Word(int(kernel.bits[i]), fmt).hex(), pos)
                    for i in bad[: 10 - len(examples)]
                ]

    missed, kept = counts[:, 0], counts[:, 1]
    nonfinite, informational = int(kept[Case.EXP_NONFINITE]), int(kept[Case.DEN_EXP])
    return SweepReport(
        fmt=fmt,
        cases=b.size * fmt.total_bits,
        conforms=int(kept[judged].sum()) - nonfinite - informational,
        violations=int(missed[judged].sum()),
        informational=informational,
        nonfinite=nonfinite,
        undefined=int(counts[Case.UNDEFINED].sum()),
        violation_examples=tuple(examples),
    )
