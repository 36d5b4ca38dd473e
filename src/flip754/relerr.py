"""Exact relative errors of single bit flips, with closed-form bounds.

The relative error |x - x'| / |x| of a flip is computed on integers as
a lowest-terms pair n/d (`error_ratio`) and handed out as an exact
`Fraction` (`relative_error`); no floating-point rounding enters
anywhere.  `error_ratio` follows the definition: it decodes the word
and the flipped word alike and divides, with no split by the flip's
locus, so it shares no case analysis with the predictions it checks.
`error_values` renders one flip's error for printing, and `error_rows`
renders a whole chunk of flips to the same values: fraction flips with
numpy, the others once per position and `FlipKernel` case.
For finite nonzero sources each flip locus carries a closed-form
prediction:

* sign flip: exactly 2;
* fraction entry k under leading entry t: in (2^(t-k-1), 2^(t-k)], where
  t = 0 for a normalized word (its hidden bit) and t is the first nonzero
  fraction entry of a denormal;
* exponent entry k, 0 to 1, still finite: exactly 2^(2^(w_e-k)) - 1;
* exponent entry k, 1 to 0, still normalized: exactly 1 - 2^-(2^(w_e-k));
* exponent entry k, 1 to 0, into the denormals: in (1 - 2^-(2^(w_e-k)), 1],
  hitting 1 exactly when the fraction is zero (the flip lands on zero);
* exponent entry k of a nonzero denormal: strictly above 2^(2^(w_e-k)) - 1,
  with no finite upper bound.  The exact excess is reported rather than
  judged, so these cases are informational.

`check_bounds` reads the matching prediction from a word's fields and
one position and evaluates it with exact Fractions.  `bounds_sweep`
judges every position of a whole uint64 array of words with integer
comparisons only, through the flip-outcome kernel in `_vector` whose
case labels the census and the campaign in `montecarlo` tally and
`error_rows` keys.  It counts the kernel's `held` verdicts, and reads
case labels only at exponent positions, to set non-finite landings and
one-sided denormal exponent flips apart; it never asks for destination
classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import repeat

import numpy as np

from ._vector import BATCH, Case, FlipKernel, as_words, msb_index
from .formats import FpFormat, Word, _check_position, _finite_parts, decode_fields
from .rationals import MAX_EXACT_BITS, decimal_text, decimal_texts, log2_ratio, ratio_text

# Not called here: perfbench/tracer.py looks these names up in this module.
from ._vector import classify_codes, flip_bits, split_fields  # noqa: F401
from .formats import decode_value, flip_bit  # noqa: F401

# Unexported: error_ratio/values/rows/payload and check_exact serve sibling modules.
__all__ = [
    "ErrorKind",
    "RelativeError",
    "ErrorInterval",
    "CheckStatus",
    "BoundsCheck",
    "SweepReport",
    "relative_error",
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
    flipped word leaves the finite range.  `error_ratio` computes it.
    """
    kind, n, d = error_ratio(w.fmt, w.bits, pos)
    return RelativeError(kind, Fraction(n, d) if kind is ErrorKind.FINITE else None)


def error_ratio(fmt: FpFormat, bits: int, pos: int) -> tuple[ErrorKind, int, int]:
    """`relative_error` of flipping bit `pos` of `bits` as (kind, n, d).

    n/d is the error in lowest terms for FINITE; n = d = 0 otherwise.
    Both the word and the flipped word are decoded by `formats._finite_parts`
    to sign * significand * 2^scale; once both significands are shifted to
    the smaller scale, the common power of two cancels from |x - x'| / |x|.
    A flip whose scales differ by more than `MAX_EXACT_BITS` raises ValueError.
    """
    _check_position(fmt, pos)
    x, y = _finite_parts(fmt, bits), _finite_parts(fmt, bits ^ (1 << pos))
    if x is None or x[1] == 0:
        return ErrorKind.UNDEFINED, 0, 0
    if y is None:
        return ErrorKind.NONFINITE, 0, 0
    (s, m, k), (s2, m2, k2) = x, y
    if (shift := abs(k - k2)) > MAX_EXACT_BITS:
        raise ValueError(
            f"the exact error of flipping bit {pos} needs a shift of {shift} "
            f"bits, past the limit of {MAX_EXACT_BITS}"
        )
    low = min(k, k2)
    m, m2 = m << (k - low), m2 << (k2 - low)
    diff = abs(s * m - s2 * m2)
    g = math.gcd(diff, m)
    return ErrorKind.FINITE, diff // g, m // g


def check_exact(fmt: FpFormat, bits: np.ndarray, pos: np.ndarray) -> None:
    """Raise `error_ratio`'s ValueError for the first flip of bit pos[i] of
    bits[i] whose exact error is past `MAX_EXACT_BITS`.  A flip at exponent
    place 2^(pos - w_f) moves the scale by that place, or by one less into
    or out of the denormals, which passes the power of two `MAX_EXACT_BITS`
    exactly when the place does; so only the lanes from
    w_f + MAX_EXACT_BITS.bit_length() to below the sign bit are checked."""
    p = np.asarray(pos)
    far = (p >= fmt.fraction_bits + MAX_EXACT_BITS.bit_length()) & (p < fmt.total_bits - 1)
    for i in np.flatnonzero(far).tolist():
        error_ratio(fmt, int(bits[i]), int(p[i]))


ERROR_KEYS = ("kind", "ratio", "decimal", "log2")


def error_values(fmt: FpFormat, bits: int, pos: int, digits: int) -> tuple:
    """The values of `error_payload`, in `ERROR_KEYS` order.

    (kind,) alone, or for FINITE (kind, ratio, decimal, log2): the exact
    ratio, its decimal with `digits` significant digits, and its log2.
    """
    kind, n, d = error_ratio(fmt, bits, pos)
    if kind is not ErrorKind.FINITE:
        return (kind.value,)
    return kind.value, ratio_text(n, d), decimal_text(n, d, digits), log2_ratio(n, d)


def error_rows(fmt: FpFormat, bits: np.ndarray, pos: np.ndarray, digits: int) -> list[tuple]:
    """`error_values` of flipping bit pos[i] of each word bits[i], as one list.

    One `FlipKernel` over the chunk parts its lanes into two groups:

    * fraction flips of finite nonzero words: with significand m and
      z = min(pos, ctz(m)), the error in lowest terms is 2^(pos - z) over
      m >> z, computed on uint64 and rendered by `ratio_text` and
      `rationals.decimal_texts`; its log2 is (pos - z) - math.log2(m >> z),
      bit for bit `log2_ratio`, since math.log2 of a power of two is exact;
    * every other flip, keyed by its position and its `FlipKernel.label`
      case, each key rendered once by `error_values` on its first lane.
      EXP_TO_DEN and DEN_EXP errors depend on the fraction, so each such
      lane is a key of its own.
    """
    b, p = np.asarray(bits, dtype=np.uint64), np.asarray(pos, dtype=np.int64)
    w_f = fmt.fraction_bits
    kernel = FlipKernel(fmt, b)
    defined = kernel.norm | kernel.den_nz
    frac = defined & (p < w_f)
    case = np.full(b.size, Case.UNDEFINED)
    for q in np.unique(p[defined & ~frac]).tolist():
        at = p == q
        case[at] = kernel.label(q)[at]
    key = p * Case.COUNT + case
    own = (case == Case.EXP_TO_DEN) | (case == Case.DEN_EXP)
    key[own] = -1 - np.flatnonzero(own)

    out = np.empty(b.size, dtype=object)
    lanes = np.flatnonzero(~frac)
    _, first, inverse = np.unique(key[lanes], return_index=True, return_inverse=True)
    table = np.empty(first.size, dtype=object)
    for j, i in enumerate(lanes[first].tolist()):
        table[j] = error_values(fmt, int(b[i]), int(p[i]), digits)
    out[lanes] = table[inverse]

    lanes = np.flatnonzero(frac)
    m = np.where(kernel.e != 0, kernel.f | np.uint64(1 << w_f), kernel.f)[lanes]
    z = np.minimum(p[lanes], msb_index(m & (~m + np.uint64(1))))
    j, d = p[lanes] - z, m >> z.astype(np.uint64)
    n = np.uint64(1) << j.astype(np.uint64)
    dl = d.tolist()
    log2 = (j - np.fromiter(map(math.log2, dl), dtype=np.float64, count=lanes.size)).tolist()
    rows = zip(
        repeat(ErrorKind.FINITE.value), map(ratio_text, n.tolist(), dl),
        decimal_texts(n, d, digits), log2,
    )
    out[lanes] = np.fromiter(rows, dtype=object, count=lanes.size)
    return out.tolist()


def error_payload(fmt: FpFormat, bits: int, pos: int, digits: int) -> dict:
    """The JSON form of `error_ratio`, as `flip` prints it and `inject` renders it."""
    return dict(zip(ERROR_KEYS, error_values(fmt, bits, pos, digits)))


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

    The interval is read from the source's fields (e, f) and `pos`, as
    listed at the top of this module.  Informational outcomes cover the
    cases with no two-sided finite prediction: undefined or non-finite
    errors, and exponent flips of nonzero denormals, whose exact excess
    over the open lower bound is reported in `deviation`.
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

    w_f = fmt.fraction_bits
    _, e, f = decode_fields(w)
    if pos == fmt.total_bits - 1:
        iv = ErrorInterval.point(Fraction(2))
    elif pos < w_f:
        # fraction entry k under leading entry t: the hidden bit (t = 0) of
        # a normalized word, the first set fraction entry of a denormal
        k = w_f - pos
        t = 0 if e else w_f - f.bit_length() + 1
        iv = ErrorInterval(
            Fraction(2) ** (t - k - 1), Fraction(2) ** (t - k), lower_open=True
        )
    else:
        d = 1 << (pos - w_f)  # place value 2^(w_e - k) of exponent entry k
        if e == 0:
            iv = ErrorInterval(
                Fraction(2**d - 1), None, lower_open=True, upper_open=True
            )
            held = iv.contains(err.value)
            return BoundsCheck(
                CheckStatus.INFORMATIONAL if held else CheckStatus.VIOLATES,
                err, iv, iv.lower, err.value - iv.lower,
                "one-sided bound for a denormal exponent flip; exact excess "
                "over the open lower bound is reported, not judged",
            )
        if not e & d:  # 0 to 1; the non-finite landings returned above
            iv = ErrorInterval.point(Fraction(2**d - 1))
        elif e == d:  # 1 to 0 into the denormals, onto zero when f = 0
            iv = ErrorInterval(1 - Fraction(1, 2**d), Fraction(1), lower_open=True)
        else:  # 1 to 0, still normalized
            iv = ErrorInterval.point(1 - Fraction(1, 2**d))
    ref = iv.exact_point
    return BoundsCheck(
        CheckStatus.CONFORMS if iv.contains(err.value) else CheckStatus.VIOLATES,
        err, iv, ref, None if ref is None else err.value - ref,
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
    A case is judged when its source is normalized or a nonzero denormal,
    and its prediction holds when the after-word of the vector flip differs
    from the source exactly where its closed form says (`FlipKernel.held`);
    a judged case that does not hold is a violation.  Held cases conform,
    except at exponent positions, where the case label parts off the flips
    onto NaN or infinity (nonfinite) and the one-sided denormal exponent
    flips (informational).  The counters then equal those of `check_bounds`
    on every pair (tested exhaustively on every format of at most 8 bits).
    `bits` must hold integer words of `fmt` (`_vector.as_words`).
    """
    b = as_words(fmt, bits).ravel()
    total, w_f = fmt.total_bits, fmt.fraction_bits
    judged_words = held_cases = nonfinite = informational = 0
    examples: list[tuple[str, int]] = []
    for start in range(0, b.size, BATCH):
        kernel = FlipKernel(fmt, b[start : start + BATCH])
        judged = kernel.norm | kernel.den_nz
        n_judged = int(np.count_nonzero(judged))
        judged_words += n_judged
        for pos in range(total):
            kept = kernel.held(pos) & judged
            n_kept = int(np.count_nonzero(kept))
            held_cases += n_kept
            if w_f <= pos < total - 1:
                label = kernel.label(pos)
                nonfinite += int(np.count_nonzero(kept & (label == Case.EXP_NONFINITE)))
                informational += int(np.count_nonzero(kept & (label == Case.DEN_EXP)))
            if n_kept < n_judged and len(examples) < 10:
                bad = np.flatnonzero(judged & ~kept)
                examples += [
                    (Word(int(kernel.bits[i]), fmt).hex(), pos)
                    for i in bad[: 10 - len(examples)]
                ]

    return SweepReport(
        fmt=fmt,
        cases=b.size * total,
        conforms=held_cases - nonfinite - informational,
        violations=judged_words * total - held_cases,
        informational=informational,
        nonfinite=nonfinite,
        undefined=(b.size - judged_words) * total,
        violation_examples=tuple(examples),
    )
