"""Parameterized binary floating-point formats, exact word decoding and flips.

A word is a W-bit pattern (W = 1 + exponent_bits + fraction_bits, W <= 64)
interpreted as sign / biased exponent / fraction.  Everything here is exact:
decoded values are integers scaled by powers of two, never host floats.
The flagship instance is binary64; small formats (down to W = 4) exist so
that closed-form results can be checked by exhaustive enumeration.
"""

from __future__ import annotations

import struct
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property

from .rationals import MAX_EXACT_BITS, floor_log2 as _floor_log2, ratio_str

__all__ = [
    "FpFormat",
    "Word",
    "FpClass",
    "Field",
    "FieldLocus",
    "ExactValue",
    "ValueKind",
    "BINARY16",
    "BINARY32",
    "BINARY64",
    "decode_fields",
    "recompose",
    "classify",
    "decode_value",
    "locus_of_bit",
    "bit_of_locus",
    "TransitionRecord",
    "flip_bit",
    "transition",
    "class_size",
    "parse_hex_word",
    "word_from_float",
    "word_to_float",
    "encode_nearest",
]


# ── Format ───────────────────────────────────────────────────────


@dataclass(frozen=True)
class FpFormat:
    """Bit layout of a binary floating-point format: 1 + w_e + w_f bits.

    The derived fields are computed on first read and then kept on the
    instance; equality, hashing, repr and pickles see only the two widths.
    """

    exponent_bits: int
    fraction_bits: int

    def __post_init__(self):
        if self.exponent_bits < 2:
            raise ValueError("exponent field needs at least 2 bits")
        if self.fraction_bits < 1:
            raise ValueError("fraction field needs at least 1 bit")
        if self.total_bits > 64:
            raise ValueError("words wider than 64 bits are not supported")

    def __getstate__(self) -> dict[str, int]:
        return {"exponent_bits": self.exponent_bits, "fraction_bits": self.fraction_bits}

    @cached_property
    def total_bits(self) -> int:
        return 1 + self.exponent_bits + self.fraction_bits

    @cached_property
    def bias(self) -> int:
        return (1 << (self.exponent_bits - 1)) - 1

    @cached_property
    def exponent_all_ones(self) -> int:
        return (1 << self.exponent_bits) - 1

    @cached_property
    def fraction_mask(self) -> int:
        return (1 << self.fraction_bits) - 1

    @cached_property
    def word_mask(self) -> int:
        return (1 << self.total_bits) - 1

    @cached_property
    def hex_digits(self) -> int:
        return -(-self.total_bits // 4)

    @property
    def name(self) -> str:
        for label, fmt in _STANDARD.items():
            if fmt == self:
                return label
        return f"{self.exponent_bits},{self.fraction_bits}"


BINARY16 = FpFormat(5, 10)
BINARY32 = FpFormat(8, 23)
BINARY64 = FpFormat(11, 52)

_STANDARD = {"binary64": BINARY64, "binary32": BINARY32, "binary16": BINARY16}


# ── Word ─────────────────────────────────────────────────────────


@dataclass(frozen=True)
class Word:
    """A W-bit pattern under a format.  Pure value; no hidden state."""

    bits: int
    fmt: FpFormat

    def __post_init__(self):
        if not 0 <= self.bits <= self.fmt.word_mask:
            shown = f"0x{self.bits:X}" if self.bits >= 0 else f"-0x{-self.bits:X} (negative)"
            raise ValueError(
                f"bit pattern {shown} does not fit in {self.fmt.total_bits} bits"
            )

    def hex(self) -> str:
        return f"0x{self.bits:0{self.fmt.hex_digits}X}"

    def __str__(self) -> str:
        return self.hex()


class FpClass(Enum):
    """Word class.  +-0 counts as denormalized (zero fraction, zero exponent).
    The declaration order is the class order, `CLASS_ORDER`."""

    NORMALIZED = "normalized"
    DENORMALIZED = "denormalized"
    NAN = "nan"
    INF = "inf"


# ── Class vocabulary ─────────────────────────────────────────────

# The class order of every transition table, tally and report, and each
# class's code, its index there.
CLASS_ORDER: tuple[FpClass, ...] = tuple(FpClass)
CLASS_CODE: dict[FpClass, int] = {cls: i for i, cls in enumerate(CLASS_ORDER)}
# Every (source, destination) class pair, at the index `pair_code` gives it.
CLASS_PAIRS = tuple((a, b) for a in CLASS_ORDER for b in CLASS_ORDER)


def pair_code(src, dst):
    """Index in `CLASS_PAIRS` of the pair of class codes (src, dst); operators
    only, so the codes may be ints or uint8 arrays alike."""
    return src * len(CLASS_ORDER) + dst


def class_table(cell: Callable[[FpClass, FpClass], object]) -> dict[str, dict[str, object]]:
    """{source: {destination: cell(source, destination)}}, keyed by class
    values in `CLASS_ORDER`: the form every transition table is printed in."""
    return {a.value: {b.value: cell(a, b) for b in CLASS_ORDER} for a in CLASS_ORDER}


class Field(Enum):
    SIGN = "s"
    EXPONENT = "e"
    FRACTION = "f"


@dataclass(frozen=True)
class FieldLocus:
    """A field plus a 1-based in-field index; index 1 is the field's MSB.

    With this convention a fraction flip at index k changes the stored
    significand by 2^-k (times the scale), and an exponent flip at index k
    changes the biased exponent by 2^(w_e - k).
    """

    field: Field
    index: int = 0

    @classmethod
    def sign(cls) -> FieldLocus:
        return cls(Field.SIGN)

    @classmethod
    def exponent(cls, k: int) -> FieldLocus:
        return cls(Field.EXPONENT, k)

    @classmethod
    def fraction(cls, k: int) -> FieldLocus:
        return cls(Field.FRACTION, k)

    def __str__(self) -> str:
        if self.field is Field.SIGN:
            return "s"
        return f"{self.field.value}({self.index})"


# ── Exact decoded values ─────────────────────────────────────────


class ValueKind(Enum):
    FINITE = "finite"
    INF = "inf"
    NAN = "nan"


@dataclass(frozen=True)
class ExactValue:
    """Decoded value: sign * significand * 2^scale, or NaN / +-Inf.

    significand and scale are meaningful only for kind FINITE;
    significand 0 encodes +-0 (sign still tracked).
    """

    kind: ValueKind
    sign: int = 1
    significand: int = 0
    scale: int = 0

    @property
    def is_finite(self) -> bool:
        return self.kind is ValueKind.FINITE

    @property
    def is_zero(self) -> bool:
        return self.kind is ValueKind.FINITE and self.significand == 0

    def as_fraction(self) -> Fraction:
        """The exact value; ValueError when |scale| passes `MAX_EXACT_BITS`."""
        if not self.is_finite:
            raise ValueError(f"{self.kind.value} has no rational value")
        if self.significand == 0:  # zero is exact at any scale
            return Fraction(0)
        if not -MAX_EXACT_BITS <= self.scale <= MAX_EXACT_BITS:
            raise ValueError(
                f"the exact value needs a scale of 2^{self.scale}, "
                f"past the limit of {MAX_EXACT_BITS} bits"
            )
        if self.scale >= 0:
            return Fraction(self.sign * self.significand << self.scale)
        return Fraction(self.sign * self.significand, 1 << -self.scale)

    def __str__(self) -> str:
        if self.kind is ValueKind.NAN:
            return "nan"
        if self.kind is ValueKind.INF:
            return "+inf" if self.sign > 0 else "-inf"
        if self.significand == 0:
            return "0" if self.sign > 0 else "-0"
        return ratio_str(self.as_fraction())


# ── Decoding operations ──────────────────────────────────────────


def decode_fields(w: Word) -> tuple[int, int, int]:
    """Split a word into (sign bit, biased exponent, fraction) integers."""
    fmt = w.fmt
    f = w.bits & fmt.fraction_mask
    e = (w.bits >> fmt.fraction_bits) & fmt.exponent_all_ones
    s = w.bits >> (fmt.total_bits - 1)
    return s, e, f


def recompose(fmt: FpFormat, s: int, e: int, f: int) -> Word:
    """Inverse of decode_fields."""
    if s >> 1 or e > fmt.exponent_all_ones or f > fmt.fraction_mask:
        raise ValueError("field value out of range for format")
    return Word((s << (fmt.total_bits - 1)) | (e << fmt.fraction_bits) | f, fmt)


def classify(w: Word) -> FpClass:
    """Class of a word; all-ones exponent gives NaN/Inf, all-zeros denormal."""
    _, e, f = decode_fields(w)
    if e == w.fmt.exponent_all_ones:
        return FpClass.NAN if f != 0 else FpClass.INF
    if e == 0:
        return FpClass.DENORMALIZED
    return FpClass.NORMALIZED


def decode_value(w: Word) -> ExactValue:
    """Exact decoded value of a word, read from `_finite_parts`, or NaN or
    +-Inf under the word's sign."""
    parts = _finite_parts(w.fmt, w.bits)
    if parts is not None:
        return ExactValue(ValueKind.FINITE, *parts)
    s, _, f = decode_fields(w)
    return ExactValue(ValueKind.NAN if f else ValueKind.INF, -1 if s else 1)


def _finite_parts(fmt: FpFormat, bits: int) -> tuple[int, int, int] | None:
    """(sign, significand, scale) of the word `bits` of `fmt`, whose value is
    sign * significand * 2^scale with sign +-1; None for NaN and infinity.

    Normalized: (-1)^s (2^w_f + f) 2^(e - bias - w_f).
    Denormalized: (-1)^s f 2^(1 - bias - w_f), the scale of e = 1 with no
    hidden bit.
    """
    w_f = fmt.fraction_bits
    e, f = (bits >> w_f) & fmt.exponent_all_ones, bits & fmt.fraction_mask
    if e == fmt.exponent_all_ones:
        return None
    sign = -1 if bits >> (fmt.total_bits - 1) else 1
    return sign, (1 << w_f) | f if e else f, max(e, 1) - fmt.bias - w_f


def _check_position(fmt: FpFormat, pos: int) -> None:
    """Raise ValueError unless `pos` is a bit position of a word of `fmt`."""
    if not 0 <= pos < fmt.total_bits:
        raise ValueError(f"bit position {pos} outside [0, {fmt.total_bits})")


def locus_of_bit(fmt: FpFormat, pos: int) -> FieldLocus:
    """Map an absolute bit position (0 = LSB) to its field locus."""
    _check_position(fmt, pos)
    if pos == fmt.total_bits - 1:
        return FieldLocus.sign()
    if pos >= fmt.fraction_bits:
        return FieldLocus.exponent(fmt.total_bits - 1 - pos)
    return FieldLocus.fraction(fmt.fraction_bits - pos)


def bit_of_locus(fmt: FpFormat, locus: FieldLocus) -> int:
    """Inverse of locus_of_bit."""
    if locus.field is Field.SIGN:
        return fmt.total_bits - 1
    if locus.field is Field.EXPONENT:
        if not 1 <= locus.index <= fmt.exponent_bits:
            raise ValueError(f"exponent index {locus.index} out of range")
        return fmt.total_bits - 1 - locus.index
    if not 1 <= locus.index <= fmt.fraction_bits:
        raise ValueError(f"fraction index {locus.index} out of range")
    return fmt.fraction_bits - locus.index


# ── Single flips ─────────────────────────────────────────────────


@dataclass(frozen=True)
class TransitionRecord:
    """One flip: the word before and after, where it hit, and both classes."""

    before: Word
    after: Word
    position: int
    locus: FieldLocus
    class_before: FpClass
    class_after: FpClass


def flip_bit(w: Word, pos: int) -> Word:
    """Toggle exactly one bit.  Involution: flipping twice restores the word."""
    _check_position(w.fmt, pos)
    return Word(w.bits ^ (1 << pos), w.fmt)


def transition(w: Word, pos: int) -> TransitionRecord:
    """Flip bit `pos` of w and record the class transition."""
    after = flip_bit(w, pos)
    return TransitionRecord(
        before=w,
        after=after,
        position=pos,
        locus=locus_of_bit(w.fmt, pos),
        class_before=classify(w),
        class_after=classify(after),
    )


def _class_fields(fmt: FpFormat, cls: FpClass) -> tuple[int, int, int, int]:
    """(lowest exponent, exponent count, lowest fraction, fraction count) of cls.

    Under either sign, the words of cls are exactly those with an exponent
    and a fraction in these two contiguous ranges.  `class_size` and
    `_vector`'s enumeration and sampling of a class read them here.
    """
    top, n_f = fmt.exponent_all_ones, 1 << fmt.fraction_bits
    return {
        FpClass.NORMALIZED: (1, top - 1, 0, n_f),
        FpClass.DENORMALIZED: (0, 1, 0, n_f),
        FpClass.NAN: (top, 1, 1, n_f - 1),
        FpClass.INF: (top, 1, 0, 1),
    }[cls]


def class_size(fmt: FpFormat, cls: FpClass) -> int:
    """Exact number of bit patterns in a class."""
    _, n_e, _, n_f = _class_fields(fmt, cls)
    return 2 * n_e * n_f


# ── Parsing / conversion ─────────────────────────────────────────


def parse_hex_word(fmt: FpFormat, text: str) -> Word:
    """Parse a hex bit pattern ('0x...' prefix required, case-insensitive)."""
    t = text.strip()
    if not t.lower().startswith("0x"):
        raise ValueError(f"hex word must start with 0x: {text!r}")
    try:
        bits = int(t, 16)
    except ValueError:
        raise ValueError(f"not a hex word: {text!r}") from None
    if bits > fmt.word_mask:
        raise ValueError(f"{text!r} does not fit in {fmt.total_bits} bits")
    return Word(bits, fmt)


def word_from_float(x: float) -> Word:
    """binary64 word carrying the bit pattern of a host float."""
    return Word(struct.unpack("<Q", struct.pack("<d", x))[0], BINARY64)


def word_to_float(w: Word) -> float:
    """Host-float value of a binary64 word (bit-exact)."""
    if w.fmt != BINARY64:
        raise ValueError("word_to_float expects a binary64 word")
    return struct.unpack("<d", struct.pack("<Q", w.bits))[0]


def encode_nearest(fmt: FpFormat, magnitude: Fraction, sign_bit: int = 0) -> Word:
    """Round a non-negative rational to the nearest word (ties to even).

    Values beyond the overflow threshold map to Inf.  Exact rational
    arithmetic throughout, so this is correctly rounded for every format,
    including the tiny ones.
    """
    if magnitude < 0:
        raise ValueError("magnitude must be non-negative; pass the sign separately")
    if not magnitude:  # the denormal scale of a wide format is too large to build
        return recompose(fmt, sign_bit, 0, 0)
    w_f = fmt.fraction_bits
    # The value's biased exponent, clamped up to 1, the denormals' scale.
    e = max(_floor_log2(magnitude) + fmt.bias, 1)
    # The significand is magnitude / 2^k rounded, in integers: a Fraction
    # quotient would reduce by a gcd of numbers as wide as the scale, which
    # takes minutes at a scale of millions of bits.
    k = e - fmt.bias - w_f
    n, d = magnitude.numerator << max(-k, 0), magnitude.denominator << max(k, 0)
    sig, rest = divmod(n, d)
    sig += 2 * rest > d or (2 * rest == d and sig & 1)  # ties to even
    # A carry out of the significand lands on the next binade's first word:
    # a denormal becomes the smallest normal, the largest finite value Inf.
    bits = min(((e - 1) << w_f) + sig, fmt.exponent_all_ones << w_f)
    return recompose(fmt, sign_bit, bits >> w_f, bits & fmt.fraction_mask)
