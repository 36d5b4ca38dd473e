"""Format layout, classification, and exact decoding.

The binary64 paths are checked against the host's IEEE hardware through
struct, an oracle independent of the library's integer arithmetic.
"""

from __future__ import annotations

import math
import pickle
import struct
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flip754 import (
    BINARY16,
    BINARY32,
    BINARY64,
    ExactValue,
    Field,
    FieldLocus,
    FpClass,
    FpFormat,
    ValueKind,
    Word,
    bit_of_locus,
    class_size,
    classify,
    decode_fields,
    decode_value,
    encode_nearest,
    locus_of_bit,
    parse_hex_word,
    recompose,
    word_from_float,
    word_to_float,
)
from flip754.rationals import ratio_str
from conftest import BYTE_FORMATS, SMALL_FORMATS, field_value, iter_class_words, package_env

ALL_CLASSES = list(FpClass)


def words64(draw_bits):
    return Word(draw_bits, BINARY64)


@st.composite
def formats(draw) -> FpFormat:
    we = draw(st.integers(2, 11))
    wf = draw(st.integers(1, 63 - we))
    return FpFormat(we, wf)


@st.composite
def format_words(draw) -> Word:
    fmt = draw(formats())
    return Word(draw(st.integers(0, fmt.word_mask)), fmt)


# ── layout ────────────────────────────────────────────────────────────────

DERIVED_FIELDS = (
    "total_bits", "bias", "exponent_all_ones", "fraction_mask", "word_mask", "hex_digits"
)


def test_standard_layouts():
    assert (BINARY64.exponent_bits, BINARY64.fraction_bits) == (11, 52)
    assert BINARY64.total_bits == 64 and BINARY64.bias == 1023
    assert BINARY32.total_bits == 32 and BINARY32.bias == 127
    assert BINARY16.total_bits == 16 and BINARY16.bias == 15
    assert BINARY64.name == "binary64"
    assert FpFormat(3, 2).name == "3,2"


def test_format_validation():
    with pytest.raises(ValueError):
        FpFormat(1, 4)
    with pytest.raises(ValueError):
        FpFormat(4, 0)
    with pytest.raises(ValueError):
        FpFormat(11, 53)  # 65 bits
    FpFormat(11, 52)  # exactly 64 is fine


@pytest.mark.parametrize("fmt", [FpFormat(3, 2), BINARY64, FpFormat(62, 1)], ids=lambda f: f.name)
def test_derived_fields_are_kept_apart_from_the_value(fmt):
    """Reading the derived fields keeps them on the instance, but equality,
    hash, repr and the pickle still see only the two widths: a twin never
    read is the same value, and an unpickled copy computes them anew."""
    w_e, w_f = fmt.exponent_bits, fmt.fraction_bits
    twin = FpFormat(w_e, w_f)
    unread = pickle.dumps(twin)
    derived = {name: getattr(fmt, name) for name in DERIVED_FIELDS}
    assert derived == {
        "total_bits": 1 + w_e + w_f,
        "bias": 2 ** (w_e - 1) - 1,
        "exponent_all_ones": 2**w_e - 1,
        "fraction_mask": 2**w_f - 1,
        "word_mask": 2 ** (1 + w_e + w_f) - 1,
        "hex_digits": math.ceil((1 + w_e + w_f) / 4),
    }
    assert all(name in vars(fmt) for name in DERIVED_FIELDS)
    assert (fmt == twin, hash(fmt) == hash(twin), repr(fmt)) == (True, True, repr(twin))
    assert pickle.dumps(fmt) == unread
    copy = pickle.loads(unread)
    assert copy == fmt and not any(name in vars(copy) for name in DERIVED_FIELDS)
    assert {name: getattr(copy, name) for name in DERIVED_FIELDS} == derived


def test_word_validation():
    with pytest.raises(ValueError, match=r"^bit pattern -0x1 \(negative\) does not fit in 16 bits$"):
        Word(-1, BINARY16)
    with pytest.raises(ValueError, match=r"^bit pattern 0x10000 does not fit in 16 bits$"):
        Word(1 << 16, BINARY16)
    assert Word(0xFFFF, BINARY16).hex() == "0xFFFF"


def test_hex_rendering_width():
    assert Word(5, FpFormat(2, 1)).hex() == "0x5"
    assert Word(1, BINARY64).hex() == "0x0000000000000001"
    assert parse_hex_word(BINARY64, "0x3ff0000000000000").bits == 0x3FF0000000000000
    with pytest.raises(ValueError):
        parse_hex_word(BINARY16, "0x10000")
    with pytest.raises(ValueError):
        parse_hex_word(BINARY16, "3FF0")


# ── classification ────────────────────────────────────────────────────────


def test_class_sizes_partition_the_space(small_format):
    total = sum(class_size(small_format, cls) for cls in ALL_CLASSES)
    assert total == 1 << small_format.total_bits


def test_class_sizes_match_enumeration(small_format):
    for cls in ALL_CLASSES:
        counted = sum(1 for _ in iter_class_words(small_format, cls))
        assert counted == class_size(small_format, cls)


def test_classify_against_host_floats():
    # denormal threshold of binary64
    tiny = 2.2250738585072014e-308
    cases = [
        (0.0, FpClass.DENORMALIZED),
        (-0.0, FpClass.DENORMALIZED),
        (5e-324, FpClass.DENORMALIZED),
        (tiny, FpClass.NORMALIZED),
        (1.0, FpClass.NORMALIZED),
        (-math.pi, FpClass.NORMALIZED),
        (math.inf, FpClass.INF),
        (-math.inf, FpClass.INF),
        (math.nan, FpClass.NAN),
    ]
    for x, expected in cases:
        assert classify(word_from_float(x)) is expected


@given(st.integers(0, (1 << 64) - 1))
@settings(max_examples=300)
def test_classify_matches_float_predicates(bits):
    w = Word(bits, BINARY64)
    x = word_to_float(w)
    cls = classify(w)
    if math.isnan(x):
        assert cls is FpClass.NAN
    elif math.isinf(x):
        assert cls is FpClass.INF
    elif abs(x) >= 2.2250738585072014e-308:
        assert cls is FpClass.NORMALIZED
    else:
        assert cls is FpClass.DENORMALIZED


# ── decoding ──────────────────────────────────────────────────────────────


@given(st.integers(0, (1 << 64) - 1))
@settings(max_examples=400)
def test_decode_value_matches_host_float(bits):
    w = Word(bits, BINARY64)
    x = word_to_float(w)
    v = decode_value(w)
    if math.isnan(x):
        assert v.kind is ValueKind.NAN
    elif math.isinf(x):
        assert v.kind is ValueKind.INF
        assert (v.sign > 0) == (x > 0)
    else:
        # Fraction(float) is exact, so this compares bit-for-bit.
        assert v.as_fraction() == Fraction(x)
        if x == 0.0:
            assert (v.sign < 0) == bool(struct.pack("<d", x)[7] & 0x80)


@pytest.mark.parametrize("fmt", BYTE_FORMATS, ids=lambda f: f.name)
def test_decode_value_matches_the_field_formula_exhaustively(fmt):
    """Kind, sign and value of every word, against `field_value`, the
    independent formula that the relative-error oracle is built on."""
    for bits in range(1 << fmt.total_bits):
        w = Word(bits, fmt)
        s, e, f = decode_fields(w)
        v = decode_value(w)
        assert v.sign == (-1) ** s, w
        if e == fmt.exponent_all_ones:
            assert v.kind is (ValueKind.NAN if f else ValueKind.INF), w
        else:
            assert v.kind is ValueKind.FINITE and v.as_fraction() == field_value(w), w


def test_as_fraction_refuses_scales_past_the_limit():
    fine = FpFormat(16, 8)  # denormal scale 2^-(2^15 + 6), inside the limit
    assert decode_value(recompose(fine, 0, 0, 1)).as_fraction() == Fraction(1, 2 ** (fine.bias + 7))
    past = FpFormat(17, 8)  # denormal scale 2^-(2^16 + 6), past the limit
    with pytest.raises(ValueError, match="limit"):
        decode_value(recompose(past, 0, 0, 1)).as_fraction()
    wide = FpFormat(62, 1)
    assert decode_value(recompose(wide, 0, wide.bias, 0)).as_fraction() == 1
    for e in (0, 1, wide.exponent_all_ones - 1):  # scales near -2^61 and 2^61
        with pytest.raises(ValueError, match="limit"):
            decode_value(recompose(wide, 0, e, 1)).as_fraction()


def test_decode_value_signed_zero():
    plus = decode_value(Word(0, BINARY64))
    minus = decode_value(Word(1 << 63, BINARY64))
    assert plus.is_zero and minus.is_zero
    assert plus.sign == 1 and minus.sign == -1
    assert str(plus) == "0" and str(minus) == "-0"


def test_decode_value_extremes():
    # largest finite binary64: (2^53 - 1) * 2^971
    top = Word(0x7FEFFFFFFFFFFFFF, BINARY64)
    assert decode_value(top).as_fraction() == ((1 << 53) - 1) * Fraction(2) ** 971
    # smallest denormal: 2^-1074
    assert decode_value(Word(1, BINARY64)).as_fraction() == Fraction(1, 2**1074)


@given(format_words())
@settings(max_examples=300)
def test_fields_recompose_round_trip(w):
    s, e, f = decode_fields(w)
    assert recompose(w.fmt, s, e, f) == w
    assert 0 <= s <= 1
    assert 0 <= e <= w.fmt.exponent_all_ones
    assert 0 <= f <= w.fmt.fraction_mask


def test_exact_value_str_and_guards():
    nan = ExactValue(ValueKind.NAN)
    with pytest.raises(ValueError):
        nan.as_fraction()
    assert str(nan) == "nan"
    assert str(ExactValue(ValueKind.INF, sign=-1)) == "-inf"


def test_exact_value_str_prints_past_the_int_digit_limit():
    """The largest finite 15,16 value has 4,932 digits, past CPython's
    default int-to-str limit of 4,300."""
    fmt = FpFormat(15, 16)
    for bits in (0x7FFEFFFF, 0xFFFEFFFF):
        v = decode_value(Word(bits, fmt))
        assert str(v) == ratio_str(v.as_fraction())
        assert Fraction(Decimal(str(v))) == v.as_fraction() == v.sign * ((1 << 17) - 1) * 2**16367


# ── locus mapping ─────────────────────────────────────────────────────────


def test_locus_bijection(small_format):
    fmt = small_format
    seen = set()
    for pos in range(fmt.total_bits):
        locus = locus_of_bit(fmt, pos)
        assert bit_of_locus(fmt, locus) == pos
        seen.add((locus.field, locus.index))
    assert len(seen) == fmt.total_bits


def test_locus_conventions_binary64():
    assert locus_of_bit(BINARY64, 63) == FieldLocus.sign()
    # exponent MSB is entry 1, exponent LSB is entry w_e
    assert locus_of_bit(BINARY64, 62) == FieldLocus.exponent(1)
    assert locus_of_bit(BINARY64, 52) == FieldLocus.exponent(11)
    # fraction MSB is entry 1, fraction LSB is entry w_f
    assert locus_of_bit(BINARY64, 51) == FieldLocus.fraction(1)
    assert locus_of_bit(BINARY64, 0) == FieldLocus.fraction(52)
    with pytest.raises(ValueError):
        locus_of_bit(BINARY64, 64)
    with pytest.raises(ValueError):
        bit_of_locus(BINARY64, FieldLocus.exponent(12))


# ── encoding ──────────────────────────────────────────────────────────────


@given(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False))
@settings(max_examples=300)
def test_encode_exact_values_round_trip(x):
    x = abs(x)  # Fraction cannot carry the sign of -0.0
    # representable inputs must encode to their own bit pattern
    assert encode_nearest(BINARY64, Fraction(x)) == word_from_float(x)


@given(
    st.fractions(
        min_value=Fraction(1, 10**320), max_value=Fraction(10**309)
    )
)
@settings(max_examples=300)
def test_encode_rounds_like_the_host(q):
    # float(Fraction) is correctly rounded, ties to even; it overflows
    # exactly when rounding lands past the largest finite value
    try:
        rounded = float(q)
    except OverflowError:
        assert encode_nearest(BINARY64, q) == word_from_float(float("inf"))
    else:
        assert encode_nearest(BINARY64, q) == word_from_float(rounded)


def test_encode_overflow_and_boundaries():
    inf = encode_nearest(BINARY64, Fraction(2) ** 1024)
    assert classify(inf) is FpClass.INF
    # exact overflow threshold 2^1024 - 2^970 rounds to Inf (ties to even)
    threshold = Fraction(2) ** 1024 - Fraction(2) ** 970
    assert classify(encode_nearest(BINARY64, threshold)) is FpClass.INF
    # just below the threshold stays finite
    below = threshold - Fraction(1, 2**100)
    assert encode_nearest(BINARY64, below).bits == 0x7FEFFFFFFFFFFFFF
    assert encode_nearest(BINARY64, Fraction(0), 1).hex() == "0x8000000000000000"
    with pytest.raises(ValueError):
        encode_nearest(BINARY64, Fraction(-1))


def test_encode_small_format_halfway_ties():
    fmt = FpFormat(3, 2)  # values 1, 1.25, 1.5, 1.75, 2, ...
    assert decode_value(encode_nearest(fmt, Fraction(9, 8))).as_fraction() == 1
    assert decode_value(encode_nearest(fmt, Fraction(11, 8))).as_fraction() == Fraction(3, 2)
    assert decode_value(encode_nearest(fmt, Fraction(137, 100))).as_fraction() == Fraction(5, 4)


def nearest_word_reference(finite: list[tuple[Fraction, int]], q: Fraction) -> int:
    """The positive finite word nearest q by exact distance, ties to the even
    fraction; Inf, the word after the largest, at or past the largest value
    plus half its ulp.

    `finite` lists (value, bits) of every positive finite word, ascending.
    """
    (below, _), (top, top_bits) = finite[-2:]
    if q >= top + (top - below) / 2:
        return top_bits + 1
    return min(finite, key=lambda vb: (abs(vb[0] - q), vb[1] & 1))[1]



@pytest.mark.parametrize("fmt", BYTE_FORMATS, ids=lambda f: f.name)
def test_encode_matches_the_brute_force_nearest_word(fmt):
    n_finite = fmt.exponent_all_ones << fmt.fraction_bits
    finite = [(decode_value(Word(b, fmt)).as_fraction(), b) for b in range(n_finite)]
    values = [v for v, _ in finite]
    steps = [b - a for a, b in zip(values, values[1:])]
    top, ulp = values[-1], steps[-1]
    # Every value, the midpoint and third-points of every gap, and both
    # sides of the overflow threshold.
    thirds = (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))
    cases = values + [a + d * k for a, d in zip(values, steps) for k in thirds]
    tiny = Fraction(1, 2**40)
    cases += [top + ulp / 2 - tiny, top + ulp / 2, top + ulp / 2 + tiny, 2 * top]
    sign = 1 << (fmt.total_bits - 1)
    for q in cases:
        want = nearest_word_reference(finite, q)
        assert encode_nearest(fmt, q).bits == want, q
        assert encode_nearest(fmt, q, 1).bits == want | sign, q


def test_encode_at_a_scale_of_millions_of_bits_finishes_within_seconds():
    """1/10^2000000 on 30,33 is a normalized word with a scale of 2^-6643890;
    rounding it through a Fraction quotient ran past a minute."""
    script = ("from fractions import Fraction; from flip754 import FpFormat, encode_nearest; "
              "print(encode_nearest(FpFormat(30, 33), Fraction(1, 10**2000000)).hex())")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         timeout=30, env=package_env())
    assert out.returncode == 0, out.stderr
    v = decode_value(parse_hex_word(FpFormat(30, 33), out.stdout.strip()))
    assert (v.sign, v.scale, v.significand.bit_length()) == (1, -6643890, 34)
    # within half a unit in the last place: 2 |2^6643890 - sig 10^2000000| < 10^2000000
    p = 10**2000000
    assert 2 * abs((1 << 6643890) - v.significand * p) < p


def test_word_to_float_requires_binary64():
    with pytest.raises(ValueError):
        word_to_float(Word(0, BINARY32))
