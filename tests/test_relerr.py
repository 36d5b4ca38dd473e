"""Exact relative errors against their closed-form predictions.

Ground truth comes from two independent directions: host-float
arithmetic for binary64 words, and exhaustive scalar Fraction checks on
small formats.  The vectorized sweep must agree with the scalar path
case for case.
"""

from __future__ import annotations

import csv
import io
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flip754 import (
    BINARY16,
    BINARY64,
    CheckStatus,
    ErrorInterval,
    ErrorKind,
    Field,
    FieldLocus,
    FpClass,
    FpFormat,
    Word,
    bit_of_locus,
    bounds_sweep,
    check_bounds,
    classify,
    exhaustive_census,
    flip_bit,
    locus_of_bit,
    recompose,
    relative_error,
    word_from_float,
    word_to_float,
)
from flip754._vector import sample_class_bits
from flip754 import _vector, rationals, relerr
from flip754.rationals import MAX_EXACT_BITS, ratio_str
from flip754.relerr import error_ratio, error_rows, error_values
from conftest import (
    BYTE_FORMATS,
    PLANTED_FAULTS,
    SMALL_FORMATS,
    TINY_FORMATS,
    binary64_batches,
    field_parts,
    fraction_relative_error,
    sign_co_flip,
)


# ── relative_error itself ─────────────────────────────────────────────────


@given(st.integers(0, (1 << 64) - 1), st.integers(0, 63))
@settings(max_examples=400)
def test_relative_error_matches_host_arithmetic(bits, pos):
    w = Word(bits, BINARY64)
    x = word_to_float(w)
    x2 = word_to_float(flip_bit(w, pos))
    err = relative_error(w, pos)
    if x != x or x in (float("inf"), float("-inf")) or x == 0.0:
        assert err.kind is ErrorKind.UNDEFINED
    elif x2 != x2 or x2 in (float("inf"), float("-inf")):
        assert err.kind is ErrorKind.NONFINITE
    else:
        # Fraction(float) is exact, so the oracle is exact too
        assert err.value == abs(Fraction(x) - Fraction(x2)) / abs(Fraction(x))


@pytest.mark.parametrize("fmt", SMALL_FORMATS, ids=lambda f: f.name)
def test_relative_error_matches_fraction_oracle_exhaustively(fmt):
    for bits in range(1 << fmt.total_bits):
        w = Word(bits, fmt)
        for pos in range(fmt.total_bits):
            expect = fraction_relative_error(w, pos)
            assert relative_error(w, pos) == expect, (w, pos)
            # the integer core already gives the ratio in lowest terms
            q = expect.value
            n, d = (q.numerator, q.denominator) if q is not None else (0, 0)
            assert error_ratio(fmt, bits, pos) == (expect.kind, n, d), (w, pos)


@given(st.integers(0, (1 << 64) - 1), st.integers(0, 63))
@settings(max_examples=400)
def test_relative_error_matches_fraction_oracle_on_binary64(bits, pos):
    w = Word(bits, BINARY64)
    assert relative_error(w, pos) == fraction_relative_error(w, pos)


def test_relative_error_rejects_positions_outside_the_word():
    # every scalar entry point that takes a position refuses it alike
    for fmt in (BINARY16, FpFormat(2, 1)):
        w = recompose(fmt, 0, 1, 0)
        for pos in (-1, fmt.total_bits):
            message = rf"^bit position {pos} outside \[0, {fmt.total_bits}\)$"
            for refuse in (
                lambda: relative_error(w, pos),
                lambda: flip_bit(w, pos),
                lambda: locus_of_bit(fmt, pos),
                lambda: error_ratio(fmt, w.bits, pos),
            ):
                with pytest.raises(ValueError, match=message):
                    refuse()


def test_relative_error_known_cases():
    one = word_from_float(1.0)
    assert relative_error(one, 63).value == 2  # sign flip
    assert relative_error(word_from_float(-2.5), 63).value == 2
    # fraction entry k = 52 - pos; flipping up from 1.0 gives exactly 2^-k
    assert relative_error(one, 51).value == Fraction(1, 2)
    assert relative_error(one, 0).value == Fraction(1, 2**52)
    # exponent LSB of 1.0 is a 1; flipping it down halves the value
    assert relative_error(one, 52).value == Fraction(1, 2)
    # exponent LSB of 2.0 is a 0; flipping it up doubles and the error is 1
    assert relative_error(word_from_float(2.0), 52).value == 1
    assert relative_error(word_from_float(0.0), 5).kind is ErrorKind.UNDEFINED
    assert relative_error(word_from_float(float("nan")), 5).kind is ErrorKind.UNDEFINED
    # upward flip of exponent entry 2 of 2.0 lands on a huge finite value
    assert relative_error(word_from_float(2.0), 61).value == 2**512 - 1


def test_relative_error_nonfinite_landing():
    # the top exponent bit of 1.0 is 0; flipping it reaches the all-ones code
    assert relative_error(word_from_float(1.0), 62).kind is ErrorKind.NONFINITE
    # 0x7FE... has exponent 0b11111111110; flipping its lowest exponent bit
    # (position 52) lands on the all-ones code
    w = Word(0x7FE0000000000000, BINARY64)
    assert relative_error(w, 52).kind is ErrorKind.NONFINITE


# ── interval construction ─────────────────────────────────────────────────


def test_error_interval_contains_semantics():
    iv = ErrorInterval(Fraction(1, 4), Fraction(1, 2), lower_open=True)
    assert not iv.contains(Fraction(1, 4))
    assert iv.contains(Fraction(1, 3))
    assert iv.contains(Fraction(1, 2))
    assert not iv.contains(Fraction(2, 3))
    half_open = ErrorInterval(Fraction(1), None, lower_open=True, upper_open=True)
    assert half_open.contains(Fraction(10**100))
    assert not half_open.contains(Fraction(1))
    point = ErrorInterval.point(Fraction(2))
    assert point.contains(Fraction(2))
    assert point.exact_point == 2


def interval(w: Word, locus: FieldLocus) -> ErrorInterval | None:
    return check_bounds(w, bit_of_locus(w.fmt, locus)).interval


def test_normalized_interval_shapes():
    one = word_from_float(1.0)
    iv = interval(one, FieldLocus.sign())
    assert iv.exact_point == 2
    iv = interval(one, FieldLocus.fraction(3))
    assert (iv.lower, iv.upper) == (Fraction(1, 16), Fraction(1, 8))
    assert iv.lower_open and not iv.upper_open
    # downward flip of the exponent's lowest entry: error exactly 1/2
    iv = interval(one, FieldLocus.exponent(11))
    assert iv.exact_point == Fraction(1, 2)
    # downward flip of entry 2 of 1.0: point 1 - 2^-(2^9)
    iv = interval(one, FieldLocus.exponent(2))
    assert iv.exact_point == 1 - Fraction(1, 2**512)
    # upward flip of entry 2 of 2.0: biased exponent gains 2^9
    two = word_from_float(2.0)
    iv = interval(two, FieldLocus.exponent(2))
    assert iv.exact_point == 2 ** (2**9) - 1
    # downward flip of the only set exponent entry: into the denormals
    iv = interval(recompose(BINARY64, 0, 1 << 9, 5), FieldLocus.exponent(2))
    assert (iv.lower, iv.upper) == (1 - Fraction(1, 2**512), 1)
    assert iv.lower_open and not iv.upper_open and iv.exact_point is None
    # upward flip of the exponent LSB of 0x7FE... reaches the all-ones code
    assert interval(Word(0x7FE0000000000000, BINARY64), FieldLocus.exponent(11)) is None


def test_denormal_interval_shapes():
    fmt = FpFormat(4, 4)
    w = recompose(fmt, 0, 0, 0b0010)  # first nonzero entry t = 3
    assert interval(w, FieldLocus.sign()).exact_point == 2
    iv = interval(w, FieldLocus.fraction(1))
    assert (iv.lower, iv.upper) == (Fraction(2), Fraction(4))
    iv = interval(w, FieldLocus.fraction(4))
    assert (iv.lower, iv.upper) == (Fraction(1, 4), Fraction(1, 2))
    iv = interval(w, FieldLocus.exponent(4))
    assert iv.lower == 1 and iv.upper is None and iv.lower_open
    # the leading entry t sets the interval of fraction entry 4: (2^(t-5), 2^(t-4)]
    for f, t in ((0b0100, 2), (0b1000, 1), (0b0001, 4)):
        iv = interval(recompose(fmt, 0, 0, f), FieldLocus.fraction(4))
        assert (iv.lower, iv.upper) == (Fraction(2) ** (t - 5), Fraction(2) ** (t - 4))
    assert interval(recompose(fmt, 0, 0, 0), FieldLocus.sign()) is None  # zero


@st.composite
def denormal_fraction_flips(draw) -> tuple[FpFormat, int, int]:
    """(format, nonzero denormal fraction, fraction bit position)."""
    we = draw(st.integers(2, 11))
    wf = draw(st.integers(1, 63 - we))
    return FpFormat(we, wf), draw(st.integers(1, (1 << wf) - 1)), draw(st.integers(0, wf - 1))


@given(denormal_fraction_flips())
@settings(max_examples=200)
def test_denormal_fraction_interval_against_bit_string(case):
    fmt, f, pos = case
    text = format(f, f"0{fmt.fraction_bits}b")
    t, k = text.index("1") + 1, fmt.fraction_bits - pos
    iv = check_bounds(recompose(fmt, 0, 0, f), pos).interval
    assert (iv.lower, iv.upper) == (Fraction(2) ** (t - k - 1), Fraction(2) ** (t - k))


def test_error_ratio_refuses_shifts_past_the_limit():
    # exponent entry 1 of a 17-bit exponent has place value 2^16, the limit
    fmt = FpFormat(17, 8)
    w = recompose(fmt, 0, (1 << 16) + 1, 0)
    kind, n, d = error_ratio(fmt, w.bits, fmt.total_bits - 2)  # 1 to 0, normalized
    assert (kind, d, d - n) == (ErrorKind.FINITE, 1 << MAX_EXACT_BITS, 1)
    wide = FpFormat(18, 8)
    with pytest.raises(ValueError, match="limit"):
        error_ratio(wide, recompose(wide, 0, 1, 0).bits, wide.total_bits - 2)
    with pytest.raises(ValueError, match="limit"):
        check_bounds(recompose(wide, 0, 1, 0), wide.total_bits - 2)
    # a flip onto the all-ones code stays non-finite whatever the width
    top = recompose(wide, 0, wide.exponent_all_ones ^ (1 << 17), 0)
    assert relative_error(top, wide.total_bits - 2).kind is ErrorKind.NONFINITE


@pytest.mark.parametrize("fmt", [FpFormat(17, 8), FpFormat(18, 8), FpFormat(19, 6)],
                         ids=lambda f: f.name)
def test_error_ratio_refuses_exactly_the_finite_exponent_flips_past_the_limit(fmt):
    """An exponent flip at place 2^d moves the scale by 2^d, or by 2^d - 1
    into or out of the denormals; with `MAX_EXACT_BITS` a power of two, the
    scale difference passes it exactly when 2^d does.  Every other flip of
    these words gives |1 - x'/x| from the two words' `field_parts`.  (The
    Fractions of the values themselves span 2^18-bit scales here, where
    one division takes up to 50 ms.)"""
    w_f, top = fmt.fraction_bits, fmt.exponent_all_ones
    places = [1 << d for d in range(fmt.exponent_bits)]
    exponents = {0, 1, top - 1} | {e for p in places for e in (p, p + 1, top ^ p)}
    refused = 0
    for e in sorted(exponents):
        for f in (1, fmt.fraction_mask) if e == 0 else (0, 1, fmt.fraction_mask):
            w = recompose(fmt, 1, e, f)
            for pos in range(w_f, fmt.total_bits - 1):
                step = 1 << (pos - w_f)
                if e ^ step == top:
                    assert error_ratio(fmt, w.bits, pos) == (ErrorKind.NONFINITE, 0, 0)
                elif step > MAX_EXACT_BITS:
                    shift = step - (e in (0, step))  # from or into the denormals
                    with pytest.raises(ValueError, match=rf"flipping bit {pos} needs a shift of {shift} bits"):
                        error_ratio(fmt, w.bits, pos)
                    refused += 1
                else:
                    (m, k), (m2, k2) = field_parts(w), field_parts(flip_bit(w, pos))
                    q = abs(1 - Fraction(m2 << max(k2 - k, 0), m << max(k - k2, 0)))
                    assert error_ratio(fmt, w.bits, pos) == (ErrorKind.FINITE, q.numerator, q.denominator)
    assert (refused > 0) == (fmt.exponent_bits > 17)


# ── scalar conformance, exhaustive on small formats ───────────────────────


def test_no_violations_exhaustively(small_format):
    fmt = small_format
    statuses = set()
    for bits in range(1 << fmt.total_bits):
        w = Word(bits, fmt)
        for pos in range(fmt.total_bits):
            chk = check_bounds(w, pos)
            statuses.add(chk.status)
            assert chk.status is not CheckStatus.VIOLATES, (w.hex(), pos)
    assert CheckStatus.CONFORMS in statuses
    assert CheckStatus.INFORMATIONAL in statuses


def test_point_predictions_have_zero_deviation(small_format):
    fmt = small_format
    for bits in range(1 << fmt.total_bits):
        w = Word(bits, fmt)
        for pos in range(fmt.total_bits):
            chk = check_bounds(w, pos)
            if chk.interval is not None and chk.interval.exact_point is not None:
                if chk.status is CheckStatus.CONFORMS:
                    assert chk.deviation == 0


def test_denormal_exponent_excess_is_strictly_positive(small_format):
    fmt = small_format
    seen = 0
    for bits in range(1 << fmt.total_bits):
        w = Word(bits, fmt)
        if classify(w) is not FpClass.DENORMALIZED:
            continue
        if w.bits & fmt.fraction_mask == 0:
            continue  # zeros have no relative error
        for pos in range(fmt.fraction_bits, fmt.fraction_bits + fmt.exponent_bits):
            chk = check_bounds(w, pos)
            assert chk.status is CheckStatus.INFORMATIONAL
            assert chk.deviation is not None and chk.deviation > 0
            seen += 1
    assert seen == 2 * fmt.fraction_mask * fmt.exponent_bits


CHECK_GOLDEN = Path(__file__).parent / "golden" / "check_bounds_3_2_and_4_3.csv"
CHECK_HEADER = [
    "format", "word", "bit", "status", "error_kind", "error", "lower", "upper",
    "lower_open", "upper_open", "exact_point", "reference", "deviation",
]


def check_bounds_csv() -> str:
    """Every field of `check_bounds` on every word and bit of 3,2 and 4,3."""

    def text(q: Fraction | None) -> str:
        return "" if q is None else ratio_str(q)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CHECK_HEADER)
    for fmt in (FpFormat(3, 2), FpFormat(4, 3)):
        for bits in range(1 << fmt.total_bits):
            w = Word(bits, fmt)
            for pos in range(fmt.total_bits):
                chk = check_bounds(w, pos)
                iv = chk.interval
                interval = [""] * 5 if iv is None else [
                    text(iv.lower), text(iv.upper), int(iv.lower_open),
                    int(iv.upper_open), text(iv.exact_point),
                ]
                writer.writerow([
                    fmt.name, w.hex(), pos, chk.status.value, chk.error.kind.value,
                    text(chk.error.value), *interval, text(chk.reference),
                    text(chk.deviation),
                ])
    return buf.getvalue()


def test_check_bounds_matches_golden():
    assert check_bounds_csv() == CHECK_GOLDEN.read_text()


# ── vector sweep vs scalar path ───────────────────────────────────────────


def _scalar_categories(fmt: FpFormat, words) -> dict[str, int]:
    """`SweepReport` counters recounted with scalar `check_bounds`."""
    counts = dict.fromkeys(
        ["conforms", "violations", "informational", "nonfinite", "undefined"], 0
    )
    for bits in words:
        w = Word(int(bits), fmt)
        for pos in range(fmt.total_bits):
            chk = check_bounds(w, pos)
            if chk.error.kind is ErrorKind.UNDEFINED:
                counts["undefined"] += 1
            elif chk.error.kind is ErrorKind.NONFINITE:
                counts["nonfinite"] += 1
            elif chk.status is CheckStatus.CONFORMS:
                counts["conforms"] += 1
            elif chk.status is CheckStatus.INFORMATIONAL:
                counts["informational"] += 1
            else:
                counts["violations"] += 1
    return counts


def _sweep_categories(rep) -> dict[str, int]:
    return {
        "conforms": rep.conforms, "violations": rep.violations,
        "informational": rep.informational, "nonfinite": rep.nonfinite,
        "undefined": rep.undefined,
    }


@pytest.mark.parametrize("fmt", BYTE_FORMATS, ids=lambda f: f.name)
def test_sweep_agrees_with_scalar_checks(fmt):
    bits = np.arange(1 << fmt.total_bits, dtype=np.uint64)
    rep = bounds_sweep(fmt, bits)
    scalar = _scalar_categories(fmt, range(1 << fmt.total_bits))
    assert rep.cases == (1 << fmt.total_bits) * fmt.total_bits
    assert _sweep_categories(rep) == scalar
    assert scalar["violations"] == 0
    assert rep.violation_examples == ()


def test_sweep_agrees_with_scalar_checks_on_binary64_batches(monkeypatch):
    bits = binary64_batches()
    assert bits.size == 300
    monkeypatch.setattr(relerr, "BATCH", 64)
    rep = bounds_sweep(BINARY64, bits)
    scalar = _scalar_categories(BINARY64, bits.tolist())
    assert rep.cases == bits.size * 64
    assert _sweep_categories(rep) == scalar
    assert scalar["violations"] == 0
    assert min(scalar[k] for k in ("conforms", "informational", "nonfinite", "undefined")) > 0
    monkeypatch.undo()
    assert bounds_sweep(BINARY64, bits) == rep


def test_sweep_on_sampled_binary64():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(99)))
    for cls in (FpClass.NORMALIZED, FpClass.DENORMALIZED):
        bits = sample_class_bits(BINARY64, cls, rng, 20_000)
        rep = bounds_sweep(BINARY64, bits)
        assert rep.cases == 20_000 * 64
        assert rep.violations == 0
        total = (
            rep.conforms + rep.violations + rep.informational
            + rep.nonfinite + rep.undefined
        )
        assert total == rep.cases


@pytest.mark.parametrize("fault", [None, *PLANTED_FAULTS])
def test_sweep_catches_planted_faults(plant_fault, fault):
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(7)))
    bits = np.concatenate([
        sample_class_bits(BINARY64, cls, rng, 2000)
        for cls in (FpClass.NORMALIZED, FpClass.DENORMALIZED)
    ])
    if fault is not None:
        plant_fault(fault, BINARY64)
    rep = bounds_sweep(BINARY64, bits)
    if fault is None:
        assert rep.violations == 0 and rep.violation_examples == ()
    else:
        assert rep.violations > 0
        assert len(rep.violation_examples) == 10


def test_sweep_catches_a_sign_co_flip(monkeypatch):
    """A flip that also changes the sign at a non-sign position moves no
    census tally; only the sweep's sign check sees it, at every one of
    the 63 non-sign positions of each word."""
    fmt = FpFormat(3, 2)
    clean = [exhaustive_census(fmt, cls).tally for cls in FpClass]
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(7)))
    bits = np.concatenate([
        sample_class_bits(BINARY64, cls, rng, 2000)
        for cls in (FpClass.NORMALIZED, FpClass.DENORMALIZED)
    ])
    real = _vector.flip_bits
    monkeypatch.setattr(_vector, "flip_bits", sign_co_flip(real, fmt))
    assert [exhaustive_census(fmt, cls).tally for cls in FpClass] == clean
    monkeypatch.setattr(_vector, "flip_bits", sign_co_flip(real, BINARY64))
    rep = bounds_sweep(BINARY64, bits)
    assert rep.violations == bits.size * 63
    assert len(rep.violation_examples) == 10


def test_sweep_refuses_an_over_wide_word():
    # it would judge 0xF, the word's low four bits
    with pytest.raises(ValueError, match="bit pattern 0xFF does not fit in 4 bits"):
        bounds_sweep(FpFormat(2, 1), [0xFF])


def test_sweep_refuses_host_floats():
    # it would judge 0x1
    with pytest.raises(TypeError, match="integer dtype"):
        bounds_sweep(BINARY16, np.array([1.5]))


def test_sweep_takes_words_of_any_integer_dtype_that_fit():
    words = np.arange(1 << 8)
    want = bounds_sweep(FpFormat(3, 4), words.astype(np.uint64))
    for dtype in (np.int64, np.uint8, np.int16):
        assert bounds_sweep(FpFormat(3, 4), words.astype(dtype)) == want
    assert bounds_sweep(FpFormat(3, 4), words.tolist()) == want
    # numpy reads this list as float64; its ints are taken exactly
    top = [(1 << 64) - 1, 1 << 63, 1]
    assert bounds_sweep(BINARY64, top) == bounds_sweep(BINARY64, np.array(top, dtype=np.uint64))
    with pytest.raises(ValueError, match="bit pattern 0x10000000000000000 does not fit"):
        bounds_sweep(BINARY64, [1 << 64, 1])


def test_sweep_counter_partition_guard():
    from flip754 import SweepReport

    with pytest.raises(ValueError):
        SweepReport(
            fmt=BINARY64, cases=10, conforms=1, violations=0,
            informational=0, nonfinite=0, undefined=0,
        )


# ── random normalized words stay inside their predicted intervals ─────────


@given(st.integers(0, (1 << 64) - 1), st.integers(0, 51))
@settings(max_examples=300)
def test_fraction_flip_bound_on_random_words(bits, pos):
    # force a normalized word: any exponent in [1, 2046]
    e = 1 + bits % 2046
    w = recompose(BINARY64, (bits >> 63) & 1, e, bits & BINARY64.fraction_mask)
    err = relative_error(w, pos)
    k = 52 - pos
    assert err.kind is ErrorKind.FINITE
    assert Fraction(1, 2 ** (k + 1)) < err.value <= Fraction(1, 2**k)


# ── chunk errors vs the scalar path ───────────────────────────────────────
#
# `error_rows` must return exactly the tuples of `error_values`, types
# included: the CLI prints each log2 with `repr`, so rows are compared
# by their reprs.


def scalar_rows(fmt, words, positions, digits):
    return [error_values(fmt, b, p, digits) for b, p in zip(words, positions)]


def chunk_rows(fmt, words, positions, digits):
    return error_rows(fmt, np.array(words, dtype=np.uint64), np.array(positions), digits)


def assert_same_rows(got, want):
    """got == want with every type alike; a failure names the first lanes that differ."""
    assert len(got) == len(want)
    bad = [(i, a, b) for i, (a, b) in enumerate(zip(got, want)) if repr(a) != repr(b)]
    assert not bad, bad[:3]


@pytest.mark.parametrize("fmt", TINY_FORMATS, ids=lambda f: f.name)
def test_error_rows_match_error_values_exhaustively(fmt):
    w = fmt.total_bits
    words = [b for b in range(1 << w) for _ in range(w)]
    positions = list(range(w)) * (1 << w)
    for digits in (1, 5, 17):
        want = scalar_rows(fmt, words, positions, digits)
        assert_same_rows(chunk_rows(fmt, words, positions, digits), want)


@st.composite
def error_chunks(draw):
    fmt = draw(st.sampled_from([
        FpFormat(5, 10), FpFormat(8, 23), BINARY64,
        FpFormat(62, 1), FpFormat(2, 61), FpFormat(30, 33),
    ]))
    top, w_f = fmt.exponent_all_ones, fmt.fraction_bits
    # Fractions with few set entries put fraction-flip errors on exact
    # ties and powers of ten; the rest are uniform.
    sparse = st.builds(
        lambda a, b: ((1 << a) | (1 << b)) & fmt.fraction_mask,
        st.integers(0, w_f), st.integers(0, w_f),
    )
    word = st.builds(
        lambda s, e, f: recompose(fmt, s, e, f).bits,
        st.integers(0, 1),
        st.one_of(st.sampled_from([0, 1, 2, top - 1, top]), st.integers(0, top)),
        st.one_of(sparse, st.integers(0, fmt.fraction_mask)),
    )
    n = draw(st.integers(1, 24))
    words = draw(st.lists(word, min_size=n, max_size=n))
    positions = draw(st.lists(st.integers(0, fmt.total_bits - 1), min_size=n, max_size=n))
    return fmt, words, positions, draw(st.integers(1, 17))


@given(error_chunks())
@settings(max_examples=300, deadline=None)
def test_error_rows_match_error_values_on_wide_formats(case):
    fmt, words, positions, digits = case
    kept, refused = [], False
    for b, p in zip(words, positions):
        try:
            kept.append((b, p, error_values(fmt, b, p, digits)))
        except ValueError:  # a flip past MAX_EXACT_BITS
            refused = True
    if refused:  # refuses its whole chunk
        with pytest.raises(ValueError, match="limit"):
            chunk_rows(fmt, words, positions, digits)
    if kept:
        words, positions, want = zip(*kept)
        assert_same_rows(chunk_rows(fmt, words, positions, digits), want)


ONE, ONE_QUARTER = 0x3FF0000000000000, 0x3FF4000000000000  # 1.0 and 1.25

# (word, bit, digits, decimal): the error of 1.0 at bit 50 is 1/4 and at
# bit 49 1/8, both ties at these digits; of 1.25 at bit 49 it is 1/10.
NAMED_BINARY64_CASES = [
    (ONE, 50, 1, "1/4", "0.2"),
    (ONE, 49, 2, "1/8", "0.12"),
    (ONE_QUARTER, 49, 1, "1/10", "0.1"),
    (ONE_QUARTER, 49, 5, "1/10", "0.10000"),
    (ONE_QUARTER, 49, 17, "1/10", "0.10000000000000000"),
]


@pytest.mark.parametrize("word, bit, digits, ratio, decimal", NAMED_BINARY64_CASES)
def test_error_rows_named_binary64_cases(word, bit, digits, ratio, decimal):
    (row,) = chunk_rows(BINARY64, [word], [bit], digits)
    assert row[:3] == ("finite", ratio, decimal)
    assert repr(row) == repr(error_values(BINARY64, word, bit, digits))


SPLIT_FAULTS = [name for name, (attr, _) in PLANTED_FAULTS.items() if attr == "split_fields"]


@pytest.mark.parametrize("fault", [None, *SPLIT_FAULTS])
def test_error_rows_catch_planted_split_faults(plant_fault, fault):
    """`error_rows` reads its fields and cases through one `FlipKernel`,
    so a planted split fault moves some of its rows off `error_values`,
    which splits each word itself.  The other two faults cannot reach it:
    `label` neither flips a word nor reads the leading entry, and the
    fraction path's `msb_index` is relerr's own binding, not the one the
    kernel looks up in `_vector`."""
    bits = binary64_batches()
    words, positions = np.repeat(bits, 64).tolist(), list(range(64)) * bits.size
    want = scalar_rows(BINARY64, words, positions, 5)
    if fault is not None:
        plant_fault(fault, BINARY64)
    got = chunk_rows(BINARY64, words, positions, 5)
    if fault is None:
        assert_same_rows(got, want)
    else:
        assert any(repr(a) != repr(b) for a, b in zip(got, want))


def test_named_ties_need_the_exact_fallback(monkeypatch):
    # Certify every float candidate: the ties then round half up.
    certify = rationals._float_decimals

    def certify_all(n, d, digits):
        m, e10, _ = certify(n, d, digits)
        return m, e10, np.ones(n.size, dtype=bool)

    monkeypatch.setattr(rationals, "_float_decimals", certify_all)
    for word, bit, digits, _, decimal in NAMED_BINARY64_CASES[:2]:
        (row,) = chunk_rows(BINARY64, [word], [bit], digits)
        assert row[2] != decimal
