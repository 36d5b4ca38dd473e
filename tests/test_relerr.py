"""Exact relative errors against their closed-form predictions.

Ground truth comes from two independent directions: host-float
arithmetic for binary64 words, and exhaustive scalar Fraction checks on
small formats.  The vectorized sweep must agree with the scalar path
case for case.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flip754 import (
    BINARY64,
    CheckStatus,
    ErrorInterval,
    ErrorKind,
    Field,
    FieldLocus,
    FpClass,
    FpFormat,
    Word,
    bounds_sweep,
    check_bounds,
    classify,
    denormal_error_interval,
    flip_bit,
    normalized_error_interval,
    recompose,
    relative_error,
    word_from_float,
    word_to_float,
)
from flip754._vector import sample_class_bits
from conftest import PLANTED_FAULTS, SMALL_FORMATS


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


def test_normalized_interval_shapes():
    one = word_from_float(1.0)
    iv = normalized_error_interval(one, FieldLocus.sign(), FpClass.NORMALIZED)
    assert iv.exact_point == 2
    iv = normalized_error_interval(one, FieldLocus.fraction(3), FpClass.NORMALIZED)
    assert (iv.lower, iv.upper) == (Fraction(1, 16), Fraction(1, 8))
    assert iv.lower_open and not iv.upper_open
    # downward flip of the exponent's lowest entry: error exactly 1/2
    iv = normalized_error_interval(one, FieldLocus.exponent(11), FpClass.NORMALIZED)
    assert iv.exact_point == Fraction(1, 2)
    # downward flip of entry 2 of 1.0: point 1 - 2^-(2^9)
    iv = normalized_error_interval(one, FieldLocus.exponent(2), FpClass.NORMALIZED)
    assert iv.exact_point == 1 - Fraction(1, 2**512)
    # upward flip of entry 2 of 2.0: biased exponent gains 2^9
    two = word_from_float(2.0)
    iv = normalized_error_interval(two, FieldLocus.exponent(2), FpClass.NORMALIZED)
    assert iv.exact_point == 2 ** (2**9) - 1


def test_normalized_interval_rejections():
    one = word_from_float(1.0)
    with pytest.raises(ValueError):  # wrong source class
        normalized_error_interval(word_from_float(0.0), FieldLocus.sign(), FpClass.DENORMALIZED)
    with pytest.raises(ValueError):  # class_after does not match the flip
        normalized_error_interval(one, FieldLocus.sign(), FpClass.NAN)
    # upward flip of the exponent LSB of 0x7FE... reaches the all-ones code
    w = Word(0x7FE0000000000000, BINARY64)
    with pytest.raises(ValueError):
        normalized_error_interval(w, FieldLocus.exponent(11), FpClass.INF)


def test_denormal_interval_shapes():
    fmt = FpFormat(4, 4)
    w = recompose(fmt, 0, 0, 0b0010)  # first nonzero entry t = 3
    iv = denormal_error_interval(w, FieldLocus.fraction(1))
    assert (iv.lower, iv.upper) == (Fraction(2), Fraction(4))
    iv = denormal_error_interval(w, FieldLocus.fraction(4))
    assert (iv.lower, iv.upper) == (Fraction(1, 4), Fraction(1, 2))
    iv = denormal_error_interval(w, FieldLocus.exponent(4))
    assert iv.lower == 1 and iv.upper is None and iv.lower_open
    with pytest.raises(ValueError):
        denormal_error_interval(recompose(fmt, 0, 0, 0), FieldLocus.sign())
    with pytest.raises(ValueError):
        denormal_error_interval(recompose(fmt, 0, 3, 1), FieldLocus.sign())


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


# ── vector sweep vs scalar path ───────────────────────────────────────────


def _scalar_categories(fmt: FpFormat) -> dict[str, int]:
    counts = dict.fromkeys(
        ["conforms", "violations", "informational", "nonfinite", "undefined"], 0
    )
    for bits in range(1 << fmt.total_bits):
        w = Word(bits, fmt)
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


def test_sweep_agrees_with_scalar_checks(small_format):
    fmt = small_format
    bits = np.arange(1 << fmt.total_bits, dtype=np.uint64)
    rep = bounds_sweep(fmt, bits)
    scalar = _scalar_categories(fmt)
    assert rep.cases == (1 << fmt.total_bits) * fmt.total_bits
    assert rep.conforms == scalar["conforms"]
    assert rep.violations == scalar["violations"] == 0
    assert rep.informational == scalar["informational"]
    assert rep.nonfinite == scalar["nonfinite"]
    assert rep.undefined == scalar["undefined"]
    assert rep.violation_examples == ()


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
