"""Closed-form probabilities: frozen reference values and invariants.

The binary64 decimals and exact rationals frozen here were derived
independently of the implementation; test_montecarlo re-verifies the
same quantities against exhaustive censuses.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flip754 import (
    BINARY64,
    BucketConvention,
    FpClass,
    FpFormat,
    ToleranceResolutionError,
    cdf_dyadic,
    decimal_str,
    decimal_threshold_bounds,
    interval_probabilities,
    tolerance_table,
    transition_matrix,
)

NORM, DEN, NAN, INF = (
    FpClass.NORMALIZED, FpClass.DENORMALIZED, FpClass.NAN, FpClass.INF,
)


@st.composite
def formats(draw) -> FpFormat:
    we = draw(st.integers(2, 11))
    wf = draw(st.integers(1, 63 - we))
    return FpFormat(we, wf)


# ── transition matrix ─────────────────────────────────────────────────────


def test_binary64_matrix_decimals():
    m = transition_matrix(BINARY64)
    expect = {
        (NORM, NORM): "0.99983", (NORM, DEN): "8.4005e-05",
        (NORM, NAN): "8.4005e-05", (NORM, INF): "1.8653e-20",
        (DEN, NORM): "0.17188", (DEN, DEN): "0.82812",
        (DEN, NAN): "0", (DEN, INF): "0",
        (NAN, NORM): "0.17188", (NAN, DEN): "0",
        (NAN, NAN): "0.82812", (NAN, INF): "1.8041e-16",
        (INF, NORM): "0.17188", (INF, DEN): "0",
        (INF, NAN): "0.81250", (INF, INF): "0.015625",
    }
    for cell, text in expect.items():
        assert decimal_str(m.entry(*cell), 5) == text, cell


def test_binary64_matrix_exact_entries():
    m = transition_matrix(BINARY64)
    escape = Fraction(11, 2046) / 64  # P(exponent flip leaves the class)
    assert m.entry(NORM, DEN) == escape
    assert m.entry(NORM, INF) == escape / 2**52
    assert m.entry(NORM, NAN) == escape * (1 - Fraction(1, 2**52))
    assert m.entry(NORM, NORM) == 1 - 2 * escape
    assert m.entry(DEN, DEN) == Fraction(53, 64)
    assert m.entry(DEN, NORM) == Fraction(11, 64)
    assert m.entry(NAN, INF) == Fraction(52, (2**52 - 1) * 64)
    assert m.entry(INF, INF) == Fraction(1, 64)
    assert m.entry(INF, NAN) == Fraction(52, 64)


@given(formats())
@settings(max_examples=150)
def test_matrix_rows_are_distributions(fmt):
    m = transition_matrix(fmt)
    for src in FpClass:
        row = m.row(src)
        assert sum(row.values()) == 1
        assert all(0 <= p <= 1 for p in row.values())
    # structurally impossible moves
    assert m.entry(DEN, NAN) == 0
    assert m.entry(DEN, INF) == 0
    assert m.entry(NAN, DEN) == 0
    assert m.entry(INF, DEN) == 0


def test_inf_row_is_exactly_field_widths():
    for fmt in (BINARY64, FpFormat(5, 10), FpFormat(2, 1)):
        m = transition_matrix(fmt)
        w = fmt.total_bits
        assert m.row(INF) == {
            NORM: Fraction(fmt.exponent_bits, w),
            DEN: Fraction(0),
            NAN: Fraction(fmt.fraction_bits, w),
            INF: Fraction(1, w),
        }


# ── interval probabilities ────────────────────────────────────────────────


def test_binary64_interval_decimals():
    p = interval_probabilities(BINARY64)
    assert decimal_str(p.ge_one, 5) == "0.10156"
    assert decimal_str(p.between_half_and_one, 5) == "0.078133"
    assert decimal_str(p.le_half, 5) == "0.82030"
    assert p.nonfinite is None


def test_binary64_interval_exact_values():
    p = interval_probabilities(BINARY64)
    hits_zero = Fraction(11, 2046) / 64 / 2**52
    half_mass = Fraction(2**10 - 2, 2046) / 64
    assert p.ge_one == Fraction(13, 128) + hits_zero
    assert p.between_half_and_one == Fraction(11, 128) - half_mass - hits_zero
    assert p.le_half == Fraction(52, 64) + half_mass
    assert p.ge_one + p.between_half_and_one + p.le_half == 1


def test_separated_convention_moves_nonfinite_mass():
    merged = interval_probabilities(BINARY64, BucketConvention.MERGED)
    sep = interval_probabilities(BINARY64, BucketConvention.SEPARATED)
    assert sep.nonfinite == Fraction(11, 2046) / 64
    assert sep.ge_one + sep.nonfinite == merged.ge_one
    assert sep.between_half_and_one == merged.between_half_and_one
    assert sep.le_half == merged.le_half
    assert sep.ge_one + sep.between_half_and_one + sep.le_half + sep.nonfinite == 1


@given(formats(), st.sampled_from(list(BucketConvention)))
@settings(max_examples=150)
def test_interval_probabilities_are_distributions(fmt, conv):
    p = interval_probabilities(fmt, conv)
    parts = [p.ge_one, p.between_half_and_one, p.le_half]
    if p.nonfinite is not None:
        parts.append(p.nonfinite)
    assert sum(parts) == 1
    assert all(q >= 0 for q in parts)


# ── dyadic CDF ────────────────────────────────────────────────────────────


def test_binary64_cdf_closed_form():
    for i in range(2, 53):
        assert cdf_dyadic(BINARY64, i) == Fraction(53 - i, 64)
    assert cdf_dyadic(BINARY64, 2) == Fraction(51, 64)
    assert cdf_dyadic(BINARY64, 52) == Fraction(1, 64)


def test_cdf_domain():
    with pytest.raises(ValueError):
        cdf_dyadic(BINARY64, 1)
    with pytest.raises(ValueError):
        cdf_dyadic(BINARY64, 53)
    with pytest.raises(ValueError):
        cdf_dyadic(FpFormat(5, 10), 11)


@given(formats())
@settings(max_examples=100)
def test_cdf_is_monotone(fmt):
    values = [cdf_dyadic(fmt, i) for i in range(2, fmt.fraction_bits + 1)]
    assert all(a > b for a, b in zip(values, values[1:]))
    if values:
        assert values[-1] == Fraction(1, fmt.total_bits)


# ── decimal tolerance bracketing ──────────────────────────────────────────

# Reference upper bounds for tolerances 10^-1 .. 10^-15 on binary64.
REFERENCE_UPPERS = [
    "0.78125", "0.73438", "0.68750", "0.62500", "0.57812",
    "0.53125", "0.46875", "0.42188", "0.37500", "0.31250",
    "0.26562", "0.21875", "0.15625", "0.10938", "0.062500",
]
EXACT_UPPERS = [
    Fraction(n, 64)
    for n in (50, 47, 44, 40, 37, 34, 30, 27, 24, 20, 17, 14, 10, 7, 4)
]


def test_tolerance_table_reference_values():
    table = tolerance_table(BINARY64)
    assert len(table) == 15
    for m, (row, text, exact) in enumerate(
        zip(table, REFERENCE_UPPERS, EXACT_UPPERS), start=1
    ):
        assert row.tolerance == Fraction(1, 10**m)
        assert row.upper == exact
        assert decimal_str(row.upper, 5) == text
        # the bracket must actually bracket
        assert row.lower <= row.upper
        assert row.i_lower >= row.i_upper


def test_specific_tolerance_lower_bounds():
    b11 = decimal_threshold_bounds(BINARY64, Fraction(1, 10**11))
    assert (b11.i_upper, b11.i_lower) == (36, 37)
    assert b11.lower == Fraction(1, 4)
    assert b11.upper == Fraction(17, 64)
    b6 = decimal_threshold_bounds(BINARY64, Fraction(1, 10**6))
    assert b6.lower == Fraction(33, 64)
    assert b6.upper == Fraction(34, 64)


def test_exact_dyadic_tolerance_collapses_the_bracket():
    tb = decimal_threshold_bounds(BINARY64, Fraction(1, 2**10))
    assert tb.i_lower == tb.i_upper == 10
    assert tb.lower == tb.upper == Fraction(43, 64)
    edge = decimal_threshold_bounds(BINARY64, Fraction(1, 4))
    assert edge.i_lower == edge.i_upper == 2


def test_tolerance_domain_errors():
    # above 1/4: refused here, not later by cdf_dyadic with another message
    for above in (Fraction(1, 3), Fraction(1, 2)):
        with pytest.raises(ValueError, match=r"tolerance must lie in \(0, 1/4\]"):
            decimal_threshold_bounds(BINARY64, above)
    with pytest.raises(ValueError):
        decimal_threshold_bounds(BINARY64, Fraction(0))
    with pytest.raises(ValueError):
        decimal_threshold_bounds(BINARY64, Fraction(-1, 8))


def test_tolerance_resolution_limit():
    # 2^-52 is the finest dyadic level of binary64
    ok = decimal_threshold_bounds(BINARY64, Fraction(1, 2**52))
    assert ok.lower == ok.upper == Fraction(1, 64)
    with pytest.raises(ToleranceResolutionError):
        decimal_threshold_bounds(BINARY64, Fraction(1, 10**16))
    # upper level exists but the lower one would fall below resolution
    with pytest.raises(ToleranceResolutionError):
        decimal_threshold_bounds(BINARY64, Fraction(1, 2**52 + 1))
    # the distinct error type is still a ValueError
    assert issubclass(ToleranceResolutionError, ValueError)


def test_tolerance_table_small_format_raises_past_resolution():
    binary16 = FpFormat(5, 10)
    with pytest.raises(ToleranceResolutionError):
        decimal_threshold_bounds(binary16, Fraction(1, 10**4))  # needs level 14 > 10
    rows = tolerance_table(binary16)  # so the default table stops at 10^-3
    assert [r.tolerance for r in rows] == [
        Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000)
    ]


@pytest.mark.parametrize("fmt", [
    BINARY64, FpFormat(8, 23), FpFormat(5, 10), FpFormat(15, 16), FpFormat(30, 33),
    FpFormat(11, 49), FpFormat(11, 50), FpFormat(2, 60), FpFormat(4, 4), FpFormat(4, 3),
    FpFormat(62, 1),
], ids=lambda fmt: fmt.name)
def test_tolerance_table_stops_at_the_format_resolution(fmt):
    """Rows 10^-1 .. 10^-m for the last m <= 15 the format resolves: 10^-m
    needs level floor(log2(10^m)) + 1, so m runs while 10^m < 2^w_f."""
    rows = tolerance_table(fmt)
    powers = [m for m in range(1, 16) if 10**m < 2**fmt.fraction_bits]
    assert rows == [decimal_threshold_bounds(fmt, Fraction(1, 10**m)) for m in powers]
    if len(rows) < 15:
        with pytest.raises(ToleranceResolutionError):
            decimal_threshold_bounds(fmt, Fraction(1, 10 ** (len(rows) + 1)))
