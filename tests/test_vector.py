"""Vector helpers of `_vector` against exact Python-integer references."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flip754 import ErrorKind, FpClass, FpFormat, Word, classify, flip_bit
from flip754._vector import Case, FlipKernel, msb_index

from conftest import BYTE_FORMATS, fraction_relative_error


def test_msb_index_matches_bit_length_at_every_power_of_two():
    # 2^k - 1, 2^k and 2^k + 1 straddle each place where the leading one
    # moves up: the smear must fill every place below it and none above.
    values = sorted({v for k in range(63) for v in ((1 << k) - 1, 1 << k, (1 << k) + 1)})
    # Words of the full 64 bits, whose leading one the widest shift must reach.
    values += [(1 << 64) - 1, (1 << 64) - 1024, (1 << 63) + 1]
    got = msb_index(np.array(values, dtype=np.uint64)).tolist()
    assert got == [v.bit_length() - 1 for v in values]  # 0 gives -1


@given(st.lists(st.integers(0, (1 << 64) - 1), min_size=1, max_size=64))
@settings(max_examples=200, deadline=None)
def test_msb_index_matches_bit_length_on_wide_values(values):
    got = msb_index(np.array(values, dtype=np.uint64)).tolist()
    assert got == [v.bit_length() - 1 for v in values]


def test_msb_index_on_many_random_wide_values():
    rng = np.random.default_rng(61)
    v = rng.integers(0, 1 << 62, size=100_000, dtype=np.uint64) >> rng.integers(
        0, 62, size=100_000, dtype=np.uint64
    )
    assert msb_index(v).tolist() == [x.bit_length() - 1 for x in v.tolist()]


# ── FlipKernel.label, case by case ────────────────────────────────────────

# Every format of at most 8 bits, plus a few of 10 to 12 bits with wider
# fraction and exponent fields.
LABEL_FORMATS = BYTE_FORMATS + [FpFormat(3, 6), FpFormat(4, 7), FpFormat(8, 3)]


def _case_holds(case: int, w: Word, pos: int) -> bool:
    """Whether the flip of `pos` in `w` has the property that `case`'s
    comment in `Case` states, judged from the exact error and the class of
    the flipped word, and whether `case` lies on that flip's kind of lane."""
    fmt = w.fmt
    w_f = fmt.fraction_bits
    f = w.bits & fmt.fraction_mask
    src, after = classify(w), classify(flip_bit(w, pos))
    norm = src is FpClass.NORMALIZED
    den = src is FpClass.DENORMALIZED and f != 0
    err = fraction_relative_error(w, pos)
    if case == Case.UNDEFINED:
        return err.kind is ErrorKind.UNDEFINED
    if pos == fmt.total_bits - 1:
        return case == Case.SIGN and err.value == 2
    if case == Case.EXP_NONFINITE:
        return pos >= w_f and norm and err.kind is ErrorKind.NONFINITE
    if err.kind is not ErrorKind.FINITE:
        return False
    q = err.value
    if pos < w_f:
        k = w_f - pos
        return {
            Case.NORM_FRAC: norm and Fraction(1, 2 ** (k + 1)) < q <= Fraction(1, 2**k),
            Case.DEN_FRAC_GE: den and f <= 2**pos and q >= 1,
            Case.DEN_FRAC_MID: den and 2**pos < f < 2 ** (pos + 1) and Fraction(1, 2) < q < 1,
            Case.DEN_FRAC_LE: den and f >= 2 ** (pos + 1) and q == Fraction(2**pos, f),
        }.get(case, False)
    grow = 2 ** 2 ** (pos - w_f)  # 2^(2^d): the flip scales the value by it or by its inverse
    still = norm and after is FpClass.NORMALIZED
    return {
        Case.EXP_UP: still and q == grow - 1,
        Case.EXP_HALF: still and pos == w_f and q == Fraction(1, 2),
        Case.EXP_DOWN: still and pos > w_f and q == 1 - Fraction(1, grow),
        Case.EXP_TO_DEN: norm and after is FpClass.DENORMALIZED and 1 - Fraction(1, grow) < q < 1,
        Case.EXP_TO_ZERO: norm and q == 1 and (flip_bit(w, pos).bits << 1) & fmt.word_mask == 0,
        Case.DEN_EXP: den and q > grow - 1,
    }.get(case, False)


def _label_misses(fmt: FpFormat) -> list[tuple[str, int, int]]:
    """(word, position, label) of every flip whose label's property fails."""
    words = np.arange(1 << fmt.total_bits, dtype=np.uint64)
    kernel = FlipKernel(fmt, words)
    misses = []
    for pos in range(fmt.total_bits):
        label = kernel.label(pos)
        assert label.dtype == np.uint8 and label.shape == words.shape
        misses += [
            (Word(bits, fmt).hex(), pos, case)
            for bits, case in enumerate(label.tolist())
            if not _case_holds(case, Word(bits, fmt), pos)
        ]
    return misses


def test_case_codes_that_the_label_sums_rest_on():
    assert Case.EXP_UP + 1 == Case.EXP_NONFINITE
    assert Case.EXP_TO_DEN + 1 == Case.EXP_TO_ZERO
    assert Case.DEN_FRAC_GE + 1 == Case.DEN_FRAC_MID
    assert Case.DEN_FRAC_GE + 2 == Case.DEN_FRAC_LE
    codes = [v for k, v in vars(Case).items() if k.isupper() and k != "COUNT"]
    assert sorted(codes) == list(range(Case.COUNT))
    # One small format already takes every case, so no property goes untried.
    fmt = FpFormat(3, 2)
    kernel = FlipKernel(fmt, np.arange(1 << fmt.total_bits, dtype=np.uint64))
    seen = np.concatenate([kernel.label(pos) for pos in range(fmt.total_bits)])
    assert np.unique(seen).tolist() == list(range(Case.COUNT))


@pytest.mark.parametrize("fmt", LABEL_FORMATS, ids=lambda f: f.name)
def test_every_label_has_its_case_property(fmt):
    assert _label_misses(fmt) == []


def test_label_check_sees_a_planted_label_fault(monkeypatch):
    """Flips onto zero labelled EXP_UP: the census, the campaign and the
    sweep all stay green under this fault, since both cases have an error
    of at least 1 and the destination class is read apart from the label."""
    real = FlipKernel.label

    def label(self, pos):
        case = real(self, pos)
        return np.where(case == Case.EXP_TO_ZERO, Case.EXP_UP, case)

    monkeypatch.setattr(FlipKernel, "label", label)
    misses = _label_misses(FpFormat(3, 2))
    assert misses and {case for _, _, case in misses} == {Case.EXP_UP}
