"""Single-flip primitives: involution and locus bookkeeping."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flip754 import (
    BINARY64,
    FpFormat,
    Word,
    classify,
    flip_bit,
    locus_of_bit,
    transition,
)


@st.composite
def word_and_position(draw):
    we = draw(st.integers(2, 11))
    wf = draw(st.integers(1, 63 - we))
    fmt = FpFormat(we, wf)
    w = Word(draw(st.integers(0, fmt.word_mask)), fmt)
    return w, draw(st.integers(0, fmt.total_bits - 1))


@given(word_and_position())
@settings(max_examples=300)
def test_flip_is_an_involution_changing_one_bit(wp):
    w, pos = wp
    flipped = flip_bit(w, pos)
    assert flipped.fmt == w.fmt
    assert (flipped.bits ^ w.bits).bit_count() == 1
    assert flipped.bits ^ w.bits == 1 << pos
    assert flip_bit(flipped, pos) == w


def test_flip_position_validation():
    w = Word(0, BINARY64)
    with pytest.raises(ValueError):
        flip_bit(w, -1)
    with pytest.raises(ValueError):
        flip_bit(w, 64)


def test_transition_record_fields():
    w = Word(0x3FF0000000000000, BINARY64)
    rec = transition(w, 62)
    assert rec.before == w
    assert rec.after == flip_bit(w, 62)
    assert rec.position == 62
    assert rec.locus == locus_of_bit(BINARY64, 62)
    assert rec.class_before is classify(w)
    assert rec.class_after is classify(rec.after)
