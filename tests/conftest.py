"""Shared fixtures and independent reference implementations.

The brute-force helpers here recompute censuses with plain Python loops
and Fraction arithmetic, deliberately avoiding the vectorized engines
they are used to check.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from flip754 import _vector
from flip754 import (
    ErrorKind,
    FpClass,
    FpFormat,
    Word,
    classify,
    flip_bit,
    relative_error,
)

SMALL_FORMATS = [FpFormat(2, 1), FpFormat(3, 2), FpFormat(4, 3)]

# Every legal format with at most 12 total bits.
TINY_FORMATS = [
    FpFormat(we, wf)
    for we in range(2, 11)
    for wf in range(1, 12 - we)
]


@pytest.fixture(params=SMALL_FORMATS, ids=lambda f: f.name)
def small_format(request) -> FpFormat:
    return request.param


def iter_class_words(fmt: FpFormat, cls: FpClass):
    """All words of a class, by filtering the full pattern range."""
    for bits in range(1 << fmt.total_bits):
        w = Word(bits, fmt)
        if classify(w) is cls:
            yield w


def dyadic_level(err: Fraction) -> int:
    """Largest i >= 1 with err <= 2^-i, or 0 when err > 1/2."""
    m = 0
    while err <= Fraction(1, 2 ** (m + 1)):
        m += 1
    return m


def brute_census(fmt: FpFormat, cls: FpClass) -> dict:
    """Scalar recount of every flip of a class: transitions, buckets, dyadic.

    Buckets are kept separated (non-finite on its own) to match the raw
    tally layout.
    """
    order = [FpClass.NORMALIZED, FpClass.DENORMALIZED, FpClass.NAN, FpClass.INF]
    trans = {(a, b): 0 for a in order for b in order}
    buckets = {"ge_one": 0, "between": 0, "le_half": 0, "nonfinite": 0, "undefined": 0}
    dyadic = [0] * (fmt.fraction_bits + 1)
    for w in iter_class_words(fmt, cls):
        for pos in range(fmt.total_bits):
            trans[(cls, classify(flip_bit(w, pos)))] += 1
            err = relative_error(w, pos)
            if err.kind is ErrorKind.UNDEFINED:
                buckets["undefined"] += 1
            elif err.kind is ErrorKind.NONFINITE:
                buckets["nonfinite"] += 1
            elif err.value >= 1:
                buckets["ge_one"] += 1
            elif err.value > Fraction(1, 2):
                buckets["between"] += 1
            else:
                buckets["le_half"] += 1
                dyadic[dyadic_level(err.value)] += 1
    return {
        "transitions": tuple(
            tuple(trans[(a, b)] for b in order) for a in order
        ),
        "buckets": (
            buckets["ge_one"], buckets["between"], buckets["le_half"],
            buckets["nonfinite"], buckets["undefined"],
        ),
        "dyadic": tuple(dyadic),
    }


# ── planted faults for mutation tests ─────────────────────────────────────
#
# Each replaces one primitive of `flip754._vector`, which the flip-outcome
# kernel looks up by name, with a subtly wrong version.  The checks that
# claim to cover the primitive must go red under it.


def _wrong_bit_flip(real, fmt):
    """flip_bits that flips bit 60 whenever a fraction position is asked for."""

    def flip_bits(bits, pos):
        p = np.asarray(pos, dtype=np.uint64)
        return real(bits, np.where(p < np.uint64(fmt.fraction_bits), np.uint64(60), p))

    return flip_bits


def _msb_off_by_one(real, fmt):
    def msb_index(values):
        return real(values) + 1

    return msb_index


def _exponent_mis_split(real, fmt):
    """split_fields that drops the lowest exponent bit."""

    def split_fields(fmt_, bits):
        s, e, f = real(fmt_, bits)
        return s, e & ~np.uint64(1), f

    return split_fields


PLANTED_FAULTS = {
    "wrong_bit_flip": ("flip_bits", _wrong_bit_flip),
    "msb_off_by_one": ("msb_index", _msb_off_by_one),
    "exponent_mis_split": ("split_fields", _exponent_mis_split),
}


@pytest.fixture
def plant_fault(monkeypatch):
    """plant_fault(name, fmt) swaps one kernel primitive for its faulty twin."""

    def plant(name: str, fmt: FpFormat) -> None:
        attr, make = PLANTED_FAULTS[name]
        monkeypatch.setattr(_vector, attr, make(getattr(_vector, attr), fmt))

    return plant
