"""Shared fixtures and independent reference implementations.

The brute-force helpers here recompute censuses with plain Python loops
and Fraction arithmetic, deliberately avoiding the vectorized engines
they are used to check.
"""

from __future__ import annotations

import os
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import flip754
from flip754 import _vector
from flip754 import (
    BINARY64,
    ErrorKind,
    FpClass,
    FpFormat,
    RelativeError,
    ValueKind,
    Word,
    classify,
    decode_value,
    flip_bit,
)

SMALL_FORMATS = [FpFormat(2, 1), FpFormat(3, 2), FpFormat(4, 3)]

# Every legal format with at most 8 total bits.
BYTE_FORMATS = [FpFormat(we, wf) for we in range(2, 7) for wf in range(1, 8 - we)]

# Every legal format with at most 12 total bits.
TINY_FORMATS = [
    FpFormat(we, wf)
    for we in range(2, 11)
    for wf in range(1, 12 - we)
]


def package_env() -> dict:
    """The environment with this checkout's package first on PYTHONPATH."""
    package_root = str(Path(flip754.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])
    )}


@pytest.fixture(params=SMALL_FORMATS, ids=lambda f: f.name)
def small_format(request) -> FpFormat:
    return request.param


def iter_class_words(fmt: FpFormat, cls: FpClass):
    """All words of a class, by filtering the full pattern range."""
    for bits in range(1 << fmt.total_bits):
        w = Word(bits, fmt)
        if classify(w) is cls:
            yield w


def fraction_relative_error(w: Word, pos: int) -> RelativeError:
    """|x - x'| / |x| from both decoded values as Fractions.

    Subtracts the decoded values themselves, so it shares no arithmetic
    with `relerr.relative_error`, which shifts integer significands.
    """
    v = decode_value(w)
    if v.kind is not ValueKind.FINITE or v.significand == 0:
        return RelativeError(ErrorKind.UNDEFINED)
    v2 = decode_value(flip_bit(w, pos))
    if v2.kind is not ValueKind.FINITE:
        return RelativeError(ErrorKind.NONFINITE)
    x = v.as_fraction()
    return RelativeError(ErrorKind.FINITE, abs(x - v2.as_fraction()) / abs(x))


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
            err = fraction_relative_error(w, pos)
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


def _binary64_words(rng: np.random.Generator, kind: str, n: int) -> np.ndarray:
    """n binary64 words of one kind: normalized, denormal (nonzero), zero,
    nan or inf.  Normalized words draw from the edge exponents too, whose
    flips land on the all-ones code, in the denormals or on zero."""
    top, w_f = BINARY64.exponent_all_ones, BINARY64.fraction_bits
    s = rng.integers(0, 2, n, dtype=np.uint64)
    f = rng.integers(1, BINARY64.fraction_mask + 1, n, dtype=np.uint64)
    if kind == "normalized":
        edge = [top ^ (1 << k) for k in range(11)] + [1 << k for k in range(11)]
        e = rng.choice(np.array(edge + [5, 1023, top - 1] * 8, np.uint64), n)
        f[::3] = 0
    elif kind == "denormal":
        e, f = 0, f >> rng.integers(0, w_f, n, dtype=np.uint64) | np.uint64(1)
    else:
        e, f = (0, 0) if kind == "zero" else (top, f if kind == "nan" else 0)
    return s << np.uint64(63) | np.uint64(e) << np.uint64(w_f) | np.uint64(f)


def binary64_batches() -> np.ndarray:
    """300 binary64 words, meant to be judged in batches of 64: normalized
    only (no denormal); every kind; undefined only; every kind; and a
    partial batch of every kind."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(13)))
    every = {"normalized": 32, "denormal": 16, "zero": 6, "nan": 5, "inf": 5}
    batches = [
        {"normalized": 64},
        every,
        {"zero": 22, "nan": 21, "inf": 21},
        every,
        {"normalized": 20, "denormal": 12, "zero": 4, "nan": 4, "inf": 4},
    ]
    return np.concatenate([
        rng.permutation(np.concatenate([_binary64_words(rng, k, n) for k, n in mix.items()]))
        for mix in batches
    ])


# ── planted faults for mutation tests ─────────────────────────────────────
#
# Each replaces one primitive of `flip754._vector`, which the flip-outcome
# kernel looks up by name, with a subtly wrong version.  The checks that
# claim to cover the primitive must go red under it.


def _wrong_bit_flip(real, fmt):
    """flip_bits that flips bit 60 whenever a fraction position is asked for."""

    def flip_bits(bits, pos, out=None):
        p = np.asarray(pos, dtype=np.uint64)
        return real(bits, np.where(p < np.uint64(fmt.fraction_bits), np.uint64(60), p), out)

    return flip_bits


def _msb_off_by_one(real, fmt):
    def msb_index(values):
        return real(values) + 1

    return msb_index


def _exponent_mis_split(real, fmt):
    """split_fields that drops the lowest exponent bit."""

    def split_fields(fmt_, bits, out=None):
        e, f = real(fmt_, bits, out)
        return e & ~np.uint64(1), f

    return split_fields


def _fraction_mis_split(real, fmt):
    """split_fields that drops the lowest fraction bit.  The flip of bit 0
    then shows no change in the split fraction, so only a field-wise check
    sees it: the whole words still differ in bit 0."""

    def split_fields(fmt_, bits, out=None):
        e, f = real(fmt_, bits, out)
        return e, f & ~np.uint64(1)

    return split_fields


def sign_co_flip(real, fmt):
    """flip_bits that also flips the sign bit at every non-sign position.

    Only the bounds sweep's sign check can see it, so it stays out of
    PLANTED_FAULTS, whose every fault must also turn the census and the
    campaign red: a sign flip changes neither the destination class nor
    the case label, so every census tally of 3,2 is unchanged under it.
    """
    top = np.uint64(fmt.total_bits - 1)

    def flip_bits(bits, pos, out=None):
        flipped = real(bits, pos, out)
        flipped ^= (np.asarray(pos, dtype=np.uint64) != top).astype(np.uint64) << top
        return flipped

    return flip_bits


PLANTED_FAULTS = {
    "wrong_bit_flip": ("flip_bits", _wrong_bit_flip),
    "msb_off_by_one": ("msb_index", _msb_off_by_one),
    "exponent_mis_split": ("split_fields", _exponent_mis_split),
    "fraction_mis_split": ("split_fields", _fraction_mis_split),
}


@pytest.fixture
def plant_fault(monkeypatch):
    """plant_fault(name, fmt) swaps one kernel primitive for its faulty twin."""

    def plant(name: str, fmt: FpFormat) -> None:
        attr, make = PLANTED_FAULTS[name]
        monkeypatch.setattr(_vector, attr, make(getattr(_vector, attr), fmt))

    return plant
