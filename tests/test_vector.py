"""Vector helpers of `_vector` against exact Python-integer references."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flip754 import BINARY16, BINARY32, BINARY64, ErrorKind, FpClass, FpFormat, Word, classify
from flip754 import flip_bit
from flip754.formats import CLASS_CODE, CLASS_ORDER, CLASS_PAIRS, _class_fields, pair_code
from flip754 import _vector
from flip754._vector import (
    BATCH,
    Case,
    FlipKernel,
    classify_codes,
    enumerate_class,
    lane_dtype,
    msb_index,
    outcome_key,
    sample_class_bits,
    split_fields,
)

from conftest import (
    BYTE_FORMATS,
    PLANTED_FAULTS,
    TINY_FORMATS,
    binary64_batches,
    fraction_relative_error,
)


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


@pytest.mark.parametrize("fmt", [FpFormat(2, 1), BINARY16, BINARY64])
def test_class_pair_codes_decode_to_their_pair(fmt):
    # Each class's lowest and highest word (positive, then negative) gets
    # its class code from the array encoder; every pair of such codes, as
    # ints and as uint8 arrays, decodes back to its pair of classes.
    assert CLASS_ORDER == tuple(FpClass)
    codes = {}
    for cls in CLASS_ORDER:
        e0, n_e, f0, n_f = _class_fields(fmt, cls)
        ends = [(e0 << fmt.fraction_bits) | f0,
                1 << fmt.total_bits - 1 | (e0 + n_e - 1) << fmt.fraction_bits | f0 + n_f - 1]
        words = np.array(ends, dtype=lane_dtype(fmt))
        codes[cls] = classify_codes(fmt, words)
        assert [classify(Word(int(w), fmt)) for w in words] == [cls, cls]
    for src, dst in CLASS_PAIRS:
        pair = pair_code(codes[src], codes[dst][::-1])
        assert pair.dtype == np.uint8
        assert [CLASS_PAIRS[c] for c in pair.tolist()] == [(src, dst)] * 2
        assert CLASS_PAIRS[pair_code(int(codes[src][0]), int(codes[dst][1]))] == (src, dst)


@pytest.mark.parametrize("fmt", TINY_FORMATS, ids=lambda f: f.name)
def test_classify_codes_matches_classify_on_every_word(fmt):
    words = np.arange(1 << fmt.total_bits)
    expected = [CLASS_CODE[classify(Word(int(w), fmt))] for w in words]
    for lane in (np.uint32, np.uint64):
        codes = classify_codes(fmt, words.astype(lane))
        assert codes.dtype == np.uint8
        assert codes.tolist() == expected, lane.__name__


def _class_edges(fmt: FpFormat) -> list[int]:
    """Both signs of 0, the largest denormal, the smallest normal, the
    largest finite word, infinity and the smallest and largest NaN."""
    w_f, top = fmt.fraction_bits, fmt.exponent_all_ones
    inf = top << w_f
    edges = [0, fmt.fraction_mask, 1 << w_f, inf - 1, inf, inf + 1, inf | fmt.fraction_mask]
    return edges + [1 << (fmt.total_bits - 1) | m for m in edges]


@pytest.mark.parametrize(
    "fmt", [FpFormat(2, 61), FpFormat(62, 1), FpFormat(30, 33), BINARY32, BINARY64],
    ids=lambda f: f.name,
)
def test_classify_codes_at_the_class_edges(fmt):
    """The edges of every class under both signs get their `classify` code
    from the array encoder and from the scalar bound count, whose number
    of bounds reached, XOR 1, is `CLASS_CODE`."""
    edges = _class_edges(fmt)
    classes = [classify(Word(w, fmt)) for w in edges]
    assert classes == 2 * [
        FpClass.DENORMALIZED, FpClass.DENORMALIZED, FpClass.NORMALIZED, FpClass.NORMALIZED,
        FpClass.INF, FpClass.NAN, FpClass.NAN,
    ]
    expected = [CLASS_CODE[c] for c in classes]
    assert classify_codes(fmt, np.array(edges, dtype=lane_dtype(fmt))).tolist() == expected
    assert classify_codes(fmt, np.array(edges, dtype=np.uint64)).tolist() == expected
    bounds = _vector._class_bounds(fmt)
    magnitudes = [w & fmt.word_mask >> 1 for w in edges]
    assert [_vector._magnitude_code(bounds, m) for m in magnitudes] == expected


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
    # copied: a label is valid only until the kernel's next label call
    seen = np.concatenate([kernel.label(pos).copy() for pos in range(fmt.total_bits)])
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


# ── FlipKernel.held against its three-branch form ────────────────────────


def _held_reference(kernel: FlipKernel, pos: int) -> np.ndarray:
    """`FlipKernel.held` as first written, one branch per field.  The sign
    is read as the words' top bit; the flip and the other two fields go
    through `_vector` by name, so a planted fault reaches both forms."""
    fmt, bits = kernel.fmt, kernel.bits
    top, w_f = np.uint64(fmt.total_bits - 1), fmt.fraction_bits
    after = _vector.flip_bits(bits, pos)
    s, s2 = bits >> top, after >> top
    e, f = _vector.split_fields(fmt, bits)
    e2, f2 = _vector.split_fields(fmt, after)
    if pos == fmt.total_bits - 1:
        return (s2 != s) & (e2 == e) & (f2 == f)
    held = s2 == s
    if pos < w_f:
        held &= (e2 == e) & ((f2 ^ f) == np.uint64(1 << pos))
        if kernel.has_den:
            held &= kernel.lead_ok
        return held
    return held & (f2 == f) & ((e2 ^ e) == np.uint64(1 << (pos - w_f)))


@pytest.mark.parametrize("fmt", TINY_FORMATS, ids=lambda f: f.name)
def test_held_matches_its_three_branch_form(fmt):
    kernel = FlipKernel(fmt, np.arange(1 << fmt.total_bits, dtype=np.uint64))
    for pos in range(fmt.total_bits):
        assert np.array_equal(kernel.held(pos), _held_reference(kernel, pos)), pos


@pytest.mark.parametrize("fault", [None, *PLANTED_FAULTS])
def test_held_matches_its_three_branch_form_on_binary64_batches(plant_fault, fault):
    if fault is not None:
        plant_fault(fault, BINARY64)
    bits = binary64_batches()
    verdicts = []
    for start in range(0, bits.size, 64):
        kernel = FlipKernel(BINARY64, bits[start:start + 64])
        for pos in range(64):
            held = kernel.held(pos)
            assert np.array_equal(held, _held_reference(kernel, pos)), (start, pos)
            verdicts.append(held.all())
    # the batches are wide enough for every planted fault to fail a verdict
    assert all(verdicts) == (fault is None)


def _alias_batches():
    """One batch of every class of binary16, and `binary64_batches()` in
    its batches of 64."""
    b64 = binary64_batches()
    return [
        pytest.param(BINARY16, next(enumerate_class(BINARY16, cls)), id=f"binary16-{cls.value}")
        for cls in CLASS_ORDER
    ] + [
        pytest.param(BINARY64, b64[i : i + 64], id=f"binary64-{i}") for i in range(0, b64.size, 64)
    ]


@pytest.mark.parametrize("fmt,bits", _alias_batches())
def test_kernel_results_do_not_alias(fmt, bits):
    """`label`, `held` and `dst` of every position, all kept until the kernel
    has answered every position, equal what a fresh kernel returns for
    that position alone: no result is overwritten by a later call."""
    kernel = FlipKernel(fmt, bits)
    kept = [(kernel.label(p), kernel.held(p), kernel.dst(p)) for p in range(fmt.total_bits)]
    for pos, results in enumerate(kept):
        fresh = FlipKernel(fmt, bits)
        for name, got in zip(("label", "held", "dst"), results):
            assert np.array_equal(got, getattr(fresh, name)(pos)), (name, pos)


# ── lane widths ───────────────────────────────────────────────────────────


def _scalar_flip(fmt: FpFormat, bits: int, pos: int) -> tuple[int, bool, int, int]:
    """(label, held, destination code, source code) of the flip of `pos`
    in `bits`, from Python-int fields and the scalar `classify` and
    `flip_bit`, with each label read off its interval in `Case`."""
    w_f, top = fmt.fraction_bits, fmt.exponent_all_ones
    w = Word(bits, fmt)
    after = flip_bit(w, pos)
    e, f = bits >> w_f & top, bits & fmt.fraction_mask
    norm, den = classify(w) is FpClass.NORMALIZED, e == 0 and f != 0
    if not (norm or den):
        label = Case.UNDEFINED
    elif pos == fmt.total_bits - 1:
        label = Case.SIGN
    elif pos < w_f:
        bit = 1 << pos
        if norm:
            label = Case.NORM_FRAC
        elif f <= bit:
            label = Case.DEN_FRAC_GE
        else:
            label = Case.DEN_FRAC_MID if f < 2 * bit else Case.DEN_FRAC_LE
    elif den:
        label = Case.DEN_EXP
    else:
        e2 = e ^ 1 << (pos - w_f)
        if e2 > e:
            label = Case.EXP_NONFINITE if e2 == top else Case.EXP_UP
        elif e2 == 0:
            label = Case.EXP_TO_ZERO if f == 0 else Case.EXP_TO_DEN
        else:
            label = Case.EXP_HALF if pos == w_f else Case.EXP_DOWN
    held = after.bits ^ bits == 1 << pos
    return int(label), held, CLASS_CODE[classify(after)], CLASS_CODE[classify(w)]


def _field_words(fmt: FpFormat):
    """Lists of words of `fmt`, each composed of a sign, an exponent that is
    often an edge (zero, all ones, one bit set or clear) and a fraction that
    is often 0, 1 or all ones, so that every class and every exponent case
    turns up in a few draws."""
    w_f, top = fmt.fraction_bits, fmt.exponent_all_ones
    edges = sorted({0, top} | {b for k in range(fmt.exponent_bits) for b in (1 << k, top ^ 1 << k)})
    exponent = st.one_of(st.sampled_from(edges), st.integers(0, top))
    mask = fmt.fraction_mask
    fraction = st.one_of(st.sampled_from([0, 1, mask]), st.integers(0, mask))
    word = st.builds(
        lambda s, e, f: s << (fmt.total_bits - 1) | e << w_f | f,
        st.integers(0, 1), exponent, fraction,
    )
    return st.lists(word, min_size=1, max_size=64)


# 32-bit shapes get uint32 lanes and 33-bit ones uint64 lanes, each with a
# wide fraction and with a wide exponent; 6,13 is the benchmark's census.
LANE_CASES = [
    (BINARY32, np.uint32),
    (FpFormat(2, 29), np.uint32),
    (FpFormat(30, 1), np.uint32),
    (FpFormat(8, 24), np.uint64),
    (FpFormat(2, 30), np.uint64),
    (FpFormat(6, 13), np.uint32),
]


@pytest.mark.parametrize(
    "fmt,lane", LANE_CASES, ids=lambda v: getattr(v, "name", None) or v.__name__
)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_kernel_matches_the_scalar_flip_at_either_lane_width(fmt, lane, data):
    """`label`, `held`, `dst` and `norm` of uint64 input words equal
    `_scalar_flip` at every position, on both sides of the 32-bit lane
    boundary, and the words and fields sit in lanes of the expected width."""
    words = data.draw(_field_words(fmt))
    kernel = FlipKernel(fmt, np.array(words, dtype=np.uint64))
    for pos in range(fmt.total_bits):
        expected = [_scalar_flip(fmt, bits, pos) for bits in words]
        label, held, dst, code = (list(column) for column in zip(*expected))
        assert kernel.label(pos).tolist() == label, pos
        assert kernel.held(pos).tolist() == held, pos
        assert kernel.dst(pos).tolist() == dst, pos
        assert kernel.norm.tolist() == [c == CLASS_CODE[FpClass.NORMALIZED] for c in code]
    assert {kernel.bits.dtype, kernel.e.dtype, kernel.f.dtype} == {np.dtype(lane)}
    assert lane_dtype(fmt) is lane


# ── the campaign's chunk kernels ──────────────────────────────────────────

# Draw ranges per class, as (first biased exponent, count, first fraction,
# count); the denormal class holds the two zeros.
def _class_ranges(fmt: FpFormat, cls: FpClass) -> tuple[int, int, int, int]:
    top, n_f = fmt.exponent_all_ones, 1 << fmt.fraction_bits
    return {
        FpClass.NORMALIZED: (1, top - 1, 0, n_f),
        FpClass.DENORMALIZED: (0, 1, 0, n_f),
        FpClass.NAN: (top, 1, 1, n_f - 1),
        FpClass.INF: (top, 1, 0, 1),
    }[cls]


CLASSES = [FpClass.NORMALIZED, FpClass.DENORMALIZED, FpClass.NAN, FpClass.INF]
KERNEL_FORMATS = [BINARY64, BINARY16, FpFormat(2, 1)]


@pytest.mark.parametrize("fmt", KERNEL_FORMATS, ids=lambda f: f.name)
@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.value)
def test_sample_class_bits_composes_the_three_draws(fmt, cls):
    """The word is (s << (W - 1)) | (e << w_f) | f of a twin generator's
    draws of s, then e, then f, with `out` or without, and both leave the
    generator where the twin is."""
    e0, n_e, f0, n_f = _class_ranges(fmt, cls)
    n = 3000
    for out in (None, np.empty(n, dtype=np.uint64)):
        rng, twin = (np.random.Generator(np.random.Philox(11)) for _ in range(2))
        s = twin.integers(0, 2, size=n, dtype=np.uint64)
        e = twin.integers(e0, e0 + n_e, size=n, dtype=np.uint64)
        f = twin.integers(f0, f0 + n_f, size=n, dtype=np.uint64)
        expected = (s << np.uint64(fmt.total_bits - 1)) | (e << np.uint64(fmt.fraction_bits)) | f
        got = sample_class_bits(fmt, cls, rng, n, out=out)
        assert got.dtype == np.uint64
        assert np.array_equal(got, expected)
        assert out is None or got is out
        assert rng.integers(0, 1 << 62) == twin.integers(0, 1 << 62)


def _outcome_key_reference(fmt, cls, bits, pos):
    """`outcome_key` as first written, with full-width temporaries."""
    b = np.asarray(bits, dtype=np.uint64)
    p = np.asarray(pos, dtype=np.uint64)
    w_f = fmt.fraction_bits
    if cls is FpClass.NORMALIZED:
        key = (p << np.uint64(4)).view(np.intp)
        d = p - np.uint64(w_f)  # wraps past w_e below the exponent field
        lane = np.flatnonzero(d < np.uint64(fmt.exponent_bits))
        e, f = split_fields(fmt, b[lane])
        e2 = e ^ (np.uint64(1) << d[lane])
        key[lane] += (
            (e2 > e).view(np.uint8)
            | (e2 == np.uint64(fmt.exponent_all_ones)).view(np.uint8) << 1
            | (e2 == 0).view(np.uint8) << 2
            | (f == 0).view(np.uint8) << 3
        )
        return key, 16
    e, f = split_fields(fmt, b)
    if cls is FpClass.DENORMALIZED:
        width = 2 * (w_f + 1)
        pow2 = np.bitwise_count(f) == 1
        return p.astype(np.intp) * width + 2 * (msb_index(f) + 1) + pow2, width
    if cls is FpClass.NAN:
        return p.astype(np.intp) * 2 + (f == np.uint64(1) << p), 2
    return p.astype(np.intp), 1


def _class_lanes(fmt: FpFormat, cls: FpClass, n: int, seed: int):
    """n random words of `cls` with positions that take every value."""
    rng = np.random.default_rng(seed)
    bits = sample_class_bits(fmt, cls, rng, n)
    pos = rng.permutation(np.arange(n, dtype=np.uint64) % np.uint64(fmt.total_bits))
    return bits, pos


@pytest.mark.parametrize(
    "fmt", KERNEL_FORMATS + [FpFormat(62, 1), FpFormat(30, 33), FpFormat(2, 61)], ids=lambda f: f.name
)
@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.value)
def test_outcome_key_matches_its_first_form(fmt, cls):
    bits, pos = _class_lanes(fmt, cls, 20_000, seed=fmt.total_bits)
    expected, expected_width = _outcome_key_reference(fmt, cls, bits, pos.copy())
    key, width = outcome_key(fmt, cls, bits, pos)
    assert width == expected_width
    assert key.dtype == np.intp and np.array_equal(key, expected)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.value)
def test_outcome_key_writes_the_key_over_pos_and_leaves_bits(cls):
    fmt = BINARY16
    bits, pos = _class_lanes(fmt, cls, 5000, seed=3)
    bits_before, pos_before = bits.copy(), pos.copy()
    key, _ = outcome_key(fmt, cls, bits, pos)
    assert np.array_equal(bits, bits_before)
    assert np.shares_memory(key, pos) and np.array_equal(pos.view(np.intp), key)
    # A pos of another dtype is copied first, and keeps its values.
    other = pos_before.astype(np.int64)
    again, _ = outcome_key(fmt, cls, bits, other)
    assert np.array_equal(again, key) and not np.shares_memory(again, other)
    assert np.array_equal(other, pos_before)


# ── class enumeration ─────────────────────────────────────────────────────


def _enumerate_class_reference(fmt: FpFormat, cls: FpClass):
    """`enumerate_class` as first written: chunks of the class's index
    range, each index split into sign, exponent and fraction by divmod."""
    e0, n_e, f0, n_f = _class_ranges(fmt, cls)
    per_sign = n_e * n_f
    total = 2 * per_sign
    for start in range(0, total, BATCH):
        idx = np.arange(start, min(start + BATCH, total), dtype=np.uint64)
        s, rem = np.divmod(idx, np.uint64(per_sign))
        e, f = np.divmod(rem, np.uint64(n_f))
        yield (
            (s << np.uint64(fmt.total_bits - 1))
            | ((e + np.uint64(e0)) << np.uint64(fmt.fraction_bits))
            | (f + np.uint64(f0))
        )


@pytest.mark.parametrize(
    "fmt", TINY_FORMATS + [FpFormat(6, 13), FpFormat(2, 9)], ids=lambda f: f.name
)
def test_enumerate_class_matches_its_divmod_form(fmt):
    for cls in CLASSES:
        chunks = list(enumerate_class(fmt, cls))
        for chunk in chunks:
            assert chunk.dtype == lane_dtype(fmt) and 0 < chunk.size <= BATCH
            assert np.all(chunk[1:] > chunk[:-1])
        expected = np.concatenate(list(_enumerate_class_reference(fmt, cls)))
        assert np.array_equal(np.concatenate(chunks), expected)
