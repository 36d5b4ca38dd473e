"""Internal numpy kernels shared by the census, campaign, sweep and inject engines.

Everything here works on unsigned arrays of raw words and stays exact:
field splits, flips and `msb_index` are pure bit arithmetic, with no
float64 step.  The scalar routines in `formats` remain the reference
semantics; these kernels are checked against them in the test suite.
The class vocabulary (`CLASS_ORDER`, `CLASS_CODE` and the class-pair
code) lives in `formats`; `classify_codes` is its one array encoder.
It splits no field: with the sign bit cleared, each class is one
interval of the magnitude (`_class_bounds`), so a word's class is the
number of bounds its magnitude reaches.  `montecarlo._MutableTally.add`
says how the census tests the same bounds on a flipped batch.

The flip kernel runs in the narrowest lane that holds a word,
`lane_dtype`: uint32 for a format of at most 32 bits, else uint64.  Every
census word has at most 24 bits, so its flips, splits and class
comparisons move half the bytes that uint64 lanes would.  Both widths
run the same functions: each scalar that meets a lane in them is a
Python int, which numpy (NEP 50) casts to the lane's dtype, where an
`np.uint64` scalar would promote a uint32 batch to uint64 temporaries.
The campaign's draws (`sample_class_bits`, `outcome_key`) stay uint64
at every width, since the seeded draw scheme is uint64.

`FlipKernel` holds the one vector form of the closed-form case analysis
of a flip (sign; fraction; exponent up, down, into the denormals or off
the finite range).  It answers three questions per position, and each
reduction asks only for what it reads:

* the census in `montecarlo` tallies the case label and the destination
  class of every (word, position) pair: it reads `label`, and reads the
  class off the flipped magnitudes itself, as `dst` does per word;
* the campaign tallies the same two through `outcome_key`: it counts one
  small key per sampled flip and runs the kernel only on representative
  words of each key, weighting each outcome by its key's count;
* the bounds sweep in `relerr` counts whether each prediction held
  (`held`), and reads the label only at exponent positions, where it
  parts the non-finite and one-sided cases from the conforming ones;
* `relerr.error_rows` keys each inject error off the fraction by `label`.

The campaign's chunk path allocates no 8-byte array as long as a chunk
past its four draws (sign, exponent, fraction, position):
`sample_class_bits` merges each field draw into the word buffer and
drops it, and `outcome_key` writes the key over the positions, works on
the exponent lanes alone for a normalized chunk and on `BATCH` lanes at
a time for a denormal or NaN one.  `montecarlo.run_campaign` gives each
of its threads one word and one position buffer and runs one chunk per
thread at a time.

The census and sweep path bounds its memory by the batch: a `FlipKernel`
holds one batch of at most `BATCH` words, and `label`, `held` and `dst`
each return a new array, so each position's temporaries are a few
arrays as long as the batch.  Buffers kept across positions measured
neither faster nor smaller on uint32 lanes, so the kernel keeps none.

Labels are built without selects: each is a uint8 sum of the uint8 views
(0 or 1) of the label's comparison masks, weighted by differences of
`Case` codes.  A difference may wrap around in uint8, but arithmetic
mod 256 is exact on sums whose true value lies in [0, Case.COUNT), which
every label does, so the wraparound always cancels.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterator

import numpy as np

from .formats import FpClass, FpFormat, Word, _class_fields

_U1 = np.uint64(1)


class Case:
    """Closed-form cases of one flip, as labelled by `FlipKernel.label`.

    k = w_f - pos is the fraction entry flipped, 2^d the place value of
    the exponent entry flipped.

    The codes are load-bearing, not just names: `FlipKernel.label` adds
    mask bits to a base code, so EXP_UP + 1 must be EXP_NONFINITE,
    EXP_TO_DEN + 1 EXP_TO_ZERO, and DEN_FRAC_GE + 1 and + 2 DEN_FRAC_MID
    and DEN_FRAC_LE.
    """

    UNDEFINED = np.uint8(0)  # zero, NaN or infinite source: no relative error
    SIGN = np.uint8(1)  # sign bit: error exactly 2
    NORM_FRAC = np.uint8(2)  # normalized, fraction: error in (2^-(k+1), 2^-k]
    DEN_FRAC_GE = np.uint8(3)  # nonzero denormal f, fraction, 2^pos >= f: error >= 1
    DEN_FRAC_MID = np.uint8(4)  # ... 2^pos < f < 2^(pos+1): error in (1/2, 1)
    DEN_FRAC_LE = np.uint8(5)  # ... f >= 2^(pos+1): error 2^pos / f <= 1/2
    EXP_UP = np.uint8(6)  # normalized, exponent 0 -> 1: error exactly 2^(2^d) - 1
    EXP_NONFINITE = np.uint8(7)  # ... 0 -> 1 onto the all-ones code: NaN or infinity
    EXP_HALF = np.uint8(8)  # ... 1 -> 0 at d = 0, still normalized: error exactly 1/2
    EXP_DOWN = np.uint8(9)  # ... 1 -> 0 at d > 0, still normalized: 1 - 2^-(2^d) in (1/2, 1)
    EXP_TO_DEN = np.uint8(10)  # ... 1 -> 0 into the denormals: error in (1 - 2^-(2^d), 1)
    EXP_TO_ZERO = np.uint8(11)  # ... 1 -> 0 onto zero: error exactly 1
    DEN_EXP = np.uint8(12)  # nonzero denormal, exponent: error > 2^(2^d) - 1, one-sided
    COUNT = 13


# Words per kernel batch in the census and the sweep, and per step of a
# denormal or NaN `outcome_key`: small enough that the temporaries of a
# batch stay in cache.
BATCH = 1 << 14


# ── field access ──────────────────────────────────────────────────────────


def as_words(fmt: FpFormat, words: np.ndarray) -> np.ndarray:
    """`words` as a uint64 array, refusing any element that is not a word of `fmt`.

    Raises TypeError for a non-empty input of a non-integer dtype, whose
    cast would silently pick other words, and, through `Word`, ValueError
    for a negative or over-wide pattern.  An input whose dtype holds only
    words of `fmt`, such as uint64 in a 64-bit format, gets no pass over
    its elements.  A sequence of Python ints that numpy reads as float64
    (2^63 and up beside smaller ones) or as objects (2^64 and up) is
    checked one int at a time.
    """
    a = np.asarray(words)
    if a.dtype.kind in "fO" and not isinstance(words, np.ndarray):
        ints = np.asarray(words, dtype=object)
        if all(isinstance(v, int) for v in ints.flat):
            for v in ints.flat:
                Word(v, fmt)  # raises on a pattern that is not a word of fmt
            return ints.astype(np.uint64)
    if a.dtype.kind not in "ui":
        if a.size:
            raise TypeError(f"words must have an integer dtype, not {a.dtype}")
    elif a.size:
        info, mask = np.iinfo(a.dtype), fmt.word_mask
        if (info.min < 0 and a.min() < 0) or (info.max > mask and a.max() > mask):
            Word(next(v for v in a.ravel().tolist() if not 0 <= v <= mask), fmt)  # raises
    return a.astype(np.uint64, copy=False)


def lane_dtype(fmt: FpFormat) -> type[np.unsignedinteger]:
    """The flip kernel's lane for words of `fmt`: uint32 when they have at
    most 32 bits, else uint64."""
    return np.uint32 if fmt.total_bits <= 32 else np.uint64


def _lanes(bits: np.ndarray) -> np.ndarray:
    # uint32 lanes (`lane_dtype`) as they are; any other input as uint64
    b = np.asarray(bits)
    return b if b.dtype == np.uint32 else b.astype(np.uint64, copy=False)


def split_fields(fmt: FpFormat, bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split raw words into (biased exponent, fraction) arrays.

    uint32 words give uint32 fields (`lane_dtype`), any other input
    uint64 ones."""
    b = _lanes(bits)
    e = b >> fmt.fraction_bits
    e &= fmt.exponent_all_ones
    return e, b & fmt.fraction_mask


def _class_bounds(fmt: FpFormat) -> tuple[int, int, int]:
    """Where the classes begin on the magnitude, the word with its sign
    bit cleared: the smallest normal 2^w_f, infinity and the smallest NaN.

    Each class is one interval of the magnitude: zeros and denormals lie
    below 2^w_f, normals below infinity's pattern all_ones << w_f, and
    NaNs above it.  So the number of bounds a magnitude reaches is 0 for a
    denormal, 1 for a normal, 2 for infinity and 3 for a NaN, and that
    number XOR 1 is its `formats.CLASS_CODE` (`_magnitude_code`).
    """
    inf = fmt.exponent_all_ones << fmt.fraction_bits
    return 1 << fmt.fraction_bits, inf, inf + 1


def _magnitude_code(bounds: tuple[int, int, int], magnitude: int) -> int:
    """`formats.CLASS_CODE` of one magnitude, given its format's `_class_bounds`."""
    return bisect_right(bounds, magnitude) ^ 1


def classify_codes(fmt: FpFormat, bits: np.ndarray) -> np.ndarray:
    """`formats.CLASS_CODE` of each word: 0 normalized, 1 denormal, 2 NaN,
    3 infinity: the number of `_class_bounds` its magnitude reaches,
    XOR 1, from three comparisons and no field split."""
    magnitude = _lanes(bits) & (fmt.word_mask >> 1)
    smallest_normal, inf, smallest_nan = _class_bounds(fmt)
    code = (magnitude >= smallest_normal).view(np.uint8)
    code += (magnitude >= inf).view(np.uint8)
    code += (magnitude >= smallest_nan).view(np.uint8)
    code ^= np.uint8(1)
    return code


def flip_bits(bits: np.ndarray, pos: int) -> np.ndarray:
    """XOR each word with 1 << pos, in the lanes of `bits` (uint32 words
    stay uint32, `lane_dtype`)."""
    return _lanes(bits) ^ (1 << pos)


def msb_index(values: np.ndarray) -> np.ndarray:
    """floor(log2(v)) per element for positive values; zeros give -1.

    Smearing the leading one into every lower place leaves 2^(k+1) - 1
    for a value with leading place k, which has k + 1 ones.
    """
    v = np.array(values, dtype=np.uint64)  # a copy, smeared in place
    for k in (1, 2, 4, 8, 16, 32):
        v |= v >> np.uint64(k)
    return np.bitwise_count(v).astype(np.int64) - 1


# ── the flip-outcome kernel ───────────────────────────────────────────────


class FlipKernel:
    """Closed-form outcomes of flipping one bit of every word of a batch.

    Construction does the work that depends only on the source words:
    exponents and fractions, the normalized and nonzero-denormal masks and,
    when the batch holds nonzero denormals, msb_index(f) with the
    leading-entry identity 2^lead <= f < 2^(lead+1).  Per position the
    kernel then answers three questions, each computed only when a
    reduction asks for it:

    * `label(pos)`: the `Case` of each flip, from the source fields only;
    * `held(pos)`: whether each field of the word changed exactly as the
      flip predicts, which is what the bounds sweep counts;
    * `dst(pos)`: the class code of each after-word, which the campaign
      tallies with the label (`montecarlo._MutableTally.add` says when
      the census builds the same codes).

    `held` costs one flip and one split of the change after ^ bits into
    exponent and fraction; `dst` costs one flip and the three magnitude
    comparisons of `classify_codes`, with no split.  Each call returns a
    new array, except that `label` at the sign position, and at fraction
    positions of a batch without nonzero denormals, returns a label
    computed at construction: callers read labels and do not write into
    them.

    The kernel holds its words and fields in `lane_dtype(fmt)`
    lanes, converting `bits` once: uint32 for the census and every format
    of at most 32 bits, where each position's work then moves half the
    bytes, and uint64 for binary64 and other wider formats.
    """

    def __init__(self, fmt: FpFormat, bits: np.ndarray) -> None:
        self.fmt = fmt
        self.bits = np.asarray(bits, dtype=lane_dtype(fmt))
        self.e, self.f = split_fields(fmt, self.bits)
        self.norm = norm = (self.e != 0) & (self.e != fmt.exponent_all_ones)
        f_zero = self.f == 0
        self.den_nz = den_nz = (self.e == 0) & ~f_zero
        self.has_den = bool(den_nz.any())
        self.lead = self.lead_ok = None
        if self.has_den:
            self.lead = msb_index(self.f)
            shift = np.maximum(self.lead, 0).astype(self.bits.dtype)
            self.lead_ok = ~den_nz | ((self.f >> shift) == 1)
        self._fz8, self._norm8, self._den8 = (m.view(np.uint8) for m in (f_zero, norm, den_nz))
        self._sign_label = Case.SIGN * (self._norm8 + self._den8)
        self._frac_label = Case.NORM_FRAC * self._norm8
        self._exp_label = Case.DEN_EXP * self._den8

    def label(self, pos: int) -> np.ndarray:
        """Case label of the flip of `pos` in each word (UNDEFINED exactly
        off the normalized and nonzero-denormal words).

        Each label is a uint8 sum of the uint8 views (0 or 1) of the
        comparison masks, with no select: a term that picks one of two
        codes adds their difference times the mask.  A difference may wrap
        below zero in uint8, but uint8 arithmetic is exact mod 256 and
        every label's true value lies in [0, Case.COUNT), so the
        wraparound cancels.
        """
        fmt, e, f = self.fmt, self.e, self.f
        w_f = fmt.fraction_bits
        if pos == fmt.total_bits - 1:
            return self._sign_label
        if pos < w_f:
            if not self.has_den:
                return self._frac_label
            # frac_label + den8 * (DEN_FRAC_GE + (f > bit) + (f >= 2 * bit))
            bit = 1 << pos
            label = (f > bit).view(np.uint8)
            label += (f >= bit << 1).view(np.uint8)
            label += Case.DEN_FRAC_GE
            label *= self._den8
            label += self._frac_label
            return label
        # exp_label + norm8 * (down + up * (EXP_UP + nonfinite - down)), where
        # down = still + hit * (EXP_TO_DEN - still + fz8)
        step = 1 << (pos - w_f)
        up = ((e & step) == 0).view(np.uint8)
        nonfinite = ((e | step) == fmt.exponent_all_ones).view(np.uint8)
        still = Case.EXP_HALF if pos == w_f else Case.EXP_DOWN
        down = self._fz8 + (Case.EXP_TO_DEN - still)
        down *= (e == step).view(np.uint8)
        down += still
        nonfinite += Case.EXP_UP
        nonfinite -= down
        nonfinite *= up
        label = down
        label += nonfinite
        label *= self._norm8
        label += self._exp_label
        return label

    def held(self, pos: int) -> np.ndarray:
        """Whether the prediction for the flip of `pos` held, per word.

        Judged from the change the flip made, after ^ bits: each field of
        it must equal that field of the flip mask 2^pos, with the sign read
        as the top bit and the exponent and the fraction split by
        `split_fields`.  Denormal fraction cases also need the
        leading-entry identity their interval rests on.
        """
        fmt, flip = self.fmt, 1 << pos
        top, w_f = fmt.total_bits - 1, fmt.fraction_bits
        change = flip_bits(self.bits, pos)
        change ^= self.bits
        e, f = split_fields(fmt, change)
        change >>= top
        held = change == flip >> top
        held &= e == (flip >> w_f & fmt.exponent_all_ones)
        held &= f == (flip & fmt.fraction_mask)
        if pos < w_f and self.has_den:
            held &= self.lead_ok
        return held

    def dst(self, pos: int) -> np.ndarray:
        """Class code of each word after the flip of `pos`."""
        return classify_codes(self.fmt, flip_bits(self.bits, pos))


def outcome_key(
    fmt: FpFormat, cls: FpClass, bits: np.ndarray, pos: np.ndarray
) -> tuple[np.ndarray, int]:
    """Outcome key of flipping bit `pos[i]` of each word `bits[i]` of `cls`.

    Returns (key, width) with key = pos * width + flags per lane.  The
    key is a sufficient statistic of `FlipKernel.label` and `.dst`: lanes
    with one key share source class, destination class, case label and,
    for DEN_FRAC_LE, denormal level (lead - pos).  The flags, none of which
    grows with the exponent width:

    * normalized, exponent lanes only, with e2 = e ^ 2^(pos - w_f):
      bit 0 e2 > e, bit 1 e2 is all ones, bit 2 e2 == 0, bit 3 f == 0;
    * denormal: 2 * (msb_index(f) + 1) + (f is a power of two);
    * NaN: f == 2^pos (only a fraction lane can hold);
    * infinity: none.

    So width is 16, 2 * (w_f + 1), 2 or 1, and a key takes at most 7,936
    values in any legal format: the denormal width 124 of format 2,61
    times its 64 positions.  `tests/test_montecarlo.py::
    test_outcome_key_is_sufficient` proves sufficiency on every word and
    position of every format of at most 12 bits and of binary16;
    `test_outcome_key_is_sufficient_on_wide_formats` samples binary64,
    62,1 and 30,33.

    The key reuses `pos`'s storage: a uint64 `pos` holds the key (as
    uint64) on return, and the key is a view of it; a `pos` of any other
    dtype is copied first and keeps its values.  `bits` is never modified.
    Past that, a normalized batch allocates two bool masks over all lanes
    and otherwise arrays only as long as its exponent lanes; a denormal or
    NaN batch is keyed `BATCH` lanes at a time, so none of its temporaries
    is longer; infinity allocates nothing.
    """
    b = np.asarray(bits, dtype=np.uint64)
    p = np.asarray(pos, dtype=np.uint64)
    key = p.view(np.intp)  # positions are below 64: both views read the same numbers
    w_f = fmt.fraction_bits
    if cls is FpClass.NORMALIZED:
        lane = np.flatnonzero((p >= np.uint64(w_f)) & (p < np.uint64(w_f + fmt.exponent_bits)))
        e, f = split_fields(fmt, b[lane])
        e2 = p[lane]  # becomes e ^ 2^(pos - w_f) in place
        e2 -= np.uint64(w_f)
        np.left_shift(_U1, e2, out=e2)
        e2 ^= e
        p <<= np.uint64(4)
        key[lane] += (
            (e2 > e).view(np.uint8)
            | (e2 == np.uint64(fmt.exponent_all_ones)).view(np.uint8) << 1
            | (e2 == 0).view(np.uint8) << 2
            | (f == 0).view(np.uint8) << 3
        )
        return key, 16
    if cls is FpClass.INF:
        return key, 1
    width = 2 if cls is FpClass.NAN else 2 * (w_f + 1)
    for start in range(0, b.size, BATCH):
        lanes = slice(start, start + BATCH)
        f = split_fields(fmt, b[lanes])[1]
        if cls is FpClass.NAN:
            flags = f == _U1 << p[lanes]
        else:
            flags = msb_index(f)
            flags += 1
            flags <<= 1
            flags += np.bitwise_count(f) == 1
        key[lanes] *= width
        key[lanes] += flags
    return key, width


# ── class enumeration and sampling ────────────────────────────────────────


def enumerate_class(fmt: FpFormat, cls: FpClass) -> Iterator[np.ndarray]:
    """Yield every word of `cls` in ascending order, in chunks of at most
    `BATCH` words of `lane_dtype(fmt)`, the lanes `FlipKernel` takes
    without a copy.

    Under either sign the words of a class are one run of consecutive
    integers: its exponents and its fractions are contiguous ranges
    (`_class_fields`), and the fraction range is full wherever the class
    has more than one exponent.  Each chunk is an `np.arange` slice of one
    of the two runs, so no chunk spans both signs.
    """
    e0, n_e, f0, n_f = _class_fields(fmt, cls)
    first = (e0 << fmt.fraction_bits) | f0
    for sign in (0, 1 << (fmt.total_bits - 1)):
        stop = sign + first + n_e * n_f
        for start in range(sign + first, stop, BATCH):
            yield np.arange(start, min(start + BATCH, stop), dtype=lane_dtype(fmt))


def sample_class_bits(
    fmt: FpFormat, cls: FpClass, rng: np.random.Generator, n: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Draw n words uniformly from `cls` (draw order: sign, exponent, fraction).

    A one-value range (the exponent of a denormal, NaN or infinity, the
    fraction of an infinity) draws nothing from `rng`.  The words are
    composed field by field in `out` (n uint64 lanes) when given, else in
    the sign draw's buffer, and each draw is dropped once merged.
    """
    e0, n_e, f0, n_f = _class_fields(fmt, cls)
    sign = rng.integers(0, 2, size=n, dtype=np.uint64)
    word = np.left_shift(sign, np.uint64(fmt.exponent_bits), out=sign if out is None else out)
    del sign
    word |= rng.integers(e0, e0 + n_e, size=n, dtype=np.uint64)
    word <<= np.uint64(fmt.fraction_bits)
    word |= rng.integers(f0, f0 + n_f, size=n, dtype=np.uint64)
    return word
