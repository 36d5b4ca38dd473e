"""Internal numpy kernels shared by the census, campaign and sweep engines.

Everything here works on uint64 arrays of raw words and stays exact:
field splits, flips and `msb_index` are pure bit arithmetic, with no
float64 step.  The scalar routines in `formats` remain the reference
semantics; these kernels are checked against them in the test suite.

`FlipKernel` holds the one vector form of the closed-form case analysis
of a flip (sign; fraction; exponent up, down, into the denormals or off
the finite range).  It answers three questions per position, and each
reduction asks only for what it reads:

* the census in `montecarlo` tallies the case label and the destination
  class (`label`, `dst`) of every (word, position) pair;
* the campaign tallies the same two through `outcome_key`: it counts one
  small key per sampled flip and runs the kernel only on representative
  words of each key, weighting each outcome by its key's count;
* the bounds sweep in `relerr` counts whether each prediction held
  (`held`), and reads the label only at exponent positions, where it
  parts the non-finite and one-sided cases from the conforming ones.

Labels are built without selects: each is a uint8 sum of the uint8 views
(0 or 1) of the label's comparison masks, weighted by differences of
`Case` codes.  A difference may wrap around in uint8, but arithmetic
mod 256 is exact on sums whose true value lies in [0, Case.COUNT), which
every label does, so the wraparound always cancels.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .formats import FpClass, FpFormat, Word, _class_fields

# Fixed class order shared by transition matrices, reports, and tallies.
CLASS_ORDER: tuple[FpClass, ...] = (
    FpClass.NORMALIZED,
    FpClass.DENORMALIZED,
    FpClass.NAN,
    FpClass.INF,
)
CLASS_CODE: dict[FpClass, int] = {cls: i for i, cls in enumerate(CLASS_ORDER)}

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


# Words per kernel batch in the census and the sweep: small enough that
# the per-position temporaries of a batch stay in cache.
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


def split_fields(fmt: FpFormat, bits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split raw words into (sign, biased exponent, fraction) uint64 arrays."""
    b = np.asarray(bits, dtype=np.uint64)
    w_f = np.uint64(fmt.fraction_bits)
    s = (b >> np.uint64(fmt.total_bits - 1)) & _U1
    e = (b >> w_f) & np.uint64(fmt.exponent_all_ones)
    f = b & np.uint64(fmt.fraction_mask)
    return s, e, f


def classify_codes(fmt: FpFormat, bits: np.ndarray) -> np.ndarray:
    """Class code per word, indexing into CLASS_ORDER."""
    _, e, f = split_fields(fmt, bits)
    return _class_codes(fmt, e, f)


def _class_codes(fmt: FpFormat, e: np.ndarray, f: np.ndarray) -> np.ndarray:
    # CLASS_ORDER codes: 0 normalized, 1 denormal, 2 NaN, 3 infinity
    den = (e == 0).view(np.uint8)
    top = (e == np.uint64(fmt.exponent_all_ones)).view(np.uint8)
    return den + top * (2 + (f == 0).view(np.uint8))


def flip_bits(bits: np.ndarray, pos: np.ndarray | int) -> np.ndarray:
    """XOR each word with 1 << pos (pos may be scalar or per-word)."""
    b = np.asarray(bits, dtype=np.uint64)
    p = np.asarray(pos, dtype=np.uint64)
    return b ^ (_U1 << p)


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
    fields, class codes, the nonzero-denormal mask and, when the batch
    holds nonzero denormals, msb_index(f) with the leading-entry identity
    2^lead <= f < 2^(lead+1).  Per position the kernel then answers three
    questions, each computed only when a reduction asks for it:

    * `label(pos)`: the `Case` of each flip, from the source fields only;
    * `held(pos)`: whether the after-word differs from the source exactly
      where the case says, which is what the bounds sweep counts;
    * `dst(pos)`: the class code of each after-word, which the census and
      the campaign tally with the label.

    `held` and `dst` each cost one flip and one field split of the
    after-words.
    """

    def __init__(self, fmt: FpFormat, bits: np.ndarray) -> None:
        self.fmt = fmt
        self.bits = np.asarray(bits, dtype=np.uint64)
        self.s, self.e, self.f = split_fields(fmt, self.bits)
        self.codes = _class_codes(fmt, self.e, self.f)
        self.norm = norm = self.codes == CLASS_CODE[FpClass.NORMALIZED]
        f_zero = self.f == 0
        self.den_nz = den_nz = (self.e == 0) & ~f_zero
        self.has_den = bool(den_nz.any())
        self.lead = self.lead_ok = None
        if self.has_den:
            self.lead = msb_index(self.f)
            shift = np.maximum(self.lead, 0).astype(np.uint64)
            self.lead_ok = ~den_nz | ((self.f >> shift) == _U1)
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
            bit = _U1 << np.uint64(pos)
            den = Case.DEN_FRAC_GE + (f > bit).view(np.uint8) + (f >= bit << _U1).view(np.uint8)
            return self._frac_label + self._den8 * den
        step = _U1 << np.uint64(pos - w_f)
        up = ((e & step) == 0).view(np.uint8)
        nonfinite = ((e | step) == np.uint64(fmt.exponent_all_ones)).view(np.uint8)
        hit = (e == step).view(np.uint8)
        still = Case.EXP_HALF if pos == w_f else Case.EXP_DOWN
        down = still + hit * (Case.EXP_TO_DEN - still + self._fz8)
        return self._exp_label + self._norm8 * (down + up * (Case.EXP_UP + nonfinite - down))

    def held(self, pos: int) -> np.ndarray:
        """Whether the prediction for the flip of `pos` held, per word.

        Judged from the after-word: the flip must change exactly the
        predicted field entry and leave the other fields as they were;
        denormal fraction cases also need the leading-entry identity
        their interval rests on.
        """
        fmt, s, e, f = self.fmt, self.s, self.e, self.f
        w_f = fmt.fraction_bits
        s2, e2, f2 = split_fields(fmt, flip_bits(self.bits, pos))
        if pos == fmt.total_bits - 1:
            return (s2 != s) & (e2 == e) & (f2 == f)
        if pos < w_f:
            held = (s2 == s) & (e2 == e) & ((f2 ^ f) == _U1 << np.uint64(pos))
            if self.has_den:
                held &= self.lead_ok
            return held
        step = _U1 << np.uint64(pos - w_f)
        return (s2 == s) & (f2 == f) & ((e2 ^ e) == step)

    def dst(self, pos: int) -> np.ndarray:
        """Class code of each word after the flip of `pos`."""
        _, e2, f2 = split_fields(self.fmt, flip_bits(self.bits, pos))
        return _class_codes(self.fmt, e2, f2)


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

    So width is 16, 2 * (w_f + 1), 2 or 1, and a key takes fewer than
    8,064 values in any legal format.  `tests/test_montecarlo.py::
    test_outcome_key_is_sufficient` proves sufficiency on every word and
    position of every format of at most 12 bits and of binary16;
    `test_outcome_key_is_sufficient_on_wide_formats` samples binary64,
    62,1 and 30,33.
    """
    b = np.asarray(bits, dtype=np.uint64)
    p = np.asarray(pos, dtype=np.uint64)
    w_f = fmt.fraction_bits
    if cls is FpClass.NORMALIZED:
        key = (p << np.uint64(4)).view(np.intp)
        d = p - np.uint64(w_f)  # wraps past w_e below the exponent field
        lane = np.flatnonzero(d < np.uint64(fmt.exponent_bits))
        _, e, f = split_fields(fmt, b[lane])
        e2 = e ^ (_U1 << d[lane])
        key[lane] += (
            (e2 > e).view(np.uint8)
            | (e2 == np.uint64(fmt.exponent_all_ones)).view(np.uint8) << 1
            | (e2 == 0).view(np.uint8) << 2
            | (f == 0).view(np.uint8) << 3
        )
        return key, 16
    _, e, f = split_fields(fmt, b)
    if cls is FpClass.DENORMALIZED:
        width = 2 * (w_f + 1)
        pow2 = np.bitwise_count(f) == 1
        return p.astype(np.intp) * width + 2 * (msb_index(f) + 1) + pow2, width
    if cls is FpClass.NAN:
        return p.astype(np.intp) * 2 + (f == _U1 << p), 2
    return p.astype(np.intp), 1


# ── class enumeration and sampling ────────────────────────────────────────


def enumerate_class(fmt: FpFormat, cls: FpClass) -> Iterator[np.ndarray]:
    """Yield every word of `cls` in ascending order, in uint64 chunks of `BATCH`."""
    e0, n_e, f0, n_f = _class_fields(fmt, cls)
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


def sample_class_bits(
    fmt: FpFormat, cls: FpClass, rng: np.random.Generator, n: int
) -> np.ndarray:
    """Draw n words uniformly from `cls` (draw order: sign, exponent, fraction).

    A one-value range (the exponent of a denormal, NaN or infinity, the
    fraction of an infinity) draws nothing from `rng`.
    """
    e0, n_e, f0, n_f = _class_fields(fmt, cls)
    s = rng.integers(0, 2, size=n, dtype=np.uint64)
    e = rng.integers(e0, e0 + n_e, size=n, dtype=np.uint64)
    f = rng.integers(f0, f0 + n_f, size=n, dtype=np.uint64)
    return (s << np.uint64(fmt.total_bits - 1)) | (e << np.uint64(fmt.fraction_bits)) | f
