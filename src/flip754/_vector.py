"""Internal numpy kernels shared by the census, campaign and sweep engines.

Everything here works on uint64 arrays of raw words and stays exact:
field splits and flips are pure bit arithmetic, and msb_index falls back
to Python integers where float64 could misround.  The scalar routines in
`formats` remain the reference semantics; these kernels are checked
against them in the test suite.

`FlipKernel` holds the one vector form of the closed-form case analysis
of a flip (sign; fraction; exponent up, down, into the denormals or off
the finite range).  The census and the campaign in `montecarlo` and the
bounds sweep in `relerr` are reductions of its per-word outcomes.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .formats import FpClass, FpFormat

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
    """Closed-form cases of one flip, as labelled by `FlipKernel.outcome`.

    k = w_f - pos is the fraction entry flipped, 2^d the place value of
    the exponent entry flipped.
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

    frexp on float64 is exact below 2^53; wider fractions take the
    slow exact path through Python integers.
    """
    v = np.asarray(values, dtype=np.uint64)
    _, exp = np.frexp(v.astype(np.float64))
    out = exp.astype(np.int64) - 1
    if v.size and int(v.max()) >= (1 << 53):
        big = v >= np.uint64(1 << 53)
        out[big] = [int(x).bit_length() - 1 for x in v[big]]
    return out


# ── the flip-outcome kernel ───────────────────────────────────────────────


class FlipKernel:
    """Closed-form outcomes of flipping one bit of every word of a batch.

    Construction does the work that depends only on the source words:
    fields, class codes, the nonzero-denormal mask and, when the batch
    holds nonzero denormals, msb_index(f) with the leading-entry identity
    2^lead <= f < 2^(lead+1).  `outcome` then costs one flip and one field
    split of the after-words per position.
    """

    def __init__(self, fmt: FpFormat, bits: np.ndarray) -> None:
        self.fmt = fmt
        self.bits = np.asarray(bits, dtype=np.uint64)
        self.s, self.e, self.f = split_fields(fmt, self.bits)
        self.codes = _class_codes(fmt, self.e, self.f)
        self.norm = norm = self.codes == CLASS_CODE[FpClass.NORMALIZED]
        self.den_nz = den_nz = (self.e == 0) & (self.f != 0)
        self.has_den = bool(den_nz.any())
        self.lead = self.lead_ok = None
        if self.has_den:
            self.lead = msb_index(self.f)
            shift = np.maximum(self.lead, 0).astype(np.uint64)
            self.lead_ok = ~den_nz | ((self.f >> shift) == _U1)
        self._sign_label = np.where(norm | den_nz, Case.SIGN, Case.UNDEFINED)
        self._frac_label = np.where(norm, Case.NORM_FRAC, Case.UNDEFINED)
        self._exp_label = np.where(den_nz, Case.DEN_EXP, Case.UNDEFINED)

    def outcome(self, pos: int | np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(case label, prediction held, destination class code) per word.

        `pos` is one position or a per-word array whose positions all lie
        in one field: sign, fraction or exponent.  `held` is judged from
        the after-word: the flip must change exactly the predicted field
        entry and leave the other fields as they were; denormal fraction
        cases also need the leading-entry identity their interval rests on.
        """
        fmt, s, e, f = self.fmt, self.s, self.e, self.f
        w_f = fmt.fraction_bits
        p = np.asarray(pos, dtype=np.uint64)
        s2, e2, f2 = split_fields(fmt, flip_bits(self.bits, p))
        dst = _class_codes(fmt, e2, f2)
        field_pos = int(p.flat[0])

        if field_pos == fmt.total_bits - 1:
            held = (s2 != s) & (e2 == e) & (f2 == f)
            return self._sign_label, held, dst

        if field_pos < w_f:
            bit = _U1 << p
            held = (s2 == s) & (e2 == e) & ((f2 ^ f) == bit)
            label = self._frac_label
            if self.has_den:
                den_label = np.where(
                    f <= bit, Case.DEN_FRAC_GE,
                    np.where(f < bit << _U1, Case.DEN_FRAC_MID, Case.DEN_FRAC_LE),
                )
                label = np.where(self.den_nz, den_label, label)
                held &= self.lead_ok
            return label, held, dst

        step = _U1 << (p - np.uint64(w_f))
        held = (s2 == s) & (f2 == f) & ((e2 ^ e) == step)
        top = np.uint64(fmt.exponent_all_ones)
        up = np.where((e | step) == top, Case.EXP_NONFINITE, Case.EXP_UP)
        to_den = np.where(f == 0, Case.EXP_TO_ZERO, Case.EXP_TO_DEN)
        down = np.where(
            e == step, to_den, np.where(step == _U1, Case.EXP_HALF, Case.EXP_DOWN)
        )
        label = np.where(self.norm, np.where((e & step) == 0, up, down), self._exp_label)
        return label, held, dst


# ── class enumeration and sampling ────────────────────────────────────────


def enumerate_class(
    fmt: FpFormat, cls: FpClass, chunk_size: int = 1 << 18
) -> Iterator[np.ndarray]:
    """Yield every word of `cls` in ascending order, in uint64 chunks."""
    w_f = fmt.fraction_bits
    n_frac = 1 << w_f
    top = fmt.exponent_all_ones

    def compose(s: np.ndarray, e: np.ndarray, f: np.ndarray) -> np.ndarray:
        return (
            (s.astype(np.uint64) << np.uint64(fmt.total_bits - 1))
            | (e.astype(np.uint64) << np.uint64(w_f))
            | f.astype(np.uint64)
        )

    if cls is FpClass.NORMALIZED:
        n_exp = top - 1
        total = 2 * n_exp * n_frac
        for start in range(0, total, chunk_size):
            idx = np.arange(start, min(start + chunk_size, total), dtype=np.uint64)
            s = idx // np.uint64(n_exp * n_frac)
            rem = idx % np.uint64(n_exp * n_frac)
            e = np.uint64(1) + rem // np.uint64(n_frac)
            f = rem % np.uint64(n_frac)
            yield compose(s, e, f)
    elif cls is FpClass.DENORMALIZED:
        total = 2 * n_frac
        for start in range(0, total, chunk_size):
            idx = np.arange(start, min(start + chunk_size, total), dtype=np.uint64)
            s = idx // np.uint64(n_frac)
            f = idx % np.uint64(n_frac)
            yield compose(s, np.zeros_like(idx), f)
    elif cls is FpClass.NAN:
        total = 2 * (n_frac - 1)
        for start in range(0, total, chunk_size):
            idx = np.arange(start, min(start + chunk_size, total), dtype=np.uint64)
            s = idx // np.uint64(n_frac - 1)
            f = np.uint64(1) + idx % np.uint64(n_frac - 1)
            yield compose(s, np.full_like(idx, top), f)
    else:
        s = np.array([0, 1], dtype=np.uint64)
        e = np.full(2, top, dtype=np.uint64)
        yield compose(s, e, np.zeros(2, dtype=np.uint64))


def sample_class_bits(
    fmt: FpFormat, cls: FpClass, rng: np.random.Generator, n: int
) -> np.ndarray:
    """Draw n words uniformly from `cls` (draw order: sign, exponent, fraction)."""
    w_f = np.uint64(fmt.fraction_bits)
    shift_s = np.uint64(fmt.total_bits - 1)
    top = np.uint64(fmt.exponent_all_ones)
    s = rng.integers(0, 2, size=n, dtype=np.uint64)
    if cls is FpClass.NORMALIZED:
        e = rng.integers(1, fmt.exponent_all_ones, size=n, dtype=np.uint64)
        f = rng.integers(0, 1 << fmt.fraction_bits, size=n, dtype=np.uint64)
    elif cls is FpClass.DENORMALIZED:
        e = np.zeros(n, dtype=np.uint64)
        f = rng.integers(0, 1 << fmt.fraction_bits, size=n, dtype=np.uint64)
    elif cls is FpClass.NAN:
        e = np.full(n, top, dtype=np.uint64)
        f = rng.integers(1, 1 << fmt.fraction_bits, size=n, dtype=np.uint64)
    else:
        e = np.full(n, top, dtype=np.uint64)
        f = np.zeros(n, dtype=np.uint64)
    return (s << shift_s) | (e << w_f) | f
