"""Seeded inputs of the four workloads.

Inputs come from the benchmark's own PCG64 generator, never from
flip754's Philox streams, so the program only ever sees finished word
arrays, stream files and CLI arguments.  The same workload seed gives
the same inputs.
"""

from __future__ import annotations

import numpy as np

# binary64 layout, written out here rather than taken from flip754.
W = 64
W_E = 11
W_F = 52
EXP_ONES = (1 << W_E) - 1
FRAC_MASK = (1 << W_F) - 1
KINDS = ("normal", "denormal", "zero", "nan", "inf")

# campaign: CLI `sample` on binary64 normalized words.
CAMPAIGN_N = 10_000_000
CAMPAIGN_CHUNK = 65536  # the CLI default; part of the seeding scheme
# A 6-sigma band: at 4 sigma the ~58 judged cells give a false alarm on
# roughly one seed in 300, which would make `failed` depend on the seed.
CAMPAIGN_SIGMA = 6.0

# census: CLI `census` over all four classes of a 20-bit format.
CENSUS_FORMAT = (6, 13)

# sweep: bounds_sweep over 2^20 binary64 words in four calls.
SWEEP_WORDS = 1 << 20
SWEEP_CHUNK = 1 << 18
SWEEP_PLANTED = {"denormal": 16384, "zero": 4096, "nan": 4096, "inf": 4096}
SWEEP_SUBSAMPLE = 256  # words cross-checked with scalar check_bounds, once a run
SWEEP_SUBSAMPLE_PER_KIND = 8  # of them, taken from each planted kind

# inject: CLI `inject --rate` on a 16 MiB little-endian binary64 stream.
INJECT_WORDS = 1 << 21
INJECT_RATE = 1.125e-4  # about 15.1k events expected over 2^27 bit sites
INJECT_PLANTED = {"zero": 10240, "denormal": 10240, "nan": 5120, "inf": 5120}
INJECT_RATIO_SAMPLE = 400  # finite events whose ratio is recomputed exactly

_STREAM_TAG = {"sweep": 1, "inject": 2, "subsample": 3}


def rng_for(seed: int, purpose: str) -> np.random.Generator:
    seq = np.random.SeedSequence((seed, _STREAM_TAG[purpose]))
    return np.random.Generator(np.random.PCG64(seq))


def compose(s: np.ndarray, e: np.ndarray, f: np.ndarray) -> np.ndarray:
    u = np.uint64
    return (s.astype(u) << u(W - 1)) | (e.astype(u) << u(W_F)) | f.astype(u)


def special_words(rng: np.random.Generator, kind: str, n: int) -> np.ndarray:
    """n binary64 words of one non-normalized kind; denormals are nonzero."""
    s = rng.integers(0, 2, size=n, dtype=np.uint64)
    zero = np.zeros(n, np.uint64)
    ones = np.full(n, EXP_ONES, np.uint64)
    if kind == "denormal":
        return compose(s, zero, rng.integers(1, FRAC_MASK + 1, size=n, dtype=np.uint64))
    if kind == "zero":
        return compose(s, zero, zero)
    if kind == "nan":
        return compose(s, ones, rng.integers(1, FRAC_MASK + 1, size=n, dtype=np.uint64))
    if kind == "inf":
        return compose(s, ones, zero)
    raise ValueError(kind)


def _plant(rng: np.random.Generator, words: np.ndarray, planted: dict[str, int]) -> None:
    """Overwrite distinct random slots of `words` with the planted kinds."""
    slots = rng.permutation(words.size)
    start = 0
    for kind, n in planted.items():
        words[slots[start : start + n]] = special_words(rng, kind, n)
        start += n


def sweep_words(seed: int) -> np.ndarray:
    """Mostly uniform normalized words, with every planted kind mixed in."""
    rng = rng_for(seed, "sweep")
    n = SWEEP_WORDS
    words = compose(
        rng.integers(0, 2, size=n, dtype=np.uint64),
        rng.integers(1, EXP_ONES, size=n, dtype=np.uint64),
        rng.integers(0, FRAC_MASK + 1, size=n, dtype=np.uint64),
    )
    _plant(rng, words, SWEEP_PLANTED)
    return words


def sweep_subsample(seed: int, words: np.ndarray) -> np.ndarray:
    """Random words for the scalar cross-check, some of every kind."""
    rng = rng_for(seed, "subsample")
    kinds = word_kinds(words)
    picks = [
        rng.choice(np.flatnonzero(kinds == KINDS.index(k)), SWEEP_SUBSAMPLE_PER_KIND, replace=False)
        for k in SWEEP_PLANTED
    ]
    rest = SWEEP_SUBSAMPLE - SWEEP_SUBSAMPLE_PER_KIND * len(picks)
    picks.append(rng.choice(words.size, rest, replace=False))
    return words[np.concatenate(picks)]


def stream_words(seed: int) -> np.ndarray:
    """Host doubles spread over 40 decades, with the planted kinds mixed in."""
    rng = rng_for(seed, "inject")
    n = INJECT_WORDS
    values = rng.standard_normal(n) * 10.0 ** rng.uniform(-20.0, 20.0, n)
    words = values.view(np.uint64).copy()
    _plant(rng, words, INJECT_PLANTED)
    return words


def word_kinds(words: np.ndarray) -> np.ndarray:
    """Index into KINDS per binary64 word, from the benchmark's own field masks."""
    e = (words >> np.uint64(W_F)) & np.uint64(EXP_ONES)
    f = words & np.uint64(FRAC_MASK)
    kinds = np.zeros(words.shape, dtype=np.uint8)
    kinds[(e == 0) & (f != 0)] = KINDS.index("denormal")
    kinds[(e == 0) & (f == 0)] = KINDS.index("zero")
    kinds[(e == EXP_ONES) & (f != 0)] = KINDS.index("nan")
    kinds[(e == EXP_ONES) & (f == 0)] = KINDS.index("inf")
    return kinds
