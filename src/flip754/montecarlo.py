"""Sampling campaigns and exhaustive censuses of single bit flips.

Two empirical engines back the closed forms in `analytic`:

* `exhaustive_census` enumerates every (word, position) pair of one
  class of a small format (at most 24 bits) and tallies outcomes with
  exact integer logic, so its frequencies must equal the closed forms
  as rationals, not merely approximate them;
* `run_campaign` samples words and positions uniformly at random.
  Sampling is chunked, and each fixed-size chunk derives its generator
  from SeedSequence((seed, chunk_index)), so a campaign's tallies are
  bit-identical across reruns and across worker counts.

Both engines are reductions of the one flip-outcome kernel in `_vector`
(which `relerr.bounds_sweep` reduces too), and both read only its case
label and destination class, never its `held` verdict, which is the
sweep's.  Each tallies the flips of one source class, so the class is a
parameter of the tally, not a per-lane fact: every batch the kernel runs
on is classified once, and a word of another class raises instead of
tallying.  The census runs the kernel once per position on each batch
of enumerated words, and `_MutableTally.add` says how it counts the
flips.  The campaign never runs the kernel per lane: each
chunk counts the `_vector.outcome_key` of its lanes in a histogram and
keeps the smallest and largest word drawn for each key; after the merge
the kernel runs once per position on those two representatives of every
key seen, and each outcome is added as many times as its key was
counted.  The two representatives must agree, so a key that missed a
dependence of the outcome raises instead of tallying.  Each engine also
raises unless its tally's counts sum to its case count: class size
times width for a census, the sample count for a campaign.

`compare` judges either engine's report against the closed forms of
the report's own format, which it builds itself: exact rational
equality for a census, a binomial z-test for a campaign.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import chain
from math import isfinite, sqrt
from typing import Iterator

import numpy as np

from . import _vector
from ._vector import Case, FlipKernel, _class_bounds, _magnitude_code, classify_codes
from ._vector import enumerate_class, outcome_key, sample_class_bits
# Not called here: perfbench/tracer.py looks these names up in this module.
from ._vector import flip_bits, msb_index, split_fields  # noqa: F401
from .analytic import (
    BUCKET_NAMES,
    BucketConvention,
    cdf_dyadic,
    interval_probabilities,
    transition_matrix,
)
from .formats import CLASS_CODE, CLASS_ORDER, FpClass, FpFormat, class_size, class_table
from .rationals import ratio_str

__all__ = [
    "CampaignConfig",
    "FlipTally",
    "CampaignReport",
    "CensusReport",
    "ComparisonCell",
    "ComparisonReport",
    "run_campaign",
    "exhaustive_census",
    "compare",
]

REPORT_SCHEMA = "flip754/report-v1"

# Bucket slots used by the tally engine: `BUCKET_NAMES` order, then undefined.
_GE_ONE, _BETWEEN, _LE_HALF, _NONFINITE, _UNDEFINED = range(5)


# ── tallies ───────────────────────────────────────────────────────────────


@dataclass(frozen=True)
class FlipTally:
    """Raw outcome counts over a set of flip trials.

    `transitions` is indexed by CLASS_ORDER twice.  `buckets` holds the
    relative-error counts (at least 1; strictly between 1/2 and 1; at
    most 1/2; non-finite result; undefined source).  `dyadic[i]` counts
    finite errors whose largest dyadic level is exactly 2^-i.
    """

    transitions: tuple[tuple[int, ...], ...]
    buckets: tuple[int, int, int, int, int]
    dyadic: tuple[int, ...]

    def transition(self, src: FpClass, dst: FpClass) -> int:
        return self.transitions[CLASS_CODE[src]][CLASS_CODE[dst]]

    def cdf_count(self, i: int) -> int:
        """Number of trials with relative error at most 2^-i."""
        return sum(self.dyadic[i:])

    def bucket_view(self, convention: BucketConvention) -> dict[str, int]:
        """Bucket counts under a convention; keys match
        `IntervalProbabilities.buckets`, and MERGED folds nonfinite into ge_one."""
        b = list(self.buckets[:_UNDEFINED])
        if convention is BucketConvention.MERGED:
            b[_GE_ONE] += b.pop(_NONFINITE)
        return dict(zip(BUCKET_NAMES, b))


class _MutableTally:
    """Counts kept while the flips of words of one source class, `cls`,
    are tallied.

    One histogram over (destination class, case, column) holds every
    fact: the transitions out of `cls` are its class margin, and the error
    buckets and dyadic levels follow from its (case, column) margin.  The
    column is the flipped position, except for a denormal fraction flip
    at most 1/2 (DEN_FRAC_LE): its level depends on each word's leading
    fraction bit, so its column is that level, lead - pos, which lies in
    [1, w_f - 1].  Every batch comes through `kernel`, which checks that
    its words are of `cls`.
    """

    def __init__(self, fmt: FpFormat, cls: FpClass) -> None:
        self.fmt, self.cls = fmt, cls
        self.counts = np.zeros((len(CLASS_ORDER), Case.COUNT, fmt.total_bits), dtype=np.int64)
        self._bounds = _class_bounds(fmt)

    def kernel(self, bits: np.ndarray) -> FlipKernel:
        """The `FlipKernel` of a batch of words; raises RuntimeError if any
        word is not of the tally's class."""
        foreign = bits[classify_codes(self.fmt, bits) != CLASS_CODE[self.cls]]
        if foreign.size:
            raise RuntimeError(f"word {int(foreign[0]):#x} is not {self.cls.value}")
        return FlipKernel(self.fmt, bits)

    def cells(
        self, kernel: FlipKernel, pos: int, label: np.ndarray, dst: np.ndarray
    ) -> np.ndarray:
        """Flat index into `counts` of the flip of `pos` in every word of the
        kernel's batch, from its label and destination class codes (`dst`
        is written over).  The case, dst * Case.COUNT + label, indexes the
        first two axes of `counts` flattened; it is below
        len(CLASS_ORDER) * Case.COUNT = 52, so a uint8."""
        dst *= np.uint8(Case.COUNT)
        dst += label
        cell = np.multiply(dst, self.fmt.total_bits, dtype=np.intp)
        cell += pos
        if kernel.has_den:  # a DEN_FRAC_LE flip's column is its level, lead - pos
            level = label == Case.DEN_FRAC_LE
            np.add(cell, kernel.lead, out=cell, where=level)
            np.subtract(cell, 2 * pos, out=cell, where=level)
        return cell

    def add(self, kernel: FlipKernel, pos: int) -> None:
        """Tally the flip of `pos` in every word of the kernel's batch.

        The batch is flipped and its sign bits cleared: each class is one
        interval of these magnitudes (`_vector._class_bounds`), so when the
        smallest and the largest fall in one interval, every flip has that
        destination class, and no per-word class code is built.  Then,
        unless DEN_FRAC_LE, whose column is a per-word level, lies between
        the smallest label and the largest, each label value c in that
        range adds its count to (class, c, pos): the batch size when the
        labels are all one case, as at every sign and fraction position of
        a normalized batch (with `bincount` alone, the census of 8,15
        normalized took 2.7 times as long), else the lanes labelled c, as
        at its exponent positions, where EXP_UP, EXP_DOWN, EXP_TO_DEN and
        EXP_NONFINITE mix.

        Otherwise the class codes come from the same magnitudes and the
        flat cells are counted with `bincount`.
        """
        label = kernel.label(pos)
        # looked up in `_vector`, like the kernel's own flips, so that a
        # primitive swapped there reaches the census too
        magnitude = _vector.flip_bits(kernel.bits, pos)
        magnitude &= self.fmt.word_mask >> 1
        dst = _magnitude_code(self._bounds, int(magnitude.min()))
        if dst == _magnitude_code(self._bounds, int(magnitude.max())):
            lo, hi = int(label.min()), int(label.max())
            if not lo <= Case.DEN_FRAC_LE <= hi:
                for c in range(lo, hi + 1):
                    n = magnitude.size if lo == hi else np.count_nonzero(label == c)
                    self.counts[dst, c, pos] += n
                return
        cell = self.cells(kernel, pos, label, classify_codes(self.fmt, magnitude))
        self.counts += np.bincount(cell, minlength=self.counts.size).reshape(self.counts.shape)

    def check_total(self, expected: int) -> None:
        """Raise RuntimeError unless the counts sum to `expected` flips."""
        total = int(self.counts.sum())
        if total != expected:
            raise RuntimeError(f"tally counts {total} flips, not {expected}")

    def add_weighted(self, cell: np.ndarray, weight: np.ndarray) -> None:
        """Add `weight[i]` flips at `cell[i]`, in exact int64."""
        np.add.at(self.counts.reshape(-1), cell, weight)

    def freeze(self) -> FlipTally:
        w_f = self.fmt.fraction_bits
        row = tuple(self.counts.sum(axis=(1, 2)).tolist())
        cases = self.counts.sum(axis=0)
        buckets = np.zeros(5, dtype=np.int64)
        for case, slot in _CASE_BUCKET.items():
            buckets[slot] += cases[case].sum()
        dyadic = cases[Case.DEN_FRAC_LE, : w_f + 1].copy()
        dyadic[1] += cases[Case.EXP_HALF].sum()
        # normalized fraction entry k = w_f - pos: the largest level is exactly k
        dyadic[1:] += cases[Case.NORM_FRAC, w_f - 1 :: -1]
        return FlipTally(
            transitions=tuple(row if c is self.cls else (0,) * len(row) for c in CLASS_ORDER),
            buckets=tuple(int(c) for c in buckets),
            dyadic=tuple(int(c) for c in dyadic),
        )


# Error bucket of each case.
_CASE_BUCKET = {
    Case.UNDEFINED: _UNDEFINED, Case.SIGN: _GE_ONE, Case.NORM_FRAC: _LE_HALF,
    Case.DEN_FRAC_GE: _GE_ONE, Case.DEN_FRAC_MID: _BETWEEN, Case.DEN_FRAC_LE: _LE_HALF,
    Case.EXP_UP: _GE_ONE, Case.EXP_NONFINITE: _NONFINITE, Case.EXP_HALF: _LE_HALF,
    Case.EXP_DOWN: _BETWEEN, Case.EXP_TO_DEN: _BETWEEN, Case.EXP_TO_ZERO: _GE_ONE,
    Case.DEN_EXP: _GE_ONE,
}


# ── campaigns ─────────────────────────────────────────────────────────────

# What a chunk, a thread or a campaign returns: the histogram of its outcome
# keys and the smallest and largest word drawn for each key.
_Part = tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass(frozen=True)
class CampaignConfig:
    """Parameters of one sampling campaign.

    `chunk_size` is part of the sampling scheme: chunk c of a campaign
    draws from SeedSequence((seed, c)), so identical (seed, chunk_size,
    sample_count) give identical tallies regardless of worker count.
    """

    fmt: FpFormat
    source_class: FpClass
    sample_count: int
    seed: int
    convention: BucketConvention = BucketConvention.MERGED
    chunk_size: int = 65536

    def __post_init__(self) -> None:
        if self.sample_count < 1:
            raise ValueError("sample_count must be positive")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be positive")


@dataclass(frozen=True)
class CampaignReport:
    """Tallies of one campaign; `cases` equals the configured sample count."""

    config: CampaignConfig
    tally: FlipTally

    @property
    def fmt(self) -> FpFormat:
        return self.config.fmt

    @property
    def source_class(self) -> FpClass:
        return self.config.source_class

    @property
    def convention(self) -> BucketConvention:
        return self.config.convention

    @property
    def cases(self) -> int:
        return self.config.sample_count

    def to_payload(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "kind": "campaign",
            "source_class": self.source_class.value,
            "sample_count": self.cases,
            "seed": self.config.seed,
            "chunk_size": self.config.chunk_size,
            "convention": self.convention.value,
            **_tally_payload(self.tally, self.convention),
        }


def run_campaign(config: CampaignConfig, workers: int = 1) -> CampaignReport:
    """Run a seeded sampling campaign of uniform (word, position) flips.

    Work is split into fixed-size chunks with independent, index-derived
    generator streams.  Each chunk returns the histogram of its lanes'
    outcome keys with the smallest and largest word of each key; the
    merge sums histograms and keeps the extremes, which no chunk order
    changes, so worker count affects wall time only, never the counts.
    The calling thread runs the first stripe while a thread pool runs the
    rest, so a one-stripe campaign starts no thread; at most
    `os.cpu_count()` threads run, the caller's among them, and never more
    than chunks.
    Raises RuntimeError if the two representatives of a key disagree, or
    if the tally does not count `sample_count` flips.

    Memory does not grow with the chunk count: thread t runs chunks t,
    t + threads, t + 2 * threads, ... one at a time, merging each into its
    own histogram, so at most one chunk per thread is in flight.  Each
    thread keeps one word and one position buffer of min(chunk_size, n)
    uint64 lanes for all its chunks: `sample_class_bits` composes the
    words in the first, the position draw is copied into the second, and
    `outcome_key` turns that into the keys in place.  A chunk of n samples
    thus allocates its four n-lane draws one at a time, the smaller arrays
    `outcome_key` documents and three key-sized arrays, and the heap does
    not grow and shrink by a chunk's working set on every chunk.  Without
    the buffers glibc trims the heap top that each chunk's arrays were
    freed from, unless a larger block freed earlier in the process has
    raised its trim threshold: back-to-back calls then took about 5,300
    more minor faults per million samples and 25% longer from the second
    call on.
    """
    if workers < 1:
        raise ValueError("workers must be positive")
    fmt, cls = config.fmt, config.source_class
    n, step = config.sample_count, config.chunk_size
    n_chunks = (n + step - 1) // step
    threads = min(workers, n_chunks, os.cpu_count() or 1)

    def run_chunk(index: int, words: np.ndarray, pos: np.ndarray) -> _Part:
        size = min(step, n - index * step)
        seq = np.random.SeedSequence((config.seed, index))
        rng = np.random.Generator(np.random.Philox(seq))
        bits = sample_class_bits(fmt, cls, rng, size, out=words[:size])
        pos = pos[:size]
        pos[...] = rng.integers(0, fmt.total_bits, size=size, dtype=np.uint64)
        keys, width = outcome_key(fmt, cls, bits, pos)
        n_keys = width * fmt.total_bits
        lo = np.full(n_keys, np.iinfo(np.uint64).max, dtype=np.uint64)
        hi = np.zeros(n_keys, dtype=np.uint64)
        np.minimum.at(lo, keys, bits)
        np.maximum.at(hi, keys, bits)
        return np.bincount(keys, minlength=n_keys), lo, hi

    def run_stripe(first: int) -> _Part:
        words, pos = np.empty((2, min(step, n)), dtype=np.uint64)
        return _merge(run_chunk(c, words, pos) for c in range(first, n_chunks, threads))

    with ThreadPoolExecutor(max_workers=threads) as pool:
        rest = pool.map(run_stripe, range(1, threads))
        merged = _merge(chain([run_stripe(0)], rest))
    t = _contract(fmt, cls, merged)
    t.check_total(n)
    return CampaignReport(config, t.freeze())


def _merge(parts: Iterator[_Part]) -> _Part:
    """Sum the key histograms of `parts` and keep each key's extreme words,
    in the first part's arrays."""
    hist, lo, hi = next(parts)
    for h, l, u in parts:
        hist += h
        np.minimum(lo, l, out=lo)
        np.maximum(hi, u, out=hi)
    return hist, lo, hi


def _contract(fmt: FpFormat, cls: FpClass, merged: _Part) -> _MutableTally:
    """Tally a campaign's merged key histogram of words of `cls`: run the
    kernel once per position on the smallest and largest word of each key
    seen, check that both give one outcome, and add that outcome as many
    times as the key was counted."""
    hist, lo, hi = merged
    t = _MutableTally(fmt, cls)
    width = hist.size // fmt.total_bits
    for pos in range(fmt.total_bits):
        keys = pos * width + np.flatnonzero(hist[pos * width : (pos + 1) * width])
        if not keys.size:
            continue
        kernel = t.kernel(np.concatenate([lo[keys], hi[keys]]))
        cell = t.cells(kernel, pos, kernel.label(pos), kernel.dst(pos)).reshape(2, -1)
        same = cell[0] == cell[1]
        if not same.all():
            k = int(keys[np.argmin(same)])
            raise RuntimeError(
                f"outcome key {k} (position {pos}, flags {k % width}) gives two "
                f"outcomes: words {int(lo[k]):#x} and {int(hi[k]):#x} disagree"
            )
        t.add_weighted(cell[0], hist[keys])
    return t


# ── exhaustive census ─────────────────────────────────────────────────────


@dataclass(frozen=True)
class CensusReport:
    """Exact tallies over every (word, position) pair of one class."""

    fmt: FpFormat
    source_class: FpClass
    convention: BucketConvention
    class_size: int
    tally: FlipTally

    @property
    def cases(self) -> int:
        return self.class_size * self.fmt.total_bits

    def transition_fraction(self, src: FpClass, dst: FpClass) -> Fraction:
        return Fraction(self.tally.transition(src, dst), self.cases)

    def to_payload(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "kind": "census",
            "source_class": self.source_class.value,
            "class_size": self.class_size,
            "cases": self.cases,
            "convention": self.convention.value,
            **_tally_payload(self.tally, self.convention),
        }


def exhaustive_census(
    fmt: FpFormat,
    source_class: FpClass,
    convention: BucketConvention = BucketConvention.MERGED,
) -> CensusReport:
    """Tally every flip of every word of a class; exact by construction.

    Restricted to formats of at most 24 bits, which caps the case count
    near half a billion in the worst case and keeps small formats fast.
    Raises RuntimeError if the tally does not count class size times
    width flips.
    """
    if fmt.total_bits > 24:
        raise ValueError("exhaustive census supports formats of at most 24 bits")
    t = _MutableTally(fmt, source_class)
    for chunk in enumerate_class(fmt, source_class):
        kernel = t.kernel(chunk)
        for pos in range(fmt.total_bits):
            t.add(kernel, pos)
    size = class_size(fmt, source_class)
    t.check_total(size * fmt.total_bits)
    return CensusReport(fmt, source_class, convention, size, t.freeze())


# ── model comparison ──────────────────────────────────────────────────────


@dataclass(frozen=True)
class ComparisonCell:
    """One model quantity set against its observed count.

    `z` is None for exact (census) comparisons and for cells of
    probability 0 or 1; `passed` is None when the cell was skipped as
    unresolvable at the campaign's sample size.
    """

    name: str
    expected: Fraction
    observed: int
    total: int
    z: float | None
    passed: bool | None

    @property
    def skipped(self) -> bool:
        return self.passed is None


@dataclass(frozen=True)
class ComparisonReport:
    """Verdict of an empirical report against the closed-form models."""

    mode: str  # "census" or "campaign"
    fmt: FpFormat
    source_class: FpClass
    sigma: float
    min_p: float
    cells: tuple[ComparisonCell, ...]

    @property
    def passed(self) -> bool:
        """Every judged cell passed, and at least one cell was judged."""
        judged = [c.passed for c in self.cells if not c.skipped]
        return bool(judged) and all(judged)

    def failures(self) -> list[ComparisonCell]:
        return [c for c in self.cells if c.passed is False]

    def to_payload(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "kind": "comparison",
            "mode": self.mode,
            "source_class": self.source_class.value,
            "sigma": self.sigma,
            "min_p": self.min_p,
            "passed": self.passed,
            "cells": [{**asdict(c), "expected": ratio_str(c.expected)} for c in self.cells],
        }


def compare(
    report: CampaignReport | CensusReport, *, sigma: float = 4.0, min_p: float = 1e-6
) -> ComparisonReport:
    """Judge a census or campaign report against the closed-form models
    of its format: `transition_matrix`, `interval_probabilities` under the
    report's bucket convention, and `cdf_dyadic`.

    Census counts must reproduce every probability exactly as rationals.
    Campaign counts must sit within `sigma` binomial standard deviations
    of expectation; cells with p or 1 - p in (0, min_p] are skipped as
    unresolvable, and cells with p = 0 or p = 1 must count no case or
    every case.  For normalized sources the error buckets and the dyadic
    CDF are judged alongside the class transitions.  `sigma` must be a
    positive finite number and `min_p` lie in [0, 1/2): past 1/2 every
    cell would be skipped.
    """
    if not (sigma > 0 and isfinite(sigma)):
        raise ValueError(f"sigma must be a positive finite number, not {sigma!r}")
    if not 0 <= min_p < 0.5:
        raise ValueError(f"min_p must lie in [0, 1/2), not {min_p!r}")
    fmt = report.fmt
    exact = isinstance(report, CensusReport)
    mode = "census" if exact else "campaign"
    n = report.cases
    src = report.source_class

    def judge(name: str, p: Fraction, count: int) -> ComparisonCell:
        if exact:
            return ComparisonCell(name, p, count, n, None, Fraction(count, n) == p)
        if p == 0:
            return ComparisonCell(name, p, count, n, None, count == 0)
        if p == 1:
            return ComparisonCell(name, p, count, n, None, count == n)
        if p <= min_p or 1 - p <= min_p:
            return ComparisonCell(name, p, count, n, None, None)
        sd = sqrt(n * float(p) * (1.0 - float(p)))
        z = (count - n * float(p)) / sd
        return ComparisonCell(name, p, count, n, z, abs(z) <= sigma)

    matrix = transition_matrix(fmt)
    cells = [
        judge(f"to_{dst.value}", matrix.entry(src, dst), report.tally.transition(src, dst))
        for dst in CLASS_ORDER
    ]
    if src is FpClass.NORMALIZED:
        probs = interval_probabilities(fmt, report.convention).buckets()
        counts = report.tally.bucket_view(report.convention)
        cells += [judge(f"err_{name}", p, counts[name]) for name, p in probs.items()]
        cells += [
            judge(f"cdf_2^-{i}", cdf_dyadic(fmt, i), report.tally.cdf_count(i))
            for i in range(2, fmt.fraction_bits + 1)
        ]
    return ComparisonReport(mode, fmt, src, sigma, min_p, tuple(cells))


def _tally_payload(tally: FlipTally, convention: BucketConvention) -> dict:
    return {
        "transitions": class_table(tally.transition),
        "buckets": tally.bucket_view(convention),
        "undefined": tally.buckets[_UNDEFINED],
        "dyadic_counts": list(tally.dyadic),
    }
