"""Bit-flip injection into raw streams of fixed-width words.

A stream is a flat binary file of words of one format, least or most
significant byte first; the word width must be a whole number of bytes.
Two injection modes, both seeded and reproducible:

* rate: every bit site of the stream flips independently with the given
  probability (drawn as one binomial count, then that many distinct
  sites chosen uniformly, which is the same process);
* count: exactly that many flips, sites drawn uniformly with
  replacement and applied in draw order, so a site drawn twice flips
  twice and the second event records the once-flipped word.

The summary records every event with before/after words, classes, and
the exact relative error.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .formats import FpClass, FpFormat, Word, classify
from .rationals import decimal_str, log2_value, ratio_str
from .relerr import ErrorKind, relative_error

__all__ = [
    "InjectionEvent",
    "InjectionSummary",
    "words_from_bytes",
    "words_to_bytes",
    "read_words",
    "write_words",
    "inject_words",
    "inject_file",
]

INJECT_SCHEMA = "flip754/inject-v1"


def _word_bytes(fmt: FpFormat) -> int:
    if fmt.total_bits % 8:
        raise ValueError(
            f"stream injection needs a whole-byte word, not {fmt.total_bits} bits"
        )
    return fmt.total_bits // 8


def _layout(fmt: FpFormat, endian: str) -> tuple[int, np.dtype, slice]:
    """Word bytes, the 8-byte word dtype, and where a word's bytes sit in it."""
    nb = _word_bytes(fmt)
    if endian == "little":
        return nb, np.dtype("<u8"), slice(0, nb)
    if endian == "big":
        return nb, np.dtype(">u8"), slice(8 - nb, 8)
    raise ValueError(f"endian must be 'little' or 'big', not {endian!r}")


def words_from_bytes(data: bytes, fmt: FpFormat, endian: str = "little") -> np.ndarray:
    """Decode a byte stream into a uint64 array of words."""
    nb, dtype, place = _layout(fmt, endian)
    if len(data) % nb:
        raise ValueError(
            f"stream length {len(data)} is not a multiple of the "
            f"{nb}-byte word size"
        )
    padded = np.zeros((len(data) // nb, 8), dtype=np.uint8)
    padded[:, place] = np.frombuffer(data, dtype=np.uint8).reshape(-1, nb)
    return padded.view(dtype).ravel().astype(np.uint64, copy=False)


def words_to_bytes(words: np.ndarray, fmt: FpFormat, endian: str = "little") -> bytes:
    """Encode a uint64 array of words back into a byte stream."""
    _, dtype, place = _layout(fmt, endian)
    w = np.asarray(words, dtype=np.uint64).astype(dtype, copy=False)
    return w.reshape(-1, 1).view(np.uint8)[:, place].tobytes()


def read_words(path: str | Path, fmt: FpFormat, endian: str = "little") -> np.ndarray:
    return words_from_bytes(Path(path).read_bytes(), fmt, endian)


def write_words(
    path: str | Path, words: np.ndarray, fmt: FpFormat, endian: str = "little"
) -> None:
    Path(path).write_bytes(words_to_bytes(words, fmt, endian))


# ── injection ─────────────────────────────────────────────────────────────


@dataclass(frozen=True)
class InjectionEvent:
    """One applied flip; `before` is the word state just before this flip."""

    word_index: int
    position: int
    before: Word
    after: Word


@dataclass(frozen=True)
class InjectionSummary:
    """Every event of one injection run plus aggregate transition counts."""

    fmt: FpFormat
    endian: str
    word_count: int
    mode: str  # "rate" or "count"
    seed: int
    rate: float | None
    requested: int | None  # count mode: flips asked for
    events: tuple[InjectionEvent, ...]

    @property
    def site_count(self) -> int:
        return self.word_count * self.fmt.total_bits

    def transition_counts(self) -> dict[FpClass, dict[FpClass, int]]:
        counts = {a: {b: 0 for b in FpClass} for a in FpClass}
        for ev in self.events:
            counts[classify(ev.before)][classify(ev.after)] += 1
        return counts

    def to_payload(self, digits: int = 5) -> dict:
        return {
            "schema": INJECT_SCHEMA,
            "mode": self.mode,
            "seed": self.seed,
            "rate": self.rate,
            "requested": self.requested,
            "endian": self.endian,
            "word_count": self.word_count,
            "site_count": self.site_count,
            "event_count": len(self.events),
            "transitions": {
                a.value: {b.value: n for b, n in row.items()}
                for a, row in self.transition_counts().items()
            },
            "events": [self._event_payload(ev, digits) for ev in self.events],
        }

    @staticmethod
    def _event_payload(ev: InjectionEvent, digits: int) -> dict:
        err = relative_error(ev.before, ev.position)
        obj: dict = {"kind": err.kind.value}
        if err.kind is ErrorKind.FINITE:
            assert err.value is not None
            obj["ratio"] = ratio_str(err.value)
            obj["decimal"] = decimal_str(err.value, digits)
            obj["log2"] = log2_value(err.value)
        return {
            "word_index": ev.word_index,
            "bit": ev.position,
            "before": ev.before.hex(),
            "after": ev.after.hex(),
            "class_before": classify(ev.before).value,
            "class_after": classify(ev.after).value,
            "error": obj,
        }


def _distinct_sites(rng: np.random.Generator, n_sites: int, k: int) -> list[int]:
    """Choose k distinct sites uniformly; batched rejection, order-free."""
    chosen: set[int] = set()
    while len(chosen) < k:
        need = k - len(chosen)
        for v in rng.integers(0, n_sites, size=max(2 * need, 16)):
            chosen.add(int(v))
            if len(chosen) == k:
                break
    return sorted(chosen)


def inject_words(
    words: np.ndarray,
    fmt: FpFormat,
    *,
    seed: int,
    rate: float | None = None,
    count: int | None = None,
    endian: str = "little",
) -> tuple[np.ndarray, InjectionSummary]:
    """Apply seeded random flips to a word array; returns (new array, summary).

    Exactly one of `rate` and `count` must be given.  The input array is
    not modified.
    """
    if (rate is None) == (count is None):
        raise ValueError("give exactly one of rate and count")
    out = np.array(words, dtype=np.uint64, copy=True)
    n_words = int(out.size)
    w = fmt.total_bits
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))

    if rate is not None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must lie in [0, 1]")
        if n_words == 0:
            sites: list[int] = []
        else:
            k = int(rng.binomial(n_words * w, rate))
            sites = _distinct_sites(rng, n_words * w, k)
        pairs = [(site // w, site % w) for site in sites]
        mode = "rate"
    else:
        if count < 0:
            raise ValueError("count must be non-negative")
        if count and n_words == 0:
            raise ValueError("cannot inject into an empty stream")
        idx = rng.integers(0, max(n_words, 1), size=count, dtype=np.int64)
        bit = rng.integers(0, w, size=count, dtype=np.int64)
        pairs = list(zip((int(i) for i in idx), (int(b) for b in bit)))
        mode = "count"

    events = []
    for word_index, position in pairs:
        before = Word(int(out[word_index]), fmt)
        after = Word(before.bits ^ (1 << position), fmt)
        out[word_index] = np.uint64(after.bits)
        events.append(InjectionEvent(word_index, position, before, after))

    summary = InjectionSummary(
        fmt=fmt,
        endian=endian,
        word_count=n_words,
        mode=mode,
        seed=seed,
        rate=rate,
        requested=count,
        events=tuple(events),
    )
    return out, summary


def inject_file(
    in_path: str | Path,
    out_path: str | Path,
    fmt: FpFormat,
    *,
    seed: int,
    rate: float | None = None,
    count: int | None = None,
    endian: str = "little",
) -> InjectionSummary:
    """Read a stream, inject flips, write the result; returns the summary."""
    words = read_words(in_path, fmt, endian)
    flipped, summary = inject_words(
        words, fmt, seed=seed, rate=rate, count=count, endian=endian
    )
    write_words(out_path, flipped, fmt, endian)
    return summary
