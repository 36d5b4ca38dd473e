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

Events are applied as arrays: a stable sort by word index groups each
word's flips in event order, an XOR prefix over their masks gives the
word every event saw, and `np.bitwise_xor.at` writes the output words.
The summary keeps the events as four column arrays (word index, bit,
word before, word after) in application order; the payload takes the
classes from them as arrays and each exact relative error on integers.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from ._vector import CLASS_ORDER, classify_codes
from .formats import FpClass, FpFormat, Word
from .relerr import error_payload

# Not called here: perfbench/tracer.py looks these names up in this module.
from .formats import classify  # noqa: F401
from .relerr import relative_error  # noqa: F401

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


@dataclass(frozen=True, eq=False)
class InjectionSummary:
    """One injection run: its settings and every event as column arrays.

    Row k of `word_index`, `position`, `before` and `after` is the k-th
    applied flip; `before` is the word just before it.  Summaries are
    equal when every field is, the columns element by element.
    """

    fmt: FpFormat
    endian: str
    word_count: int
    mode: str  # "rate" or "count"
    seed: int
    rate: float | None
    requested: int | None  # count mode: flips asked for
    word_index: np.ndarray  # int64
    position: np.ndarray  # int64
    before: np.ndarray  # uint64
    after: np.ndarray  # uint64

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InjectionSummary):
            return NotImplemented
        for f in fields(self):
            a, b = getattr(self, f.name), getattr(other, f.name)
            if not (np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b):
                return False
        return True

    @property
    def events(self) -> tuple[InjectionEvent, ...]:
        """The events as records, built from the columns on each call."""
        fmt = self.fmt
        return tuple(
            InjectionEvent(i, p, Word(b, fmt), Word(a, fmt))
            for i, p, b, a in zip(
                self.word_index.tolist(), self.position.tolist(),
                self.before.tolist(), self.after.tolist(),
            )
        )

    @property
    def site_count(self) -> int:
        return self.word_count * self.fmt.total_bits

    def transition_counts(self) -> dict[FpClass, dict[FpClass, int]]:
        return _transition_grid(*self._class_codes())

    def _class_codes(self) -> tuple[np.ndarray, np.ndarray]:
        """CLASS_ORDER codes of every event's before- and after-word."""
        return classify_codes(self.fmt, self.before), classify_codes(self.fmt, self.after)

    def to_payload(self, digits: int = 5) -> dict:
        src, dst = self._class_codes()
        names = [cls.value for cls in CLASS_ORDER]
        fmt = self.fmt
        hex_digits = fmt.hex_digits
        events = [
            {
                "word_index": i,
                "bit": p,
                "before": f"0x{b:0{hex_digits}X}",
                "after": f"0x{a:0{hex_digits}X}",
                "class_before": names[cb],
                "class_after": names[ca],
                "error": error_payload(fmt, b, p, digits),
            }
            for i, p, b, a, cb, ca in zip(
                self.word_index.tolist(), self.position.tolist(),
                self.before.tolist(), self.after.tolist(),
                src.tolist(), dst.tolist(),
            )
        ]
        return {
            "schema": INJECT_SCHEMA,
            "mode": self.mode,
            "seed": self.seed,
            "rate": self.rate,
            "requested": self.requested,
            "endian": self.endian,
            "word_count": self.word_count,
            "site_count": self.site_count,
            "event_count": len(events),
            "transitions": {
                a.value: {b.value: n for b, n in row.items()}
                for a, row in _transition_grid(src, dst).items()
            },
            "events": events,
        }


def _transition_grid(src: np.ndarray, dst: np.ndarray) -> dict[FpClass, dict[FpClass, int]]:
    k = len(CLASS_ORDER)
    grid = np.bincount(src * k + dst, minlength=k * k).reshape(k, k).tolist()
    return {a: dict(zip(CLASS_ORDER, row)) for a, row in zip(CLASS_ORDER, grid)}


def _distinct_sites(rng: np.random.Generator, n_sites: int, k: int) -> np.ndarray:
    """Choose k distinct sites uniformly, sorted; batched rejection.

    Each batch keeps its values in draw order, first occurrences only and
    none already chosen, until k are chosen.
    """
    chosen = np.empty(0, dtype=np.int64)
    while chosen.size < k:
        need = k - chosen.size
        batch = rng.integers(0, n_sites, size=max(2 * need, 16))
        values, first = np.unique(batch, return_index=True)
        fresh = np.sort(first[~np.isin(values, chosen, assume_unique=True)])
        chosen = np.union1d(chosen, batch[fresh[:need]])
    return chosen


def _apply_events(
    out: np.ndarray, idx: np.ndarray, bit: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """XOR every event's mask into `out`; returns each event's word before and after.

    Events are in application order.  Within one word, the word an event
    saw is the input word XOR the masks of that word's earlier events.
    """
    masks = np.left_shift(np.uint64(1), bit.astype(np.uint64))
    order = np.argsort(idx, kind="stable")
    word, grouped = idx[order], masks[order]
    prefix = np.bitwise_xor.accumulate(grouped) ^ grouped  # exclusive XOR prefix
    first = np.searchsorted(word, word)  # where each word's group starts
    before = np.empty_like(masks)
    before[order] = out[word] ^ prefix ^ prefix[first]
    np.bitwise_xor.at(out, idx, masks)
    return before, before ^ masks


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
            sites = np.empty(0, dtype=np.int64)
        else:
            k = int(rng.binomial(n_words * w, rate))
            sites = _distinct_sites(rng, n_words * w, k)
        idx, bit = np.divmod(sites, w)
        mode = "rate"
    else:
        if count < 0:
            raise ValueError("count must be non-negative")
        if count and n_words == 0:
            raise ValueError("cannot inject into an empty stream")
        idx = rng.integers(0, max(n_words, 1), size=count, dtype=np.int64)
        bit = rng.integers(0, w, size=count, dtype=np.int64)
        mode = "count"

    before, after = _apply_events(out, idx, bit)
    summary = InjectionSummary(
        fmt=fmt,
        endian=endian,
        word_count=n_words,
        mode=mode,
        seed=seed,
        rate=rate,
        requested=count,
        word_index=idx,
        position=bit,
        before=before,
        after=after,
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
