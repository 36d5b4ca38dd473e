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

Every event is drawn before any word is read, from the word count
alone.  The stream is then read, flipped and written `WORD_CHUNK` words
at a time: a stable sort by word index groups each word's flips in event
order, `searchsorted` cuts the groups at chunk edges, an XOR prefix over
a chunk's masks gives the word every event saw, and
`np.bitwise_xor.at` flips the chunk.  `inject_words` on an array is the
one-chunk case of the same loop.  On formats whose exponent flips can
pass `MAX_EXACT_BITS`, each chunk's events are checked by
`relerr.error_ratio` before the chunk is passed on, so a run refuses
what `event_json` could not render.

`inject_file` writes its output to a temporary file beside it and
renames that over the output after the last chunk, so a run that fails
or is interrupted leaves the input and any old output as they were, and
the output may name the input.  An output that is not a regular file,
such as a pipe, is written as the run goes.

The summary keeps the events as four column arrays (word index, bit,
word before, word after) in application order.  `event_json` writes
the events list of the `inject` payload straight from them as JSON text,
`EVENT_CHUNK` events at a time: classes as arrays, and each chunk's
exact relative errors in one call to `relerr.error_rows`, which computes
fraction flips on arrays and every other flip once per position and
`FlipKernel` case (`rationals` says which decimals come from float64).

The CLI writes that text into its envelope part by part, so its memory
is bounded by the event columns plus one chunk, whatever the file size.
`to_payload` reads the same text back into dicts, so both forms of an
event come from the one f-string in `event_json`.
"""

from __future__ import annotations

import json
import os
import stat
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, fields
from pathlib import Path
from typing import BinaryIO

import numpy as np

from ._vector import CLASS_ORDER, as_words, classify_codes
from .formats import FpClass, FpFormat, Word
from .rationals import MAX_EXACT_BITS
from .relerr import error_ratio, error_rows

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
WORD_CHUNK = 1 << 16  # words `inject_file` reads, flips and writes at a time
EVENT_CHUNK = 4096  # events `InjectionSummary.event_json` renders at a time


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


def _word_count(n_bytes: int, nb: int) -> int:
    if n_bytes % nb:
        raise ValueError(f"stream length {n_bytes} is not a multiple of the {nb}-byte word size")
    return n_bytes // nb


def words_from_bytes(data: bytes, fmt: FpFormat, endian: str = "little") -> np.ndarray:
    """Decode a byte stream into a uint64 array of words."""
    nb, dtype, place = _layout(fmt, endian)
    padded = np.zeros((_word_count(len(data), nb), 8), dtype=np.uint8)
    padded[:, place] = np.frombuffer(data, dtype=np.uint8).reshape(-1, nb)
    return padded.view(dtype).ravel().astype(np.uint64, copy=False)


def words_to_bytes(words: np.ndarray, fmt: FpFormat, endian: str = "little") -> bytes:
    """Encode an array of integer words of `fmt` (`_vector.as_words`) into a byte stream."""
    _, dtype, place = _layout(fmt, endian)
    w = as_words(fmt, words).astype(dtype, copy=False)
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
        k = len(CLASS_ORDER)
        grid = np.zeros(k * k, dtype=np.int64)
        for lo in range(0, self.word_index.size, EVENT_CHUNK):
            src, dst = self._class_codes(slice(lo, lo + EVENT_CHUNK))
            grid += np.bincount(src * k + dst, minlength=k * k)
        rows = grid.reshape(k, k).tolist()
        return {a: dict(zip(CLASS_ORDER, row)) for a, row in zip(CLASS_ORDER, rows)}

    def _class_codes(self, rows: slice) -> tuple[np.ndarray, np.ndarray]:
        """CLASS_ORDER codes of the before- and after-words of some events."""
        fmt = self.fmt
        return classify_codes(fmt, self.before[rows]), classify_codes(fmt, self.after[rows])

    def header_payload(self) -> dict:
        """`to_payload` without its `events`: the settings, counts and transitions."""
        return {
            "schema": INJECT_SCHEMA,
            "mode": self.mode,
            "seed": self.seed,
            "rate": self.rate,
            "requested": self.requested,
            "endian": self.endian,
            "word_count": self.word_count,
            "site_count": self.site_count,
            "event_count": int(self.word_index.size),
            "transitions": {
                a.value: {b.value: n for b, n in row.items()}
                for a, row in self.transition_counts().items()
            },
        }

    def event_json(self, digits: int, nl: str) -> Iterator[str]:
        """The events list as `json.dumps(indent=2, sort_keys=True)` writes it.

        nl is a newline and the list's own indent.  One part is yielded
        per `EVENT_CHUNK` events, then the closing one.  This is the one
        place an event's content and layout are made: each chunk's class
        codes come from one `_class_codes` call and its errors from one
        `relerr.error_rows` call, and each event is one f-string.  Every
        event has the same seven keys and its error either `kind` alone
        or four keys, so the f-strings give json's sorted keys and
        indents.  Every string in an event is made of letters, digits and
        "/.+-", which JSON writes unescaped.
        """
        fmt = self.fmt
        x = f"0{fmt.hex_digits}X"  # a word as fixed-width upper-case hex
        names = [cls.value for cls in CLASS_ORDER]
        i1 = nl + "  "
        i2 = i1 + "  "
        i3 = i2 + "  "
        k, e = "," + i2, "," + i3  # between an event's keys, between its error's keys

        def error(err: tuple) -> str:
            if len(err) == 1:
                return f'{{{i3}"kind": "{err[0]}"{i2}}}'
            kind, ratio, dec, log2 = err
            return (
                f'{{{i3}"decimal": "{dec}"{e}"kind": "{kind}"{e}"log2": {log2!r}'
                f'{e}"ratio": "{ratio}"{i2}}}'
            )

        for lo in range(0, self.word_index.size, EVENT_CHUNK):
            rows = slice(lo, lo + EVENT_CHUNK)
            src, dst = self._class_codes(rows)
            errors = error_rows(fmt, self.before[rows], self.position[rows], digits)
            yield ("," if lo else "[") + i1 + ("," + i1).join(
                f'{{{i2}"after": "0x{a:{x}}"{k}"before": "0x{b:{x}}"{k}"bit": {p}'
                f'{k}"class_after": "{names[ca]}"{k}"class_before": "{names[cb]}"'
                f'{k}"error": {error(err)}{k}"word_index": {i}{i1}}}'
                for i, p, b, a, cb, ca, err in zip(
                    self.word_index[rows].tolist(), self.position[rows].tolist(),
                    self.before[rows].tolist(), self.after[rows].tolist(),
                    src.tolist(), dst.tolist(), errors,
                )
            )
        yield nl + "]" if self.word_index.size else "[]"

    def to_payload(self, digits: int = 5) -> dict:
        """The `inject` payload as one dict: the CLI's events text, read back."""
        events = json.loads("".join(self.event_json(digits, "\n")))
        return {**self.header_payload(), "events": events}


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


def _draw(
    fmt: FpFormat,
    endian: str,
    n_words: int,
    *,
    seed: int,
    rate: float | None,
    count: int | None,
) -> InjectionSummary:
    """Draw every event of a run over `n_words` words.

    The summary's `before` and `after` columns are left unfilled, for
    `_flip_chunks` to fill while it applies the events.
    """
    if (rate is None) == (count is None):
        raise ValueError("give exactly one of rate and count")
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

    return InjectionSummary(
        fmt=fmt,
        endian=endian,
        word_count=n_words,
        mode=mode,
        seed=seed,
        rate=rate,
        requested=count,
        word_index=idx,
        position=bit,
        before=np.empty(idx.size, dtype=np.uint64),
        after=np.empty(idx.size, dtype=np.uint64),
    )


def _flip_chunks(
    chunks: Iterable[np.ndarray], summary: InjectionSummary
) -> Iterator[np.ndarray]:
    """Apply the summary's events to a stream read as consecutive word chunks.

    Yields each chunk once its events are XORed into it in place, and
    fills the summary's `before` and `after` columns.  Events are in
    application order; within one word, the word an event saw is the
    chunk's word XOR the masks of that word's earlier events.  An event
    whose exact error needs a shift past `MAX_EXACT_BITS` raises
    ValueError before its chunk is yielded.
    """
    idx = summary.word_index
    masks = np.left_shift(np.uint64(1), summary.position.astype(np.uint64))
    order = np.argsort(idx, kind="stable")  # each word's events, in order
    word = idx[order]
    lo = start = 0
    for chunk in chunks:
        stop = start + chunk.size
        hi = int(np.searchsorted(word, stop))
        rows = order[lo:hi]
        here, m = word[lo:hi] - start, masks[rows]
        prefix = np.bitwise_xor.accumulate(m) ^ m  # exclusive XOR prefix
        first = np.searchsorted(here, here)  # where each word's group starts
        before = chunk[here] ^ prefix ^ prefix[first]
        summary.before[rows] = before
        summary.after[rows] = before ^ m
        if 1 << (summary.fmt.exponent_bits - 1) > MAX_EXACT_BITS:
            for b, p in zip(before.tolist(), summary.position[rows].tolist()):
                error_ratio(summary.fmt, b, p)
        np.bitwise_xor.at(chunk, here, m)
        yield chunk
        lo, start = hi, stop


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

    Exactly one of `rate` and `count` must be given, and `words` must hold
    integer words of `fmt` (`_vector.as_words`).  The input array is not
    modified.  An event whose exact error is past `MAX_EXACT_BITS` raises
    ValueError, as `event_json` would.
    """
    out = np.array(as_words(fmt, words), copy=True)
    summary = _draw(fmt, endian, int(out.size), seed=seed, rate=rate, count=count)
    (out,) = _flip_chunks([out], summary)
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
    """Read a stream, inject flips, write the result; returns the summary.

    The same run as `inject_words` on the whole stream, read, flipped and
    written `WORD_CHUNK` words at a time.  The input must be a regular
    file, whose size gives the word count before any word is read.

    A regular or missing `out_path` (a symlink is followed) is written to
    a temporary file in its directory, with the old file's permission
    bits, and renamed over it after the last chunk; on any exception the
    temporary file is deleted.  So `out_path` may name the input, and a
    run that stops part way changes no file.  Any other `out_path`, such
    as a pipe, is written directly.
    """
    nb = _layout(fmt, endian)[0]
    with open(in_path, "rb") as src:
        info = os.fstat(src.fileno())
        if not stat.S_ISREG(info.st_mode):
            raise ValueError(f"{in_path}: the input stream must be a regular file")
        summary = _draw(
            fmt, endian, _word_count(info.st_size, nb), seed=seed, rate=rate, count=count
        )
        chunks = _read_chunks(src, summary.word_count, fmt, endian)
        out = os.path.realpath(out_path)
        direct = os.path.exists(out) and not os.path.isfile(out)  # a pipe or a device
        part = out if direct else f"{out}.{os.getpid()}.part"
        dst = open(part, "wb" if direct else "xb")
        try:
            with dst:
                if os.path.isfile(out):
                    os.chmod(part, stat.S_IMODE(os.stat(out).st_mode))
                for chunk in _flip_chunks(chunks, summary):
                    dst.write(words_to_bytes(chunk, fmt, endian))
            if not direct:
                os.replace(part, out)
        except BaseException:
            if not direct:
                os.unlink(part)
            raise
    return summary


def _read_chunks(
    src: BinaryIO, n_words: int, fmt: FpFormat, endian: str
) -> Iterator[np.ndarray]:
    """The first n_words words of `src`, `WORD_CHUNK` at a time."""
    nb = _word_bytes(fmt)
    for start in range(0, n_words, WORD_CHUNK):
        want = min(WORD_CHUNK, n_words - start) * nb
        data = src.read(want)
        if len(data) != want:
            raise ValueError("the input stream shrank while it was read")
        yield words_from_bytes(data, fmt, endian)
