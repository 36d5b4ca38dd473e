"""Bit-flip injection into raw streams of fixed-width words.

A stream is a flat binary file of words of one format, least or most
significant byte first; the word width must be a whole number of bytes.
Two injection modes, both seeded and reproducible:

* rate: every bit site of the stream flips independently with the given
  probability (drawn as one binomial count, then that many distinct
  sites chosen uniformly, which is the same process; `_distinct_sites`
  keeps the chosen sites in one sorted array, so no rejection batch
  re-sorts them and the draw stays fast at any rate);
* count: exactly that many flips, sites drawn uniformly with
  replacement and applied in draw order, so a site drawn twice flips
  twice and the second event records the once-flipped word.

Every event is drawn before any word is read, from the word count
alone.  The stream is then read, flipped and written `WORD_CHUNK` words
at a time: a stable sort by word index groups each word's flips in event
order, `searchsorted` cuts the groups at chunk edges, an XOR prefix over
a chunk's masks gives the word every event saw, and
`np.bitwise_xor.at` flips the chunk.  `inject_words` runs the same loop
over `WORD_CHUNK`-word views of its copy of the array, so either way the
flip temporaries span one chunk's events.  Each chunk's events are
checked by `relerr.check_exact` before the chunk is passed on, so a run
refuses what `event_json` could not render.

`inject_file` writes its output to a temporary file beside it and
renames that over the output after the last chunk, so a run that fails
or is interrupted leaves the input and any old output as they were, and
the output may name the input.  An output that is not a regular file,
such as a pipe, is written as the run goes.

The summary keeps the events in application order as three column
arrays (word index, bit, word before) and a uint8 class-pair code
(`formats.pair_code`), 25 bytes an event: the code is set as the
event is flipped, and the word after, before ^ 2^bit, where it is read.
`event_json` writes the events list of the `inject` payload from them
as JSON text, `EVENT_CHUNK` events at a time.  Per chunk, the words
before and after are two hex columns, each cut from one hex text of the
whole chunk; the exact relative errors come from one call to
`relerr.error_rows`, which computes fraction flips on arrays and every
other flip once per position and `FlipKernel` case (`rationals` says
which decimals come from float64), and are written as one list of error
objects; each event is then one f-string over the columns.

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

from ._vector import as_words, classify_codes
from .formats import CLASS_PAIRS, FpClass, FpFormat, Word, class_table, pair_code
from .relerr import check_exact, error_rows

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
WORD_CHUNK = 1 << 16  # words an injection reads, flips and writes at a time
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

    Row k of `word_index`, `position`, `before` and `transition` is the
    k-th applied flip: `before` is the word just before it, `transition`
    the `formats.pair_code` of its classes before and after.  `after`
    and `mode` are derived.  Summaries are equal when every field is, the
    columns element by element.
    """

    fmt: FpFormat
    endian: str
    word_count: int
    seed: int
    rate: float | None
    requested: int | None  # count mode: flips asked for
    word_index: np.ndarray  # int64
    position: np.ndarray  # int64
    before: np.ndarray  # uint64
    transition: np.ndarray  # uint8

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InjectionSummary):
            return NotImplemented
        for f in fields(self):
            a, b = getattr(self, f.name), getattr(other, f.name)
            if not (np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b):
                return False
        return True

    @property
    def mode(self) -> str:
        return "rate" if self.rate is not None else "count"

    @property
    def after(self) -> np.ndarray:
        """Each event's word after its flip, before ^ 2^position (uint64)."""
        return self.before ^ _masks(self.position)

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

    def transition_counts(self) -> dict[tuple[FpClass, FpClass], int]:
        """Events by (class before, class after), over every class pair."""
        n = np.bincount(self.transition, minlength=len(CLASS_PAIRS)).tolist()
        return dict(zip(CLASS_PAIRS, n))

    def header_payload(self) -> dict:
        """`to_payload` without its `events`: the settings, counts and transitions."""
        counts = self.transition_counts()
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
            "transitions": class_table(lambda a, b: counts[a, b]),
        }

    def event_json(self, digits: int, nl: str) -> Iterator[str]:
        """The events list as `json.dumps(indent=2, sort_keys=True)` writes it.

        nl is a newline and the list's own indent.  One part is yielded
        per `EVENT_CHUNK` events, then the closing one.  This is the one
        place an event's content and layout are made.  Per chunk, the
        words before and after are each one hex column (`_hex_words`),
        the errors come from one `relerr.error_rows` call and are written
        by one list comprehension, a finite error's four values in one
        f-string and any other its `kind` alone, and each event is one
        f-string, its classes read off its `transition` code.  Every
        event has the same seven keys, so the f-strings give json's
        sorted keys and indents.  Every string in an event is made of
        letters, digits and "/.+-", which JSON writes unescaped.
        """
        fmt, h = self.fmt, self.fmt.hex_digits
        i1 = nl + "  "
        i2 = i1 + "  "
        i3 = i2 + "  "
        k, e = "," + i2, "," + i3  # between an event's keys, between its error's keys
        classes = [f'"class_after": "{b.value}"{k}"class_before": "{a.value}"'
                   for a, b in CLASS_PAIRS]  # by transition code

        for lo in range(0, self.word_index.size, EVENT_CHUNK):
            rows = slice(lo, lo + EVENT_CHUNK)
            before, position = self.before[rows], self.position[rows]
            errors = [
                f'{{{i3}"decimal": "{r[2]}"{e}"kind": "{r[0]}"{e}"log2": {r[3]!r}'
                f'{e}"ratio": "{r[1]}"{i2}}}'
                if len(r) == 4 else f'{{{i3}"kind": "{r[0]}"{i2}}}'
                for r in error_rows(fmt, before, position, digits)
            ]
            yield ("," if lo else "[") + i1 + ("," + i1).join([
                f'{{{i2}"after": "0x{a}"{k}"before": "0x{b}"{k}"bit": {p}'
                f'{k}{classes[c]}{k}"error": {err}{k}"word_index": {i}{i1}}}'
                for i, p, b, a, c, err in zip(
                    self.word_index[rows].tolist(), position.tolist(), _hex_words(before, h),
                    _hex_words(before ^ _masks(position), h), self.transition[rows].tolist(),
                    errors,
                )
            ])
        yield nl + "]" if self.word_index.size else "[]"

    def to_payload(self, digits: int = 5) -> dict:
        """The `inject` payload as one dict: the CLI's events text, read back."""
        events = json.loads("".join(self.event_json(digits, "\n")))
        return {**self.header_payload(), "events": events}


def _masks(position: np.ndarray) -> np.ndarray:  # the flip masks 2^position, as uint64
    return np.left_shift(np.uint64(1), position.astype(np.uint64))


def _hex_words(words: np.ndarray, digits: int) -> list[str]:
    """Each uint64 word as its last `digits` upper-case hex digits.

    The whole array becomes one text of 16 digits a word, which is cut
    into the last `digits` of each 16-digit block.
    """
    text = words.astype(">u8").tobytes().hex().upper()
    return [text[i : i + digits] for i in range(16 - digits, len(text), 16)]


def _distinct_sites(rng: np.random.Generator, n_sites: int, k: int) -> np.ndarray:
    """Choose k distinct sites uniformly, sorted; batched rejection.

    Each batch keeps its values in draw order, first occurrences only and
    none already chosen, until k are chosen: the draws of a set filled one
    site at a time.  The chosen sites are one sorted array ending in the
    sentinel `n_sites`, which no site equals, so a batch costs one
    `searchsorted` lookup and one insert, not a sort of every site chosen.
    """
    chosen = np.array([n_sites], dtype=np.int64)
    while chosen.size <= k:
        need = k + 1 - chosen.size
        batch = rng.integers(0, n_sites, size=max(2 * need, 16))
        values, first = np.unique(batch, return_index=True)
        fresh = first[chosen[np.searchsorted(chosen, values)] != values]
        if fresh.size:
            new = np.sort(batch[np.sort(fresh)[:need]])
            chosen = np.insert(chosen, np.searchsorted(chosen, new), new)
    return chosen[:-1]


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

    The summary's `before` and `transition` columns are left unfilled,
    for `_flip_chunks` to fill while it applies the events.
    """
    if (rate is None) == (count is None):
        raise ValueError("give exactly one of rate and count")
    w = fmt.total_bits
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))

    if rate is not None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must lie in [0, 1]")
        k = int(rng.binomial(n_words * w, rate))
        idx, bit = np.divmod(_distinct_sites(rng, n_words * w, k), w)
    else:
        if count < 0:
            raise ValueError("count must be non-negative")
        if count and n_words == 0:
            raise ValueError("cannot inject into an empty stream")
        idx = rng.integers(0, max(n_words, 1), size=count, dtype=np.int64)
        bit = rng.integers(0, w, size=count, dtype=np.int64)

    return InjectionSummary(
        fmt=fmt,
        endian=endian,
        word_count=n_words,
        seed=seed,
        rate=rate,
        requested=count,
        word_index=idx,
        position=bit,
        before=np.empty(idx.size, dtype=np.uint64),
        transition=np.empty(idx.size, dtype=np.uint8),
    )


def _flip_chunks(
    chunks: Iterable[np.ndarray], summary: InjectionSummary
) -> Iterator[np.ndarray]:
    """Apply the summary's events to a stream read as consecutive word chunks.

    Yields each chunk once its events are XORed into it in place, and
    fills the summary's `before` and `transition` columns.  Events are in
    application order; within one word, the word an event saw is the
    chunk's word XOR the masks of that word's earlier events.  An event
    whose exact error is past `relerr.check_exact`'s limit raises
    ValueError before its chunk is yielded.
    """
    fmt, idx = summary.fmt, summary.word_index
    order = np.argsort(idx, kind="stable")  # each word's events, in order
    word = idx[order]
    lo = start = 0
    for chunk in chunks:
        stop = start + chunk.size
        hi = int(np.searchsorted(word, stop))
        rows = order[lo:hi]
        here, m = word[lo:hi] - start, _masks(summary.position[rows])
        prefix = np.bitwise_xor.accumulate(m) ^ m  # exclusive XOR prefix
        first = np.searchsorted(here, here)  # where each word's group starts
        before = chunk[here] ^ prefix ^ prefix[first]
        summary.before[rows] = before
        src = classify_codes(fmt, before)
        summary.transition[rows] = pair_code(src, classify_codes(fmt, before ^ m))
        check_exact(fmt, before, summary.position[rows])
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
    chunks = (out[i : i + WORD_CHUNK] for i in range(0, out.size, WORD_CHUNK))
    for _ in _flip_chunks(chunks, summary):  # each view is flipped in place
        pass
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
    run that stops part way changes no file.  The temporary file is named
    `<out>.<pid>.<random token>.part`, so no file an earlier run left
    blocks this one; a run killed by SIGKILL leaves its `.part` file,
    which no later run removes.  Any other `out_path`, such as a pipe, is
    written directly.
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
        part = out if direct else f"{out}.{os.getpid()}.{os.urandom(8).hex()}.part"
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
