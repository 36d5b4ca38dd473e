"""Seeded fault injection into a binary stream of floating-point words."""

import struct
import tempfile
from pathlib import Path

import numpy as np

from flip754 import (
    BINARY64,
    classify,
    inject_file,
    inject_words,
    read_words,
    word_from_float,
    word_to_float,
    write_words,
)

# ── a little stream of measurements ───────────────────────────────────────

values = [1.0, -2.5, 3.141592653589793, 1e-300, 6.02214076e23, 0.5, -0.0, 42.0]
words = np.array([word_from_float(x).bits for x in values], dtype=np.uint64)
print(f"stream: {len(values)} binary64 words, {len(values) * 8} bytes")

# ── count mode: exactly k flips, sites drawn with replacement ─────────────

count_out, summary = inject_words(words, BINARY64, seed=13, count=5)
print(f"\ncount mode, seed 13: {len(summary.events)} events")
for ev in summary.events:
    before = word_to_float(ev.before)
    after_cls = classify(ev.after)
    shown = (
        word_to_float(ev.after)
        if after_cls.value not in ("nan", "inf")
        else after_cls.value
    )
    print(f"  word {ev.word_index} bit {ev.position:2d}: {before!r} -> {shown!r}")

# The summary also aggregates class transitions over all events.
moves = summary.transition_counts()
flat = {f"{a.value}->{b.value}": n for (a, b), n in moves.items() if n}
print(f"  transitions: {flat}")

# ── rate mode: every bit site flips independently ─────────────────────────

# A rate of 1% per bit on 8 words = 512 sites flips about 5 bits.  The
# count is drawn binomially, then that many distinct sites are chosen,
# which is the same process as 512 independent coin flips.

out, summary = inject_words(words, BINARY64, seed=99, rate=0.01)
print(f"\nrate mode 1%, seed 99: {len(summary.events)} of "
      f"{summary.site_count} sites flipped")

# ── the same thing through files ──────────────────────────────────────────

with tempfile.TemporaryDirectory() as tmp:
    src = Path(tmp) / "clean.bin"
    dst = Path(tmp) / "faulty.bin"
    src.write_bytes(struct.pack(f"<{len(values)}d", *values))
    summary = inject_file(src, dst, BINARY64, seed=13, count=5)
    round_trip = read_words(dst, BINARY64)
    # same seed and mode as the in-memory run, so the same stream
    assert (round_trip == count_out).all()
    faulty = struct.unpack(f"<{len(values)}d", dst.read_bytes())
    changed = sum(
        1 for a, b in zip(values, faulty) if a != b and not (a != a and b != b)
    )
    print(f"\nfile round trip: {changed} of {len(values)} values changed, "
          f"{len(summary.events)} flip events recorded")

    # the byte layout is plain little-endian IEEE words, so any tool
    # that reads doubles can consume the faulty stream directly
    write_words(src, round_trip, BINARY64)
    assert src.read_bytes() == dst.read_bytes()
print("stream writing and reading agree byte for byte")
