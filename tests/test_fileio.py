"""Word streams and seeded fault injection into them."""

from __future__ import annotations

import dataclasses
import json
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flip754 import (
    BINARY64,
    FpFormat,
    Word,
    classify,
    inject_file,
    inject_words,
    read_words,
    word_from_float,
    words_from_bytes,
    words_to_bytes,
    write_words,
)
from flip754 import fileio
from flip754.fileio import _distinct_sites

THREE_BYTE = FpFormat(6, 17)  # 24-bit words


# ── byte layout ───────────────────────────────────────────────────────────


@pytest.mark.parametrize("fmt", [BINARY64, FpFormat(8, 23), THREE_BYTE, FpFormat(5, 10)])
@pytest.mark.parametrize("endian", ["little", "big"])
def test_bytes_round_trip(fmt, endian):
    rng = np.random.default_rng(17)
    words = rng.integers(0, 1 << 16, size=50, dtype=np.uint64) & np.uint64(
        (1 << fmt.total_bits) - 1
    )
    words[0] = (1 << fmt.total_bits) - 1
    data = words_to_bytes(words, fmt, endian)
    assert len(data) == 50 * fmt.total_bits // 8
    assert (words_from_bytes(data, fmt, endian) == words).all()


def test_byte_layout_matches_the_host():
    values = [0.0, -0.0, 1.0, -2.5, float("inf"), float("nan"), 2**-1074]
    for x in values:
        expect = word_from_float(x).bits
        little = words_from_bytes(struct.pack("<d", x), BINARY64, "little")
        big = words_from_bytes(struct.pack(">d", x), BINARY64, "big")
        assert int(little[0]) == expect
        assert int(big[0]) == expect
    packed = struct.pack("<3d", 1.0, -1.0, 0.5)
    got = words_from_bytes(packed, BINARY64, "little")
    assert [int(b) for b in got] == [word_from_float(x).bits for x in (1.0, -1.0, 0.5)]


def test_endian_flips_byte_order_per_word():
    words = np.array([0x0000000000ABCDEF], dtype=np.uint64)
    assert words_to_bytes(words, THREE_BYTE, "little") == b"\xef\xcd\xab"
    assert words_to_bytes(words, THREE_BYTE, "big") == b"\xab\xcd\xef"


def test_stream_validation():
    with pytest.raises(ValueError):
        words_from_bytes(b"\x00" * 10, BINARY64)  # not a multiple of 8
    with pytest.raises(ValueError):
        words_from_bytes(b"\x00", FpFormat(2, 1))  # 4-bit words
    with pytest.raises(ValueError):
        words_to_bytes(np.zeros(1, dtype=np.uint64), FpFormat(4, 4))  # 9 bits
    with pytest.raises(ValueError):
        words_from_bytes(b"\x00" * 8, BINARY64, endian="middle")
    assert words_from_bytes(b"", BINARY64).size == 0


def test_file_round_trip(tmp_path):
    path = tmp_path / "stream.bin"
    words = np.array([word_from_float(x).bits for x in (1.0, -0.5, 3.25)], dtype=np.uint64)
    write_words(path, words, BINARY64)
    assert (read_words(path, BINARY64) == words).all()
    assert path.read_bytes() == struct.pack("<3d", 1.0, -0.5, 3.25)


# ── count-mode injection ──────────────────────────────────────────────────


def _replay(words, summary):
    """Re-apply the recorded events; checks the before/after chain."""
    state = [int(b) for b in np.asarray(words)]
    for ev in summary.events:
        assert state[ev.word_index] == ev.before.bits
        assert ev.after.bits == ev.before.bits ^ (1 << ev.position)
        state[ev.word_index] = ev.after.bits
    return state


def test_count_zero_is_identity():
    words = np.array([word_from_float(x).bits for x in (1.0, 2.0)], dtype=np.uint64)
    out, summary = inject_words(words, BINARY64, seed=5, count=0)
    assert (out == words).all()
    assert summary.events == ()
    assert summary.mode == "count"
    assert summary.requested == 0
    assert summary.rate is None
    assert summary.site_count == 2 * 64


def test_count_mode_records_a_consistent_event_chain():
    words = np.array([word_from_float(float(i)).bits for i in range(1, 9)], dtype=np.uint64)
    out, summary = inject_words(words, BINARY64, seed=42, count=12)
    assert len(summary.events) == 12
    assert _replay(words, summary) == [int(b) for b in out]
    assert (np.asarray(words) != out).any()
    total = sum(
        n for row in summary.transition_counts().values() for n in row.values()
    )
    assert total == 12


def test_count_mode_draws_sites_with_replacement():
    # 200 flips on a single word must revisit sites; parity decides the net
    words = np.array([word_from_float(1.0).bits], dtype=np.uint64)
    out, summary = inject_words(words, BINARY64, seed=3, count=200)
    assert len(summary.events) == 200
    sites = [(ev.word_index, ev.position) for ev in summary.events]
    assert len(set(sites)) < 200
    net = 0
    for _, position in sites:
        net ^= 1 << position
    assert int(out[0]) == words[0] ^ net
    assert _replay(words, summary) == [int(out[0])]


def test_count_mode_chain_survives_interleaved_words():
    # word 0 is hit, then other words, then word 0 again at another bit
    words = np.array([word_from_float(x).bits for x in (1.0, -3.0, 0.25)], dtype=np.uint64)
    out, summary = inject_words(words, BINARY64, seed=4, count=30)
    hits = [ev.word_index for ev in summary.events]
    assert any(
        hits[i] == hits[j] != hits[i + 1]
        and summary.events[i].position != summary.events[j].position
        for i in range(len(hits))
        for j in range(i + 2, len(hits))
    )
    assert _replay(words, summary) == [int(b) for b in out]


@given(
    st.lists(st.integers(0, (1 << 64) - 1), min_size=1, max_size=5),
    st.integers(0, 60),
    st.integers(0, 2**32),
)
@settings(max_examples=60, deadline=None)
def test_count_mode_chain_replays_for_any_draw(bits, count, seed):
    words = np.array(bits, dtype=np.uint64)
    out, summary = inject_words(words, BINARY64, seed=seed, count=count)
    assert _replay(words, summary) == [int(b) for b in out]


def test_injection_is_deterministic_and_pure():
    words = np.array([word_from_float(float(i)).bits for i in range(32)], dtype=np.uint64)
    keep = words.copy()
    first = inject_words(words, BINARY64, seed=9, count=20)
    second = inject_words(words, BINARY64, seed=9, count=20)
    assert (first[0] == second[0]).all()
    assert first[1] == second[1]
    assert (words == keep).all()  # input array untouched
    other = inject_words(words, BINARY64, seed=10, count=20)
    assert (first[0] != other[0]).any()


# ── rate-mode injection ───────────────────────────────────────────────────


def test_rate_zero_and_one():
    words = np.array([word_from_float(x).bits for x in (1.0, -2.0, 0.5)], dtype=np.uint64)
    out, summary = inject_words(words, BINARY64, seed=1, rate=0.0)
    assert (out == words).all() and summary.events == ()
    out, summary = inject_words(words, BINARY64, seed=1, rate=1.0)
    assert len(summary.events) == summary.site_count == 3 * 64
    mask = np.uint64(0xFFFFFFFFFFFFFFFF)
    assert (out == (words ^ mask)).all()
    assert summary.mode == "rate" and summary.rate == 1.0 and summary.requested is None


def test_rate_mode_flips_distinct_sites_once():
    words = np.zeros(100, dtype=np.uint64)
    out, summary = inject_words(words, BINARY64, seed=8, rate=0.02)
    sites = [(ev.word_index, ev.position) for ev in summary.events]
    assert len(set(sites)) == len(sites)
    assert sites == sorted(sites)
    # each event flips a zero word somewhere, so popcounts add up
    assert sum(int(b).bit_count() for b in out) == len(sites)
    assert _replay(words, summary) == [int(b) for b in out]


def test_rate_mode_chain_with_several_flips_per_word():
    words = np.array([word_from_float(x).bits for x in (1.5, -0.0)], dtype=np.uint64)
    out, summary = inject_words(words, BINARY64, seed=6, rate=0.5)
    hits = [ev.word_index for ev in summary.events]
    assert min(hits.count(0), hits.count(1)) >= 2
    assert _replay(words, summary) == [int(b) for b in out]


def _set_distinct_sites(rng, n_sites, k):
    """Reference: the same batched rejection, one site at a time into a set."""
    chosen = set()
    while len(chosen) < k:
        need = k - len(chosen)
        for v in rng.integers(0, n_sites, size=max(2 * need, 16)):
            chosen.add(int(v))
            if len(chosen) == k:
                break
    return sorted(chosen)


@given(st.integers(1, 300), st.floats(0.0, 1.0), st.integers(0, 2**32))
@settings(max_examples=80, deadline=None)
def test_distinct_sites_match_one_at_a_time_rejection(n_sites, share, seed):
    k = int(share * n_sites)
    def rng():
        return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    a, b = rng(), rng()
    assert _distinct_sites(a, n_sites, k).tolist() == _set_distinct_sites(b, n_sites, k)
    assert a.integers(1 << 62) == b.integers(1 << 62)  # same draws consumed


def test_rate_mode_event_count_is_plausible():
    words = np.zeros(1000, dtype=np.uint64)
    _, summary = inject_words(words, BINARY64, seed=12, rate=0.01)
    # 64000 sites at 1%: expectation 640, spread about 25
    assert 440 <= len(summary.events) <= 840


def test_injection_argument_validation():
    words = np.zeros(4, dtype=np.uint64)
    with pytest.raises(ValueError):
        inject_words(words, BINARY64, seed=1)
    with pytest.raises(ValueError):
        inject_words(words, BINARY64, seed=1, rate=0.5, count=3)
    with pytest.raises(ValueError):
        inject_words(words, BINARY64, seed=1, rate=1.5)
    with pytest.raises(ValueError):
        inject_words(words, BINARY64, seed=1, rate=-0.1)
    with pytest.raises(ValueError):
        inject_words(words, BINARY64, seed=1, count=-1)
    with pytest.raises(ValueError):
        inject_words(np.zeros(0, dtype=np.uint64), BINARY64, seed=1, count=1)
    out, summary = inject_words(np.zeros(0, dtype=np.uint64), BINARY64, seed=1, rate=0.5)
    assert out.size == 0 and summary.events == ()


# ── files and payloads ────────────────────────────────────────────────────


def test_inject_file_matches_in_memory_run(tmp_path):
    src, dst = tmp_path / "in.bin", tmp_path / "out.bin"
    words = np.array([word_from_float(float(i)).bits for i in range(16)], dtype=np.uint64)
    write_words(src, words, BINARY64)
    summary = inject_file(src, dst, BINARY64, seed=77, count=10)
    direct_out, direct_summary = inject_words(words, BINARY64, seed=77, count=10)
    assert summary == direct_summary
    assert (read_words(dst, BINARY64) == direct_out).all()


@pytest.mark.parametrize(
    "chunk,n_words", [(1, 7), (3, 20), (8, 21), (fileio.WORD_CHUNK, 2 * fileio.WORD_CHUNK + 3)]
)
@pytest.mark.parametrize("mode", ["rate", "count"])
def test_inject_file_streams_chunks_like_one_array(tmp_path, monkeypatch, chunk, n_words, mode):
    # Several chunks of binary16 words, with events on both words at some
    # chunk edge: the file run equals the run on the whole array.
    monkeypatch.setattr(fileio, "WORD_CHUNK", chunk)
    fmt = FpFormat(5, 10)
    words = np.random.default_rng(n_words).integers(0, 1 << 16, size=n_words, dtype=np.uint64)
    draw = {"rate": 0.2} if mode == "rate" else {"count": 2 * n_words}
    src, dst = tmp_path / "in.bin", tmp_path / "out.bin"
    write_words(src, words, fmt, "big")
    summary = inject_file(src, dst, fmt, seed=21, endian="big", **draw)
    direct_out, direct = inject_words(words, fmt, seed=21, endian="big", **draw)
    assert summary == direct
    assert dst.read_bytes() == words_to_bytes(direct_out, fmt, "big")
    hit = set(summary.word_index.tolist())
    assert any(e - 1 in hit and e in hit for e in range(chunk, n_words, chunk))


def test_inject_file_may_rewrite_its_input(tmp_path):
    path = tmp_path / "stream.bin"
    words = np.arange(1, 50, dtype=np.uint64) << np.uint64(40)
    write_words(path, words, BINARY64)
    direct_out, direct = inject_words(words, BINARY64, seed=3, rate=0.05)
    assert inject_file(path, path, BINARY64, seed=3, rate=0.05) == direct
    assert (read_words(path, BINARY64) == direct_out).all()


def test_inject_file_validates_the_stream(tmp_path):
    src, dst = tmp_path / "in.bin", tmp_path / "out.bin"
    src.write_bytes(bytes(12))
    with pytest.raises(ValueError, match="not a multiple of the 8-byte word size"):
        inject_file(src, dst, BINARY64, seed=1, count=1)
    with pytest.raises(ValueError, match="regular file"):
        inject_file(os.devnull, dst, BINARY64, seed=1, count=1)
    with pytest.raises(OSError):
        inject_file(tmp_path / "missing.bin", dst, BINARY64, seed=1, count=1)


def test_summaries_that_differ_in_one_event_are_unequal():
    words = np.array([word_from_float(float(i)).bits for i in range(16)], dtype=np.uint64)
    _, summary = inject_words(words, BINARY64, seed=77, count=10)
    assert summary == inject_words(words, BINARY64, seed=77, count=10)[1]
    position = summary.position.copy()
    position[3] ^= 1
    assert dataclasses.replace(summary, position=position) != summary
    before = summary.before.copy()
    before[9] ^= np.uint64(1)
    assert dataclasses.replace(summary, before=before) != summary
    assert dataclasses.replace(summary, seed=78) != summary


def test_inject_summary_payload(tmp_path):
    words = np.array([word_from_float(1.0).bits] * 4, dtype=np.uint64)
    _, summary = inject_words(words, BINARY64, seed=2, count=6)
    payload = summary.to_payload(digits=4)
    assert payload["schema"] == "flip754/inject-v1"
    assert payload["mode"] == "count"
    assert payload["event_count"] == 6
    assert payload["word_count"] == 4
    assert payload["site_count"] == 256
    assert len(payload["events"]) == 6
    for ev_obj, ev in zip(payload["events"], summary.events):
        assert ev_obj["before"] == ev.before.hex()
        assert ev_obj["after"] == ev.after.hex()
        assert ev_obj["class_before"] == classify(ev.before).value
        kinds = {"finite", "nonfinite", "undefined"}
        assert ev_obj["error"]["kind"] in kinds
        if ev_obj["error"]["kind"] == "finite":
            assert set(ev_obj["error"]) == {"kind", "ratio", "decimal", "log2"}
    assert json.loads(json.dumps(payload)) == payload
