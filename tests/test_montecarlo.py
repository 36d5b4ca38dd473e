"""Empirical engines: exhaustive censuses, campaigns, model comparison."""

from __future__ import annotations

import json
import platform
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from flip754 import (
    BINARY16,
    BINARY64,
    BucketConvention,
    CampaignConfig,
    CampaignReport,
    CensusReport,
    FlipTally,
    FpClass,
    FpFormat,
    cdf_dyadic,
    classify,
    compare,
    exhaustive_census,
    interval_probabilities,
    run_campaign,
    transition_matrix,
    TransitionMatrix,
    Word,
)
from flip754 import montecarlo
from flip754._vector import Case, FlipKernel, enumerate_class, outcome_key, sample_class_bits
from conftest import PLANTED_FAULTS, SMALL_FORMATS, TINY_FORMATS, brute_census, package_env

ORDER = [FpClass.NORMALIZED, FpClass.DENORMALIZED, FpClass.NAN, FpClass.INF]
CENSUS_FORMATS = SMALL_FORMATS + [FpFormat(5, 10)]


# ── exhaustive census against the scalar oracle ───────────────────────────


@pytest.mark.parametrize("cls", ORDER, ids=lambda c: c.value)
def test_census_matches_brute_force(small_format, cls):
    report = exhaustive_census(small_format, cls)
    oracle = brute_census(small_format, cls)
    assert report.tally.transitions == oracle["transitions"]
    assert report.tally.buckets == oracle["buckets"]
    assert report.tally.dyadic == oracle["dyadic"]
    assert report.cases == sum(sum(row) for row in oracle["transitions"])


@pytest.mark.parametrize("fault", [None, *PLANTED_FAULTS])
def test_census_catches_planted_faults(plant_fault, fault):
    """Under each planted kernel fault some census of 3,2 differs from the
    scalar oracle; a RuntimeError from the tally's class check would count
    too.  That check compares magnitudes and splits no field, so the two
    mis-splits no longer raise through it: they show in the labels of the
    words whose fields they skew.  Without a fault none raises and every
    census equals the oracle."""
    fmt = FpFormat(3, 2)
    oracle = {cls: brute_census(fmt, cls) for cls in ORDER}
    if fault is not None:
        plant_fault(fault, fmt)
    differs = []
    for cls in ORDER:
        try:
            tally = exhaustive_census(fmt, cls).tally
        except RuntimeError:
            differs.append(cls)
            continue
        got = {"transitions": tally.transitions, "buckets": tally.buckets, "dyadic": tally.dyadic}
        if got != oracle[cls]:
            differs.append(cls)
    assert bool(differs) == (fault is not None)


FOREIGN_PAIRS = pytest.mark.parametrize(
    "src,foreign", [(a, b) for a in ORDER for b in ORDER if a is not b],
    ids=lambda c: c.value,
)


@pytest.mark.parametrize("fmt", [FpFormat(2, 1), FpFormat(3, 2)], ids=lambda f: f.name)
@FOREIGN_PAIRS
def test_census_with_a_foreign_word_is_red(monkeypatch, fmt, src, foreign):
    """A census whose enumeration yields one word of another class in place
    of its first word fails `compare` or raises, for every ordered pair of
    classes.  A NaN and an infinity flip to the same destination counts on
    these formats, so a tally that trusted its enumeration would pass with
    either in place of the other; the tally's class check raises instead."""
    real = montecarlo.enumerate_class
    stranger = next(real(fmt, foreign))[0]

    def with_stranger(fmt_, cls):
        chunks = list(real(fmt_, cls))
        chunks[0] = np.concatenate([[stranger], chunks[0][1:]])
        yield from chunks

    monkeypatch.setattr(montecarlo, "enumerate_class", with_stranger)
    try:
        report = exhaustive_census(fmt, src)
    except RuntimeError:
        return
    assert not compare(transition_matrix(fmt), report).passed


@FOREIGN_PAIRS
def test_tally_kernel_refuses_a_foreign_word(src, foreign):
    fmt = FpFormat(3, 2)
    words = np.concatenate([next(enumerate_class(fmt, foreign)), next(enumerate_class(fmt, src))])
    with pytest.raises(RuntimeError, match=f"word {int(words[0]):#x} is not {src.value}$"):
        montecarlo._MutableTally(fmt, src).kernel(words)


def test_census_case_accounting(small_format):
    total = 0
    for cls in ORDER:
        report = exhaustive_census(small_format, cls)
        assert report.cases == report.class_size * small_format.total_bits
        assert sum(report.tally.buckets) == report.cases
        total += report.class_size
    assert total == 1 << small_format.total_bits


# ── the census tally against its per-lane form ────────────────────────────


def _cells_reference(tally, kernel: FlipKernel, pos: int) -> np.ndarray:
    """`_MutableTally.cells` as first written: every lane's flat index, its
    column the position or, for DEN_FRAC_LE, the level lead - pos."""
    label, dst = kernel.label(pos), kernel.dst(pos)
    case = dst * Case.COUNT + label
    column = pos
    if kernel.has_den:
        column = np.where(label == Case.DEN_FRAC_LE, kernel.lead - pos, pos)
    return case.astype(np.intp) * tally.fmt.total_bits + column


def _top_denormals(fmt: FpFormat) -> np.ndarray:
    """Both signs' denormals with the top fraction bit set: below position
    w_f - 1 every flip of theirs is DEN_FRAC_LE, in one case."""
    f = np.arange(1 << (fmt.fraction_bits - 1), 1 << fmt.fraction_bits, dtype=np.uint64)
    return np.concatenate([f, f | np.uint64(1 << (fmt.total_bits - 1))])


@pytest.mark.parametrize(
    "fmt", TINY_FORMATS + [FpFormat(6, 13), FpFormat(2, 9)], ids=lambda f: f.name
)
def test_census_tally_matches_its_per_lane_form(fmt):
    """`add` counts the same histogram as the per-lane cells and one
    `bincount` per position did, in one tally per class, and on a denormal
    batch that is DEN_FRAC_LE alone at most fraction positions."""
    batches = {cls: list(enumerate_class(fmt, cls)) for cls in ORDER}
    batches[FpClass.DENORMALIZED].append(_top_denormals(fmt))
    for cls, chunks in batches.items():
        tally = montecarlo._MutableTally(fmt, cls)
        expected = np.zeros_like(tally.counts)
        for bits in chunks:
            kernel = tally.kernel(bits)
            for pos in range(fmt.total_bits):
                tally.add(kernel, pos)
                cell = _cells_reference(tally, kernel, pos)
                expected += np.bincount(cell, minlength=expected.size).reshape(expected.shape)
        assert np.array_equal(tally.counts, expected), cls


@pytest.mark.parametrize("fmt", [BINARY16, FpFormat(6, 13)], ids=lambda f: f.name)
def test_census_memory_does_not_grow_with_the_chunk_count(fmt):
    """A whole census of the normalized class, 4 chunks of binary16 and 62
    of 6,13, raises the traced peak by less than 1 MiB over its start: it
    holds one batch, its temporaries and the tally at a time.  It read
    0.62 and 0.66 MB on numpy 2.4.6; a kernel that kept each position's
    `dst` read 21 MB on 6,13."""
    assert sum(1 for _ in enumerate_class(fmt, FpClass.NORMALIZED)) >= 4
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        exhaustive_census(fmt, FpClass.NORMALIZED)
        rise = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert rise < 1 << 20, f"traced peak rose by {rise / 2**20:.2f} MiB"


def test_census_raises_when_a_label_value_goes_uncounted(monkeypatch):
    """`add` counts a one-class position's labels by value over
    range(lo, hi + 1), the only two-argument `range` a census calls; with
    that loop stopping one short, the label hi goes uncounted and the
    census of every class that took the loop raises through its total."""
    calls = []

    def one_short(*args):
        if len(args) == 2:
            calls.append(args)
            return range(args[0], args[1] - 1)
        return range(*args)

    monkeypatch.setattr(montecarlo, "range", one_short, raising=False)
    raised = []
    for cls in ORDER:
        calls.clear()
        try:
            exhaustive_census(FpFormat(6, 13), cls)
        except RuntimeError as err:
            assert "flips, not" in str(err)
            raised.append(cls)
        assert (cls in raised) == bool(calls), cls
    assert FpClass.NORMALIZED in raised


# ── exhaustive census against the closed forms ────────────────────────────


@pytest.mark.parametrize("fmt", CENSUS_FORMATS, ids=lambda f: f.name)
@pytest.mark.parametrize("cls", ORDER, ids=lambda c: c.value)
@pytest.mark.parametrize("conv", list(BucketConvention), ids=lambda c: c.value)
def test_census_equals_model_exactly(fmt, cls, conv):
    report = exhaustive_census(fmt, cls, conv)
    verdict = compare(transition_matrix(fmt), report)
    assert verdict.mode == "census"
    assert verdict.passed, [c.name for c in verdict.failures()]
    # the same equalities, asserted directly as rationals
    m = transition_matrix(fmt)
    for dst in ORDER:
        assert report.transition_fraction(cls, dst) == m.entry(cls, dst)
    if cls is FpClass.NORMALIZED:
        probs = interval_probabilities(fmt, conv)
        counts = report.tally.bucket_view(conv)
        n = report.cases
        assert Fraction(counts["ge_one"], n) == probs.ge_one
        assert Fraction(counts["between_half_and_one"], n) == probs.between_half_and_one
        assert Fraction(counts["le_half"], n) == probs.le_half
        if conv is BucketConvention.SEPARATED:
            assert Fraction(counts["nonfinite"], n) == probs.nonfinite
        for i in range(2, fmt.fraction_bits + 1):
            assert Fraction(report.tally.cdf_count(i), n) == cdf_dyadic(fmt, i)


def test_census_rejects_wide_formats():
    with pytest.raises(ValueError):
        exhaustive_census(BINARY64, FpClass.NORMALIZED)
    with pytest.raises(ValueError):
        exhaustive_census(FpFormat(11, 13), FpClass.INF)  # 25 bits


# ── campaign determinism ──────────────────────────────────────────────────


def test_campaign_is_deterministic():
    config = CampaignConfig(BINARY64, FpClass.NORMALIZED, 150_000, seed=99)
    first = run_campaign(config)
    second = run_campaign(config)
    assert first == second
    assert first.cases == 150_000
    assert sum(sum(row) for row in first.tally.transitions) == 150_000
    assert sum(first.tally.buckets) == 150_000


PINNED = json.loads(
    (Path(__file__).parent / "golden" / "campaign_tallies.json").read_text()
)
PINNED_FORMATS = {"binary64": BINARY64, "binary16": BINARY16, "2,1": FpFormat(2, 1)}


@pytest.mark.parametrize(
    "case", PINNED,
    ids=lambda c: f"{c['format']}-{c['source_class']}-{c['seed']}",
)
def test_campaign_reproduces_pinned_tallies(case):
    """Tallies recorded from the engine as it stood before the shared outcome
    kernel; chunk_size 3000 leaves a ragged last chunk of 1000 samples."""
    config = CampaignConfig(
        PINNED_FORMATS[case["format"]], FpClass(case["source_class"]),
        case["sample_count"], seed=case["seed"], chunk_size=case["chunk_size"],
    )
    tally = run_campaign(config).tally
    assert [list(row) for row in tally.transitions] == case["transitions"]
    assert list(tally.buckets) == case["buckets"]
    assert list(tally.dyadic) == case["dyadic"]


def _pinned_matches(case: dict) -> bool:
    fmt = PINNED_FORMATS[case["format"]]
    config = CampaignConfig(
        fmt, FpClass(case["source_class"]), case["sample_count"],
        seed=case["seed"], chunk_size=case["chunk_size"],
    )
    tally = run_campaign(config).tally
    return (
        [list(row) for row in tally.transitions] == case["transitions"]
        and list(tally.buckets) == case["buckets"]
        and list(tally.dyadic) == case["dyadic"]
    )


@pytest.mark.parametrize("fmt_name", ["binary16", "2,1"])
@pytest.mark.parametrize("fault", [None, *PLANTED_FAULTS])
def test_campaign_catches_planted_faults(plant_fault, fault, fmt_name):
    """Under each planted kernel fault some pinned campaign of the format
    changes its tallies or raises: RuntimeError when two representatives
    of a key disagree, IndexError when a faulty msb_index pushes a
    denormal key past its histogram."""
    cases = [c for c in PINNED if c["format"] == fmt_name]
    if fault is not None:
        plant_fault(fault, PINNED_FORMATS[fmt_name])
    caught = []
    for case in cases:
        try:
            if not _pinned_matches(case):
                caught.append(case["source_class"])
        except (RuntimeError, IndexError):
            caught.append(case["source_class"])
    assert bool(caught) == (fault is not None)


def test_campaign_raises_when_the_key_misses_a_dependence(monkeypatch):
    real = montecarlo.outcome_key

    def without_zero_fraction_flag(fmt, cls, bits, pos):
        key, width = real(fmt, cls, bits, pos)
        return key & ~8, width  # normalized flag bit 3: f == 0

    monkeypatch.setattr(montecarlo, "outcome_key", without_zero_fraction_flag)
    config = CampaignConfig(BINARY16, FpClass.NORMALIZED, 1_000_000, seed=1)
    with pytest.raises(RuntimeError, match=r"outcome key \d+ \(position \d+, flags \d+\)"):
        run_campaign(config)


def test_campaign_raises_when_the_key_merges_denormal_levels(monkeypatch):
    """At position 0 every denormal f >= 2 flips at most 1/2 (DEN_FRAC_LE)
    to level msb_index(f), which only the tally cell records: a key that
    merges those levels must make the two representatives disagree."""
    real = montecarlo.outcome_key

    def merged_levels(fmt, cls, bits, pos):
        at_zero = pos == 0  # read first: the key is written over pos
        key, width = real(fmt, cls, bits, pos)
        # key = flags at position 0: 2 * (msb_index(f) + 1) + (f is a power of two)
        return np.where(at_zero & (key >= 4), 4 + key % 2, key), width

    monkeypatch.setattr(montecarlo, "outcome_key", merged_levels)
    config = CampaignConfig(BINARY16, FpClass.DENORMALIZED, 100_000, seed=1)
    with pytest.raises(RuntimeError, match=r"outcome key \d+ \(position 0, flags [45]\)"):
        run_campaign(config)


def test_campaign_raises_when_a_part_goes_unmerged(monkeypatch):
    real = montecarlo._merge

    def without_the_last(parts):
        parts = list(parts)
        return real(iter(parts[:-1] or parts))

    monkeypatch.setattr(montecarlo, "_merge", without_the_last)
    config = CampaignConfig(BINARY16, FpClass.NORMALIZED, 5000, seed=1, chunk_size=2000)
    with pytest.raises(RuntimeError, match="tally counts 4000 flips, not 5000"):
        run_campaign(config)


@pytest.mark.parametrize("n", [1, 65537])
@pytest.mark.parametrize("cls", ORDER, ids=lambda c: c.value)
def test_campaign_counts_every_sample_at_the_chunk_edges(n, cls):
    """One sample, and one past the default chunk, which leaves a
    one-sample last chunk: the tally's total must be n, or the campaign
    raises."""
    report = run_campaign(CampaignConfig(BINARY16, cls, n, seed=3))
    assert sum(sum(row) for row in report.tally.transitions) == n
    assert sum(report.tally.buckets) == n


def test_campaign_worker_count_does_not_change_tallies():
    config = CampaignConfig(
        BINARY64, FpClass.NORMALIZED, 5000, seed=7, chunk_size=512
    )
    assert run_campaign(config, workers=1) == run_campaign(config, workers=3)


def test_campaign_caps_its_thread_pool(monkeypatch):
    """At most one thread per CPU and per chunk; no thread is started here."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    config = CampaignConfig(BINARY16, FpClass.NORMALIZED, 10 * 512, seed=7, chunk_size=512)
    two_chunks = CampaignConfig(BINARY16, FpClass.NORMALIZED, 1000, seed=7, chunk_size=512)
    expected = run_campaign(config).tally
    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 4)
    for workers in (5000, 3, 1):
        assert run_campaign(config, workers=workers).tally == expected
    run_campaign(two_chunks, workers=5000)
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: None)
    assert run_campaign(config, workers=5000).tally == expected
    assert sizes == [4, 3, 1, 2, 1]


def test_campaign_memory_does_not_grow_with_the_chunk_count(monkeypatch):
    """2,000 one-sample chunks on two threads stay under 2 MiB of traced
    memory: each thread runs its chunks one at a time.  Submitting every
    chunk to the pool up front peaked at 4.8 MiB on numpy 2.4, and grows
    with the chunk count."""
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
    config = CampaignConfig(FpFormat(3, 2), FpClass.NORMALIZED, 2000, seed=1, chunk_size=1)
    tracemalloc.start()
    try:
        report = run_campaign(config, workers=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.tally == run_campaign(config).tally
    assert peak < 2 << 20, f"peak of traced memory {peak / 2**20:.2f} MiB"


_BACK_TO_BACK_CAMPAIGNS = """
import resource
from flip754 import BINARY64, CampaignConfig, FpClass, run_campaign
config = CampaignConfig(BINARY64, FpClass.NORMALIZED, 1_000_000, seed=1)
for _ in range(4):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run_campaign(config)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="measures glibc's heap trimming through minor faults")
def test_back_to_back_campaigns_take_no_page_faults():
    """The third and fourth of four 1M-sample binary64 campaigns in one
    interpreter take at most 1,000 minor faults each: the per-thread word
    and position buffers keep glibc from trimming the heap top that each
    chunk's arrays were freed from, which the next chunk faults back in.
    With the buffers they read 0 to 2; a copy without them read about
    5,200 each.  The interpreter's own allocations decide where the heap
    top lies, and that copy read 0 in 1 of 40 environments, so the calls
    run in two interpreters whose argument lists differ by 4 KiB."""
    for pad in ("", "x" * 4096):
        out = subprocess.run([sys.executable, "-c", _BACK_TO_BACK_CAMPAIGNS, pad],
                             capture_output=True, text=True, timeout=60, env=package_env())
        assert out.returncode == 0, out.stderr
        faults = [int(line) for line in out.stdout.split()]
        assert len(faults) == 4 and max(faults[2:]) <= 1000, faults


def test_campaign_seed_changes_tallies():
    base = dict(fmt=BINARY64, source_class=FpClass.NORMALIZED, sample_count=20_000)
    a = run_campaign(CampaignConfig(seed=1, **base))
    b = run_campaign(CampaignConfig(seed=2, **base))
    assert a.tally != b.tally


def test_campaign_config_validation():
    with pytest.raises(ValueError):
        CampaignConfig(BINARY64, FpClass.NORMALIZED, 0, seed=1)
    with pytest.raises(ValueError):
        CampaignConfig(BINARY64, FpClass.NORMALIZED, 10, seed=1, chunk_size=0)
    with pytest.raises(ValueError):
        run_campaign(
            CampaignConfig(BINARY64, FpClass.NORMALIZED, 10, seed=1), workers=0
        )


# ── the campaign's outcome key ────────────────────────────────────────────


def _assert_key_sufficient(fmt: FpFormat, cls: FpClass, words: np.ndarray) -> None:
    """Every key of (word, position) pairs of `cls` maps to one cell of a
    tally of `cls`, the cell `_contract` compares: destination class, case
    label, and the position or, for DEN_FRAC_LE, the denormal level."""
    tally = montecarlo._MutableTally(fmt, cls)
    kernel = tally.kernel(words)
    keys, cells = [], []
    for pos in range(fmt.total_bits):
        cells.append(tally.cells(kernel, pos))
        key, width = outcome_key(fmt, cls, words, np.full(words.size, pos, dtype=np.uint64))
        keys.append(key)
    key, cell = np.concatenate(keys), np.concatenate(cells)
    assert width * fmt.total_bits <= 7936
    assert 0 <= key.min() and key.max() < width * fmt.total_bits
    pairs = np.unique(np.stack([key, cell]), axis=1)
    shared = pairs[0][np.flatnonzero(np.diff(pairs[0]) == 0)]
    assert shared.size == 0, f"{fmt.name} {cls.value}: keys {shared[:5]} have two outcomes"


@pytest.mark.parametrize("fmt", TINY_FORMATS + [BINARY16], ids=lambda f: f.name)
def test_outcome_key_is_sufficient(fmt):
    for cls in ORDER:
        _assert_key_sufficient(fmt, cls, np.concatenate(list(enumerate_class(fmt, cls))))


@st.composite
def _class_words(draw, fmt: FpFormat):
    """A class and words of it: both signs times exponents times fractions,
    so that words differing in one field share keys.  Each drawn field
    value v brings siblings at the key's edges: 2^msb(v), and top ^ 2^msb(v)
    for an exponent, 0 and v | 1 for a fraction."""
    cls = draw(st.sampled_from(ORDER))
    top, w_f = fmt.exponent_all_ones, fmt.fraction_bits

    def msb_power(v: int) -> int:
        return 1 << (v.bit_length() - 1)

    if cls is FpClass.NORMALIZED:
        drawn = draw(st.lists(st.integers(1, top - 1), min_size=1, max_size=3))
        exps = {x for e in drawn for x in (e, msb_power(e), top ^ msb_power(e))} - {top}
    else:
        exps = {0 if cls is FpClass.DENORMALIZED else top}
    fracs = {0}
    if cls is not FpClass.INF:
        drawn = draw(st.lists(st.integers(1, (1 << w_f) - 1), min_size=1, max_size=3))
        fracs |= {x for f in drawn for x in (f, msb_power(f), f | 1)}
        if cls is FpClass.NAN:
            fracs.discard(0)
    words = [
        (s << (fmt.total_bits - 1)) | (e << w_f) | f for s in (0, 1) for e in exps for f in fracs
    ]
    return cls, np.array(words, dtype=np.uint64)


@pytest.mark.parametrize("fmt", [BINARY64, FpFormat(62, 1), FpFormat(30, 33)], ids=lambda f: f.name)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_outcome_key_is_sufficient_on_wide_formats(fmt, data):
    cls, words = data.draw(_class_words(fmt))
    _assert_key_sufficient(fmt, cls, words)


# ── campaign against the closed forms ─────────────────────────────────────


@pytest.mark.parametrize("cls", ORDER, ids=lambda c: c.value)
def test_campaign_within_tolerance(cls):
    config = CampaignConfig(BINARY64, cls, 200_000, seed=2024)
    verdict = compare(transition_matrix(BINARY64), run_campaign(config))
    assert verdict.mode == "campaign"
    assert verdict.passed, [(c.name, c.z) for c in verdict.failures()]


def test_campaign_buckets_pass_a_chi_square_test():
    config = CampaignConfig(BINARY64, FpClass.NORMALIZED, 200_000, seed=5)
    report = run_campaign(config)
    probs = interval_probabilities(BINARY64)
    counts = report.tally.bucket_view(BucketConvention.MERGED)
    observed = [counts["ge_one"], counts["between_half_and_one"], counts["le_half"]]
    expected = [
        float(probs.ge_one) * report.cases,
        float(probs.between_half_and_one) * report.cases,
        float(probs.le_half) * report.cases,
    ]
    result = stats.chisquare(observed, expected)
    assert result.pvalue > 1e-9


def test_minuscule_probabilities_are_skipped_not_judged():
    config = CampaignConfig(BINARY64, FpClass.NORMALIZED, 10_000, seed=11)
    verdict = compare(
        transition_matrix(BINARY64), run_campaign(config), min_p=1e-3
    )
    skipped = {c.name for c in verdict.cells if c.skipped}
    # both rare escapes fall below the floor; the common cells are judged
    assert "to_inf" in skipped
    assert "to_nan" in skipped
    assert "err_le_half" not in skipped
    assert "err_ge_one" not in skipped
    # staying normalized misses certainty by 1.7e-4, below the floor too
    assert "to_normalized" in skipped
    assert verdict.passed


def test_a_zero_skip_threshold_judges_every_cell():
    """min_p = 0, the lower end of [0, 1/2), skips no cell: the rare
    escapes to infinity and NaN are judged by their z-scores."""
    config = CampaignConfig(BINARY64, FpClass.NORMALIZED, 10_000, seed=11)
    verdict = compare(transition_matrix(BINARY64), run_campaign(config), min_p=0)
    assert verdict.min_p == 0
    assert not any(c.skipped for c in verdict.cells)
    assert {"to_inf", "to_nan", "to_normalized"} <= {c.name for c in verdict.cells}
    assert verdict.passed


def test_tiny_sigma_fails_a_healthy_campaign():
    config = CampaignConfig(BINARY64, FpClass.NORMALIZED, 200_000, seed=5)
    verdict = compare(transition_matrix(BINARY64), run_campaign(config), sigma=1e-9)
    assert not verdict.passed
    assert verdict.failures()


def test_a_comparison_with_every_cell_skipped_does_not_pass():
    fmt = FpFormat(3, 2)
    report = run_campaign(CampaignConfig(fmt, FpClass.NORMALIZED, 1000, seed=0))
    verdict = compare(transition_matrix(fmt), report, min_p=0.499)
    assert verdict.cells and all(c.skipped for c in verdict.cells)
    assert not verdict.passed and not verdict.failures()


@pytest.mark.parametrize("kwargs", [
    {"sigma": 0.0}, {"sigma": -1.0}, {"sigma": float("nan")}, {"sigma": float("inf")},
    {"min_p": -0.1}, {"min_p": 0.5}, {"min_p": float("nan")},
], ids=repr)
def test_compare_rejects_thresholds_that_judge_nothing(kwargs):
    report = exhaustive_census(FpFormat(3, 2), FpClass.NORMALIZED)
    with pytest.raises(ValueError):
        compare(transition_matrix(report.fmt), report, **kwargs)


def test_compare_rejects_mismatched_formats():
    report = exhaustive_census(FpFormat(3, 2), FpClass.NORMALIZED)
    with pytest.raises(ValueError):
        compare(transition_matrix(BINARY64), report)


def test_doctored_census_fails_exact_comparison():
    report = exhaustive_census(FpFormat(3, 2), FpClass.DENORMALIZED)
    rows = [list(row) for row in report.tally.transitions]
    rows[1][2] += 1  # invent an impossible denormal-to-NaN case
    bad_tally = FlipTally(
        tuple(tuple(row) for row in rows),
        report.tally.buckets,
        report.tally.dyadic,
    )
    doctored = CensusReport(
        report.fmt, report.source_class, report.convention,
        report.class_size, bad_tally,
    )
    verdict = compare(transition_matrix(report.fmt), doctored)
    assert not verdict.passed
    assert [c.name for c in verdict.failures()] == ["to_nan"]


def test_zero_probability_cell_requires_zero_count():
    fmt = FpFormat(3, 2)
    census = exhaustive_census(fmt, FpClass.DENORMALIZED)
    rows = [list(row) for row in census.tally.transitions]
    rows[1][3] += 1  # invent an impossible denormal-to-Inf case
    bad_tally = FlipTally(
        tuple(tuple(row) for row in rows), census.tally.buckets, census.tally.dyadic
    )
    config = CampaignConfig(fmt, FpClass.DENORMALIZED, census.cases + 1, seed=0)
    fake = CampaignReport(config, bad_tally)
    verdict = compare(transition_matrix(fmt), fake)
    cell = {c.name: c for c in verdict.cells}["to_inf"]
    assert cell.z is None and cell.passed is False
    assert not verdict.passed


@pytest.mark.parametrize("observed,passed", [(1000, True), (999, False)])
def test_certain_cell_is_judged_exactly(observed, passed):
    # A model where every flip of a NaN stays NaN: p = 1 has no spread, so
    # the count must be every case, as a zero cell's count must be 0.
    fmt = FpFormat(3, 2)
    entries = dict(transition_matrix(fmt).entries)
    for dst in ORDER:
        entries[(FpClass.NAN, dst)] = Fraction(int(dst is FpClass.NAN))
    report = run_campaign(CampaignConfig(fmt, FpClass.NAN, 1000, seed=0))
    rows = [[0] * 4 for _ in ORDER]
    rows[2][2], rows[2][0] = observed, 1000 - observed
    tally = FlipTally(tuple(map(tuple, rows)), report.tally.buckets, report.tally.dyadic)
    verdict = compare(TransitionMatrix(fmt, entries), CampaignReport(report.config, tally))
    cell = {c.name: c for c in verdict.cells}["to_nan"]
    assert cell.expected == 1 and cell.z is None and cell.passed is passed
    assert verdict.passed is passed


def test_near_certain_cell_is_skipped_like_a_rare_one():
    # On 62,1 a normalized flip stays normalized with p = 1 - 31/2^67, which
    # float(p) rounds to 1: the binomial spread is below resolution.
    fmt = FpFormat(62, 1)
    report = run_campaign(CampaignConfig(fmt, FpClass.NORMALIZED, 30_000, seed=5))
    verdict = compare(transition_matrix(fmt), report)
    cell = {c.name: c for c in verdict.cells}["to_normalized"]
    assert 0 < 1 - cell.expected <= verdict.min_p
    assert cell.z is None and cell.passed is None
    assert verdict.passed


# ── sampling and payloads ─────────────────────────────────────────────────


@pytest.mark.parametrize("cls", ORDER, ids=lambda c: c.value)
def test_sample_class_bits_stays_in_class(cls):
    rng = np.random.default_rng(3)
    for fmt in (BINARY64, FpFormat(3, 2)):
        for bits in sample_class_bits(fmt, cls, rng, 200):
            assert classify(Word(int(bits), fmt)) is cls


def test_report_payloads_serialize():
    census = exhaustive_census(FpFormat(3, 2), FpClass.NORMALIZED)
    campaign = run_campaign(CampaignConfig(BINARY64, FpClass.NORMALIZED, 1000, seed=1))
    verdict = compare(transition_matrix(BINARY64), campaign)
    for payload in (census.to_payload(), campaign.to_payload(), verdict.to_payload()):
        text = json.dumps(payload)
        assert json.loads(text) == payload
    assert census.to_payload()["kind"] == "census"
    assert campaign.to_payload()["kind"] == "campaign"
    assert campaign.to_payload()["sample_count"] == 1000
    assert verdict.to_payload()["kind"] == "comparison"
    assert set(census.to_payload()["transitions"]) == {c.value for c in ORDER}
