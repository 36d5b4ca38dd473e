"""Empirical engines: exhaustive censuses, campaigns, model comparison."""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
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
    sample_word,
    transition_matrix,
)
from conftest import PLANTED_FAULTS, SMALL_FORMATS, brute_census

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
    fmt = FpFormat(3, 2)
    oracle = {cls: brute_census(fmt, cls) for cls in ORDER}
    if fault is not None:
        plant_fault(fault, fmt)
    differs = []
    for cls in ORDER:
        tally = exhaustive_census(fmt, cls).tally
        got = {"transitions": tally.transitions, "buckets": tally.buckets, "dyadic": tally.dyadic}
        if got != oracle[cls]:
            differs.append(cls)
    assert bool(differs) == (fault is not None)


def test_census_case_accounting(small_format):
    total = 0
    for cls in ORDER:
        report = exhaustive_census(small_format, cls)
        assert report.cases == report.class_size * small_format.total_bits
        assert sum(report.tally.buckets) == report.cases
        total += report.class_size
    assert total == 1 << small_format.total_bits


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


def test_campaign_worker_count_does_not_change_tallies():
    config = CampaignConfig(
        BINARY64, FpClass.NORMALIZED, 5000, seed=7, chunk_size=512
    )
    assert run_campaign(config, workers=1) == run_campaign(config, workers=3)


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
    assert "to_normalized" not in skipped
    assert "err_le_half" not in skipped
    assert verdict.passed


def test_tiny_sigma_fails_a_healthy_campaign():
    config = CampaignConfig(BINARY64, FpClass.NORMALIZED, 200_000, seed=5)
    verdict = compare(transition_matrix(BINARY64), run_campaign(config), sigma=1e-9)
    assert not verdict.passed
    assert verdict.failures()


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


# ── sampling and payloads ─────────────────────────────────────────────────


@pytest.mark.parametrize("cls", ORDER, ids=lambda c: c.value)
def test_sample_word_stays_in_class(cls):
    rng = np.random.default_rng(3)
    for fmt in (BINARY64, FpFormat(3, 2)):
        for _ in range(200):
            assert classify(sample_word(fmt, cls, rng)) is cls


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
