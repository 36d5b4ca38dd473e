"""Every checker passes a real output and fails a planted wrong one.

    PYTHONPATH=src:perfbench python3 -m pytest -q perfbench/test_checks.py

The real outputs come from flip754 at small sizes; each planted fault
changes one thing in a copy of them.
"""

from __future__ import annotations

import copy
import dataclasses
import io
import json
from contextlib import redirect_stdout
from fractions import Fraction

import numpy as np
import pytest

import checks
import inputs
from flip754 import BINARY64, cli, relerr


def run(argv: list[str]) -> tuple[int, dict]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, json.loads(buf.getvalue())


# ── campaign ──────────────────────────────────────────────────────────────

N = 200_000


@pytest.fixture(scope="module")
def campaigns():
    return [run(["sample", "--n", str(N), "--seed", "5", "--chunk-size", "8192", "--workers", str(w)])
            for w in (1, 2)]


def test_campaign_passes(campaigns):
    for code, doc in campaigns:
        assert checks.check_campaign(doc, code, N, inputs.CAMPAIGN_SIGMA) == []
    assert checks.check_same_tallies([doc for _, doc in campaigns]) == []


def test_campaign_tallies_that_differ_between_worker_counts_fail(campaigns):
    docs = [doc for _, doc in campaigns]
    planted = copy.deepcopy(docs[1])
    row = planted["payload"]["report"]["transitions"]["normalized"]
    row["normalized"] -= 1
    row["denormalized"] += 1
    assert checks.check_same_tallies([docs[0], planted])


def test_campaign_row_off_by_one_fails(campaigns):
    code, doc = campaigns[0]
    planted = copy.deepcopy(doc)
    planted["payload"]["report"]["transitions"]["normalized"]["nan"] += 1
    assert checks.check_campaign(planted, code, N, inputs.CAMPAIGN_SIGMA)


def test_campaign_shifted_cell_fails(campaigns):
    code, doc = campaigns[0]
    planted = copy.deepcopy(doc)
    dyadic = planted["payload"]["report"]["dyadic_counts"]
    dyadic[10] += 1000
    dyadic[11] -= 1000
    assert checks.check_campaign(planted, code, N, inputs.CAMPAIGN_SIGMA)


# ── census ────────────────────────────────────────────────────────────────

FMT = (3, 4)


@pytest.fixture(scope="module")
def census():
    return run(["census", "--format", f"{FMT[0]},{FMT[1]}"])


def test_census_passes(census):
    assert checks.check_census(census[1], census[0], *FMT) == []


@pytest.mark.parametrize("src", checks.CLASSES)
def test_census_transition_off_by_one_fails(census, src):
    code, doc = census
    planted = copy.deepcopy(doc)
    entry = next(e for e in planted["payload"]["entries"] if e["report"]["source_class"] == src)
    entry["report"]["transitions"][src]["normalized"] += 1
    assert checks.check_census(planted, code, *FMT)


def test_census_cell_off_by_one_fails(census):
    code, doc = census
    planted = copy.deepcopy(doc)
    planted["payload"]["entries"][0]["comparison"]["cells"][-1]["observed"] += 1
    assert checks.check_census(planted, code, *FMT)


def test_census_nonzero_exit_fails(census):
    assert checks.check_census(census[1], 3, *FMT)


# ── sweep ─────────────────────────────────────────────────────────────────


@pytest.fixture(scope="module")
def sweep_words():
    rng = np.random.default_rng(9)
    words = inputs.compose(
        rng.integers(0, 2, 4000, dtype=np.uint64),
        rng.integers(1, inputs.EXP_ONES, 4000, dtype=np.uint64),
        rng.integers(0, inputs.FRAC_MASK + 1, 4000, dtype=np.uint64),
    )
    specials = [inputs.special_words(rng, k, 50) for k in ("denormal", "zero", "nan", "inf")]
    # exponents with a single zero bit, so that some flips land on NaN or Inf
    holes = inputs.compose(np.zeros(11, np.uint64),
                           np.uint64(inputs.EXP_ONES) ^ (np.uint64(1) << np.arange(11, dtype=np.uint64)),
                           np.full(11, 5, np.uint64))
    return np.concatenate([words, holes, *specials])


def test_sweep_passes(sweep_words):
    report = relerr.bounds_sweep(BINARY64, sweep_words)
    assert report.nonfinite >= 11
    assert checks.check_sweep(report, sweep_words) == []


def test_sweep_report_with_a_violation_fails(sweep_words):
    report = relerr.bounds_sweep(BINARY64, sweep_words)
    planted = dataclasses.replace(report, conforms=report.conforms - 1, violations=1)
    assert checks.check_sweep(planted, sweep_words)


def test_sweep_undefined_count_off_fails(sweep_words):
    report = relerr.bounds_sweep(BINARY64, sweep_words)
    planted = dataclasses.replace(report, conforms=report.conforms + 64, undefined=report.undefined - 64)
    assert checks.check_sweep(planted, sweep_words)


def test_sweep_against_scalar_detects_a_difference(sweep_words):
    report = relerr.bounds_sweep(BINARY64, sweep_words[:10])
    scalar = {k: getattr(report, k) for k in checks.SWEEP_FIELDS}
    assert checks.check_sweep_against_scalar(report, scalar) == []
    scalar["conforms"] -= 1
    scalar["violations"] += 1
    assert checks.check_sweep_against_scalar(report, scalar)


# ── inject ────────────────────────────────────────────────────────────────


@pytest.fixture(scope="module")
def injected(tmp_path_factory):
    rng = np.random.default_rng(4)
    words = (rng.standard_normal(3000) * 10.0 ** rng.uniform(-20, 20, 3000)).view(np.uint64)
    words = np.concatenate([words, *(inputs.special_words(rng, k, 25) for k in ("denormal", "zero", "nan", "inf"))])
    d = tmp_path_factory.mktemp("inject")
    words.astype("<u8").tofile(d / "in.bin")
    code, doc = run(["inject", "--in", str(d / "in.bin"), "--out", str(d / "out.bin"), "--rate", "0.003", "--seed", "2"])
    return code, doc, words, np.fromfile(d / "out.bin", "<u8")


def check(code, doc, words_in, words_out):
    return checks.check_inject(doc, code, words_in, words_out, 10**6, np.random.default_rng(0))


def test_inject_passes(injected):
    code, doc, words_in, words_out = injected
    assert doc["payload"]["event_count"] > 500
    assert check(*injected) == []


def test_inject_extra_flipped_bit_fails(injected):
    code, doc, words_in, words_out = injected
    planted = words_out.copy()
    planted[7] ^= np.uint64(1 << 33)
    assert check(code, doc, words_in, planted)


def test_inject_changed_ratio_fails(injected):
    code, doc, words_in, words_out = injected
    planted = copy.deepcopy(doc)
    event = next(e for e in planted["payload"]["events"] if e["error"]["kind"] == "finite")
    event["error"]["ratio"] = str(Fraction(event["error"]["ratio"]) * (1 + Fraction(1, 2**70)))
    assert check(code, planted, words_in, words_out)


def test_inject_wrong_class_fails(injected):
    code, doc, words_in, words_out = injected
    planted = copy.deepcopy(doc)
    event = next(e for e in planted["payload"]["events"] if e["class_before"] == "normalized")
    event["class_before"] = "denormalized"
    assert check(code, planted, words_in, words_out)

