"""Acceptance gate: one pass/fail line per top-level capability.

Each criterion prints `criterion N: PASS - ...` (or FAIL) even under
pytest's capture, and asserts a wall-clock budget on top of the checks.
"""

from __future__ import annotations

import json
import struct
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np

from flip754 import (
    BINARY64,
    BucketConvention,
    CampaignConfig,
    FpClass,
    FpFormat,
    bounds_sweep,
    cdf_dyadic,
    class_size,
    compare,
    decimal_str,
    decimal_threshold_bounds,
    exhaustive_census,
    interval_probabilities,
    run_campaign,
    tolerance_table,
    transition_matrix,
)
from flip754._vector import flip_bits, sample_class_bits
from flip754.cli import main
from conftest import TINY_FORMATS, iter_class_words

GOLDEN = Path(__file__).parent / "golden"

NORM, DEN, NAN, INF = (
    FpClass.NORMALIZED, FpClass.DENORMALIZED, FpClass.NAN, FpClass.INF,
)


@contextmanager
def criterion(capsys, n: int, desc: str, budget: float):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed <= budget, f"took {elapsed:.2f}s, budget {budget}s"
    except BaseException:
        with capsys.disabled():
            print(f"criterion {n}: FAIL - {desc}")
        raise
    with capsys.disabled():
        print(f"criterion {n}: PASS - {desc} ({elapsed:.2f}s)")


def test_criterion_1_transition_matrix(capsys):
    with criterion(
        capsys, 1, "binary64 transition matrix matches the reference decimals", 1.0
    ):
        m = transition_matrix(BINARY64)
        expect = {
            (NORM, NORM): "0.99983", (NORM, DEN): "8.4005e-05",
            (NORM, NAN): "8.4005e-05", (NORM, INF): "1.8653e-20",
            (DEN, NORM): "0.17188", (DEN, DEN): "0.82812",
            (DEN, NAN): "0", (DEN, INF): "0",
            (NAN, NORM): "0.17188", (NAN, DEN): "0",
            (NAN, NAN): "0.82812", (NAN, INF): "1.8041e-16",
            (INF, NORM): "0.17188", (INF, DEN): "0",
            (INF, NAN): "0.81250", (INF, INF): "0.015625",
        }
        for (src, dst), text in expect.items():
            assert decimal_str(m.entry(src, dst), 5) == text, (src, dst)
        for src in FpClass:
            assert sum(m.row(src).values()) == 1


def test_criterion_2_census_equals_model(capsys):
    with criterion(
        capsys, 2,
        "exhaustive censuses reproduce every closed form exactly", 10.0,
    ):
        formats = [FpFormat(2, 1), FpFormat(3, 2), FpFormat(4, 3), FpFormat(5, 10)]
        for fmt in formats:
            for cls in (NORM, DEN, NAN, INF):
                for conv in BucketConvention:
                    report = exhaustive_census(fmt, cls, conv)
                    verdict = compare(report)
                    assert verdict.passed, (
                        fmt.name, cls.value, conv.value,
                        [c.name for c in verdict.failures()],
                    )


def test_criterion_3_interval_probabilities(capsys):
    with criterion(
        capsys, 3,
        "error-magnitude interval probabilities match and sum to one", 1.0,
    ):
        p = interval_probabilities(BINARY64)
        assert decimal_str(p.ge_one, 5) == "0.10156"
        assert decimal_str(p.between_half_and_one, 5) == "0.078133"
        assert decimal_str(p.le_half, 5) == "0.82030"
        assert p.ge_one + p.between_half_and_one + p.le_half == 1
        s = interval_probabilities(BINARY64, BucketConvention.SEPARATED)
        assert s.ge_one + s.between_half_and_one + s.le_half + s.nonfinite == 1


def test_criterion_4_cdf_and_tolerance_bounds(capsys):
    with criterion(
        capsys, 4,
        "dyadic CDF and decimal tolerance brackets are exact", 1.0,
    ):
        for i in range(2, 53):
            assert cdf_dyadic(BINARY64, i) == Fraction(53 - i, 64)
        uppers = [50, 47, 44, 40, 37, 34, 30, 27, 24, 20, 17, 14, 10, 7, 4]
        table = tolerance_table(BINARY64)
        assert [tb.upper for tb in table] == [Fraction(u, 64) for u in uppers]
        b11 = decimal_threshold_bounds(BINARY64, Fraction(1, 10**11))
        assert b11.lower == Fraction(1, 4)
        b6 = decimal_threshold_bounds(BINARY64, Fraction(1, 10**6))
        assert b6.lower == Fraction(33, 64)


def test_criterion_5_error_bounds_hold(capsys):
    with criterion(
        capsys, 5,
        "per-flip error bound checks pass on samples and small formats", 60.0,
    ):
        rng = np.random.default_rng(5150)
        for cls in (NORM, DEN):
            bits = sample_class_bits(BINARY64, cls, rng, 100_000)
            report = bounds_sweep(BINARY64, bits)
            assert report.cases == 100_000 * 64
            assert report.violations == 0, report.violation_examples
        for fmt in TINY_FORMATS:
            everything = np.arange(1 << fmt.total_bits, dtype=np.uint64)
            report = bounds_sweep(fmt, everything)
            assert report.violations == 0, (fmt.name, report.violation_examples)
            assert report.cases == (1 << fmt.total_bits) * fmt.total_bits


def test_criterion_6_campaign_matches_model(capsys):
    with criterion(
        capsys, 6,
        "ten-million-sample campaign sits inside four sigma and reruns "
        "bit-identically", 60.0,
    ):
        config = CampaignConfig(BINARY64, NORM, 10_000_000, seed=20240823)
        report = run_campaign(config, workers=4)
        verdict = compare(report)
        assert verdict.passed, [(c.name, c.z) for c in verdict.failures()]
        again = run_campaign(config, workers=1)
        assert again == report


def test_criterion_7_structural_flip_properties(capsys):
    with criterion(
        capsys, 7,
        "flip involution, single-bit difference, and class partition hold", 30.0,
    ):
        for fmt in TINY_FORMATS:
            counts = {cls: 0 for cls in FpClass}
            for cls in FpClass:
                counts[cls] = sum(1 for _ in iter_class_words(fmt, cls))
            assert counts == {cls: class_size(fmt, cls) for cls in FpClass}
            assert sum(counts.values()) == 1 << fmt.total_bits
        rng = np.random.default_rng(7)
        bits = rng.integers(0, 2**64, size=1_000_000, dtype=np.uint64)
        for pos in range(64):
            words = bits[pos::64]
            flipped = flip_bits(words, pos)
            assert (flip_bits(flipped, pos) == words).all()
            assert ((words ^ flipped) == np.uint64(1 << pos)).all()


def test_criterion_8_cli_round_trip(capsys, tmp_path):
    with criterion(
        capsys, 8,
        "command line reproduces golden output with stable exit codes", 10.0,
    ):
        def run(*argv):
            code = main(list(argv))
            return code, capsys.readouterr().out

        code, out = run("table", "--csv")
        assert code == 0
        assert out == (GOLDEN / "table_binary64.csv").read_text()
        code, out = run("classify", "1.0")
        assert code == 0
        assert out == (GOLDEN / "classify_one_binary64.json").read_text()

        stream = tmp_path / "in.bin"
        data = struct.pack("<4d", 1.0, -2.0, 0.5, 8.0)
        stream.write_bytes(data)
        sink = tmp_path / "out.bin"
        code, out = run(
            "inject", "--in", str(stream), "--out", str(sink), "--count", "0"
        )
        assert code == 0
        assert sink.read_bytes() == data
        assert json.loads(out)["payload"]["event_count"] == 0

        _, first = run("sample", "--n", "20000", "--seed", "5")
        _, second = run("sample", "--n", "20000", "--seed", "5")
        assert first == second

        assert run("classify", "zzz")[0] == 2
        assert run("bounds", "--tol", "1e-16")[0] == 2
        assert run("sample", "--n", "20000", "--sigma", "1e-9")[0] == 3
