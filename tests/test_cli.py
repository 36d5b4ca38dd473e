"""Command-line interface: golden outputs, schemas, exit codes."""

from __future__ import annotations

import json
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import flip754
from flip754.cli import ENVELOPE_SCHEMA, PAYLOAD_SCHEMAS, main

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv: str) -> dict:
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# ── golden outputs ────────────────────────────────────────────────────────

GOLDEN_CASES = [
    (("table", "--csv"), "table_binary64.csv"),
    (("table",), "table_binary64.json"),
    (("intervals", "--csv"), "intervals_merged_binary64.csv"),
    (
        ("intervals", "--convention", "separated", "--csv"),
        "intervals_separated_binary64.csv",
    ),
    (("cdf", "--csv"), "cdf_binary64.csv"),
    (("bounds", "--csv"), "bounds_binary64.csv"),
    (("classify", "1.0"), "classify_one_binary64.json"),
]


@pytest.mark.parametrize("argv,filename", GOLDEN_CASES, ids=lambda v: str(v))
def test_golden_output(capsys, argv, filename):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / filename).read_text()


def test_console_script_matches_golden():
    """The declared console script reproduces the golden table.

    Without an installed script (a checkout used through PYTHONPATH), the
    `[project.scripts]` target named in pyproject.toml runs under this
    interpreter instead, the way the generated script would call it.
    """
    exe = shutil.which("flip754")
    env = None
    if exe:
        cmd = [exe]
    else:
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).parents[1] / "pyproject.toml"
        target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["flip754"]
        module, func = target.split(":")
        cmd = [sys.executable, "-c", f"import sys; from {module} import {func}; sys.exit({func}())"]
        package_root = str(Path(flip754.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [package_root, os.environ.get("PYTHONPATH")])
        )}
    out = subprocess.run(
        cmd + ["table", "--csv"], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert out == (GOLDEN / "table_binary64.csv").read_text()


# ── schema validation ─────────────────────────────────────────────────────


def schema_cases(tmp_path):
    stream = tmp_path / "in.bin"
    stream.write_bytes(struct.pack("<4d", 1.0, -2.0, 0.5, 3.25))
    out = tmp_path / "out.bin"
    return [
        ["classify", "0x7FF0000000000001"],
        ["classify", "nan"],
        ["classify", "--", "-inf"],
        ["classify", "3/7", "--format", "binary32"],
        ["flip", "1.0", "--bit", "63"],
        ["flip", "1.0", "--bit", "51"],
        ["flip", "1.0", "--bit", "62"],  # lands non-finite
        ["flip", "0x0000000000000003", "--bit", "52"],  # denormal exponent
        ["flip", "nan", "--bit", "0"],
        ["table"],
        ["table", "--format", "4,3"],
        ["intervals"],
        ["intervals", "--convention", "separated"],
        ["cdf"],
        ["cdf", "--i", "7"],
        ["bounds"],
        ["bounds", "--tol", "1/1000"],
        ["sample", "--n", "5000", "--seed", "3"],
        ["census", "--format", "3,2"],
        ["census", "--format", "2,1", "--class", "inf"],
        ["inject", "--in", str(stream), "--out", str(out), "--count", "2"],
    ]


def test_json_documents_validate(capsys, tmp_path):
    for argv in schema_cases(tmp_path):
        doc = run_json(capsys, *argv)
        jsonschema.validate(doc, ENVELOPE_SCHEMA)
        command = doc["command"]
        assert command == argv[0]
        jsonschema.validate(doc["payload"], PAYLOAD_SCHEMAS[command])


# ── exit codes ────────────────────────────────────────────────────────────


def test_exit_zero_on_success(capsys):
    code, out, _ = run_cli(capsys, "classify", "1.0")
    assert code == 0 and out


USAGE_ERRORS = [
    ("classify", "zzz"),
    ("classify", "1.0", "--format", "banana"),
    ("classify", "1.0", "--format", "1,1"),
    ("flip", "1.0", "--bit", "64"),
    ("flip", "1.0", "--bit", "-1"),
    ("cdf", "--i", "1"),
    ("cdf", "--i", "53"),
    ("bounds", "--tol", "1/2"),
    ("bounds", "--tol", "0"),
    ("bounds", "--tol", "1e-16"),
    ("census",),  # binary64 too wide to enumerate
    ("sample",),  # --n is required
    ("nonsense-command",),
    (),
]


@pytest.mark.parametrize("argv", USAGE_ERRORS, ids=lambda v: " ".join(v) or "<empty>")
def test_exit_two_on_usage_errors(capsys, argv):
    code, _, _ = run_cli(capsys, *argv)
    assert code == 2


def test_inject_usage_errors(capsys, tmp_path):
    stream = tmp_path / "in.bin"
    stream.write_bytes(struct.pack("<d", 1.0))
    out = tmp_path / "out.bin"
    base = ["inject", "--in", str(stream), "--out", str(out)]
    assert main(base + ["--rate", "0.1", "--count", "2"]) == 2
    assert main(base) == 2
    assert main(["inject", "--in", str(tmp_path / "no.bin"),
                 "--out", str(out), "--count", "1"]) == 2
    capsys.readouterr()


def test_exit_three_on_model_mismatch(capsys):
    code, out, _ = run_cli(
        capsys, "sample", "--n", "50000", "--sigma", "1e-9"
    )
    assert code == 3
    doc = json.loads(out)
    assert doc["payload"]["comparison"]["passed"] is False


def test_sample_passes_at_default_sigma(capsys):
    doc = run_json(capsys, "sample", "--n", "50000", "--seed", "1")
    assert doc["payload"]["comparison"]["passed"] is True


# ── behavior details ──────────────────────────────────────────────────────


def test_hex_and_decimal_inputs_agree(capsys):
    by_hex = run_json(capsys, "classify", "0x3FF0000000000000")["payload"]
    by_value = run_json(capsys, "classify", "1")["payload"]
    for key in ("word", "class", "fields", "value"):
        assert by_hex[key] == by_value[key]


def test_negative_and_subnormal_inputs(capsys):
    neg = run_json(capsys, "classify", "-1.5")["payload"]
    assert neg["word"] == "0xBFF8000000000000"
    tiny = run_json(capsys, "classify", "5e-324", "--format", "binary64")
    # smallest positive subnormal
    assert tiny["payload"]["word"] == "0x0000000000000001"
    assert tiny["payload"]["class"] == "denormalized"


def test_flip_sign_bit_reports_exact_two(capsys):
    doc = run_json(capsys, "flip", "1.0", "--bit", "63")
    payload = doc["payload"]
    assert payload["locus"] == {"field": "s", "index": 0}
    assert payload["error"] == {
        "kind": "finite", "ratio": "2", "decimal": "2.0000", "log2": 1.0,
    }
    assert payload["check"]["status"] == "conforms"
    assert payload["check"]["interval"]["exact_point"]["ratio"] == "2"


def test_flip_fraction_bit_reports_interval(capsys):
    doc = run_json(capsys, "flip", "1.0", "--bit", "51")
    payload = doc["payload"]
    assert payload["locus"] == {"field": "f", "index": 1}
    assert payload["error"]["ratio"] == "1/2"
    assert payload["check"]["interval"]["lower"]["ratio"] == "1/4"
    assert payload["check"]["interval"]["upper"]["ratio"] == "1/2"
    assert payload["check"]["status"] == "conforms"


def test_digits_option_changes_rendering(capsys):
    five = run_json(capsys, "intervals")["payload"]["buckets"]["ge_one"]
    ten = run_json(capsys, "intervals", "--digits", "10")
    ge_one = ten["payload"]["buckets"]["ge_one"]
    assert five["decimal"] == "0.10156"
    assert ge_one["decimal"] == "0.1015625000"
    assert five["ratio"] == ge_one["ratio"]


def test_sample_output_is_deterministic(capsys):
    argv = ("sample", "--n", "20000", "--seed", "5")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_inject_count_zero_is_identity(capsys, tmp_path):
    stream = tmp_path / "in.bin"
    data = struct.pack("<3d", 1.0, 2.0, -4.0)
    stream.write_bytes(data)
    out = tmp_path / "out.bin"
    doc = run_json(
        capsys, "inject", "--in", str(stream), "--out", str(out), "--count", "0"
    )
    assert out.read_bytes() == data
    assert doc["payload"]["event_count"] == 0
    assert doc["payload"]["events"] == []


def test_inject_is_deterministic(capsys, tmp_path):
    stream = tmp_path / "in.bin"
    stream.write_bytes(struct.pack("<8d", *[float(i) for i in range(8)]))
    out_a, out_b = tmp_path / "a.bin", tmp_path / "b.bin"
    doc_a = run_json(
        capsys, "inject", "--in", str(stream), "--out", str(out_a),
        "--count", "5", "--seed", "40",
    )
    doc_b = run_json(
        capsys, "inject", "--in", str(stream), "--out", str(out_b),
        "--count", "5", "--seed", "40",
    )
    assert out_a.read_bytes() == out_b.read_bytes()
    assert doc_a["payload"]["events"] == doc_b["payload"]["events"]


def test_census_reports_all_classes_and_passes(capsys):
    doc = run_json(capsys, "census", "--format", "4,3")
    payload = doc["payload"]
    assert payload["passed"] is True
    assert len(payload["entries"]) == 4
    sources = [e["report"]["source_class"] for e in payload["entries"]]
    assert sources == ["normalized", "denormalized", "nan", "inf"]
    for entry in payload["entries"]:
        assert entry["comparison"]["passed"] is True


def test_custom_format_envelope(capsys):
    doc = run_json(capsys, "table", "--format", "4,7")
    assert doc["format"] == {
        "name": "4,7", "exponent_bits": 4, "fraction_bits": 7,
        "total_bits": 12, "bias": 7,
    }


def test_python_dash_m_entry(tmp_path):
    out = subprocess.run(
        [sys.executable, "-m", "flip754.cli", "cdf", "--i", "10", "--csv"],
        capture_output=True, text=True,
    )
    assert out.returncode == 0
    assert out.stdout == "i,ratio,decimal\n10,43/64,0.67188\n"
