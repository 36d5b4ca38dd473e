"""Command-line interface: golden outputs, schemas, exit codes."""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import math
import os
import resource
import shutil
import struct
import subprocess
import sys
import tempfile
import tracemalloc
import types
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from unittest import mock

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import flip754
from flip754 import cli, fileio
from flip754.cli import CLI_SCHEMA, main
from flip754.formats import FpClass
from flip754.relerr import error_payload
from conftest import package_env

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
    (("census", "--format", "6,13"), "census_6_13.json"),
    (("census", "--format", "5,10", "--convention", "separated"), "census_5_10_separated.json"),
    # the widest census the CLI runs: 24-bit words, 2^14-word batches
    (("census", "--format", "8,15", "--class", "normalized"), "census_8_15_normalized.json"),
]


@pytest.mark.parametrize("argv,filename", GOLDEN_CASES, ids=lambda v: str(v))
def test_golden_output(capsys, argv, filename):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / filename).read_text()


# Inject goldens: a fixed input stream per case, then stdout and the output
# stream compared byte for byte.  The binary64 words cover normals,
# denormals, +-0, both NaN kinds and +-Inf.
B64_WORDS = [
    0x3FF0000000000000,  # 1.0
    0xC004000000000000,  # -2.5
    0x400921FB54442D18,  # pi
    0x01A56E1FC2F8F359,  # 1e-300
    0x0000000000000001,  # smallest denormal
    0x000FFFFFFFFFFFFF,  # largest denormal
    0x8000123456789ABC,  # negative denormal
    0x0010000000000000,  # smallest normal
    0x0000000000000000,  # +0
    0x8000000000000000,  # -0
    0x7FF8000000000000,  # quiet NaN
    0x7FF0000000000001,  # signalling NaN
    0x7FF0000000000000,  # +inf
    0xFFF0000000000000,  # -inf
    0x7FEFFFFFFFFFFFFF,  # largest finite
    0x3FB999999999999A,  # 0.1
]
B16_WORDS = [
    0x3C00, 0xC100, 0x0001, 0x03FF, 0x8200, 0x0400, 0x0000,
    0x8000, 0x7E00, 0x7C01, 0x7C00, 0xFC00, 0x7BFF, 0x3555,
]

# name -> (input words, struct word code with byte order, extra arguments)
INJECT_GOLDEN_CASES = {
    "inject_rate_binary64": (B64_WORDS, "<Q", ["--rate", "0.1", "--seed", "11"]),
    "inject_count_repeats": (B64_WORDS[:4], "<Q", ["--count", "40", "--seed", "5"]),
    "inject_binary16_big": (
        B16_WORDS, ">H",
        ["--format", "binary16", "--endian", "big", "--rate", "0.25", "--seed", "3"],
    ),
    "inject_digits3": (B64_WORDS, "<Q", ["--rate", "0.05", "--digits", "3", "--seed", "2"]),
}


@pytest.mark.parametrize("name", INJECT_GOLDEN_CASES)
def test_inject_matches_golden(capsys, tmp_path, name):
    words, code, extra = INJECT_GOLDEN_CASES[name]
    stream, out = tmp_path / "in.bin", tmp_path / "out.bin"
    stream.write_bytes(b"".join(struct.pack(code, w) for w in words))
    status, stdout, _ = run_cli(
        capsys, "inject", "--in", str(stream), "--out", str(out), *extra
    )
    assert status == 0
    assert stdout == (GOLDEN / f"{name}.json").read_text()
    assert out.read_bytes() == (GOLDEN / f"{name}.bin").read_bytes()


def test_inject_goldens_cover_repeated_words_and_sites():
    def events(name):
        return json.loads((GOLDEN / f"{name}.json").read_text())["payload"]["events"]

    # rate mode: some word takes two or more flips
    hits = [ev["word_index"] for ev in events("inject_rate_binary64")]
    assert max(hits.count(i) for i in set(hits)) >= 2
    # count mode: a site recurs with events on other words in between
    sites = [(ev["word_index"], ev["bit"]) for ev in events("inject_count_repeats")]
    assert any(
        sites[j] == sites[i] and any(s[0] != sites[i][0] for s in sites[i + 1 : j])
        for i in range(len(sites))
        for j in range(i + 1, len(sites))
    )


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
        env = package_env()
    out = subprocess.run(
        cmd + ["table", "--csv"], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert out == (GOLDEN / "table_binary64.csv").read_text()


# ── JSON output ───────────────────────────────────────────────────────────


def reference_dump(obj) -> str:
    buf = io.StringIO()
    json.dump(obj, buf, indent=2, sort_keys=True)
    return buf.getvalue()


def envelope(payload, fmt=flip754.BINARY64, command="flip") -> dict:
    return {"schema": CLI_SCHEMA, "command": command,
            "format": cli._format_payload(fmt), "payload": payload}


def emitted(payload, digits=5, events=None, fmt=flip754.BINARY64, command="flip") -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli._emit(fmt, command, payload, digits, events)
    return buf.getvalue()


def plain(obj, digits):
    """obj with each Fraction replaced by the dict `_emit` writes for it."""
    if isinstance(obj, Fraction):
        return {"decimal": flip754.decimal_str(obj, digits), "ratio": flip754.ratio_str(obj)}
    if isinstance(obj, dict):
        return {k: plain(v, digits) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(v, digits) for v in obj]
    return obj


SPECIAL_CHARS = ['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\t", "é", "\u2028", "\U0001F600"]
JSON_TEXT = st.text(st.one_of(st.characters(), st.sampled_from(SPECIAL_CHARS)), max_size=8)
SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, 1e308, math.nan, math.inf, -math.inf]
JSON_LEAVES = st.one_of(
    st.none(),
    st.sampled_from([True, False, 1, 0]),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200),
    st.integers(max_value=-(2**64)),
    st.floats(),
    st.sampled_from(SPECIAL_FLOATS),
    st.fractions(),
    JSON_TEXT,
)
JSON_TREES = st.recursive(
    JSON_LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(JSON_TEXT, children, max_size=4),
    ),
    max_leaves=30,
)
# Every special leaf, with empty containers at three depths.
SPECIAL_TREE = {
    "".join(SPECIAL_CHARS): ["".join(SPECIAL_CHARS), *SPECIAL_FLOATS],
    "ints": [2**64, -(2**70), True, 1, False, 0, None],
    "empty": [{}, [], (), {"": {"a": [], "b": {}}}],
    "t": (1, (2, [3, {}])),
    "q": [Fraction(1, 3), {"r": (Fraction(-7, 2),)}],
}


@given(JSON_TREES, st.integers(1, 20))
@example(SPECIAL_TREE, 5)
@settings(max_examples=300)
def test_writer_matches_json_dump(obj, digits):
    assert emitted(obj, digits) == reference_dump(envelope(plain(obj, digits))) + "\n"


# Every JSON golden the CLI wrote; campaign_tallies.json is a test_montecarlo
# fixture in a layout of its own.
CLI_GOLDEN_JSON = sorted(set(GOLDEN.glob("*.json")) - {GOLDEN / "campaign_tallies.json"})


@pytest.mark.parametrize("path", CLI_GOLDEN_JSON, ids=lambda p: p.name)
def test_writer_reemits_golden_json(path):
    text = path.read_text()
    assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text


@pytest.mark.parametrize(
    "obj", [np.int64(3), [np.int64(0)], {"a": [Decimal("0.5")]}, {"a": {1, 2}}],
    ids=repr,
)
def test_writer_rejects_other_types(obj):
    with pytest.raises(TypeError):
        emitted(obj)


# ── schema validation ─────────────────────────────────────────────────────

_PROB = {
    "type": "object",
    "required": ["ratio", "decimal"],
    "properties": {"ratio": {"type": "string"}, "decimal": {"type": "string"}},
}
_WORD = {
    "type": "object",
    "required": ["word", "class", "fields", "value"],
    "properties": {
        "word": {"type": "string", "pattern": "^0x[0-9A-F]+$"},
        "class": {"enum": [c.value for c in FpClass]},
        "fields": {
            "type": "object",
            "required": ["s", "e", "f"],
            "properties": {
                "s": {"type": "integer"},
                "e": {"type": "integer"},
                "f": {"type": "integer"},
            },
        },
        "value": {"type": "object", "required": ["kind"]},
    },
}
_ERROR = {
    "type": "object",
    "required": ["kind"],
    "properties": {"kind": {"enum": ["finite", "nonfinite", "undefined"]}},
}

ENVELOPE_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["schema", "command", "format", "payload"],
    "properties": {
        "schema": {"const": CLI_SCHEMA},
        "command": {"type": "string"},
        "format": {
            "type": "object",
            "required": [
                "name", "exponent_bits", "fraction_bits", "total_bits", "bias",
            ],
            "properties": {
                "name": {"type": "string"},
                "exponent_bits": {"type": "integer", "minimum": 2},
                "fraction_bits": {"type": "integer", "minimum": 1},
                "total_bits": {"type": "integer", "minimum": 4, "maximum": 64},
                "bias": {"type": "integer", "minimum": 1},
            },
        },
        "payload": {"type": "object"},
    },
}

PAYLOAD_SCHEMAS: dict[str, dict] = {
    "classify": {
        "type": "object",
        "required": ["input", "word", "class", "fields", "value"],
        "properties": {"input": {"type": "string"}, **_WORD["properties"]},
    },
    "flip": {
        "type": "object",
        "required": ["input", "bit", "locus", "before", "after", "error", "check"],
        "properties": {
            "bit": {"type": "integer", "minimum": 0},
            "locus": {
                "type": "object",
                "required": ["field", "index"],
                "properties": {
                    "field": {"enum": ["s", "e", "f"]},
                    "index": {"type": "integer", "minimum": 0},
                },
            },
            "before": _WORD,
            "after": _WORD,
            "error": _ERROR,
            "check": {
                "type": "object",
                "required": ["status", "note", "interval", "reference", "deviation"],
                "properties": {
                    "status": {
                        "enum": ["conforms", "violates", "informational"]
                    },
                },
            },
        },
    },
    "table": {
        "type": "object",
        "required": ["classes", "matrix"],
        "properties": {
            "classes": {
                "type": "array",
                "items": {"enum": [c.value for c in FpClass]},
            },
            "matrix": {
                "type": "object",
                "additionalProperties": {
                    "type": "object",
                    "additionalProperties": _PROB,
                },
            },
        },
    },
    "intervals": {
        "type": "object",
        "required": ["convention", "buckets", "sum"],
        "properties": {
            "convention": {"enum": ["merged", "separated"]},
            "buckets": {"type": "object", "additionalProperties": _PROB},
            "sum": {"const": "1"},
        },
    },
    "cdf": {
        "type": "object",
        "required": ["rows"],
        "properties": {
            "rows": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["i", "probability"],
                    "properties": {
                        "i": {"type": "integer", "minimum": 2},
                        "probability": _PROB,
                    },
                },
            },
        },
    },
    "bounds": {
        "type": "object",
        "required": ["rows"],
        "properties": {
            "rows": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["tolerance", "i_lower", "i_upper", "lower", "upper"],
                    "properties": {
                        "tolerance": {"type": "string"},
                        "i_lower": {"type": "integer", "minimum": 2},
                        "i_upper": {"type": "integer", "minimum": 2},
                        "lower": _PROB,
                        "upper": _PROB,
                    },
                },
            },
        },
    },
    "sample": {
        "type": "object",
        "required": ["report", "comparison"],
        "properties": {
            "report": {"type": "object", "required": ["schema", "kind"]},
            "comparison": {
                "type": "object",
                "required": ["schema", "kind", "passed", "cells"],
            },
        },
    },
    "census": {
        "type": "object",
        "required": ["entries", "passed"],
        "properties": {
            "passed": {"type": "boolean"},
            "entries": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["report", "comparison"],
                },
            },
        },
    },
    "inject": {
        "type": "object",
        "required": [
            "schema", "mode", "seed", "endian", "word_count", "site_count",
            "event_count", "transitions", "events",
        ],
        "properties": {
            "mode": {"enum": ["rate", "count"]},
            "events": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": [
                        "word_index", "bit", "before", "after",
                        "class_before", "class_after", "error",
                    ],
                },
            },
        },
    },
}



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


# ── tabular commands and options ──────────────────────────────────────────


def json_cells(command: str, payload: dict) -> list[list[str]]:
    """The payload of a tabular command as its CSV rows would hold it."""
    def prob(p):
        return [p["ratio"], p["decimal"]]

    if command == "table":
        return [[a, b, *prob(p)] for a, row in payload["matrix"].items() for b, p in row.items()]
    if command == "intervals":
        return [[name, *prob(p)] for name, p in payload["buckets"].items()]
    if command == "cdf":
        return [[str(r["i"]), *prob(r["probability"])] for r in payload["rows"]]
    return [
        [r["tolerance"], str(r["i_lower"]), str(r["i_upper"]), *prob(r["lower"]), *prob(r["upper"])]
        for r in payload["rows"]
    ]


TABULAR = [
    ("table",), ("intervals",), ("intervals", "--convention", "separated"),
    ("cdf",), ("cdf", "--i", "3"), ("bounds",), ("bounds", "--tol", "1/4"),
    ("bounds", "--tol", "1/5"),
]


@pytest.mark.parametrize("digits", ["3", "12"])
@pytest.mark.parametrize("spec", ["binary16", "4,3", "62,1"])
@pytest.mark.parametrize("argv", TABULAR, ids=" ".join)
def test_csv_and_json_give_the_same_cells(capsys, argv, spec, digits):
    argv = [*argv, "--format", spec, "--digits", digits]
    code, out, _ = run_cli(capsys, *argv)
    csv_code, csv_out, _ = run_cli(capsys, *argv, "--csv")
    assert code == csv_code
    if code != 0:  # 62,1 has no dyadic level finer than 1/2
        assert spec == "62,1" and argv[0] in ("bounds", "cdf") and out == csv_out == ""
        return
    header, *rows = list(csv.reader(io.StringIO(csv_out)))
    assert header[-2:] in (["ratio", "decimal"], ["upper_ratio", "upper_decimal"])
    assert sorted(rows) == sorted(json_cells(argv[0], json.loads(out)["payload"]))


COMMON_OPTIONS = {"--format": ("format", "binary64", None, False),
                  "--digits": ("digits", 5, None, False)}
CONVENTION = ("convention", "merged", ["merged", "separated"], False)
CLASSES = ["normalized", "denormalized", "nan", "inf"]
CSV = ("csv", False, None, False)
SEED = ("seed", 0, None, False)
WORD = ("value", None, None, True)

# flag (or positional name) -> (dest, default, choices, required), per subcommand
OPTION_SETS = {
    "classify": {"value": WORD},
    "flip": {"value": WORD, "--bit": ("bit", None, None, True)},
    "table": {"--csv": CSV},
    "intervals": {"--convention": CONVENTION, "--csv": CSV},
    "cdf": {"--i": ("i", None, None, False), "--csv": CSV},
    "bounds": {"--tol": ("tol", None, None, False), "--csv": CSV},
    "sample": {
        "--n": ("n", None, None, True),
        "--seed": SEED,
        "--class": ("source_class", "normalized", CLASSES, False),
        "--convention": CONVENTION,
        "--sigma": ("sigma", 4.0, None, False),
        "--min-p": ("min_p", 1e-6, None, False),
        "--workers": ("workers", 1, None, False),
        "--chunk-size": ("chunk_size", 65536, None, False),
    },
    "census": {"--class": ("source_class", None, CLASSES, False), "--convention": CONVENTION},
    "inject": {
        "--in": ("infile", None, None, True),
        "--out": ("outfile", None, None, True),
        "--rate": ("rate", None, None, False),
        "--count": ("count", None, None, False),
        "--seed": SEED,
        "--endian": ("endian", "little", ["little", "big"], False),
    },
}


def subparsers() -> dict[str, argparse.ArgumentParser]:
    parser = cli._build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_each_command_keeps_its_option_set():
    def plain(v):
        return getattr(v, "value", v)

    found = {
        name: {
            (a.option_strings[0] if a.option_strings else a.dest): (
                a.dest,
                plain(a.default),
                None if a.choices is None else [plain(c) for c in a.choices],
                a.required,
            )
            for a in sub._actions
            if not isinstance(a, argparse._HelpAction)
        }
        for name, sub in subparsers().items()
    }
    assert found == {name: {**COMMON_OPTIONS, **opts} for name, opts in OPTION_SETS.items()}
    parse = cli._build_parser().parse_args
    assert parse(["census"]).source_class is None
    assert parse(["sample", "--n", "1"]).source_class is FpClass.NORMALIZED
    assert parse(["census", "--class", "nan"]).source_class is FpClass.NAN
    assert parse(["intervals", "--convention", "separated"]).convention.value == "separated"


@pytest.mark.parametrize("command", OPTION_SETS)
def test_help_exits_zero(capsys, command):
    code, out, _ = run_cli(capsys, command, "--help")
    assert code == 0
    assert out.startswith(f"usage: flip754 {command}")


def test_flip_error_past_the_int_str_digit_limit(capsys):
    # e = 1 -> 2^14 + 1 on a 15-bit exponent: the error is exactly 2^16384 - 1.
    for digits, decimal in (("5", "1.1897e+4932"), ("12", "1.18973149536e+4932")):
        doc = run_json(capsys, "flip", "0x00010000", "--format", "15,16", "--bit", "30",
                       "--digits", digits)
        error = doc["payload"]["error"]
        assert error["ratio"].isdigit() and int(Decimal(error["ratio"])) == 2**16384 - 1
        assert error["decimal"] == decimal
        assert doc["payload"]["check"]["reference"] == {"ratio": error["ratio"], "decimal": decimal}


# Exact values and errors past `MAX_EXACT_BITS` are refused as usage errors.
def test_classify_refuses_a_value_past_the_exact_bit_limit(capsys):
    for word, spec in (("0x2", "62,1"), ("0x4", "40,23")):
        code, out, err = run_cli(capsys, "classify", word, "--format", spec)
        assert (code, out) == (2, "") and "past the limit" in err


def test_flip_refuses_an_error_past_the_exact_bit_limit(capsys):
    for bit in ("1", "40"):  # a value, then an error, past the limit
        code, out, err = run_cli(capsys, "flip", "0x3", "--format", "62,1", "--bit", bit)
        assert (code, out) == (2, "") and "past the limit" in err


def test_inject_refuses_an_error_past_the_exact_bit_limit(capsys, tmp_path):
    """Refused before the first byte of stdout, so no partial document prints."""
    stream = tmp_path / "in.bin"
    # (word, format, count, seed, refused bit): e = 1, f = 1 in 62,1, where the
    # first event is refused; e = 1, f = 0 in 36,27, where the eighth is
    cases = ((0x3, "62,1", 1, 2, 52), (0x8000000, "36,27", 200, 3, 61))
    for word, spec, count, seed, bit in cases:
        stream.write_bytes(struct.pack("<Q", word))
        code, out, err = run_cli(capsys, "inject", "--format", spec, "--in", str(stream),
                                 "--out", str(tmp_path / "out.bin"), "--count", str(count),
                                 "--seed", str(seed))
        assert (code, out) == (2, "")
        assert f"flipping bit {bit} " in err and "past the limit" in err


def test_refused_inject_writes_no_stream(capsys, tmp_path):
    """A refusal comes before any byte of the flipped stream: a fresh
    `--out` is never created, and an input named as its own `--out`
    keeps every byte."""
    stream = tmp_path / "in.bin"
    data = struct.pack("<64I", *[0x3FF00000] * 64)  # 2^-511 in 20,11
    for out_path in (tmp_path / "out.bin", stream):
        stream.write_bytes(data)
        code, out, err = run_cli(capsys, "inject", "--format", "20,11", "--in", str(stream),
                                 "--out", str(out_path), "--count", "100", "--seed", "1")
        assert (code, out) == (2, "") and "flipping bit 30 needs a shift" in err
        assert stream.read_bytes() == data
    assert not (tmp_path / "out.bin").exists()


def test_inject_words_refuses_as_the_cli_does():
    words = np.full(64, 0x3FF00000, dtype=np.uint64)  # the stream above
    with pytest.raises(ValueError, match="flipping bit 30 needs a shift"):
        flip754.inject_words(words, cli._parse_format("20,11"), seed=1, count=100)


def test_a_wide_format_inject_reads_its_stream_once(capsys, tmp_path, monkeypatch):
    # Zeros, infinities and NaNs of 20,11: no error is refused, so the whole
    # stream of three chunks is written.
    fmt = cli._parse_format("20,11")
    top = fmt.exponent_all_ones << fmt.fraction_bits
    words = np.array([0, top, top | 1] * (fileio.WORD_CHUNK + 5), dtype=np.uint64)
    stream, out = tmp_path / "in.bin", tmp_path / "out.bin"
    stream.write_bytes(flip754.words_to_bytes(words, fmt))
    read, calls = fileio._read_chunks, []
    monkeypatch.setattr(fileio, "_read_chunks", lambda *a: calls.append(a[1]) or read(*a))
    doc = run_json(capsys, "inject", "--format", "20,11", "--in", str(stream),
                   "--out", str(out), "--rate", "1e-5", "--seed", "5")
    flipped, summary = flip754.inject_words(words, fmt, seed=5, rate=1e-5)
    assert calls == [words.size] and doc["payload"]["event_count"] == summary.word_index.size > 0
    assert out.read_bytes() == flip754.words_to_bytes(flipped, fmt)


@pytest.mark.parametrize("spec", ["binary64", "20,11", "30,33", "62,1"])
def test_zero_prints_at_every_width(capsys, spec):
    """Zero is exact whatever the format's scale, down to -0 in 62,1."""
    sign_bit = cli._parse_format(spec).total_bits - 1
    for word, s in (("0x0", 0), ("0", 0), ("-0", 1)):
        payload = run_json(capsys, "classify", word, "--format", spec)["payload"]
        assert payload["fields"] == {"s": s, "e": 0, "f": 0}
        assert payload["value"] == {
            "kind": "finite", "sign": 1 - 2 * s, "ratio": "0", "decimal": "0",
            "log2_magnitude": None,
        }
    for word, s in (("0x0", 0), ("-0", 1)):
        payload = run_json(capsys, "flip", word, "--format", spec, "--bit", str(sign_bit))["payload"]
        assert payload["before"]["fields"] == {"s": s, "e": 0, "f": 0}
        assert payload["after"]["fields"] == {"s": 1 - s, "e": 0, "f": 0}
        assert payload["after"]["value"]["ratio"] == "0"
        assert payload["error"] == {"kind": "undefined"}
        assert payload["check"]["status"] == "informational"


@pytest.mark.parametrize("spec, word", [("62,1", 0x3), ("23,8", 0x100)])
def test_inject_of_every_exponent_flip_is_refused_within_seconds(tmp_path, spec, word):
    # At rate 1 every bit of the one word flips.  In 23,8 the top exponent
    # entry has place value 2^22, whose error took minutes to print when
    # the limit let it through.
    fmt = cli._parse_format(spec)
    stream = tmp_path / "in.bin"
    stream.write_bytes(flip754.words_to_bytes(np.array([word], dtype=np.uint64), fmt))
    out = subprocess.run(
        [sys.executable, "-m", "flip754", "inject", "--format", spec, "--rate", "1.0",
         "--seed", "0", "--in", str(stream), "--out", str(tmp_path / "out.bin")],
        capture_output=True, text=True, timeout=10, env=package_env(),
    )
    assert (out.returncode, out.stdout) == (2, "") and "past the limit" in out.stderr


# A decimal literal past 10^+-DECIMAL_EXPONENT_LIMIT is never built as an
# exact rational.  Each case below ran past 60 s (30,33) or took 30 s
# (binary64) when it was.
FAR_LITERALS = [
    (("classify", "1e-2000000", "--format", "30,33"), None),
    (("classify", "1e2000000", "--format", "30,33"), None),
    (("classify", "1e-20000000"), ("classify", "0")),
    (("classify", "-1e999999999999999999"), ("classify", "-inf")),
    (("flip", "-1e-30000000", "--bit", "63"), ("flip", "-0", "--bit", "63")),
]


@pytest.mark.parametrize("argv, nearest", FAR_LITERALS, ids=lambda v: v and " ".join(v))
def test_far_decimal_literals_finish_within_seconds(capsys, argv, nearest):
    out = subprocess.run([sys.executable, "-m", "flip754", *argv], capture_output=True,
                         text=True, timeout=30, env=package_env())
    if nearest is None:
        assert (out.returncode, out.stdout) == (2, "")
        assert "past the limit of 65536 bits" in out.stderr
    else:
        code, want, _ = run_cli(capsys, *nearest)
        want = want.replace(f'"input": "{nearest[1]}"', f'"input": "{argv[1]}"')
        assert (out.returncode, out.stdout) == (code, want) == (0, want)


def test_decimal_exponent_limit_keeps_nearer_literals_on_the_exact_path(capsys):
    assert cli.DECIMAL_EXPONENT_LIMIT == 20_000
    code, out, err = run_cli(capsys, "classify", "9.9e20000", "--format", "30,33")
    assert (code, out) == (2, "") and "needs a scale of 2^66408, past the limit" in err
    code, out, err = run_cli(capsys, "classify", "1e20001", "--format", "30,33")
    assert (code, out) == (2, "") and "past 10^+-20000" in err


def test_far_decimal_literal_is_read_only_where_its_whole_decade_rounds_alike():
    """Format 18,13 overflows near 10^39457 and underflows near 10^-39461,
    both past the limit.  A literal there reads as the word that exact
    rounding gives both ends of its decade, or is refused where that
    decade holds a finite nonzero word."""
    fmt = cli._parse_format("18,13")
    inf = fmt.exponent_all_ones << fmt.fraction_bits
    sign = 1 << (fmt.total_bits - 1)
    seen = Counter()
    for a in (*range(-39464, -39457), *range(39453, 39461)):
        ends = {flip754.encode_nearest(fmt, Fraction(10) ** a * q).bits
                for q in (1, 10 - Fraction(1, 10**30))}
        try:
            w = cli._parse_word(fmt, f"-5e{a}")
        except ValueError as exc:
            assert "past the limit of 65536 bits" in str(exc)
            assert ends - {0, inf}
            seen["refused"] += 1
        else:
            assert ends == {w.bits ^ sign}
            seen[w.bits ^ sign] += 1
    assert set(seen) == {0, inf, "refused"}


def test_bounds_past_resolution_names_a_tolerance_of_any_size(capsys):
    """1/10^5000 has more digits than CPython's int-to-str limit."""
    code, out, err = run_cli(capsys, "bounds", "--tol", "1e-5000")
    assert (code, out) == (2, "")
    assert f"tolerance 1/1{'0' * 5000} needs dyadic level 2^-16610, finer than" in err


@pytest.mark.parametrize("tol, refusal", [
    ("1e-2000000", "lies below 10^-20000, finer than the format's resolution 2^-52"),
    ("1e-20000000", "lies below 10^-20000, finer than the format's resolution 2^-52"),
    ("-1e-2000000", "tolerance must lie in (0, 1/4]"),
    ("1e2000000", "tolerance must lie in (0, 1/4]"),
])
def test_far_decimal_tolerances_are_refused_within_seconds(tol, refusal):
    """A `--tol` literal past 10^+-DECIMAL_EXPONENT_LIMIT is judged from its
    exponent alone; 1e-2000000 took 72 s to build its refusal message
    when it was first read as an exact rational."""
    out = subprocess.run([sys.executable, "-m", "flip754", "bounds", f"--tol={tol}"],
                         capture_output=True, text=True, timeout=30, env=package_env())
    assert (out.returncode, out.stdout) == (2, "") and refusal in out.stderr


# ── package API ───────────────────────────────────────────────────────────

API_MODULES = ("formats", "relerr", "analytic", "montecarlo", "fileio", "rationals")


def test_package_api_is_the_union_of_the_module_lists():
    """Each public name is declared once, in its module's `__all__`, and the
    package's name resolves to that module's object, not a namesake."""
    names = flip754.__all__
    assert len(names) == len(set(names)) == 66 and names[0] == "__version__"
    owners = Counter()
    for module in map(vars(flip754).get, API_MODULES):
        owners.update(module.__all__)
        for name in module.__all__:
            assert getattr(flip754, name) is getattr(module, name), name
    assert max(owners.values()) == 1 and sorted(owners) == sorted(names[1:])
    public = {n for n, v in vars(flip754).items() if not n.startswith("_")
              and not isinstance(v, types.ModuleType)}
    assert public == set(names[1:])


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


@pytest.mark.parametrize("word", ["-2.5e-310", "-inf", "-nan", "-1/3", "-1e5"])
def test_negative_words_need_no_separator(capsys, word):
    for argv, separated in (
        (["classify", word], ["classify", "--", word]),
        (["flip", word, "--bit", "3"], ["flip", "--bit", "3", "--", word]),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert run_cli(capsys, *separated)[:2] == (0, out)


@pytest.mark.parametrize("argv", [
    ("classify", "-x"),
    ("classify", "1.0", "--bogus"),
    ("classify", "-inf", "-x"),
    ("flip", "-x", "--bit", "3"),
], ids=" ".join)
def test_unknown_options_are_still_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "") and err.startswith("usage: flip754")


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


def test_inject_count_too_large_to_draw_is_an_input_error(tmp_path):
    """A count whose event columns cannot be allocated exits 2 with one
    message line, before the output stream is opened.  The child's address
    space is capped, so the allocation fails on any host."""
    stream = tmp_path / "in.bin"
    stream.write_bytes(struct.pack("<4d", 1.0, 2.0, 3.0, 4.0))
    out = tmp_path / "out.bin"

    def cap_address_space():
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        cap = 4 << 30 if hard == resource.RLIM_INFINITY else min(4 << 30, hard)
        resource.setrlimit(resource.RLIMIT_AS, (cap, hard))

    proc = subprocess.run(
        [sys.executable, "-m", "flip754", "inject", "--in", str(stream), "--out", str(out),
         "--count", "1000000000000"],
        capture_output=True, text=True, timeout=60, env=package_env(),
        preexec_fn=cap_address_space,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("flip754: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_exit_three_on_model_mismatch(capsys):
    code, out, _ = run_cli(
        capsys, "sample", "--n", "50000", "--sigma", "1e-9"
    )
    assert code == 3
    doc = json.loads(out)
    assert doc["payload"]["comparison"]["passed"] is False


@pytest.mark.parametrize("argv", [
    ("--sigma", "-1"), ("--sigma", "nan"), ("--sigma", "inf"), ("--sigma", "0"),
    ("--min-p", "0.5"), ("--min-p", "-0.1"), ("--min-p", "nan"),
], ids=" ".join)
def test_sample_thresholds_that_judge_nothing_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, "sample", "--n", "1000", *argv)
    assert (code, out) == (2, "") and f"argument {argv[0]}: must" in err


def test_sample_with_every_cell_skipped_exits_three(capsys):
    code, out, _ = run_cli(capsys, "sample", "--n", "1000", "--format", "3,2", "--min-p", "0.499")
    assert code == 3
    cells = json.loads(out)["payload"]["comparison"]["cells"]
    assert all(c["passed"] is None for c in cells)


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


# ── inject rendering ──────────────────────────────────────────────────────
#
# The CLI renders inject events from the summary's columns while it
# writes, each chunk's errors by `relerr.error_rows`.  The reference
# builds every event as a dict from the same columns with the scalar
# `Word.hex`, `classify` and `relerr.error_payload`; written by
# `json.dump`, that dict form is the reference for every byte.


def reference_inject_stdout(words, fmt, digits, **draw) -> str:
    _, summary = flip754.inject_words(np.array(words, dtype=np.uint64), fmt, **draw)
    events = [
        {
            "word_index": ev.word_index,
            "bit": ev.position,
            "before": ev.before.hex(),
            "after": ev.after.hex(),
            "class_before": flip754.classify(ev.before).value,
            "class_after": flip754.classify(ev.after).value,
            "error": error_payload(fmt, ev.before.bits, ev.position, digits),
        }
        for ev in summary.events
    ]
    payload = {**summary.header_payload(), "events": events}
    return reference_dump(envelope(payload, fmt, "inject")) + "\n"


def cli_inject_stdout(directory, spec, words, digits, endian, **draw) -> str:
    fmt = cli._parse_format(spec)
    stream, out = Path(directory) / "in.bin", Path(directory) / "out.bin"
    stream.write_bytes(flip754.words_to_bytes(np.array(words, dtype=np.uint64), fmt, endian))
    argv = ["inject", "--format", spec, "--in", str(stream), "--out", str(out),
            "--digits", str(digits), "--endian", endian, "--seed", str(draw["seed"])]
    argv += ["--rate", repr(draw["rate"])] if "rate" in draw else ["--count", str(draw["count"])]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    return buf.getvalue()


def class_words(fmt):
    """Words of every source class: normalized, denormal, zero, NaN, Inf."""
    top, fmask = fmt.exponent_all_ones, fmt.fraction_mask

    def compose(sign, e, f):
        return (sign << (fmt.total_bits - 1)) | (e << fmt.fraction_bits) | f

    sign = st.integers(0, 1)
    return st.one_of(
        st.builds(compose, sign, st.integers(1, top - 1), st.integers(0, fmask)),
        st.builds(compose, sign, st.sampled_from([0, top]), st.integers(0, fmask)),
        st.builds(compose, sign, st.sampled_from([0, top]), st.just(0)),
    )


# Whole-byte formats for the CLI, with hex widths of 2, 4, 6, 8 and 16 digits.
INJECT_SPECS = ["binary16", "binary32", "binary64", "3,4", "2,5", "6,17", "4,11"]


@st.composite
def inject_cases(draw, specs=INJECT_SPECS):
    spec = draw(st.sampled_from(specs))
    fmt = cli._parse_format(spec)
    pool = draw(st.lists(class_words(fmt), min_size=1, max_size=5))
    words = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))  # repeats
    if draw(st.booleans()):
        mode = {"rate": draw(st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)))}
    else:
        mode = {"count": draw(st.integers(0, 40))}
    return spec, words, draw(st.integers(1, 17)), draw(st.sampled_from(["little", "big"])), {
        "seed": draw(st.integers(0, 2**32)), **mode,
    }


@given(inject_cases(), st.sampled_from([1, 2, 3, 5, fileio.WORD_CHUNK]),
       st.sampled_from([1, 2, 3, 7, fileio.EVENT_CHUNK]))
@settings(max_examples=150, deadline=None)
def test_inject_stdout_matches_the_dict_reference(case, word_chunk, event_chunk):
    # Small word and event chunks put chunk edges between events on
    # neighbouring words and make counts of chunk - 1, chunk and chunk + 1 common.
    spec, words, digits, endian, draw = case
    fmt = cli._parse_format(spec)
    with tempfile.TemporaryDirectory() as directory, \
            mock.patch.object(fileio, "WORD_CHUNK", word_chunk), \
            mock.patch.object(fileio, "EVENT_CHUNK", event_chunk):
        got = cli_inject_stdout(directory, spec, words, digits, endian, **draw)
        assert got == reference_inject_stdout(words, fmt, digits, endian=endian, **draw)


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_inject_stdout_matches_the_dict_reference_at_the_event_chunk(tmp_path, offset):
    count = fileio.EVENT_CHUNK + offset
    words = [0x3FF0000000000000, 0x0000000000000003, 0x7FF0000000000000, 0]
    got = cli_inject_stdout(tmp_path, "binary64", words, 7, "little", seed=4, count=count)
    assert got == reference_inject_stdout(words, flip754.BINARY64, 7, seed=4, count=count)
    payload = json.loads(got)["payload"]
    assert payload["event_count"] == count
    # The transitions, summed a chunk at a time, against the events' own classes.
    pairs = Counter((ev["class_before"], ev["class_after"]) for ev in payload["events"])
    transitions = payload["transitions"]
    assert {(a, b): n for a, row in transitions.items() for b, n in row.items() if n} == pairs


@given(inject_cases(["3,2", "2,1", "5,2"]))
@settings(max_examples=60, deadline=None)
def test_event_rendering_matches_the_dict_reference_on_narrow_formats(case):
    # Words narrower than a byte cannot be streamed; render their events
    # through `_emit` directly, with 1- and 2-digit hex.
    spec, words, digits, endian, draw = case
    fmt = cli._parse_format(spec)
    _, summary = flip754.inject_words(np.array(words, dtype=np.uint64), fmt, **draw)
    got = emitted(summary.header_payload(), digits,
                  functools.partial(summary.event_json, digits), fmt, "inject")
    assert got == reference_inject_stdout(words, fmt, digits, **draw)


@pytest.mark.parametrize("digits", [1, 5, 17])
@pytest.mark.parametrize("spec", ["binary64", "binary16", "5,2"])
def test_to_payload_equals_the_printed_payload(tmp_path, spec, digits):
    # Chunks of 3 events put chunk edges inside the list.  The words are a
    # denormal, a NaN and the four values below.  5,2 words are narrower
    # than a byte, so its events go through `_emit` directly.
    fmt = cli._parse_format(spec)
    values = (1, Fraction(3, 7), 0, 10**400)  # normalized twice, zero, Inf
    words = [1, fmt.word_mask >> 1]
    words += [flip754.encode_nearest(fmt, Fraction(q)).bits for q in values]
    draw = {"seed": 11, "count": 40}
    _, summary = flip754.inject_words(np.array(words, dtype=np.uint64), fmt, **draw)
    with mock.patch.object(fileio, "EVENT_CHUNK", 3):
        if fmt.total_bits % 8:
            out = emitted(summary.header_payload(), digits,
                          functools.partial(summary.event_json, digits), fmt, "inject")
        else:
            out = cli_inject_stdout(tmp_path, spec, words, digits, "little", **draw)
        assert summary.to_payload(digits) == json.loads(out)["payload"]


def inject_emit_peak(directory, count) -> int:
    """Traced peak bytes from the end of `inject_file` to the end of the CLI run.

    The summary's columns already exist at the start, so only what the
    payload and the writer allocate counts.
    """
    stream, out = Path(directory) / "in.bin", Path(directory) / "out.bin"
    stream.write_bytes(struct.pack("<64d", *[1.5 ** i for i in range(64)]))
    base = []

    def inject_then_mark(*args, **kwargs):
        summary = fileio.inject_file(*args, **kwargs)
        tracemalloc.reset_peak()
        base.append(tracemalloc.get_traced_memory()[0])
        return summary

    argv = ["inject", "--in", str(stream), "--out", str(out), "--count", str(count)]
    with mock.patch.object(cli, "inject_file", inject_then_mark), \
            open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak - base[0]


def test_inject_emit_memory_does_not_grow_with_the_event_count(tmp_path):
    small = inject_emit_peak(tmp_path, fileio.EVENT_CHUNK)
    large = inject_emit_peak(tmp_path, 8 * fileio.EVENT_CHUNK)
    assert large <= 1.5 * small, (small, large)


def test_sample_judges_near_certain_cells_without_dividing_by_zero(capsys):
    # On 62,1 staying normalized has p = 1 - 31/2^67, and float(p) is 1.
    doc = run_json(capsys, "sample", "--format", "62,1", "--n", "30000", "--seed", "5")
    cells = {c["name"]: c for c in doc["payload"]["comparison"]["cells"]}
    assert cells["to_normalized"]["passed"] is None
    assert doc["payload"]["comparison"]["passed"] is True


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
