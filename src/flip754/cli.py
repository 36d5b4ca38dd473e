"""Command-line front end: flip754 <command> [options].

Every command prints one JSON envelope to stdout:

    {"schema": "flip754/cli-v1", "command": ..., "format": ..., "payload": ...}

with exact probabilities and errors rendered both as lowest-terms
ratios and as fixed-significant-digit decimals.  The tabular commands
(table, intervals, cdf, bounds) switch to CSV with --csv.

Exit codes: 0 success; 2 usage or input error; 3 an empirical check
(sample, census) disagreed with the closed-form model.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction

from ._vector import CLASS_ORDER
from .analytic import (
    BucketConvention,
    cdf_dyadic,
    decimal_threshold_bounds,
    interval_probabilities,
    tolerance_table,
    transition_matrix,
)
from .fileio import inject_file
from .formats import (
    _STANDARD,
    FpClass,
    FpFormat,
    ValueKind,
    Word,
    classify,
    decode_fields,
    decode_value,
    encode_nearest,
    parse_hex_word,
    recompose,
)
from .inject import transition
from .montecarlo import (
    CampaignConfig,
    compare,
    exhaustive_census,
    run_campaign,
)
from .rationals import decimal_str, log2_value, parse_rational, ratio_str
from .relerr import CheckStatus, ErrorInterval, ErrorKind, RelativeError, check_bounds

__all__ = ["main", "CLI_SCHEMA", "ENVELOPE_SCHEMA", "PAYLOAD_SCHEMAS"]

CLI_SCHEMA = "flip754/cli-v1"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISMATCH = 3


# ── argument parsing ──────────────────────────────────────────────────────


def _parse_format(text: str) -> FpFormat:
    t = text.strip().lower()
    if t in _STANDARD:
        return _STANDARD[t]
    parts = t.split(",")
    if len(parts) == 2:
        try:
            return FpFormat(int(parts[0]), int(parts[1]))
        except ValueError as exc:
            raise ValueError(f"bad format {text!r}: {exc}") from None
    raise ValueError(
        f"unknown format {text!r}; use binary16/binary32/binary64 or 'w_e,w_f'"
    )


def _parse_word(fmt: FpFormat, text: str) -> Word:
    """A word from a hex pattern, a rational/decimal literal, inf, or nan."""
    t = text.strip()
    low = t.lower()
    if low.startswith("0x"):
        return parse_hex_word(fmt, t)
    sign = 1 if low.startswith("-") else 0
    body = low.lstrip("+-")
    if body in ("inf", "infinity"):
        return recompose(fmt, sign, fmt.exponent_all_ones, 0)
    if body == "nan":
        # canonical quiet NaN: highest fraction entry set
        return recompose(fmt, sign, fmt.exponent_all_ones, 1 << (fmt.fraction_bits - 1))
    return encode_nearest(fmt, abs(parse_rational(t)), sign)


def _positive_int(text: str) -> int:
    v = int(text)
    if v < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return v


def _nonneg_int(text: str) -> int:
    v = int(text)
    if v < 0:
        raise argparse.ArgumentTypeError("must be a non-negative integer")
    return v


def _class_arg(text: str) -> FpClass:
    return FpClass(text)


def _convention_arg(text: str) -> BucketConvention:
    return BucketConvention(text)


# ── payload rendering ─────────────────────────────────────────────────────


def _prob(q: Fraction, digits: int) -> dict:
    return {"ratio": ratio_str(q), "decimal": decimal_str(q, digits)}


def _format_payload(fmt: FpFormat) -> dict:
    return {
        "name": fmt.name,
        "exponent_bits": fmt.exponent_bits,
        "fraction_bits": fmt.fraction_bits,
        "total_bits": fmt.total_bits,
        "bias": fmt.bias,
    }


def _word_payload(w: Word, digits: int) -> dict:
    s, e, f = decode_fields(w)
    return {
        "word": w.hex(),
        "class": classify(w).value,
        "fields": {"s": s, "e": e, "f": f},
        "value": _value_payload(w, digits),
    }


def _value_payload(w: Word, digits: int) -> dict:
    v = decode_value(w)
    if v.kind is ValueKind.NAN:
        return {"kind": "nan"}
    if v.kind is ValueKind.INF:
        return {"kind": "inf", "sign": v.sign}
    q = v.as_fraction()
    return {
        "kind": "finite",
        "sign": v.sign,
        "ratio": ratio_str(q),
        "decimal": decimal_str(q, digits),
        "log2_magnitude": log2_value(abs(q)),
    }


def _error_payload(err: RelativeError, digits: int) -> dict:
    if err.kind is not ErrorKind.FINITE:
        return {"kind": err.kind.value}
    assert err.value is not None
    return {
        "kind": "finite",
        "ratio": ratio_str(err.value),
        "decimal": decimal_str(err.value, digits),
        "log2": log2_value(err.value),
    }


def _interval_payload(iv: ErrorInterval | None, digits: int) -> dict | None:
    if iv is None:
        return None
    return {
        "lower": _prob(iv.lower, digits),
        "lower_open": iv.lower_open,
        "upper": None if iv.upper is None else _prob(iv.upper, digits),
        "upper_open": iv.upper_open,
        "exact_point": None
        if iv.exact_point is None
        else _prob(iv.exact_point, digits),
    }


def _emit(fmt: FpFormat, command: str, payload: dict) -> None:
    doc = {
        "schema": CLI_SCHEMA,
        "command": command,
        "format": _format_payload(fmt),
        "payload": payload,
    }
    print(json.dumps(doc, indent=2, sort_keys=True))


def _emit_csv(header: list[str], rows: list[list[str]]) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


# ── command handlers ──────────────────────────────────────────────────────


def _cmd_classify(fmt: FpFormat, args: argparse.Namespace) -> int:
    w = _parse_word(fmt, args.value)
    payload = {"input": args.value, **_word_payload(w, args.digits)}
    _emit(fmt, "classify", payload)
    return EXIT_OK


def _cmd_flip(fmt: FpFormat, args: argparse.Namespace) -> int:
    w = _parse_word(fmt, args.value)
    rec = transition(w, args.bit)
    chk = check_bounds(w, args.bit)
    payload = {
        "input": args.value,
        "bit": rec.position,
        "locus": {"field": rec.locus.field.value, "index": rec.locus.index},
        "before": _word_payload(rec.before, args.digits),
        "after": _word_payload(rec.after, args.digits),
        "error": _error_payload(chk.error, args.digits),
        "check": {
            "status": chk.status.value,
            "note": chk.note,
            "interval": _interval_payload(chk.interval, args.digits),
            "reference": None
            if chk.reference is None
            else _prob(chk.reference, args.digits),
            "deviation": None
            if chk.deviation is None
            else {"ratio": ratio_str(chk.deviation)},
        },
    }
    _emit(fmt, "flip", payload)
    return EXIT_OK


def _cmd_table(fmt: FpFormat, args: argparse.Namespace) -> int:
    m = transition_matrix(fmt)
    if args.csv:
        rows = [
            [src.value, dst.value, ratio_str(m.entry(src, dst)),
             decimal_str(m.entry(src, dst), args.digits)]
            for src in CLASS_ORDER
            for dst in CLASS_ORDER
        ]
        _emit_csv(["from", "to", "ratio", "decimal"], rows)
        return EXIT_OK
    payload = {
        "classes": [c.value for c in CLASS_ORDER],
        "matrix": {
            src.value: {
                dst.value: _prob(m.entry(src, dst), args.digits)
                for dst in CLASS_ORDER
            }
            for src in CLASS_ORDER
        },
    }
    _emit(fmt, "table", payload)
    return EXIT_OK


def _cmd_intervals(fmt: FpFormat, args: argparse.Namespace) -> int:
    p = interval_probabilities(fmt, args.convention)
    buckets = {
        "ge_one": p.ge_one,
        "between_half_and_one": p.between_half_and_one,
        "le_half": p.le_half,
    }
    if p.nonfinite is not None:
        buckets["nonfinite"] = p.nonfinite
    if args.csv:
        rows = [
            [name, ratio_str(q), decimal_str(q, args.digits)]
            for name, q in buckets.items()
        ]
        _emit_csv(["bucket", "ratio", "decimal"], rows)
        return EXIT_OK
    payload = {
        "convention": args.convention.value,
        "buckets": {k: _prob(q, args.digits) for k, q in buckets.items()},
        "sum": ratio_str(sum(buckets.values())),
    }
    _emit(fmt, "intervals", payload)
    return EXIT_OK


def _cmd_cdf(fmt: FpFormat, args: argparse.Namespace) -> int:
    levels = [args.i] if args.i is not None else list(range(2, fmt.fraction_bits + 1))
    entries = [(i, cdf_dyadic(fmt, i)) for i in levels]
    if args.csv:
        rows = [
            [str(i), ratio_str(q), decimal_str(q, args.digits)] for i, q in entries
        ]
        _emit_csv(["i", "ratio", "decimal"], rows)
        return EXIT_OK
    payload = {
        "rows": [
            {"i": i, "probability": _prob(q, args.digits)} for i, q in entries
        ]
    }
    _emit(fmt, "cdf", payload)
    return EXIT_OK


def _cmd_bounds(fmt: FpFormat, args: argparse.Namespace) -> int:
    if args.tol is not None:
        table = [decimal_threshold_bounds(fmt, parse_rational(args.tol))]
    else:
        table = tolerance_table(fmt)
    if args.csv:
        rows = [
            [ratio_str(tb.tolerance), str(tb.i_lower), str(tb.i_upper),
             ratio_str(tb.lower), decimal_str(tb.lower, args.digits),
             ratio_str(tb.upper), decimal_str(tb.upper, args.digits)]
            for tb in table
        ]
        _emit_csv(
            ["tolerance", "i_lower", "i_upper", "lower_ratio", "lower_decimal",
             "upper_ratio", "upper_decimal"],
            rows,
        )
        return EXIT_OK
    payload = {
        "rows": [
            {
                "tolerance": ratio_str(tb.tolerance),
                "i_lower": tb.i_lower,
                "i_upper": tb.i_upper,
                "lower": _prob(tb.lower, args.digits),
                "upper": _prob(tb.upper, args.digits),
            }
            for tb in table
        ]
    }
    _emit(fmt, "bounds", payload)
    return EXIT_OK


def _cmd_sample(fmt: FpFormat, args: argparse.Namespace) -> int:
    config = CampaignConfig(
        fmt=fmt,
        source_class=args.source_class,
        sample_count=args.n,
        seed=args.seed,
        convention=args.convention,
        chunk_size=args.chunk_size,
    )
    report = run_campaign(config, workers=args.workers)
    verdict = compare(
        transition_matrix(fmt), report, sigma=args.sigma, min_p=args.min_p
    )
    payload = {"report": report.to_payload(), "comparison": verdict.to_payload()}
    _emit(fmt, "sample", payload)
    return EXIT_OK if verdict.passed else EXIT_MISMATCH


def _cmd_census(fmt: FpFormat, args: argparse.Namespace) -> int:
    classes = [args.source_class] if args.source_class else list(CLASS_ORDER)
    matrix = transition_matrix(fmt)
    entries = []
    all_passed = True
    for cls in classes:
        report = exhaustive_census(fmt, cls, args.convention)
        verdict = compare(matrix, report)
        all_passed &= verdict.passed
        entries.append(
            {"report": report.to_payload(), "comparison": verdict.to_payload()}
        )
    _emit(fmt, "census", {"entries": entries, "passed": all_passed})
    return EXIT_OK if all_passed else EXIT_MISMATCH


def _cmd_inject(fmt: FpFormat, args: argparse.Namespace) -> int:
    if (args.rate is None) == (args.count is None):
        print("flip754: give exactly one of --rate and --count", file=sys.stderr)
        return EXIT_USAGE
    summary = inject_file(
        args.infile,
        args.outfile,
        fmt,
        seed=args.seed,
        rate=args.rate,
        count=args.count,
        endian=args.endian,
    )
    _emit(fmt, "inject", summary.to_payload(args.digits))
    return EXIT_OK


# ── parser ────────────────────────────────────────────────────────────────


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        default="binary64",
        help="binary16, binary32, binary64, or 'w_e,w_f' (default binary64)",
    )
    common.add_argument(
        "--digits",
        type=_positive_int,
        default=5,
        help="significant digits for decimal rendering (default 5)",
    )

    parser = argparse.ArgumentParser(
        prog="flip754",
        description="Single bit flips in binary floating-point words: "
        "exact errors, class transitions, and closed-form probabilities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "classify", parents=[common],
        help="decode one word and report its class and exact value",
    )
    p.add_argument("value", help="hex word (0x...), rational, decimal, inf, or nan")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser(
        "flip", parents=[common],
        help="flip one bit and report the transition and exact error",
    )
    p.add_argument("value", help="hex word (0x...), rational, decimal, inf, or nan")
    p.add_argument("--bit", type=_nonneg_int, required=True,
                   help="bit position to flip (0 = least significant)")
    p.set_defaults(handler=_cmd_flip)

    p = sub.add_parser(
        "table", parents=[common],
        help="closed-form class-transition probability matrix",
    )
    p.add_argument("--csv", action="store_true", help="CSV instead of JSON")
    p.set_defaults(handler=_cmd_table)

    p = sub.add_parser(
        "intervals", parents=[common],
        help="closed-form relative-error bucket probabilities",
    )
    p.add_argument("--convention", type=_convention_arg, default=BucketConvention.MERGED,
                   choices=list(BucketConvention), metavar="{merged,separated}",
                   help="merged folds non-finite flips into ge_one (default merged)")
    p.add_argument("--csv", action="store_true", help="CSV instead of JSON")
    p.set_defaults(handler=_cmd_intervals)

    p = sub.add_parser(
        "cdf", parents=[common],
        help="dyadic CDF Pr(error <= 2^-i) of a flip on a normalized word",
    )
    p.add_argument("--i", type=_positive_int, default=None,
                   help="single dyadic level (default: all of 2..w_f)")
    p.add_argument("--csv", action="store_true", help="CSV instead of JSON")
    p.set_defaults(handler=_cmd_cdf)

    p = sub.add_parser(
        "bounds", parents=[common],
        help="dyadic bracketing of Pr(error <= tolerance) for decimal tolerances",
    )
    p.add_argument("--tol", default=None,
                   help="tolerance in (0, 1/4] as rational or decimal "
                   "(default: the table for 10^-1 .. 10^-15)")
    p.add_argument("--csv", action="store_true", help="CSV instead of JSON")
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser(
        "sample", parents=[common],
        help="seeded sampling campaign checked against the closed forms",
    )
    p.add_argument("--n", type=_positive_int, required=True, help="sample count")
    p.add_argument("--seed", type=_nonneg_int, default=0, help="PRNG seed (default 0)")
    p.add_argument("--class", dest="source_class", type=_class_arg,
                   default=FpClass.NORMALIZED, choices=list(FpClass),
                   metavar="{normalized,denormalized,nan,inf}",
                   help="source class to sample (default normalized)")
    p.add_argument("--convention", type=_convention_arg,
                   default=BucketConvention.MERGED, choices=list(BucketConvention),
                   metavar="{merged,separated}")
    p.add_argument("--sigma", type=float, default=4.0,
                   help="binomial z-score acceptance band (default 4)")
    p.add_argument("--min-p", type=float, default=1e-6,
                   help="skip cells with probability at or below this (default 1e-6)")
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="worker threads; never affects the counts (default 1)")
    p.add_argument("--chunk-size", type=_positive_int, default=65536,
                   help="sampling chunk size; part of the seeding scheme")
    p.set_defaults(handler=_cmd_sample)

    p = sub.add_parser(
        "census", parents=[common],
        help="exhaustive enumeration (formats up to 24 bits) checked exactly",
    )
    p.add_argument("--class", dest="source_class", type=_class_arg, default=None,
                   choices=list(FpClass),
                   metavar="{normalized,denormalized,nan,inf}",
                   help="one class (default: all four)")
    p.add_argument("--convention", type=_convention_arg,
                   default=BucketConvention.MERGED, choices=list(BucketConvention),
                   metavar="{merged,separated}")
    p.set_defaults(handler=_cmd_census)

    p = sub.add_parser(
        "inject", parents=[common],
        help="inject seeded random flips into a raw word stream",
    )
    p.add_argument("--in", dest="infile", required=True, help="input stream path")
    p.add_argument("--out", dest="outfile", required=True, help="output stream path")
    p.add_argument("--rate", type=float, default=None,
                   help="per-bit flip probability")
    p.add_argument("--count", type=_nonneg_int, default=None,
                   help="exact number of flips (sites drawn with replacement)")
    p.add_argument("--seed", type=_nonneg_int, default=0, help="PRNG seed (default 0)")
    p.add_argument("--endian", choices=["little", "big"], default="little",
                   help="byte order of the stream (default little)")
    p.set_defaults(handler=_cmd_inject)

    return parser


# ── output schemas ────────────────────────────────────────────────────────

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


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        fmt = _parse_format(args.format)
        return args.handler(fmt, args)
    except (ValueError, OSError) as exc:
        print(f"flip754: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
