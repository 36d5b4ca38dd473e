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
import functools
import json
import math
import re
import sys
from collections.abc import Callable, Iterable
from dataclasses import asdict
from decimal import Decimal, InvalidOperation
from fractions import Fraction

from ._vector import CLASS_ORDER
from .analytic import (
    BucketConvention,
    ToleranceResolutionError,
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
    transition,
)
from .montecarlo import (
    CampaignConfig,
    compare,
    exhaustive_census,
    run_campaign,
)
from .rationals import MAX_EXACT_BITS, decimal_str, log2_value, parse_rational, ratio_str
from .relerr import check_bounds, error_payload

__all__ = ["main", "CLI_SCHEMA"]

CLI_SCHEMA = "flip754/cli-v1"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISMATCH = 3

# A decimal literal whose leading digit lies past 10^±DECIMAL_EXPONENT_LIMIT
# is never built as an exact rational (10^2000000 alone takes 0.7 s).  A
# finite nonzero word that far out needs a scale past MAX_EXACT_BITS on
# every format: 10^20000 > 2^66438, and a word's scale lies below its
# binade's exponent by the fraction width, at most 61 bits.  A `bounds
# --tol` that far out lies below 2^-61, every format's finest level, or
# above 1/4, so it is refused as it is.
DECIMAL_EXPONENT_LIMIT = 20_000


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
    far = _far_decimal(fmt, t, sign)
    return far if far is not None else encode_nearest(fmt, abs(parse_rational(t)), sign)


def _far_literal(text: str) -> Decimal | None:
    """`text` as a Decimal when it is a finite nonzero decimal literal whose
    leading digit lies past 10^±DECIMAL_EXPONENT_LIMIT; None for any nearer
    literal, a rational such as 13/128, or no number.  No exact rational
    is built."""
    try:
        dec = Decimal(text)
    except InvalidOperation:
        return None
    return dec if dec.is_finite() and dec and abs(dec.adjusted()) > DECIMAL_EXPONENT_LIMIT else None


def _far_decimal(fmt: FpFormat, text: str, sign: int) -> Word | None:
    """±0 or ±inf for a decimal literal past 10^±DECIMAL_EXPONENT_LIMIT
    whose whole decade [10^a, 10^(a+1)) rounds there; None for any nearer
    literal or rational.  The decade's log2 ends are floats, each within a
    relative 2^-51 of the exact value."""
    dec = _far_literal(text)
    if dec is None:
        return None
    a = dec.adjusted()
    lo, hi = a * math.log2(10), (a + 1) * math.log2(10)
    slack = max(abs(lo), abs(hi)) * 2.0**-50
    if hi + slack <= -(fmt.bias + fmt.fraction_bits):  # at most half the least denormal
        return recompose(fmt, sign, 0, 0)
    if lo - slack >= fmt.bias + 1:  # at least 2^(emax + 1), past the overflow threshold
        return recompose(fmt, sign, fmt.exponent_all_ones, 0)
    raise ValueError(
        f"{text!r} lies past 10^+-{DECIMAL_EXPONENT_LIMIT}, where a literal is read only "
        f"if its whole decade rounds to +-0 or +-inf: any other word that far out needs "
        f"a scale past the limit of {MAX_EXACT_BITS} bits"
    )


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


def _positive_float(text: str) -> float:
    v = float(text)
    if not (v > 0 and math.isfinite(v)):
        raise argparse.ArgumentTypeError("must be a positive finite number")
    return v


def _skip_threshold(text: str) -> float:
    v = float(text)
    if not 0 <= v < 0.5:
        raise argparse.ArgumentTypeError("must lie in [0, 1/2)")
    return v


# ── payload rendering ─────────────────────────────────────────────────────


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


_EVENTS = "\0events"  # the value `_emit` writes inject's events in place of


def _emit(
    fmt: FpFormat,
    command: str,
    payload: dict,
    digits: int,
    events: Callable[[str], Iterable[str]] | None = None,
) -> None:
    """Print the JSON envelope as `json.dumps(indent=2, sort_keys=True)` does.

    Each Fraction prints as {"decimal", "ratio"}; any other type json
    cannot write raises TypeError.  `events`, for inject, is called with
    the newline and indent of the payload's "events" key, and the text
    parts it returns (`InjectionSummary.event_json`) are written in place
    of a marker value, so the list never exists as objects or as one
    string.
    """

    def fraction(o: object) -> dict:
        if isinstance(o, Fraction):
            return {"decimal": decimal_str(o, digits), "ratio": ratio_str(o)}
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")

    if events is not None:
        payload = {**payload, "events": _EVENTS}
    doc = {
        "schema": CLI_SCHEMA,
        "command": command,
        "format": _format_payload(fmt),
        "payload": payload,
    }
    text = json.dumps(doc, indent=2, sort_keys=True, default=fraction)
    if events is None:
        sys.stdout.write(text + "\n")
        return
    head, _, tail = text.partition(json.dumps(_EVENTS))
    nl = head[head.rfind("\n") : head.rfind('"events": ')]  # newline and the key's indent
    sys.stdout.write(head)
    for part in events(nl):
        sys.stdout.write(part)
    sys.stdout.write(tail + "\n")


def _tabulate(
    fmt: FpFormat,
    args: argparse.Namespace,
    header: list[str],
    rows: Iterable[tuple],
    payload: dict,
) -> int:
    """Print a tabular command: `payload` as JSON or, with --csv, the rows.

    The rows hold the same cells as the payload; in CSV a Fraction cell
    fills two columns, its ratio and its decimal.
    """
    if not args.csv:
        _emit(fmt, args.command, payload, args.digits)
        return EXIT_OK
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, Fraction):
                cells += ratio_str(cell), decimal_str(cell, args.digits)
            else:
                cells.append(cell)
        writer.writerow(cells)
    return EXIT_OK


# ── command handlers ──────────────────────────────────────────────────────


def _cmd_classify(fmt: FpFormat, args: argparse.Namespace) -> int:
    w = _parse_word(fmt, args.value)
    payload = {"input": args.value, **_word_payload(w, args.digits)}
    _emit(fmt, "classify", payload, args.digits)
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
        "error": error_payload(fmt, w.bits, args.bit, args.digits),
        "check": {
            "status": chk.status.value,
            "note": chk.note,
            "interval": None if chk.interval is None else asdict(chk.interval),
            "reference": chk.reference,
            "deviation": None
            if chk.deviation is None
            else {"ratio": ratio_str(chk.deviation)},
        },
    }
    _emit(fmt, "flip", payload, args.digits)
    return EXIT_OK


def _cmd_table(fmt: FpFormat, args: argparse.Namespace) -> int:
    m = transition_matrix(fmt)
    matrix = {
        src.value: {dst.value: m.entry(src, dst) for dst in CLASS_ORDER}
        for src in CLASS_ORDER
    }
    rows = [(src, dst, q) for src, row in matrix.items() for dst, q in row.items()]
    payload = {"classes": [c.value for c in CLASS_ORDER], "matrix": matrix}
    return _tabulate(fmt, args, ["from", "to", "ratio", "decimal"], rows, payload)


def _cmd_intervals(fmt: FpFormat, args: argparse.Namespace) -> int:
    buckets = interval_probabilities(fmt, args.convention).buckets()
    payload = {
        "convention": args.convention.value,
        "buckets": buckets,
        "sum": ratio_str(sum(buckets.values())),
    }
    return _tabulate(fmt, args, ["bucket", "ratio", "decimal"], buckets.items(), payload)


def _cmd_cdf(fmt: FpFormat, args: argparse.Namespace) -> int:
    levels = [args.i] if args.i is not None else range(2, fmt.fraction_bits + 1)
    rows = [(i, cdf_dyadic(fmt, i)) for i in levels]
    payload = {"rows": [{"i": i, "probability": q} for i, q in rows]}
    return _tabulate(fmt, args, ["i", "ratio", "decimal"], rows, payload)


def _cmd_bounds(fmt: FpFormat, args: argparse.Namespace) -> int:
    if args.tol is not None:
        far = _far_literal(args.tol)
        if far is not None and 0 < far < 1:
            raise ToleranceResolutionError(
                f"tolerance {args.tol.strip()} lies below 10^-{DECIMAL_EXPONENT_LIMIT}, "
                f"finer than the format's resolution 2^-{fmt.fraction_bits}"
            )
        if far is not None:  # negative, or above 1/4
            raise ValueError("tolerance must lie in (0, 1/4]")
        table = [decimal_threshold_bounds(fmt, parse_rational(args.tol))]
    else:
        table = tolerance_table(fmt)
    keys = ["tolerance", "i_lower", "i_upper", "lower", "upper"]
    rows = [
        (ratio_str(tb.tolerance), tb.i_lower, tb.i_upper, tb.lower, tb.upper)
        for tb in table
    ]
    payload = {"rows": [dict(zip(keys, row)) for row in rows]}
    header = keys[:3] + ["lower_ratio", "lower_decimal", "upper_ratio", "upper_decimal"]
    return _tabulate(fmt, args, header, rows, payload)


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
    _emit(fmt, "sample", payload, args.digits)
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
    _emit(fmt, "census", {"entries": entries, "passed": all_passed}, args.digits)
    return EXIT_OK if all_passed else EXIT_MISMATCH


def _cmd_inject(fmt: FpFormat, args: argparse.Namespace) -> int:
    summary = inject_file(args.infile, args.outfile, fmt, seed=args.seed, rate=args.rate,
                          count=args.count, endian=args.endian)
    _emit(fmt, "inject", summary.header_payload(), args.digits,
          functools.partial(summary.event_json, args.digits))
    return EXIT_OK


# ── parser ────────────────────────────────────────────────────────────────


def _build_parser() -> argparse.ArgumentParser:
    def option(*flags: str, **kwargs) -> argparse.ArgumentParser:
        """A parent parser declaring one option for the commands that share it."""
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument(*flags, **kwargs)
        return parent

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
    word = option("value", help="hex word (0x...), rational, decimal, inf, or nan")
    csv_ = option("--csv", action="store_true", help="CSV instead of JSON")
    seed = option("--seed", type=_nonneg_int, default=0, help="PRNG seed (default 0)")
    convention = option(
        "--convention", type=BucketConvention, default=BucketConvention.MERGED,
        choices=list(BucketConvention), metavar="{merged,separated}",
        help="merged counts non-finite flips as errors of at least 1 (default merged)",
    )

    # One parent per default: subparsers share a parent's Action objects,
    # so `sample` and `census` cannot take different defaults from one.
    def source_class(default: FpClass | None, help: str) -> argparse.ArgumentParser:
        return option(
            "--class", dest="source_class", type=FpClass, default=default,
            choices=list(FpClass), metavar="{normalized,denormalized,nan,inf}",
            help=help,
        )

    parser = argparse.ArgumentParser(
        prog="flip754",
        description="Single bit flips in binary floating-point words: "
        "exact errors, class transitions, and closed-form probabilities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, *parents) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=[common, *parents], help=help)
        p.set_defaults(handler=handler)
        return p

    def word_command(name, handler, help) -> argparse.ArgumentParser:
        p = command(name, handler, help, word)
        # argparse takes a token starting with "-" for an argument only when
        # this pattern matches it: by default -2.5, but not -2.5e-310, -1/3
        # or -inf.  Here it matches every negative word `_parse_word` reads.
        p._negative_number_matcher = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)
        return p

    word_command("classify", _cmd_classify,
                 "decode one word and report its class and exact value")

    p = word_command("flip", _cmd_flip,
                     "flip one bit and report the transition and exact error")
    p.add_argument("--bit", type=_nonneg_int, required=True,
                   help="bit position to flip (0 = least significant)")

    command("table", _cmd_table,
            "closed-form class-transition probability matrix", csv_)

    command("intervals", _cmd_intervals,
            "closed-form relative-error bucket probabilities", convention, csv_)

    p = command("cdf", _cmd_cdf,
                "dyadic CDF Pr(error <= 2^-i) of a flip on a normalized word", csv_)
    p.add_argument("--i", type=_positive_int, default=None,
                   help="single dyadic level (default: all of 2..w_f)")

    p = command("bounds", _cmd_bounds,
                "dyadic bracketing of Pr(error <= tolerance) for decimal tolerances",
                csv_)
    p.add_argument("--tol", default=None,
                   help="tolerance in (0, 1/4] as rational or decimal "
                   "(default: the table for 10^-1 .. 10^-15)")

    p = command(
        "sample", _cmd_sample,
        "seeded sampling campaign checked against the closed forms",
        seed,
        source_class(FpClass.NORMALIZED, "source class to sample (default normalized)"),
        convention,
    )
    p.add_argument("--n", type=_positive_int, required=True, help="sample count")
    p.add_argument("--sigma", type=_positive_float, default=4.0,
                   help="binomial z-score acceptance band (default 4)")
    p.add_argument("--min-p", type=_skip_threshold, default=1e-6,
                   help="skip cells with probability at or below this, in [0, 1/2) "
                        "(default 1e-6); a run with every cell skipped fails")
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="worker threads, at most one per CPU and per chunk; "
                        "never affects the counts (default 1)")
    p.add_argument("--chunk-size", type=_positive_int, default=65536,
                   help="sampling chunk size; part of the seeding scheme")

    command("census", _cmd_census,
            "exhaustive enumeration (formats up to 24 bits) checked exactly",
            source_class(None, "one class (default: all four)"), convention)

    p = command("inject", _cmd_inject,
                "inject seeded random flips into a raw word stream", seed)
    p.add_argument("--in", dest="infile", required=True, help="input stream path")
    p.add_argument("--out", dest="outfile", required=True, help="output stream path")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--rate", type=float, help="per-bit flip probability")
    mode.add_argument("--count", type=_nonneg_int,
                      help="exact number of flips (sites drawn with replacement)")
    p.add_argument("--endian", choices=["little", "big"], default="little",
                   help="byte order of the stream (default little)")

    return parser


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
    except (ValueError, OSError, MemoryError) as exc:  # MemoryError: a --count too large to draw
        print(f"flip754: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
