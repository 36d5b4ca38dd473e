"""Output checks of the four workloads.

Every checker returns a list of problems, empty when the output is
right.  The expected values are worked out here from the format widths
and the input words with plain integer arithmetic, `struct` and
`fractions`, not with flip754's own code, or they are properties the
method must have (partitions, replays, agreement between worker
counts).  No checker compares against a saved copy of an earlier output.
"""

from __future__ import annotations

import math
import struct
import sys
from fractions import Fraction
from math import sqrt

import numpy as np

from inputs import EXP_ONES, KINDS, W, W_E, W_F, word_kinds

CLASSES = ("normalized", "denormalized", "nan", "inf")


# ── closed counts for a whole format, worked out from the widths ──────────


def class_sizes(we: int, wf: int) -> dict[str, int]:
    nf = 1 << wf
    return {
        "normalized": 2 * ((1 << we) - 2) * nf,
        "denormalized": 2 * nf,
        "nan": 2 * (nf - 1),
        "inf": 2,
    }


def census_rows(we: int, wf: int) -> dict[str, dict[str, int]]:
    """Exact destination counts of every (word, bit) flip of each class.

    A normalized word leaves its class only through an exponent bit k:
    into the denormals when e == 2^k, into NaN or Inf when e is all ones
    but bit k.  A denormal's exponent flips give normalized words; a NaN
    becomes Inf when its one set fraction bit is cleared; an Inf becomes
    NaN on any fraction flip.  Every other flip keeps the class.
    """
    nf = 1 << wf
    w = 1 + we + wf
    size = class_sizes(we, wf)
    rows = {
        "normalized": {"denormalized": we * 2 * nf, "nan": we * 2 * (nf - 1), "inf": we * 2},
        "denormalized": {"normalized": size["denormalized"] * we},
        "nan": {"normalized": size["nan"] * we, "inf": 2 * wf},
        "inf": {"normalized": 2 * we, "nan": 2 * wf},
    }
    for src, row in rows.items():
        row[src] = size[src] * w - sum(row.values())
        for dst in CLASSES:
            row.setdefault(dst, 0)
    return rows


def undefined_cases(we: int, wf: int) -> dict[str, int]:
    """Cases whose source is zero, NaN or Inf, per source class."""
    w = 1 + we + wf
    size = class_sizes(we, wf)
    return {"normalized": 0, "denormalized": 2 * w, "nan": size["nan"] * w, "inf": size["inf"] * w}


def normalized_dyadic(we: int, wf: int) -> list[int]:
    """Cases of a normalized source whose largest dyadic level is exactly m.

    A fraction flip at bit p gives level wf - p; the only other level-1
    cases are exponent flips of bit 0 that stay normalized (odd e >= 3).
    """
    size = class_sizes(we, wf)["normalized"]
    out = [0] + [size] * wf
    out[1] += 2 * (1 << wf) * ((1 << (we - 1)) - 2)
    return out


# ── campaign ──────────────────────────────────────────────────────────────


def _band(name: str, count: int, n: int, p: Fraction, sigma: float) -> list[str]:
    mean = n * float(p)
    if mean < 1e-6:
        return [] if count == 0 else [f"{name}: {count} observed where {mean:.3g} expected"]
    if mean < 100:
        return []  # too few expected for a normal band
    z = (count - mean) / sqrt(mean * (1 - float(p)))
    return [] if abs(z) <= sigma else [f"{name}: z = {z:.2f} outside +-{sigma}"]


def check_campaign(doc: dict, code: int, n: int, sigma: float) -> list[str]:
    """A binary64 normalized `sample` envelope against the closed counts."""
    problems = [] if code == 0 else [f"exit code {code}"]
    payload = doc["payload"]
    if payload["comparison"]["passed"] is not True:
        problems.append("comparison did not pass")
    report = payload["report"]
    if report["sample_count"] != n:
        problems.append(f"sample_count {report['sample_count']} != {n}")
    trans = report["transitions"]
    for src in CLASSES:
        total = sum(trans[src].values())
        want = n if src == "normalized" else 0
        if total != want:
            problems.append(f"row {src} sums to {total}, not {want}")
    if sum(report["buckets"].values()) + report["undefined"] != n:
        problems.append("buckets and undefined do not sum to the sample count")
    cases = class_sizes(W_E, W_F)["normalized"] * W
    for dst, count in census_rows(W_E, W_F)["normalized"].items():
        problems += _band(f"to_{dst}", trans["normalized"][dst], n, Fraction(count, cases), sigma)
    for m, count in enumerate(normalized_dyadic(W_E, W_F)):
        if m:
            problems += _band(f"dyadic[{m}]", report["dyadic_counts"][m], n, Fraction(count, cases), sigma)
    return problems


def check_same_tallies(docs: list[dict]) -> list[str]:
    """Campaign payloads must not depend on the worker count."""
    first = docs[0]["payload"]
    return [f"payload of run {i} differs from run 0" for i, d in enumerate(docs) if d["payload"] != first]


# ── census ────────────────────────────────────────────────────────────────


def check_census(doc: dict, code: int, we: int, wf: int) -> list[str]:
    """A four-class `census` envelope against the closed counts."""
    problems = [] if code == 0 else [f"exit code {code}"]
    payload = doc["payload"]
    if payload["passed"] is not True:
        problems.append("census did not pass")
    entries = payload["entries"]
    got = [e["report"]["source_class"] for e in entries]
    if got != list(CLASSES):
        return problems + [f"entries cover {got}"]
    w = 1 + we + wf
    sizes, rows, undef = class_sizes(we, wf), census_rows(we, wf), undefined_cases(we, wf)
    for entry in entries:
        rep, src = entry["report"], entry["report"]["source_class"]
        cases = sizes[src] * w
        if rep["class_size"] != sizes[src] or rep["cases"] != cases:
            problems.append(f"{src}: size {rep['class_size']}, cases {rep['cases']}")
        for from_cls in CLASSES:
            want = rows[src] if from_cls == src else dict.fromkeys(CLASSES, 0)
            if rep["transitions"][from_cls] != want:
                problems.append(f"{src}: transitions from {from_cls} {rep['transitions'][from_cls]} != {want}")
        if rep["undefined"] != undef[src]:
            problems.append(f"{src}: undefined {rep['undefined']} != {undef[src]}")
        if sum(rep["buckets"].values()) + rep["undefined"] != cases:
            problems.append(f"{src}: buckets and undefined do not partition the cases")
        if src == "normalized" and rep["dyadic_counts"] != normalized_dyadic(we, wf):
            problems.append(f"{src}: dyadic counts differ from the closed counts")
        for cell in entry["comparison"]["cells"]:
            exact = Fraction(cell["observed"], cell["total"]) == Fraction(cell["expected"])
            if not (cell["passed"] is True and exact and cell["total"] == cases):
                problems.append(f"{src}: cell {cell['name']} is not an exact match")
    return problems


# ── sweep ─────────────────────────────────────────────────────────────────

SWEEP_FIELDS = ("conforms", "violations", "informational", "nonfinite", "undefined")


def expected_sweep(words: np.ndarray) -> dict[str, int]:
    """Status counts of a binary64 bounds sweep, from the words alone.

    Zero, NaN and Inf sources are undefined at every bit; a nonzero
    denormal's 11 exponent flips are informational (one-sided bound);
    a normalized word whose exponent has exactly one zero bit lands on
    NaN or Inf at that bit.  Every other case conforms.
    """
    kinds = np.bincount(word_kinds(words), minlength=len(KINDS))
    normal, denormal = int(kinds[KINDS.index("normal")]), int(kinds[KINDS.index("denormal")])
    e = (words >> np.uint64(W_F)) & np.uint64(EXP_ONES)
    holes = np.uint64(EXP_ONES) ^ e
    is_normal = (e != 0) & (e != np.uint64(EXP_ONES))
    nonfinite = int((is_normal & ((holes & (holes - np.uint64(1))) == 0)).sum())
    return {
        "conforms": W * normal - nonfinite + (1 + W_F) * denormal,
        "violations": 0,
        "informational": W_E * denormal,
        "nonfinite": nonfinite,
        "undefined": W * (words.size - normal - denormal),
    }


def check_sweep(report, words: np.ndarray) -> list[str]:
    """One SweepReport over `words` against the counts the words imply."""
    want = expected_sweep(words)
    problems = [
        f"{k} = {getattr(report, k)}, expected {v}" for k, v in want.items() if getattr(report, k) != v
    ]
    if report.cases != W * words.size or sum(getattr(report, k) for k in SWEEP_FIELDS) != report.cases:
        problems.append("counters do not partition the cases")
    return problems


def check_sweep_against_scalar(report, scalar: dict[str, int]) -> list[str]:
    """A sweep's counters against check_bounds tallies of the same words."""
    return [
        f"{k}: sweep {getattr(report, k)}, scalar {scalar.get(k, 0)}"
        for k in SWEEP_FIELDS if getattr(report, k) != scalar.get(k, 0)
    ]


# ── inject ────────────────────────────────────────────────────────────────


def host_double(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def host_class(x: float) -> str:
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf"
    return "denormalized" if abs(x) < sys.float_info.min else "normalized"


def host_error_kind(x: float, x2: float) -> str:
    if x == 0 or not math.isfinite(x):
        return "undefined"
    return "finite" if math.isfinite(x2) else "nonfinite"


def check_inject(
    doc: dict, code: int, words_in: np.ndarray, words_out: np.ndarray,
    ratio_sample: int, rng: np.random.Generator,
) -> list[str]:
    """An `inject --rate` envelope and output stream against the input stream."""
    problems = [] if code == 0 else [f"exit code {code}"]
    payload = doc["payload"]
    events = payload["events"]
    if payload["event_count"] != len(events):
        problems.append(f"event_count {payload['event_count']} != {len(events)} events")

    # The XOR of the streams has set bits exactly at the event sites.
    diff = words_in ^ words_out
    changed = np.flatnonzero(diff)
    flipped = set()
    for b in range(W):
        hit = changed[(diff[changed] >> np.uint64(b)) & np.uint64(1) == 1]
        flipped.update((int(i), b) for i in hit)
    sites = {(ev["word_index"], ev["bit"]) for ev in events}
    if len(sites) != len(events):
        problems.append("rate mode repeated a site")
    if flipped != sites:
        problems.append(f"{len(flipped ^ sites)} sites differ between the streams and the events")
    if len(flipped) != payload["event_count"]:
        problems.append(f"{len(flipped)} bits differ between the streams, event_count {payload['event_count']}")

    # Replaying the events in order on the input reproduces every hex and the output.
    state: dict[int, int] = {}
    transitions: dict[tuple[str, str], int] = {}
    finite = []
    for k, ev in enumerate(events):
        i = ev["word_index"]
        before = state.get(i, int(words_in[i]))
        after = before ^ (1 << ev["bit"])
        state[i] = after
        if int(ev["before"], 16) != before or int(ev["after"], 16) != after:
            problems.append(f"event {k}: before/after do not replay")
        x, x2 = host_double(before), host_double(after)
        classes = (host_class(x), host_class(x2))
        transitions[classes] = transitions.get(classes, 0) + 1
        if (ev["class_before"], ev["class_after"]) != classes:
            problems.append(f"event {k}: classes {ev['class_before']}->{ev['class_after']}, host says {classes}")
        if ev["error"]["kind"] != host_error_kind(x, x2):
            problems.append(f"event {k}: error kind {ev['error']['kind']}")
        elif ev["error"]["kind"] == "finite":
            finite.append((k, x, x2))
    if any(int(words_out[i]) != v for i, v in state.items()):
        problems.append("output stream differs from the replayed events")

    reported = payload["transitions"]
    if sum(sum(row.values()) for row in reported.values()) != payload["event_count"]:
        problems.append("transition counts do not sum to event_count")
    for a in CLASSES:
        for b in CLASSES:
            if reported[a][b] != transitions.get((a, b), 0):
                problems.append(f"transitions {a}->{b}: {reported[a][b]} != {transitions.get((a, b), 0)}")

    # Exact ratios on a subsample of the finite events.
    picks = rng.choice(len(finite), min(ratio_sample, len(finite)), replace=False)
    for j in picks:
        k, x, x2 = finite[j]
        exact = abs(Fraction(x) - Fraction(x2)) / abs(Fraction(x))
        if Fraction(events[k]["error"]["ratio"]) != exact:
            problems.append(f"event {k}: ratio {events[k]['error']['ratio']} != {exact}")
    return problems
