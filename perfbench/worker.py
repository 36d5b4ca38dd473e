"""One workload in a fresh interpreter: timed rounds, then output checks.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --work DIR

`run.py` starts this after it has written the inputs to DIR.  Rounds
repeat the same operations until the next round would end after
`--seconds`; at least one round runs.  Each round's outputs are checked
after its timed part, outside the tracer.  Peak RSS is read after the
first round's timed part, before any check allocates memory of its own.
The last stdout line is one JSON object for `run.py`.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import inputs
from tracer import Tracer, install

from flip754 import BINARY64, ErrorKind, Word, __version__, check_bounds, cli, relerr


class Ops:
    """Counts operations attempted and failed, and keeps the first problems."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{name}: {p}" for p in problems[:5]]


def run_cli(ops: Ops, tracer: Tracer | None, argv: list[str], out: Path) -> tuple[int | None, float]:
    """cli.main(argv) with stdout sent to `out`; returns (exit code, seconds)."""
    saved = sys.stdout
    t0 = perf_counter()
    try:
        with open(out, "w") as fh:
            sys.stdout = fh
            code = cli.main(argv)
    except Exception as exc:  # the program crashed; count it and go on
        code = None
        print(f"{argv[0]}: {exc!r}", file=sys.stderr)
    finally:
        sys.stdout = saved
    elapsed = perf_counter() - t0
    if tracer and tracer.active:  # every byte of a JSON command's stdout comes from _emit
        tracer.counts["cli.emit.bytes"] += out.stat().st_size
    ops.record(f"cli {argv[0]}", [] if code == 0 else [f"exit code {code}"])
    return code, elapsed


def load(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return {"payload": {}}


def checked(ops: Ops, name: str, fn, *args) -> None:
    """Run a checker; a checker that raises on a malformed output has failed."""
    try:
        problems = fn(*args)
    except (AttributeError, KeyError, TypeError, ValueError, IndexError) as exc:
        problems = [f"malformed output: {exc!r}"]
    ops.record(name, problems)


# ── workloads ─────────────────────────────────────────────────────────────
#
# Each has run(ops, tracer) -> (seconds, outputs), the timed part of a
# round; flips(outputs), the (word, bit) cases it completed; and
# check(ops, outputs).  check_once(ops), if present, runs after the last
# round and returns extra figures for the record.


class Campaign:
    """Rounds of the single-worker campaign; the 2-worker run once, at the end."""

    def __init__(self, seed: int, work: Path) -> None:
        self.work = work
        self.argv = ["sample", "--n", str(inputs.CAMPAIGN_N), "--seed", str(seed),
                     "--sigma", str(inputs.CAMPAIGN_SIGMA), "--chunk-size", str(inputs.CAMPAIGN_CHUNK)]
        self.first = None  # the first round's envelope, for the worker-count check

    def call(self, ops, tracer, workers):
        out = self.work / f"sample_w{workers}.json"
        code, dt = run_cli(ops, tracer, self.argv + ["--workers", str(workers)], out)
        return dt, (code, out)

    def run(self, ops, tracer):
        return self.call(ops, tracer, 1)

    def flips(self, outputs):
        return inputs.CAMPAIGN_N

    def check(self, ops, outputs):
        code, out = outputs
        doc = load(out)
        self.first = self.first or doc
        checked(ops, "campaign", checks.check_campaign, doc, code, inputs.CAMPAIGN_N, inputs.CAMPAIGN_SIGMA)

    def check_once(self, ops):
        """The same campaign with 2 workers: checked, and equal to the first round."""
        dt, (code, out) = self.call(ops, None, 2)
        doc = load(out)
        checked(ops, "campaign workers=2", checks.check_campaign, doc, code, inputs.CAMPAIGN_N, inputs.CAMPAIGN_SIGMA)
        checked(ops, "campaign tallies across workers", checks.check_same_tallies, [self.first, doc])
        return {"parallel_flips_per_s": inputs.CAMPAIGN_N / dt}


class Census:
    def __init__(self, seed: int, work: Path) -> None:
        we, wf = inputs.CENSUS_FORMAT
        self.out = work / "census.json"
        self.argv = ["census", "--format", f"{we},{wf}"]
        self.cases = (1 << (1 + we + wf)) * (1 + we + wf)  # every word, every bit

    def run(self, ops, tracer):
        code, dt = run_cli(ops, tracer, self.argv, self.out)
        return dt, code

    def flips(self, code):
        return self.cases

    def check(self, ops, code):
        checked(ops, "census", checks.check_census, load(self.out), code, *inputs.CENSUS_FORMAT)


class Sweep:
    def __init__(self, seed: int, work: Path) -> None:
        self.words = np.load(work / "sweep_words.npy")
        self.subsample = np.load(work / "sweep_subsample.npy")
        step = inputs.SWEEP_CHUNK
        self.chunks = [self.words[i : i + step] for i in range(0, self.words.size, step)]

    def run(self, ops, tracer):
        reports, elapsed = [], 0.0
        for chunk in self.chunks:
            t0 = perf_counter()
            try:
                report = relerr.bounds_sweep(BINARY64, chunk)
            except Exception as exc:  # the program crashed; count it and go on
                report = None
                print(f"bounds_sweep: {exc!r}", file=sys.stderr)
            elapsed += perf_counter() - t0
            ops.record("bounds_sweep", [] if report else ["raised"])
            reports.append(report)
        return elapsed, reports

    def flips(self, reports):
        return inputs.W * self.words.size

    def check(self, ops, reports):
        for chunk, report in zip(self.chunks, reports):
            checked(ops, "sweep chunk", checks.check_sweep, report, chunk)

    def check_once(self, ops):
        """Scalar check_bounds over every bit of the subsample, against a sweep of it."""
        scalar: Counter[str] = Counter()
        for bits in self.subsample:
            w = Word(int(bits), BINARY64)
            for pos in range(inputs.W):
                chk = check_bounds(w, pos)
                # the sweep counts undefined and non-finite errors apart from informational
                key = chk.status.value if chk.error.kind is ErrorKind.FINITE else chk.error.kind.value
                scalar[{"violates": "violations"}.get(key, key)] += 1
        checked(ops, "sweep vs scalar", checks.check_sweep_against_scalar,
                relerr.bounds_sweep(BINARY64, self.subsample), scalar)
        return {}


class Inject:
    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.stream = work / "stream.bin"
        self.out = work / "stream_out.bin"
        self.stdout = work / "inject.json"
        self.argv = ["inject", "--in", str(self.stream), "--out", str(self.out),
                     "--rate", repr(inputs.INJECT_RATE), "--seed", str(seed)]

    def run(self, ops, tracer):
        code, dt = run_cli(ops, tracer, self.argv, self.stdout)
        return dt, code

    def flips(self, code):
        """Bits that differ between the streams, counted by the benchmark."""
        try:
            return int(np.bitwise_count(np.fromfile(self.stream, "<u8") ^ np.fromfile(self.out, "<u8")).sum())
        except (OSError, ValueError):
            return 0

    def check(self, ops, code):
        checked(ops, "inject", checks.check_inject, load(self.stdout), code,
                np.fromfile(self.stream, "<u8"), np.fromfile(self.out, "<u8"),
                inputs.INJECT_RATIO_SAMPLE, inputs.rng_for(self.seed, "subsample"))


WORKLOADS = {"campaign": Campaign, "census": Census, "sweep": Sweep, "inject": Inject}

def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work", type=Path, required=True)
    args = ap.parse_args()

    tracer = None
    if args.trace:
        tracer = Tracer()
        install(tracer)
    wl = WORKLOADS[args.workload](args.seed, args.work)
    ops = Ops()
    rates, layers = [], []
    peak_rss_mib = None
    deadline = perf_counter() + args.seconds
    while True:
        start = perf_counter()
        before = tracer.snapshot() if tracer else {}
        if tracer:
            tracer.active = True
        seconds, outputs = wl.run(ops, tracer)
        if tracer:
            tracer.active = False
            after = tracer.snapshot()
            layers.append({k: after[k] - before.get(k, 0) for k in after})
        if peak_rss_mib is None:
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        rates.append(wl.flips(outputs) / seconds)
        wl.check(ops, outputs)
        now = perf_counter()
        if now + (now - start) > deadline:
            break
    extra = wl.check_once(ops) if hasattr(wl, "check_once") else {}

    result = {
        "attempted": ops.attempted,
        "failed": ops.failed,
        "problems": ops.problems[:20],
        "rounds": len(rates),
        "flips_per_s": statistics.median(rates),
        "round_flips_per_s": rates,
        "peak_rss_mib": peak_rss_mib,
        "flip754": __version__,
        "numpy": np.__version__,
    }
    result.update(extra)
    if tracer:  # per-round medians; a layer absent from a round counts 0 there
        result["layers"] = {k: statistics.median(r.get(k, 0) for r in layers) for k in set().union(*layers)}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
