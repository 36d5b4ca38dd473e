"""Per-layer spans, recorded from outside flip754.

`install` replaces each traced public function in every module
namespace where a caller looks it up, so no span lives inside `src/`.
A span's self time is its duration minus the time of the wrapped calls
it made; call counts and work counts (cases, bytes, events) are summed
at the same boundaries.  Spans live in memory and are read back as
totals with `snapshot`.

The tracer keeps one span stack and must stay inactive while several
threads call into the package (the 2-worker campaign); `active`
switches it.
"""

from __future__ import annotations

import functools
import inspect
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list[float]] = []

    def _enter(self) -> None:
        self._stack.append([0.0])

    def _leave(self, name: str, elapsed: float) -> None:
        children = self._stack.pop()[0]
        if self._stack:
            self._stack[-1][0] += elapsed
        self.self_s[name] += elapsed - children
        self.counts[name + ".calls"] += 1

    def wrap(self, name: str, fn, work=None):
        """A stand-in for `fn` that records span `name`.

        `work(args, result)` returns extra counts to add, such as
        `{"montecarlo.kernel.cases": n}`.  Generator functions get one
        span per item they produce.
        """
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    if not self.active:
                        yield from it
                        return
                    self._enter()
                    t0 = perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._leave(name, perf_counter() - t0)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self._enter()
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(name, perf_counter() - t0)
            if work is not None:
                for key, n in work(args, result).items():
                    self.counts[key] += n
            return result
        return wrapper

    def snapshot(self) -> dict[str, float]:
        return {**{f"{k}.s": v for k, v in self.self_s.items()}, **self.counts}


def install(tracer: Tracer) -> None:
    """Wrap the traced functions of flip754 where their callers look them up."""
    from flip754 import _vector, cli, fileio, montecarlo, relerr

    def patch(name, holders, attr, work=None):
        for holder in holders:
            setattr(holder, attr, tracer.wrap(name, getattr(holder, attr), work))

    patch("vector.sample_class_bits", [montecarlo], "sample_class_bits")
    patch("vector.enumerate_class", [montecarlo], "enumerate_class")
    patch("vector.split_fields", [_vector, montecarlo, relerr], "split_fields")
    for attr in ("classify_codes", "msb_index", "flip_bits"):
        patch(f"vector.{attr}", [montecarlo, relerr], attr)
    for attr in ("run_campaign", "exhaustive_census"):
        patch("montecarlo.kernel", [cli], attr, lambda args, report: {"montecarlo.kernel.cases": report.cases})
    patch("montecarlo.compare", [cli], "compare")
    patch("analytic.closed_forms", [cli], "transition_matrix")
    patch("analytic.closed_forms", [montecarlo], "interval_probabilities")
    patch("analytic.closed_forms", [montecarlo], "cdf_dyadic")
    patch("relerr.bounds_sweep", [relerr], "bounds_sweep",
          lambda args, report: {"relerr.bounds_sweep.cases": report.cases})
    patch("relerr.relative_error", [fileio, relerr], "relative_error")
    patch("formats.decode", [fileio], "classify")
    patch("formats.decode", [relerr], "decode_value")
    patch("inject.flip_bit", [relerr], "flip_bit")
    for holder in (cli, fileio, montecarlo):
        for attr in ("decimal_str", "ratio_str", "log2_value"):
            if hasattr(holder, attr):
                patch("rationals.render", [holder], attr)
    patch("fileio.words_from_bytes", [fileio], "words_from_bytes",
          lambda args, words: {"fileio.codec.bytes": len(args[0])})
    patch("fileio.words_to_bytes", [fileio], "words_to_bytes",
          lambda args, data: {"fileio.codec.bytes": len(data)})
    patch("fileio.inject_words", [fileio], "inject_words",
          lambda args, result: {"fileio.events": len(result[1].events)})
    patch("fileio.to_payload", [fileio.InjectionSummary], "to_payload")
    patch("cli.emit", [cli], "_emit")
    patch("cli.main", [cli], "main")
