"""Rendering and parsing of exact rationals.

Probabilities and relative errors live as `fractions.Fraction` end to end;
decimals appear only here, at the presentation layer.  Rendering keeps a
fixed number of significant digits (round half to even) and never strips
trailing zeros, so 41/50 at five digits is "0.82000", not "0.82".  It
works on the numerator and denominator as integers: one scaling by a
power of ten and one `divmod`, no Fraction arithmetic.
"""

from __future__ import annotations

import math
from decimal import Decimal, InvalidOperation
from fractions import Fraction

__all__ = ["decimal_str", "ratio_str", "log2_value", "parse_rational", "floor_log2"]


def decimal_str(q: Fraction, digits: int = 5) -> str:
    """Render q with exactly `digits` significant digits, half-to-even.

    Positional notation while the leading digit sits in 10^-4..10^(digits-1),
    scientific ("1.8041e-16") outside that window.
    """
    if digits < 1:
        raise ValueError("need at least one significant digit")
    n, d = q.numerator, q.denominator
    if n == 0:
        return "0"
    sign = "-" if n < 0 else ""
    n = abs(n)

    e10 = _floor_log10(n, d)
    shift = digits - 1 - e10
    if shift >= 0:
        m = _round_half_even(n * 10**shift, d)
    else:
        m = _round_half_even(n, d * 10**-shift)
    if m == 10**digits:  # rounding carried into the next decade
        m //= 10
        e10 += 1
    ds = str(m)

    if -4 <= e10 < digits:
        if e10 >= 0:
            head, tail = ds[: e10 + 1], ds[e10 + 1 :]
            return sign + (f"{head}.{tail}" if tail else head)
        return sign + "0." + "0" * (-e10 - 1) + ds
    return f"{sign}{ds[0]}.{ds[1:]}e{e10:+03d}"


def ratio_str(q: Fraction) -> str:
    """Exact lowest-terms form: '13/128', or just '2' for integers."""
    return str(q)


def log2_value(q: Fraction) -> float | None:
    """Approximate log2 of a positive rational; None for zero.

    Works for rationals far outside host-float range (2^1024 - 1 and up).
    """
    n = q.numerator
    if n < 0:
        raise ValueError("log2 of a negative rational")
    if n == 0:
        return None
    return math.log2(n) - math.log2(q.denominator)


def floor_log2(q: Fraction) -> int:
    """Exact floor(log2(q)) for a positive rational of any size."""
    if q <= 0:
        raise ValueError("floor_log2 needs a positive rational")
    # Bit lengths pin the result to {n-1, n}; one exact comparison settles it.
    n = q.numerator.bit_length() - q.denominator.bit_length()
    return n if q >= Fraction(2) ** n else n - 1


def parse_rational(text: str) -> Fraction:
    """Parse '13/128', '0.25', or '1e-11' into an exact Fraction."""
    t = text.strip()
    try:
        if "/" in t:
            return Fraction(t)
        return Fraction(Decimal(t))
    except (InvalidOperation, ValueError, ZeroDivisionError):
        raise ValueError(f"not a rational: {text!r}") from None


def _floor_log10(n: int, d: int) -> int:
    """Exact floor(log10(n/d)) for positive integers n and d."""
    # Decimal digit counts pin the result to {k-1, k}; settle exactly.
    k = len(str(n)) - len(str(d))
    return k if (n >= d * 10**k if k >= 0 else n * 10**-k >= d) else k - 1


def _round_half_even(n: int, d: int) -> int:
    """Round n/d (n >= 0, d > 0) to the nearest integer, ties to even."""
    m, r = divmod(n, d)
    if 2 * r > d or (2 * r == d and m & 1):
        return m + 1
    return m
