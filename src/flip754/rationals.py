"""Rendering and parsing of exact rationals.

Probabilities and relative errors live as `fractions.Fraction` end to end;
decimals appear only here, at the presentation layer.  Rendering keeps a
fixed number of significant digits (round half to even) and never strips
trailing zeros, so 41/50 at five digits is "0.82000", not "0.82".
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
    if q == 0:
        return "0"
    sign = "-" if q < 0 else ""
    mag = abs(q)

    e10 = _floor_log10(mag)
    m = _round_half_even(mag * Fraction(10) ** (digits - 1 - e10))
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
    if q < 0:
        raise ValueError("log2 of a negative rational")
    if q == 0:
        return None
    return math.log2(q.numerator) - math.log2(q.denominator)


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


def _floor_log10(q: Fraction) -> int:
    # Decimal digit counts pin the result to {n-1, n}; settle exactly.
    n = _ndigits(q.numerator) - _ndigits(q.denominator)
    return n if q >= Fraction(10) ** n else n - 1


def _ndigits(n: int) -> int:
    return len(str(n))


def _round_half_even(q: Fraction) -> int:
    """Round a non-negative rational to the nearest integer, ties to even."""
    floor = q.numerator // q.denominator
    rem = q - floor
    half = Fraction(1, 2)
    if rem > half or (rem == half and floor & 1):
        return floor + 1
    return floor
