"""Rendering and parsing of exact rationals.

Probabilities and relative errors live as `fractions.Fraction` end to end;
decimals appear only here, at the presentation layer.  Rendering keeps a
fixed number of significant digits (round half to even) and never strips
trailing zeros, so 41/50 at five digits is "0.82000", not "0.82".  It
is one `decimal` division of the numerator by the denominator, in a
context of `digits` digits of precision: `decimal` takes integer
operands exactly and rounds the quotient correctly, so no Fraction
arithmetic is needed and the decade of the result comes with it.

Each renderer has an integer core taking the numerator and denominator
(`decimal_text`, `ratio_text`, `log2_ratio`) under its Fraction form, so
a caller holding a ratio as two integers never builds a Fraction.
`decimal_texts` renders whole uint64 arrays of numerators and
denominators.  A lane is certified, and laid out from a float64
candidate, when its numerator and denominator lie below 2^53, at most
15 digits are asked for, and the candidate clears every rounding tie and
both decade edges by more than its error bound; every other lane goes
through `decimal_text`.  One helper, `_decimal_layout`, places the
digits in positional or scientific form for both paths.

Integers of any size print in full: CPython's `str(int)` raises
ValueError past `sys.get_int_max_str_digits()` digits (4,300 by
default), and an exponent flip in a format with 15 or more exponent
bits has an error of 2^16384 - 1 or more.  `ratio_text` prints such
integers through `Decimal`, which has no digit limit and writes an
integer's exact digits; `decimal_text` never converts an int to text.
Past `MAX_EXACT_BITS` the exact forms are refused instead.
"""

from __future__ import annotations

import math
from decimal import MAX_EMAX, MIN_EMIN, ROUND_HALF_EVEN, Context, Decimal, InvalidOperation
from fractions import Fraction
from functools import lru_cache

import numpy as np

# Unexported: decimal_text(s), ratio_text and log2_ratio are integer cores for sibling modules.
__all__ = [
    "decimal_str",
    "ratio_str",
    "log2_value",
    "parse_rational",
    "floor_log2",
]

# Widest power-of-two scale, in bits, that an exact value or error may
# carry; `formats.ExactValue.as_fraction` and `relerr.error_ratio` raise
# ValueError past it.  Every word and flip of a format with at most 16
# exponent bits stays within it.  It bounds the time to render one
# error: `relerr.error_values` of 2^(2^16) - 1 takes 14 ms, and the
# ratio and decimal of 2^(2^17) - 1 take 52 ms; the time grows faster
# than the bit count, to 3.4 s at 2^(2^20) - 1 (Python 3.11, one core
# of a 2-CPU Xeon).  A 62-bit exponent field would ask for integers of
# 2^61 bits, which cannot be allocated at all.
MAX_EXACT_BITS = 1 << 16

# A decimal literal whose leading digit lies past 10^±DECIMAL_EXPONENT_LIMIT
# is never built as an exact rational (10^2000000 alone takes 0.7 s).  A
# finite nonzero word that far out needs a scale past MAX_EXACT_BITS on
# every format: 10^20000 > 2^66438, and a word's scale lies below its
# binade's exponent by the fraction width, at most 61 bits.  A `bounds
# --tol` that far out lies below 2^-61, every format's finest level, or
# above 1/4, so it is refused as it is.
DECIMAL_EXPONENT_LIMIT = 20_000


def decimal_str(q: Fraction, digits: int = 5) -> str:
    """Render q with exactly `digits` significant digits, half-to-even.

    Positional notation while the leading digit sits in 10^-4..10^(digits-1),
    scientific ("1.8041e-16") outside that window.
    """
    return decimal_text(q.numerator, q.denominator, digits)


def decimal_text(n: int, d: int, digits: int = 5) -> str:
    """`decimal_str` of the rational n/d, for integers n and d > 0."""
    if digits < 1:
        raise ValueError("need at least one significant digit")
    if n == 0:
        return "0"
    ctx = _context(digits)
    q = ctx.divide(Decimal(abs(n)), Decimal(d))
    e10 = q.adjusted()
    ds = f"{q.scaleb(digits - 1 - e10, ctx):f}"  # pads an exact short quotient
    return ("-" if n < 0 else "") + _decimal_layout(ds, e10)


@lru_cache(maxsize=64)
def _context(digits: int) -> Context:
    """Round half to even at `digits` significant digits, over the widest
    exponent range, so that no quotient overflows or underflows.  Cached,
    since building a context takes longer than the division itself."""
    return Context(prec=digits, rounding=ROUND_HALF_EVEN, Emax=MAX_EMAX, Emin=MIN_EMIN)


# Float64 powers of ten, each correctly rounded, for `_float_decimals`.
_POW10 = np.array([float(10**k) for k in range(33)])


def decimal_texts(n: np.ndarray, d: np.ndarray, digits: int = 5) -> list[str]:
    """`decimal_text` of each n[i]/d[i], for uint64 arrays of n > 0 and d > 0.

    Lanes that `_float_decimals` certifies are laid out from its float64
    candidate; every other lane is rendered by `decimal_text`.
    """
    n, d = np.asarray(n, dtype=np.uint64), np.asarray(d, dtype=np.uint64)
    out = np.empty(n.size, dtype=object)
    m, e10, certified = _float_decimals(n, d, digits)
    lanes = np.flatnonzero(certified)
    texts = map(_decimal_layout, map(str, m[lanes].astype(np.int64).tolist()), e10[lanes].tolist())
    out[lanes] = np.fromiter(texts, dtype=object, count=lanes.size)
    for i in np.flatnonzero(~certified).tolist():
        out[i] = decimal_text(int(n[i]), int(d[i]), digits)
    return out.tolist()


def _float_decimals(
    n: np.ndarray, d: np.ndarray, digits: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Float64 digits m and decade e10 of each n/d, and whether each is certified.

    A lane is certified when n and d lie below 2^53 and `digits` is at
    most 15.  Its candidate s = fl(fl(n/d) * 10^k), the power of ten from
    `_POW10` (divided by where k < 0), then lies within 3u * s of the
    exact scaled value, u = 2^-53.  It must also clear every rounding tie
    (a half-integer) and both decade edges (10^(digits-1) and 10^digits)
    by more than s * 2^-50; then the exact value rounds to the same digits.
    """
    if not 1 <= digits <= 15:
        zero = np.zeros(n.size, dtype=np.int64)
        return zero, zero, zero.astype(bool)
    lo, hi = 10.0 ** (digits - 1), 10.0**digits
    v = n.astype(np.float64) / d.astype(np.float64)
    e10 = np.floor(np.log10(v)).astype(np.int64)
    k = digits - 1 - e10
    power = _POW10[np.minimum(np.abs(k), _POW10.size - 1)]
    s = np.where(k >= 0, v * power, v / power)
    margin = s * 2.0**-50
    certified = (
        (n < 1 << 53) & (d < 1 << 53)
        & (s > lo + margin) & (s < hi - margin)
        & (np.abs(s - np.floor(s) - 0.5) > margin)
    )
    m = np.floor(s + 0.5)  # no ties among the certified lanes
    carry = m == hi  # rounding carried into the next decade
    return np.where(carry, lo, m), e10 + carry, certified


# The scientific suffix "e+05" of each decade with |e10| < 100, made once.
_EXP_SUFFIX = {e10: f"e{e10:+03d}" for e10 in range(-99, 100)}


def _decimal_layout(ds: str, e10: int) -> str:
    """Place the significant digits `ds` of a value in [10^e10, 10^(e10+1)).

    Positional while e10 lies in -4..len(ds)-1, scientific outside.
    """
    if -4 <= e10 < len(ds):
        if e10 >= 0:
            head, tail = ds[: e10 + 1], ds[e10 + 1 :]
            return f"{head}.{tail}" if tail else head
        return "0." + "0" * (-e10 - 1) + ds
    suffix = _EXP_SUFFIX.get(e10) or f"e{e10:+03d}"
    return f"{ds[0]}.{ds[1:]}{suffix}"


def ratio_str(q: Fraction) -> str:
    """Exact lowest-terms form: '13/128', or just '2' for integers."""
    return ratio_text(q.numerator, q.denominator)


def ratio_text(n: int, d: int) -> str:
    """`ratio_str` of n/d, for d > 0 and n/d already in lowest terms."""
    try:
        return f"{n}/{d}" if d != 1 else str(n)
    except ValueError:  # past the int-to-str digit limit
        return f"{Decimal(n)}/{Decimal(d)}" if d != 1 else str(Decimal(n))


def log2_value(q: Fraction) -> float | None:
    """Approximate log2 of a positive rational; None for zero.

    Works for rationals far outside host-float range (2^1024 - 1 and up).
    """
    return log2_ratio(q.numerator, q.denominator)


def log2_ratio(n: int, d: int) -> float | None:
    """`log2_value` of n/d, for integers n >= 0 and d > 0."""
    if n < 0:
        raise ValueError("log2 of a negative rational")
    if n == 0:
        return None
    return math.log2(n) - math.log2(d)


def floor_log2(q: Fraction) -> int:
    """Exact floor(log2(q)) for a positive rational of any size."""
    if q <= 0:
        raise ValueError("floor_log2 needs a positive rational")
    # Bit lengths pin the result to {n-1, n}; one exact comparison settles it.
    n = q.numerator.bit_length() - q.denominator.bit_length()
    return n if q >= Fraction(2) ** n else n - 1


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


def parse_rational(text: str) -> Fraction:
    """Parse '13/128', '0.25', or '1e-11' into an exact Fraction; a decimal
    literal past 10^+-DECIMAL_EXPONENT_LIMIT is refused before it is built."""
    t = text.strip()
    if _far_literal(t) is not None:
        raise ValueError(f"{text!r} lies past 10^+-{DECIMAL_EXPONENT_LIMIT}: not built as an exact rational")
    try:
        if "/" in t:
            return Fraction(t)
        return Fraction(Decimal(t))
    except (InvalidOperation, ValueError, ZeroDivisionError, OverflowError):  # OverflowError: inf
        raise ValueError(f"not a rational: {text!r}") from None
