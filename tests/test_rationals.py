"""Exact rational rendering, parsing, and logarithms.

decimal_str is checked against the decimal module's own rounding as an
independent oracle, against a renderer written in Fraction arithmetic,
and against a frozen set of known renderings.
"""

from __future__ import annotations

import contextlib
import decimal
import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flip754 import decimal_str, floor_log2, log2_value, parse_rational, ratio_str, rationals
from conftest import package_env


FROZEN = [
    # five significant digits, round half to even
    (Fraction(17, 64), "0.26562"),     # 0.265625: tie, 2 is even
    (Fraction(27, 64), "0.42188"),     # 0.421875: tie, 8 is even
    (Fraction(53, 64), "0.82812"),     # 0.828125: tie, 2 is even
    (Fraction(41, 50), "0.82000"),     # trailing zeros kept
    (Fraction(53707, 65472), "0.82030"),
    (Fraction(1, 64), "0.015625"),
    (Fraction(2), "2.0000"),
    (Fraction(0), "0"),
    (Fraction(-13, 128), "-0.10156"),
    (Fraction(1, 10000), "0.00010000"),   # last positional magnitude
    (Fraction(1, 100000), "1.0000e-05"),  # first scientific magnitude
    (Fraction(99999), "99999"),
    (Fraction(100000), "1.0000e+05"),
    (Fraction(99999, 100000), "0.99999"),
    (Fraction(9999999, 10000000), "1.0000"),  # carry into the next decade
    (Fraction(52, (2**52 - 1) * 64), "1.8041e-16"),
    (Fraction(11, 2046 * 64) * Fraction(1, 2**52), "1.8653e-20"),
]


@pytest.mark.parametrize("q,text", FROZEN, ids=[t for _, t in FROZEN])
def test_decimal_str_frozen(q, text):
    assert decimal_str(q, 5) == text


def test_decimal_str_digit_counts():
    q = Fraction(1, 3)
    assert decimal_str(q, 1) == "0.3"
    assert decimal_str(q, 3) == "0.333"
    assert decimal_str(q, 10) == "0.3333333333"
    with pytest.raises(ValueError):
        decimal_str(q, 0)


def test_decimal_str_half_even_both_directions():
    assert decimal_str(Fraction(15, 1000), 1) == "0.02"  # 0.015 -> even 2
    assert decimal_str(Fraction(25, 1000), 1) == "0.02"  # 0.025 -> even 2
    assert decimal_str(Fraction(35, 1000), 1) == "0.04"  # 0.035 -> even 4


@given(
    st.fractions(
        min_value=Fraction(1, 10**30), max_value=Fraction(10**30)
    ),
    st.integers(1, 12),
)
@settings(max_examples=300)
def test_decimal_str_matches_decimal_module(q, digits):
    ctx = decimal.Context(prec=digits, rounding=decimal.ROUND_HALF_EVEN)
    oracle = ctx.divide(decimal.Decimal(q.numerator), decimal.Decimal(q.denominator))
    rendered = decimal_str(q, digits)
    assert Fraction(decimal.Decimal(rendered)) == Fraction(oracle)


@given(
    st.fractions(
        min_value=Fraction(1, 10**30), max_value=Fraction(10**30)
    ),
    st.integers(1, 12),
)
@settings(max_examples=200)
def test_decimal_str_keeps_significant_digit_count(q, digits):
    mantissa = decimal_str(q, digits).split("e")[0].replace("-", "").replace(".", "")
    assert len(mantissa.lstrip("0")) <= digits
    assert len(mantissa) >= digits or mantissa.startswith("0")


def fraction_decimal_str(q: Fraction, digits: int) -> str:
    """decimal_str written with Fraction arithmetic throughout: the reference."""
    if q == 0:
        return "0"
    sign = "-" if q < 0 else ""
    mag = abs(q)
    n = len(str(mag.numerator)) - len(str(mag.denominator))
    e10 = n if mag >= Fraction(10) ** n else n - 1
    scaled = mag * Fraction(10) ** (digits - 1 - e10)
    m = scaled.numerator // scaled.denominator
    rem = scaled - m
    if rem > Fraction(1, 2) or (rem == Fraction(1, 2) and m & 1):
        m += 1
    if m == 10**digits:
        m //= 10
        e10 += 1
    ds = str(m)
    if -4 <= e10 < digits:
        if e10 >= 0:
            head, tail = ds[: e10 + 1], ds[e10 + 1 :]
            return sign + (f"{head}.{tail}" if tail else head)
        return sign + "0." + "0" * (-e10 - 1) + ds
    return f"{sign}{ds[0]}.{ds[1:]}e{e10:+03d}"


@st.composite
def rationals_to_render(draw):
    """Wide rationals, plus values near decade carries and the window edges,
    at precisions on both sides of the `decimal` module's default of 28."""
    digits = draw(st.integers(1, 60))
    sign = draw(st.sampled_from([1, -1]))
    kind = draw(st.sampled_from(["wide", "carry", "edge"]))
    if kind == "wide":
        q = Fraction(draw(st.integers(1, 2**1100)), draw(st.integers(1, 2**1100)))
    else:
        if kind == "carry":  # just below 10^e, where rounding reaches 10^digits
            e = draw(st.integers(-30, 30))
        else:  # around the first and last positional decades
            e = draw(st.sampled_from([-5, -4, -3, digits - 2, digits - 1, digits]))
        step = Fraction(10) ** (e - digits) * Fraction(1, draw(st.integers(1, 40)))
        q = Fraction(10) ** e + draw(st.integers(-20, 20)) * step
        if q <= 0:
            q = Fraction(10) ** e
    return sign * q, digits


@given(rationals_to_render())
@settings(max_examples=600)
def test_decimal_str_matches_fraction_reference(case):
    q, digits = case
    assert decimal_str(q, digits) == fraction_decimal_str(q, digits)


@pytest.mark.parametrize("digits", [28, 29, 40, 60])
@pytest.mark.parametrize("q", [
    Fraction(1, 3), Fraction(-2, 3), Fraction(1, 2), Fraction(10**50 + 1, 7),
    Fraction(10**45 - 1, 10**60), Fraction(2**200 + 1, 2**100),
], ids=["1/3", "-2/3", "1/2", "(10^50+1)/7", "(10^45-1)/10^60", "(2^200+1)/2^100"])
def test_decimal_str_past_the_default_decimal_precision(q, digits):
    assert decimal_str(q, digits) == fraction_decimal_str(q, digits)


# Decades at both ends of the exponent suffix's two-digit form, past it
# and at the edges of the positional window.
SUFFIX_DECADES = [-101, -100, -99, -5, -4, 99, 100, 101]


@pytest.mark.parametrize("digits", [1, 5, 17])
@pytest.mark.parametrize("e", SUFFIX_DECADES)
def test_decimal_str_around_the_exponent_suffix_decades(e, digits):
    # One step of the last digit below 10^e stays in decade e - 1, half a
    # step below is a tie that carries into decade e, one step above rounds to 10^e.
    step = Fraction(10) ** (e - digits)
    for offset in (-step, -step / 2, 0, step):
        q = Fraction(10) ** e + offset
        assert decimal_str(q, digits) == fraction_decimal_str(q, digits)
        assert decimal_str(-q, digits) == fraction_decimal_str(-q, digits)


@contextlib.contextmanager
def no_int_str_limit():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("digits", [1, 5, 17])
def test_decimal_str_near_two_to_the_65535(digits):
    # Decade 19,727 and -19,728, past any table of suffixes.  The reference
    # prints the integers in full, so it runs without the int-to-str limit.
    big = 2**65535
    for q in (Fraction(big - 1), Fraction(big + 1, 3), Fraction(1, big - 1)):
        got = decimal_str(q, digits)
        with no_int_str_limit():
            assert got == fraction_decimal_str(q, digits)


@pytest.mark.parametrize("digits", [1, 5, 12])
@pytest.mark.parametrize("e10", [-300, -100, -99, 99, 100, 300])
def test_decimal_texts_lays_out_certified_lanes_at_far_decades(monkeypatch, e10, digits):
    # A ratio of two uint64 lies within 10^-20..10^20, so no lane reaches
    # these decades.  Every lane here lies in [1, 10) and is certified;
    # shifting its certified decade by e10 must render it as `decimal_text`
    # renders the ratio times 10^e10.
    n = np.array([3, 7, 12345, 99999, 31415926535], dtype=np.uint64)
    d = np.array([1, 3, 10000, 10000, 10000000000], dtype=np.uint64)
    float_decimals = rationals._float_decimals
    assert float_decimals(n, d, digits)[2].all()

    def shifted(n, d, digits):
        m, e, certified = float_decimals(n, d, digits)
        return m, e + e10, certified

    monkeypatch.setattr(rationals, "_float_decimals", shifted)
    scale = 10 ** abs(e10)
    want = [
        rationals.decimal_text(a * scale, b, digits) if e10 > 0
        else rationals.decimal_text(a, b * scale, digits)
        for a, b in zip(n.tolist(), d.tolist())
    ]
    assert rationals.decimal_texts(n, d, digits) == want


def test_ratio_str():
    assert ratio_str(Fraction(13, 128)) == "13/128"
    assert ratio_str(Fraction(4, 2)) == "2"
    assert ratio_str(Fraction(-1, 4)) == "-1/4"


def full_digits(n: int) -> str:
    """The decimal digits of n >= 0, built 18 at a time: `str` refuses
    integers past `sys.get_int_max_str_digits()` digits."""
    parts = []
    while n >= 10**18:
        n, r = divmod(n, 10**18)
        parts.append(f"{r:018d}")
    return str(n) + "".join(reversed(parts))


BIG = [2**2048 - 1, 2**2048, 10**4300, 10**4300 + 1, 2**16384 - 1, 3**12000]


@pytest.mark.parametrize("n", BIG, ids=lambda n: f"{n.bit_length()}bits")
def test_ratio_str_past_the_int_str_digit_limit(n):
    assert ratio_str(Fraction(n)) == full_digits(n)
    assert ratio_str(Fraction(-n)) == "-" + full_digits(n)
    q = Fraction(-7, n)
    assert ratio_str(q) == f"-{full_digits(-q.numerator)}/{full_digits(q.denominator)}"


@given(st.sampled_from(BIG), st.integers(-3, 3), st.sampled_from([1, 5, 17, 4400]))
@settings(max_examples=60, deadline=None)
def test_decimal_str_past_the_int_str_digit_limit(n, offset, digits):
    for q in (Fraction(n + offset), Fraction(1, n + offset), Fraction(n + offset, 7)):
        ctx = decimal.Context(prec=digits, rounding=decimal.ROUND_HALF_EVEN, Emax=10**6, Emin=-(10**6))
        oracle = ctx.divide(decimal.Decimal(q.numerator), decimal.Decimal(q.denominator))
        rendered = decimal_str(q, digits)
        assert Fraction(decimal.Decimal(rendered)) == Fraction(oracle)
        assert len(rendered.split("e")[0].replace(".", "").lstrip("0")) == digits


def test_parse_rational():
    assert parse_rational("13/128") == Fraction(13, 128)
    assert parse_rational("0.25") == Fraction(1, 4)
    assert parse_rational("1e-11") == Fraction(1, 10**11)
    assert parse_rational("-2.5e3") == -2500
    assert parse_rational(" 3/4 ") == Fraction(3, 4)
    # Decimal reads the last six; Fraction(Decimal("inf")) raises OverflowError
    for bad in ("", "zzz", "1/0", "0x10", "1/2/3", "inf", "Infinity", "-inf", "+INF", "nan", "sNaN"):
        with pytest.raises(ValueError, match="not a rational"):
            parse_rational(bad)


def test_parse_rational_refuses_far_literals_before_building_them():
    limit = rationals.DECIMAL_EXPONENT_LIMIT
    assert parse_rational(f"1e-{limit}") == Fraction(1, 10**limit)
    for far in (f"1e-{limit + 1}", "1e-30000", "-7.5e30000", f"1e{limit + 1}"):
        with pytest.raises(ValueError, match=f"past 10\\^\\+-{limit}"):
            parse_rational(far)


def test_parse_rational_refuses_a_huge_exponent_within_seconds():
    """Built exactly, 1e999999999999999999 was still running after two
    minutes; a child process with a timeout fails rather than hangs."""
    code = (
        "from flip754.rationals import parse_rational\n"
        "try:\n    parse_rational('1e999999999999999999')\n"
        "except ValueError as exc:\n    print(exc)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=30, env=package_env())
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout == "'1e999999999999999999' lies past 10^+-20000: not built as an exact rational\n"


@given(st.fractions())
@settings(max_examples=200)
def test_parse_ratio_round_trip(q):
    assert parse_rational(ratio_str(q)) == q


def test_log2_value():
    assert log2_value(Fraction(0)) is None
    assert log2_value(Fraction(8)) == 3.0
    assert log2_value(Fraction(1, 2)) == -1.0
    # beyond host-float range: 2^1024 overflows float() but not this
    assert log2_value(Fraction(2) ** 1024) == 1024.0
    big = Fraction(2**1024 - 1)
    assert math.isclose(log2_value(big), 1024.0, rel_tol=1e-12)
    with pytest.raises(ValueError):
        log2_value(Fraction(-1))


def test_floor_log2_known_values():
    assert floor_log2(Fraction(1)) == 0
    assert floor_log2(Fraction(1, 2)) == -1
    assert floor_log2(Fraction(3, 4)) == -1
    assert floor_log2(Fraction(10**11)) == 36
    assert floor_log2(Fraction(2) ** 1024) == 1024
    with pytest.raises(ValueError):
        floor_log2(Fraction(0))


@given(st.fractions(min_value=Fraction(1, 10**40), max_value=Fraction(10**40)))
@settings(max_examples=300)
def test_floor_log2_bracketing(q):
    n = floor_log2(q)
    assert Fraction(2) ** n <= q < Fraction(2) ** (n + 1)
