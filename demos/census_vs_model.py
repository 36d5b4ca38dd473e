"""Every flip of every word of a small format, recounted against the model."""

from fractions import Fraction

from flip754 import (
    FpClass,
    FpFormat,
    class_size,
    compare,
    exhaustive_census,
    transition_matrix,
)

CLASSES = [FpClass.NORMALIZED, FpClass.DENORMALIZED, FpClass.NAN, FpClass.INF]

# ── a format small enough to enumerate completely ─────────────────────────

fmt = FpFormat(4, 3)  # 8-bit words: 1 sign, 4 exponent, 3 fraction bits
print(f"format {fmt.name}: {fmt.total_bits}-bit words, bias {fmt.bias}")
for cls in CLASSES:
    print(f"  {cls.value:>13s}: {class_size(fmt, cls):3d} words")
print(f"  {'total':>13s}: {1 << fmt.total_bits} words\n")

# ── census: count, don't sample ───────────────────────────────────────────

# The census walks all 256 words x 8 positions = 2048 flips with exact
# integer logic, so its frequencies are rationals, not estimates.

matrix = transition_matrix(fmt)
for cls in CLASSES:
    report = exhaustive_census(fmt, cls)
    frac = {dst: report.transition_fraction(cls, dst) for dst in CLASSES}
    cells = "  ".join(
        f"{dst.value[:4]}={str(q):>6s}" for dst, q in frac.items()
    )
    print(f"{cls.value:>13s} ({report.cases:4d} flips): {cells}")
    for dst in CLASSES:
        assert frac[dst] == matrix.entry(cls, dst)
print("\nevery observed frequency equals its closed form exactly")

# ── the comparison report does the same, mechanically ─────────────────────

report = exhaustive_census(fmt, FpClass.NORMALIZED)
verdict = compare(report)
print(f"\ncompare() on the normalized census: mode={verdict.mode}, "
      f"{len(verdict.cells)} cells, passed={verdict.passed}")

# The normalized comparison covers the transition row, the three error
# buckets, and the dyadic CDF levels; each cell is an exact equality.
for cell in verdict.cells:
    assert Fraction(cell.observed, cell.total) == cell.expected
print("all cells are exact rational equalities, including the error CDF")
