"""A seeded million-flip sampling campaign checked against the closed forms."""

from flip754 import (
    BINARY64,
    BucketConvention,
    CampaignConfig,
    FpClass,
    compare,
    run_campaign,
    transition_matrix,
)

# ── one campaign, bit-for-bit reproducible ────────────────────────────────

# binary64 has far too many words to enumerate, so we sample: words
# uniform in the source class, positions uniform in 0..63.  The seed
# fixes every tally; chunks draw from per-index generator streams, so
# the worker count changes wall time, never a single count.

config = CampaignConfig(
    fmt=BINARY64,
    source_class=FpClass.NORMALIZED,
    sample_count=1_000_000,
    seed=424242,
)
report = run_campaign(config, workers=4)
again = run_campaign(config, workers=1)
assert report == again
print(f"campaign: {config.sample_count:,} normalized flips, seed {config.seed}")
print("4 workers and 1 worker produce identical tallies\n")

# ── tallies next to their expectations ────────────────────────────────────

tally = report.tally
n = report.cases
matrix = transition_matrix(BINARY64)
print("class transitions (observed vs expected):")
for dst in (FpClass.NORMALIZED, FpClass.DENORMALIZED, FpClass.NAN, FpClass.INF):
    seen = tally.transition(FpClass.NORMALIZED, dst)
    want = float(matrix.entry(FpClass.NORMALIZED, dst)) * n
    print(f"  -> {dst.value:>13s}: {seen:8d}  (expected {want:10.1f})")

buckets = tally.bucket_view(BucketConvention.MERGED)
print("\nerror-magnitude buckets:")
for name, count in buckets.items():
    print(f"  {name:>21s}: {count:8d}  ({count / n:.5f})")

# ── the binomial verdict ──────────────────────────────────────────────────

# Every cell with probability above 1e-6 must sit within 4 binomial
# standard deviations; rarer cells are unresolvable at this sample size
# and are skipped (to_inf at 1.9e-20 would need ~10^20 samples).

verdict = compare(report)
judged = [c for c in verdict.cells if not c.skipped]
skipped = [c.name for c in verdict.cells if c.skipped]
worst = max((abs(c.z) for c in judged if c.z is not None), default=0.0)
print(f"\ncompare(): {len(judged)} cells judged, worst |z| = {worst:.2f}, "
      f"skipped {skipped}")
assert verdict.passed
print("campaign agrees with the closed forms at 4 sigma")
