#include "stats/histogram.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace defuse::stats {
namespace {

TEST(Histogram, StartsEmpty) {
  Histogram h{10, 1};
  EXPECT_EQ(h.total(), 0u);
  EXPECT_EQ(h.total_in_range(), 0u);
  EXPECT_EQ(h.out_of_bounds(), 0u);
  EXPECT_EQ(h.num_bins(), 10u);
  EXPECT_EQ(h.bin_width(), 1);
}

TEST(Histogram, AddPlacesValueInCorrectBin) {
  Histogram h{10, 1};
  h.Add(0);
  h.Add(3);
  h.Add(3);
  h.Add(9);
  EXPECT_EQ(h.counts()[0], 1u);
  EXPECT_EQ(h.counts()[3], 2u);
  EXPECT_EQ(h.counts()[9], 1u);
  EXPECT_EQ(h.total_in_range(), 4u);
}

TEST(Histogram, WiderBinsGroupValues) {
  Histogram h{4, 5};  // bins [0,5) [5,10) [10,15) [15,20)
  h.Add(0);
  h.Add(4);
  h.Add(5);
  h.Add(14);
  h.Add(19);
  EXPECT_EQ(h.counts()[0], 2u);
  EXPECT_EQ(h.counts()[1], 1u);
  EXPECT_EQ(h.counts()[2], 1u);
  EXPECT_EQ(h.counts()[3], 1u);
}

TEST(Histogram, ValuesPastRangeAreOutOfBounds) {
  Histogram h{10, 1};
  h.Add(10);
  h.Add(100);
  EXPECT_EQ(h.total_in_range(), 0u);
  EXPECT_EQ(h.out_of_bounds(), 2u);
  EXPECT_DOUBLE_EQ(h.out_of_bounds_fraction(), 1.0);
}

// Regression: negative idle times (clock skew in the feeding trace) used
// to be clamped into bin 0, indistinguishable from a real immediate
// re-invocation — dragging the pre-warm percentile toward zero. They are
// quarantined in their own counter now and touch no bin or percentile.
TEST(Histogram, NegativeValuesAreQuarantinedNotClamped) {
  Histogram h{10, 1};
  h.Add(-5);
  h.AddCount(-1, 3);
  EXPECT_EQ(h.counts()[0], 0u);
  EXPECT_EQ(h.negative_count(), 4u);
  EXPECT_EQ(h.total_in_range(), 0u);
  EXPECT_EQ(h.total(), 0u);  // negatives are not observations
}

TEST(Histogram, NegativeValuesDoNotMovePercentilesOrCv) {
  Histogram clean{10, 1}, skewed{10, 1};
  for (MinuteDelta v : {4, 4, 5, 6}) {
    clean.Add(v);
    skewed.Add(v);
  }
  skewed.AddCount(-3, 100);
  EXPECT_EQ(skewed.Percentile(0.05), clean.Percentile(0.05));
  EXPECT_DOUBLE_EQ(skewed.BinCountCv(), clean.BinCountCv());
  EXPECT_EQ(skewed.negative_count(), 100u);
}

TEST(Histogram, MergeAndClearCarryNegativeCount) {
  Histogram a{5, 1}, b{5, 1};
  a.Add(-1);
  b.AddCount(-2, 2);
  a.Merge(b);
  EXPECT_EQ(a.negative_count(), 3u);
  a.Clear();
  EXPECT_EQ(a.negative_count(), 0u);
}

TEST(Histogram, SerializeRoundTripsNegativeCount) {
  Histogram h{10, 1};
  h.Add(2);
  h.AddCount(-7, 5);
  Histogram loaded{10, 1};
  ASSERT_TRUE(loaded.Deserialize(h.Serialize()));
  EXPECT_EQ(loaded.negative_count(), 5u);
  EXPECT_EQ(loaded.counts()[2], 1u);
}

// States written before the negative counter existed use the two-pipe
// "width|oob|bins" form; they must still load (negatives default to 0).
TEST(Histogram, DeserializeAcceptsPreNegativeCounterFormat) {
  Histogram h{10, 1};
  ASSERT_TRUE(h.Deserialize("1|2|0:1,3:4"));
  EXPECT_EQ(h.out_of_bounds(), 2u);
  EXPECT_EQ(h.negative_count(), 0u);
  EXPECT_EQ(h.counts()[0], 1u);
  EXPECT_EQ(h.counts()[3], 4u);
}

// Regression for the -Wconversion/overflow audit: a serialized bin
// index of 2^64+1 used to wrap the unchecked `value*10+digit` parse to
// 1 and silently land its count in bin 1. Arithmetic overflow in any
// numeric field must reject the whole snapshot instead.
TEST(Histogram, DeserializeRejectsOverflowingNumbers) {
  Histogram h{10, 1};
  // 2^64 + 1 == 18446744073709551617: wraps to 1 without the check.
  EXPECT_FALSE(h.Deserialize("1|0|0|18446744073709551617:5"));
  EXPECT_EQ(h.counts()[1], 0u);
  EXPECT_EQ(h.total_in_range(), 0u);
  // Overflowing count field.
  EXPECT_FALSE(h.Deserialize("1|0|0|2:99999999999999999999"));
  // Overflowing out-of-bounds header field.
  EXPECT_FALSE(h.Deserialize("1|18446744073709551616|0|2:1"));
  // The u64 maximum itself still parses (boundary, not overflow).
  EXPECT_TRUE(h.Deserialize("1|18446744073709551615|0|2:1"));
  EXPECT_EQ(h.out_of_bounds(), 18446744073709551615ull);
  EXPECT_EQ(h.counts()[2], 1u);
}

TEST(Histogram, AddCountAccumulates) {
  Histogram h{10, 1};
  h.AddCount(2, 7);
  h.AddCount(2, 0);  // no-op
  EXPECT_EQ(h.counts()[2], 7u);
  EXPECT_EQ(h.total_in_range(), 7u);
}

TEST(Histogram, MergeAddsCountsAndOob) {
  Histogram a{5, 1}, b{5, 1};
  a.Add(1);
  b.Add(1);
  b.Add(4);
  b.Add(99);
  a.Merge(b);
  EXPECT_EQ(a.counts()[1], 2u);
  EXPECT_EQ(a.counts()[4], 1u);
  EXPECT_EQ(a.out_of_bounds(), 1u);
  EXPECT_EQ(a.total(), 4u);
}

TEST(Histogram, ClearResetsEverything) {
  Histogram h{5, 1};
  h.Add(1);
  h.Add(99);
  h.Clear();
  EXPECT_EQ(h.total(), 0u);
  EXPECT_EQ(h.counts()[1], 0u);
}

TEST(Histogram, CvOfEmptyIsZero) {
  Histogram h{10, 1};
  EXPECT_DOUBLE_EQ(h.BinCountCv(), 0.0);
}

TEST(Histogram, CvOfPerfectlyFlatIsZero) {
  Histogram h{10, 1};
  for (MinuteDelta v = 0; v < 10; ++v) h.Add(v);
  EXPECT_NEAR(h.BinCountCv(), 0.0, 1e-12);
}

TEST(Histogram, CvOfSingleSpikeIsSqrtBinsMinusOne) {
  // All mass in one of n bins: mean = N/n, stddev = N*sqrt(n-1)/n,
  // CV = sqrt(n-1).
  Histogram h{16, 1};
  h.AddCount(3, 1000);
  EXPECT_NEAR(h.BinCountCv(), std::sqrt(15.0), 1e-9);
}

TEST(Histogram, PeakedHistogramHasHigherCvThanSpread) {
  Histogram peaked{240, 1}, spread{240, 1};
  peaked.AddCount(10, 100);
  for (int i = 0; i < 100; ++i) spread.Add(i * 2);
  EXPECT_GT(peaked.BinCountCv(), spread.BinCountCv());
}

TEST(Histogram, PercentileOfEmptyIsZero) {
  Histogram h{10, 1};
  EXPECT_EQ(h.Percentile(0.5), 0);
}

TEST(Histogram, PercentileSingleBin) {
  Histogram h{10, 1};
  h.AddCount(4, 100);
  // Everything in bin 4 => any percentile is that bin's upper edge.
  EXPECT_EQ(h.Percentile(0.05), 5);
  EXPECT_EQ(h.Percentile(0.5), 5);
  EXPECT_EQ(h.Percentile(0.95), 5);
  EXPECT_EQ(h.PercentileLowerEdge(0.05), 4);
  EXPECT_EQ(h.PercentileLowerEdge(0.95), 4);
}

TEST(Histogram, PercentileSpansDistribution) {
  Histogram h{100, 1};
  for (MinuteDelta v = 0; v < 100; ++v) h.Add(v);  // uniform
  EXPECT_EQ(h.Percentile(0.05), 5);
  EXPECT_EQ(h.Percentile(0.50), 50);
  EXPECT_EQ(h.Percentile(0.95), 95);
  EXPECT_EQ(h.PercentileLowerEdge(0.05), 4);
  EXPECT_EQ(h.PercentileLowerEdge(0.95), 94);
}

TEST(Histogram, PercentileRespectsBinWidth) {
  Histogram h{10, 5};
  h.AddCount(12, 10);  // bin 2: [10, 15)
  EXPECT_EQ(h.Percentile(0.5), 15);
  EXPECT_EQ(h.PercentileLowerEdge(0.5), 10);
}

TEST(Histogram, PercentileClampsQ) {
  Histogram h{10, 1};
  h.Add(3);
  EXPECT_EQ(h.Percentile(-0.5), 4);
  EXPECT_EQ(h.Percentile(2.0), 4);
}

TEST(Histogram, PercentileIgnoresOutOfBounds) {
  Histogram h{10, 1};
  h.Add(2);
  h.AddCount(50, 100);  // out of bounds
  EXPECT_EQ(h.Percentile(0.99), 3);
}

TEST(Histogram, CdfIsMonotoneAndBounded) {
  Histogram h{10, 1};
  h.Add(2);
  h.Add(5);
  h.Add(8);
  double prev = -1.0;
  for (MinuteDelta v = 0; v < 12; ++v) {
    const double c = h.Cdf(v);
    EXPECT_GE(c, prev);
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0);
    prev = c;
  }
  EXPECT_DOUBLE_EQ(h.Cdf(20), 1.0);
  EXPECT_DOUBLE_EQ(h.Cdf(-1), 0.0);
}

TEST(Histogram, CdfValues) {
  Histogram h{10, 1};
  h.Add(0);
  h.Add(5);
  EXPECT_DOUBLE_EQ(h.Cdf(0), 0.5);
  EXPECT_DOUBLE_EQ(h.Cdf(4), 0.5);
  EXPECT_DOUBLE_EQ(h.Cdf(5), 1.0);
}

TEST(Histogram, MeanValueUsesBinMidpoints) {
  Histogram h{10, 2};
  h.AddCount(0, 1);  // bin 0, mid 1.0
  h.AddCount(2, 1);  // bin 1, mid 3.0
  EXPECT_DOUBLE_EQ(h.MeanValue(), 2.0);
}

TEST(Histogram, MeanValueOfEmptyIsZero) {
  Histogram h{10, 1};
  EXPECT_DOUBLE_EQ(h.MeanValue(), 0.0);
}

TEST(Histogram, ModeBinOfEmptyIsZero) {
  Histogram h{10, 1};
  EXPECT_EQ(h.ModeBin(), (std::pair<std::size_t, std::uint64_t>{0, 0}));
}

TEST(Histogram, ModeBinFindsTheMostPopulated) {
  Histogram h{10, 1};
  h.AddCount(3, 5);
  h.AddCount(7, 9);
  h.AddCount(2, 1);
  EXPECT_EQ(h.ModeBin(), (std::pair<std::size_t, std::uint64_t>{7, 9}));
}

TEST(Histogram, ModeBinTiesResolveToLowestBin) {
  Histogram h{10, 1};
  h.AddCount(4, 3);
  h.AddCount(8, 3);
  EXPECT_EQ(h.ModeBin().first, 4u);
}

TEST(Histogram, ModeMassFractionCountsNeighborhood) {
  Histogram h{10, 1};
  h.AddCount(4, 6);
  h.AddCount(5, 2);
  h.AddCount(9, 2);
  // Mode at 4; radius 1 covers bins 3..5 -> 8 of 10.
  EXPECT_DOUBLE_EQ(h.ModeMassFraction(1), 0.8);
  EXPECT_DOUBLE_EQ(h.ModeMassFraction(0), 0.6);
  EXPECT_DOUBLE_EQ(h.ModeMassFraction(9), 1.0);
}

TEST(Histogram, ModeMassFractionAtBoundaries) {
  Histogram h{10, 1};
  h.AddCount(0, 5);
  h.AddCount(9, 5);
  EXPECT_DOUBLE_EQ(h.ModeMassFraction(1), 0.5);  // bins 0..1
  EXPECT_DOUBLE_EQ(Histogram(10, 1).ModeMassFraction(1), 0.0);
}

TEST(Histogram, MakeIdleTimeHistogramShape) {
  const auto h = Histogram::MakeIdleTimeHistogram();
  EXPECT_EQ(h.num_bins(), 240u);
  EXPECT_EQ(h.bin_width(), 1);
}

TEST(Histogram, SerializeRoundTrips) {
  Histogram h{20, 1};
  h.AddCount(3, 5);
  h.AddCount(17, 2);
  h.AddCount(100, 7);  // out of bounds
  Histogram loaded{20, 1};
  ASSERT_TRUE(loaded.Deserialize(h.Serialize()));
  EXPECT_EQ(loaded.counts(), h.counts());
  EXPECT_EQ(loaded.out_of_bounds(), h.out_of_bounds());
  EXPECT_EQ(loaded.total(), h.total());
}

TEST(Histogram, SerializeEmptyHistogram) {
  Histogram h{20, 1};
  Histogram loaded{20, 1};
  ASSERT_TRUE(loaded.Deserialize(h.Serialize()));
  EXPECT_EQ(loaded.total(), 0u);
}

TEST(Histogram, DeserializeRejectsMalformedInput) {
  Histogram h{20, 1};
  EXPECT_FALSE(h.Deserialize(""));
  EXPECT_FALSE(h.Deserialize("nonsense"));
  EXPECT_FALSE(h.Deserialize("1|x|0:1"));
  EXPECT_FALSE(h.Deserialize("1|0|0-1"));
  EXPECT_FALSE(h.Deserialize("2|0|0:1"));  // wrong bin width
  EXPECT_EQ(h.total(), 0u);
}

TEST(Histogram, DeserializeIntoNarrowerShapeCountsOob) {
  Histogram wide{100, 1};
  wide.AddCount(50, 4);
  wide.AddCount(5, 1);
  Histogram narrow{10, 1};
  ASSERT_TRUE(narrow.Deserialize(wide.Serialize()));
  EXPECT_EQ(narrow.counts()[5], 1u);
  EXPECT_EQ(narrow.out_of_bounds(), 4u);
}

// Property sweep: for a histogram filled from a uniform grid, the q-th
// percentile must be within one bin of q * range.
class HistogramPercentileSweep
    : public ::testing::TestWithParam<std::tuple<double, int>> {};

TEST_P(HistogramPercentileSweep, PercentileTracksUniformMass) {
  const auto [q, bin_width] = GetParam();
  Histogram h{200, bin_width};
  const MinuteDelta range = 200 * bin_width;
  for (MinuteDelta v = 0; v < range; ++v) h.Add(v);
  const auto p = h.Percentile(q);
  EXPECT_NEAR(static_cast<double>(p), q * static_cast<double>(range),
              static_cast<double>(bin_width) + 1e-9);
  EXPECT_EQ(h.PercentileLowerEdge(q), p - bin_width);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HistogramPercentileSweep,
    ::testing::Combine(::testing::Values(0.01, 0.05, 0.25, 0.5, 0.75, 0.95,
                                         0.99),
                       ::testing::Values(1, 3, 10)));

// --- Running moments vs linear scans -----------------------------------

/// ModeBin as a linear scan: the lowest bin with the largest count.
std::pair<std::size_t, std::uint64_t> ScanModeBin(const Histogram& h) {
  std::pair<std::size_t, std::uint64_t> best{0, 0};
  for (std::size_t i = 0; i < h.counts().size(); ++i) {
    if (h.counts()[i] > best.second) best = {i, h.counts()[i]};
  }
  return best;
}

/// Checks the O(1) answers against the scans, at fixed thresholds and at
/// the loop's own CV and its neighbouring doubles (exact ties).
void ExpectMomentsMatchScans(const Histogram& h) {
  EXPECT_EQ(h.ModeBin(), ScanModeBin(h));
  const double cv = h.BinCountCv();
  for (const double t :
       {0.0, -1.0, 0.5, 1.0, 2.0, 5.0, 15.0, 1e9, cv,
        std::nextafter(cv, -1.0), std::nextafter(cv, 1e300), cv * (1 + 1e-8),
        cv * (1 - 1e-8)}) {
    EXPECT_EQ(h.BinCountCvExceeds(t), cv > t) << "cv=" << cv << " t=" << t;
  }
}

TEST(HistogramMoments, RandomOperationSequencesMatchTheScans) {
  Rng rng{20240};
  for (int trial = 0; trial < 40; ++trial) {
    // Few bins and few distinct values give many exact count ties.
    const auto bins = static_cast<std::size_t>(rng.NextInRange(1, 30));
    Histogram h{bins, 1};
    Histogram other{bins, 1};
    const auto value = [&] {
      return rng.NextInRange(-1, static_cast<std::int64_t>(bins) + 1);
    };
    for (int step = 0; step < 150; ++step) {
      switch (rng.NextBelow(10)) {
        case 0:
          other.AddCount(value(), rng.NextBelow(4));
          h.Merge(other);
          break;
        case 1: {
          Histogram copy{bins, 1};
          ASSERT_TRUE(copy.Deserialize(h.Serialize()));
          h = copy;
          break;
        }
        case 2:
          if (rng.NextBelow(8) == 0) h.Clear();
          break;
        case 3:
          // Large counts push T across the 2^26 exact-integer bound.
          h.AddCount(value(), rng.NextBelow(2) == 0 ? rng.NextBelow(5)
                                                    : rng.NextBelow(1 << 21));
          break;
        default:
          h.Add(value());
          break;
      }
      ExpectMomentsMatchScans(h);
      if (HasFailure()) return;
    }
  }
}

TEST(HistogramMoments, AllMassInOneBinHitsTheThresholdExactly) {
  // n bins, all mass in one: CV = sqrt(n - 1) exactly. 26 bins sits on
  // the paper's CV threshold of 5, 2 bins on 1.
  for (const auto& [bins, cv] :
       {std::pair<std::size_t, double>{26, 5.0}, {2, 1.0}}) {
    for (const std::uint64_t mass : {1ULL, 7ULL, 1000ULL}) {
      Histogram h{bins, 1};
      h.AddCount(static_cast<MinuteDelta>(bins - 1), mass);
      EXPECT_EQ(h.BinCountCvExceeds(cv), h.BinCountCv() > cv);
      ExpectMomentsMatchScans(h);
    }
  }
}

TEST(HistogramMoments, ZeroThresholdAndFlatHistograms) {
  Histogram empty{10, 1};
  EXPECT_FALSE(empty.BinCountCvExceeds(0.0));
  EXPECT_TRUE(empty.BinCountCvExceeds(-0.5));
  Histogram flat{10, 1};
  for (MinuteDelta v = 0; v < 10; ++v) flat.AddCount(v, 3);
  EXPECT_EQ(flat.BinCountCvExceeds(0.0), flat.BinCountCv() > 0.0);
  flat.Add(4);
  EXPECT_TRUE(flat.BinCountCvExceeds(0.0));
  ExpectMomentsMatchScans(flat);
}

TEST(HistogramMoments, ASnapshotWhoseTotalWrapsTakesTheLoop) {
  // Corrupt state: the in-range total wraps to 4, which alone would pass
  // the exact-integer bound with a meaningless Σc².
  Histogram h{2, 1};
  ASSERT_TRUE(h.Deserialize("1|0|0|0:18446744073709551615,1:5"));
  EXPECT_EQ(h.total_in_range(), 4u);
  ExpectMomentsMatchScans(h);
}

TEST(HistogramMoments, PastTheExactIntegerBoundFallsBackToTheLoop) {
  // T above 2^26, and more than 2^10 bins: both take the loop.
  Histogram heavy{240, 1};
  heavy.AddCount(3, std::uint64_t{1} << 27);
  heavy.AddCount(9, (std::uint64_t{1} << 26) + 5);
  heavy.AddCount(100, 12345);
  ExpectMomentsMatchScans(heavy);
  heavy.AddCount(3, std::uint64_t{1} << 40);
  ExpectMomentsMatchScans(heavy);
  Histogram wide{2000, 1};
  for (MinuteDelta v = 0; v < 2000; v += 7) {
    wide.AddCount(v, 1 + static_cast<std::uint64_t>(v % 5));
  }
  ExpectMomentsMatchScans(wide);
}

}  // namespace
}  // namespace defuse::stats
