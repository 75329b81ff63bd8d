#include "trace/invocation_trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"

namespace defuse::trace {
namespace {

constexpr FunctionId kF0{0};
constexpr FunctionId kF1{1};

TEST(InvocationTrace, EmptyTrace) {
  InvocationTrace trace{2, TimeRange{0, 100}};
  trace.Finalize();
  EXPECT_TRUE(trace.series(kF0).empty());
  EXPECT_EQ(trace.TotalInvocations(kF0, TimeRange{0, 100}), 0u);
}

TEST(InvocationTrace, AddAccumulatesSameMinute) {
  InvocationTrace trace{1, TimeRange{0, 10}};
  trace.Add(kF0, 3, 2);
  trace.Add(kF0, 3, 5);
  trace.Finalize();
  ASSERT_EQ(trace.series(kF0).size(), 1u);
  EXPECT_EQ(trace.series(kF0)[0], (InvocationEvent{3, 7}));
}

TEST(InvocationTrace, ZeroCountIsIgnored) {
  InvocationTrace trace{1, TimeRange{0, 10}};
  trace.Add(kF0, 3, 0);
  trace.Finalize();
  EXPECT_TRUE(trace.series(kF0).empty());
}

TEST(InvocationTrace, OutOfOrderEventsAreSortedAndCoalesced) {
  InvocationTrace trace{1, TimeRange{0, 10}};
  trace.Add(kF0, 5);
  trace.Add(kF0, 2);
  trace.Add(kF0, 5, 3);
  trace.Add(kF0, 2);
  trace.Finalize();
  const auto s = trace.series(kF0);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s[0], (InvocationEvent{2, 2}));
  EXPECT_EQ(s[1], (InvocationEvent{5, 4}));
}

TEST(InvocationTrace, FinalizeIsIdempotent) {
  InvocationTrace trace{1, TimeRange{0, 10}};
  trace.Add(kF0, 5);
  trace.Add(kF0, 2);
  trace.Finalize();
  trace.Finalize();
  EXPECT_EQ(trace.series(kF0).size(), 2u);
}

TEST(InvocationTrace, SeriesInRangeClipsBothEnds) {
  InvocationTrace trace{1, TimeRange{0, 100}};
  for (Minute t : {10, 20, 30, 40, 50}) trace.Add(kF0, t);
  trace.Finalize();
  const auto s = trace.SeriesInRange(kF0, TimeRange{20, 41});
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s[0].minute, 20);
  EXPECT_EQ(s[2].minute, 40);
}

TEST(InvocationTrace, SeriesInRangeEmptyRange) {
  InvocationTrace trace{1, TimeRange{0, 100}};
  trace.Add(kF0, 5);
  trace.Finalize();
  EXPECT_TRUE(trace.SeriesInRange(kF0, TimeRange{6, 6}).empty());
  EXPECT_TRUE(trace.SeriesInRange(kF0, TimeRange{50, 60}).empty());
}

TEST(InvocationTrace, TotalAndActiveMinutes) {
  InvocationTrace trace{2, TimeRange{0, 100}};
  trace.Add(kF0, 1, 10);
  trace.Add(kF0, 2, 5);
  trace.Add(kF1, 2, 1);
  trace.Finalize();
  EXPECT_EQ(trace.TotalInvocations(kF0, TimeRange{0, 100}), 15u);
  EXPECT_EQ(trace.ActiveMinutes(kF0, TimeRange{0, 100}), 2u);
  EXPECT_EQ(trace.TotalInvocations(TimeRange{0, 100}), 16u);
  EXPECT_EQ(trace.TotalInvocations(TimeRange{2, 3}), 6u);
}

TEST(InvocationTrace, IdleTimesAreGapsBetweenActiveMinutes) {
  InvocationTrace trace{1, TimeRange{0, 100}};
  for (Minute t : {3, 5, 10}) trace.Add(kF0, t);
  trace.Finalize();
  EXPECT_EQ(trace.IdleTimes(kF0, TimeRange{0, 100}),
            (std::vector<MinuteDelta>{2, 5}));
}

TEST(InvocationTrace, IdleTimesNeedTwoEvents) {
  InvocationTrace trace{1, TimeRange{0, 100}};
  trace.Add(kF0, 3);
  trace.Finalize();
  EXPECT_TRUE(trace.IdleTimes(kF0, TimeRange{0, 100}).empty());
}

TEST(InvocationTrace, IdleTimesRespectRange) {
  InvocationTrace trace{1, TimeRange{0, 100}};
  for (Minute t : {0, 10, 20, 30}) trace.Add(kF0, t);
  trace.Finalize();
  // Only events at 10 and 20 are inside [5, 25).
  EXPECT_EQ(trace.IdleTimes(kF0, TimeRange{5, 25}),
            (std::vector<MinuteDelta>{10}));
}

TEST(InvocationTrace, GroupIdleTimesUnionActiveMinutes) {
  InvocationTrace trace{2, TimeRange{0, 100}};
  for (Minute t : {0, 20}) trace.Add(kF0, t);
  for (Minute t : {10, 30}) trace.Add(kF1, t);
  trace.Finalize();
  const std::vector<FunctionId> group{kF0, kF1};
  EXPECT_EQ(trace.GroupIdleTimes(group, TimeRange{0, 100}),
            (std::vector<MinuteDelta>{10, 10, 10}));
}

TEST(InvocationTrace, GroupIdleTimesDeduplicatesSharedMinutes) {
  InvocationTrace trace{2, TimeRange{0, 100}};
  trace.Add(kF0, 5);
  trace.Add(kF1, 5);
  trace.Add(kF0, 9);
  trace.Finalize();
  const std::vector<FunctionId> group{kF0, kF1};
  EXPECT_EQ(trace.GroupIdleTimes(group, TimeRange{0, 100}),
            (std::vector<MinuteDelta>{4}));
}

TEST(InvocationTrace, GroupIdleTimesSingleFunctionMatchesIdleTimes) {
  InvocationTrace trace{1, TimeRange{0, 100}};
  for (Minute t : {1, 4, 9}) trace.Add(kF0, t);
  trace.Finalize();
  const std::vector<FunctionId> group{kF0};
  EXPECT_EQ(trace.GroupIdleTimes(group, TimeRange{0, 100}),
            trace.IdleTimes(kF0, TimeRange{0, 100}));
}

/// Reference: a group's active minutes by collecting every member's
/// minutes, sorting and de-duplicating.
std::vector<Minute> SortedGroupMinutes(const InvocationTrace& trace,
                                       const std::vector<FunctionId>& fns,
                                       TimeRange range) {
  std::vector<Minute> active;
  for (const FunctionId fn : fns) {
    for (const auto& e : trace.SeriesInRange(fn, range)) {
      active.push_back(e.minute);
    }
  }
  std::sort(active.begin(), active.end());
  active.erase(std::unique(active.begin(), active.end()), active.end());
  return active;
}

void ExpectGroupMatchesSortReference(const InvocationTrace& trace,
                                     const std::vector<FunctionId>& fns,
                                     TimeRange range) {
  const auto active = SortedGroupMinutes(trace, fns, range);
  std::vector<MinuteDelta> gaps;
  for (std::size_t i = 1; i < active.size(); ++i) {
    gaps.push_back(active[i] - active[i - 1]);
  }
  EXPECT_EQ(trace.GroupIdleTimes(fns, range), gaps)
      << fns.size() << " members, range [" << range.begin << ", "
      << range.end << ")";
  EXPECT_EQ(trace.GroupActiveMinutes(fns, range), active.size());
}

TEST(InvocationTrace, GroupMergeEqualsSortAndUniqueOnRandomGroups) {
  Rng rng{4242};
  constexpr std::size_t kFunctions = 12;
  constexpr Minute kHorizon = 700;  // several 64-minute bitmap words
  InvocationTrace trace{kFunctions, TimeRange{0, kHorizon}};
  for (std::size_t f = 0; f < kFunctions; ++f) {
    // Dense, sparse, very sparse and silent members; dense ones share
    // many minutes. Groups of sparse members take the sorting merge,
    // dense ones the bitmap.
    const double rates[] = {0.3, 0.02, 0.004, 0.0};
    const double rate = rates[f % 4];
    for (Minute t = 0; t < kHorizon; ++t) {
      if (rng.NextBernoulli(rate)) {
        trace.Add(FunctionId{static_cast<std::uint32_t>(f)}, t);
      }
    }
  }
  trace.Finalize();
  for (int trial = 0; trial < 400; ++trial) {
    std::vector<FunctionId> group;
    const auto size = rng.NextBelow(6);  // includes the empty group
    for (std::uint64_t i = 0; i < size; ++i) {
      group.push_back(
          FunctionId{static_cast<std::uint32_t>(rng.NextBelow(kFunctions))});
    }
    const Minute begin = rng.NextInRange(-10, kHorizon);
    const Minute end = rng.NextInRange(begin, kHorizon + 10);
    ExpectGroupMatchesSortReference(trace, group, TimeRange{begin, end});
  }
}

TEST(InvocationTrace, GroupMergeEdgeCases) {
  InvocationTrace trace{3, TimeRange{0, 200}};
  for (Minute t : {10, 63, 64, 127, 128, 150}) trace.Add(kF0, t);
  for (Minute t : {10, 64, 65, 150, 199}) trace.Add(kF1, t);
  trace.Finalize();
  const std::vector<FunctionId> pair{kF0, kF1};
  const std::vector<FunctionId> with_silent{kF0, FunctionId{2}, kF1};
  // Empty group, and a range no member is active in.
  ExpectGroupMatchesSortReference(trace, {}, TimeRange{0, 200});
  EXPECT_EQ(trace.GroupActiveMinutes({}, TimeRange{0, 200}), 0u);
  ExpectGroupMatchesSortReference(trace, pair, TimeRange{11, 63});
  EXPECT_EQ(trace.GroupActiveMinutes(pair, TimeRange{11, 63}), 0u);
  ExpectGroupMatchesSortReference(trace, {FunctionId{2}}, TimeRange{0, 200});
  // Events exactly at range.begin and range.end - 1.
  ExpectGroupMatchesSortReference(trace, pair, TimeRange{10, 200});
  ExpectGroupMatchesSortReference(trace, pair, TimeRange{64, 151});
  ExpectGroupMatchesSortReference(trace, pair, TimeRange{63, 65});
  // Shared minutes (10, 64, 150), a silent member, a repeated member.
  ExpectGroupMatchesSortReference(trace, with_silent, TimeRange{0, 200});
  ExpectGroupMatchesSortReference(trace, {kF0, kF0}, TimeRange{0, 200});
  EXPECT_EQ(trace.GroupActiveMinutes(pair, TimeRange{0, 200}), 8u);
  EXPECT_EQ(trace.GroupIdleTimes(pair, TimeRange{0, 200}),
            (std::vector<MinuteDelta>{53, 1, 1, 62, 1, 22, 49}));

  // A few events far apart: more bitmap words than events, so the merge
  // sorts instead of allocating the span.
  InvocationTrace sparse{2, TimeRange{0, 100000}};
  for (Minute t : {0, 50000, 99999}) sparse.Add(kF0, t);
  for (Minute t : {50000, 70000}) sparse.Add(kF1, t);
  sparse.Finalize();
  ExpectGroupMatchesSortReference(sparse, pair, TimeRange{0, 100000});
  EXPECT_EQ(sparse.GroupIdleTimes(pair, TimeRange{0, 100000}),
            (std::vector<MinuteDelta>{50000, 20000, 29999}));
}

TEST(MinuteIndex, ListsFunctionsPerMinute) {
  InvocationTrace trace{3, TimeRange{0, 10}};
  trace.Add(kF0, 2, 1);
  trace.Add(kF1, 2, 4);
  trace.Add(FunctionId{2}, 5, 2);
  trace.Finalize();
  const auto index = trace.BuildMinuteIndex(TimeRange{0, 10});
  EXPECT_TRUE(index.at(0).empty());
  ASSERT_EQ(index.at(2).size(), 2u);
  EXPECT_EQ(index.at(2)[0].first, kF0);
  EXPECT_EQ(index.at(2)[1].first, kF1);
  EXPECT_EQ(index.at(2)[1].second, 4u);
  ASSERT_EQ(index.at(5).size(), 1u);
  EXPECT_TRUE(index.at(11).empty());  // out of range
}

TEST(MinuteIndex, SubRangeOnly) {
  InvocationTrace trace{1, TimeRange{0, 100}};
  trace.Add(kF0, 5);
  trace.Add(kF0, 50);
  trace.Finalize();
  const auto index = trace.BuildMinuteIndex(TimeRange{40, 60});
  EXPECT_TRUE(index.at(5).empty());  // outside the indexed range
  EXPECT_EQ(index.at(50).size(), 1u);
}

}  // namespace
}  // namespace defuse::trace
