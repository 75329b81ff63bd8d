// Minute-granularity function invocation histories.
//
// Matches the Azure Public Dataset: for each function, the number of
// invocations per minute. Stored sparsely (one (minute, count) event per
// active minute per function) because most functions are idle most of the
// time — the dataset's motivating observation.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/ids.hpp"
#include "common/time.hpp"

namespace defuse::trace {

struct InvocationEvent {
  Minute minute = 0;
  std::uint32_t count = 0;

  friend constexpr bool operator==(const InvocationEvent&,
                                   const InvocationEvent&) noexcept = default;
};

/// Per-minute invocation index over a time range: for each minute in the
/// range, the list of (function, count) pairs with count > 0. This is the
/// access pattern of both the simulator (tick by tick) and the
/// transaction builder (window by window).
class MinuteIndex {
 public:
  MinuteIndex(TimeRange range,
              std::vector<std::vector<std::pair<FunctionId, std::uint32_t>>>
                  per_minute)
      : range_(range), per_minute_(std::move(per_minute)) {}

  [[nodiscard]] TimeRange range() const noexcept { return range_; }
  [[nodiscard]] std::span<const std::pair<FunctionId, std::uint32_t>> at(
      Minute t) const noexcept {
    if (!range_.contains(t)) return {};
    return per_minute_[static_cast<std::size_t>(t - range_.begin)];
  }

 private:
  TimeRange range_;
  std::vector<std::vector<std::pair<FunctionId, std::uint32_t>>> per_minute_;
};

class InvocationTrace {
 public:
  /// An empty trace for `num_functions` functions over `horizon`.
  InvocationTrace(std::size_t num_functions, TimeRange horizon);

  /// Records `count` invocations of `fn` at `minute`. Counts at the same
  /// minute accumulate. Events may arrive out of order; call Finalize()
  /// before reading.
  void Add(FunctionId fn, Minute minute, std::uint32_t count = 1);

  /// Sorts and coalesces all per-function series. Idempotent.
  void Finalize();

  [[nodiscard]] std::size_t num_functions() const noexcept {
    return series_.size();
  }
  [[nodiscard]] TimeRange horizon() const noexcept { return horizon_; }

  /// The (sorted, coalesced) series of one function.
  [[nodiscard]] std::span<const InvocationEvent> series(
      FunctionId fn) const noexcept;

  /// Events of `fn` restricted to [range.begin, range.end).
  [[nodiscard]] std::span<const InvocationEvent> SeriesInRange(
      FunctionId fn, TimeRange range) const noexcept;

  /// Total invocations of `fn` inside `range`.
  [[nodiscard]] std::uint64_t TotalInvocations(FunctionId fn,
                                               TimeRange range) const noexcept;
  /// Number of distinct active minutes of `fn` inside `range`.
  [[nodiscard]] std::uint64_t ActiveMinutes(FunctionId fn,
                                            TimeRange range) const noexcept;
  /// Total invocations of every function inside `range`.
  [[nodiscard]] std::uint64_t TotalInvocations(TimeRange range) const noexcept;

  /// Idle times of `fn` inside `range`: gaps (in minutes) between
  /// consecutive active minutes. A function active at minutes {3, 5, 10}
  /// has idle times {2, 5}.
  [[nodiscard]] std::vector<MinuteDelta> IdleTimes(FunctionId fn,
                                                   TimeRange range) const;

  /// Idle times of a *group* of functions: gaps between consecutive
  /// minutes in which any member is active. This is the idle-time series
  /// of an application (Hybrid-Application) or a dependency set (Defuse).
  [[nodiscard]] std::vector<MinuteDelta> GroupIdleTimes(
      std::span<const FunctionId> fns, TimeRange range) const;
  /// Number of distinct minutes inside `range` in which any member of
  /// the group is active (0 for a group with no activity).
  [[nodiscard]] std::uint64_t GroupActiveMinutes(
      std::span<const FunctionId> fns, TimeRange range) const;

  /// Builds the per-minute index over `range`.
  [[nodiscard]] MinuteIndex BuildMinuteIndex(TimeRange range) const;

  /// Dense activity series of `fn` over `range`, bucketed into
  /// `bucket_minutes`-wide buckets: element i is the total invocation
  /// count in [range.begin + i*bucket, ...). The last bucket may be
  /// partial. Suitable input for stats::Autocorrelation.
  [[nodiscard]] std::vector<double> ActivitySeries(
      FunctionId fn, TimeRange range, MinuteDelta bucket_minutes = 1) const;

 private:
  std::vector<std::vector<InvocationEvent>> series_;
  TimeRange horizon_;
  bool finalized_ = true;  // empty trace is trivially finalized
};

}  // namespace defuse::trace
