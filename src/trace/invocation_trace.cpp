#include "trace/invocation_trace.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>

namespace defuse::trace {
namespace {

/// Calls `visit(minute)` once for every minute in `range` in which any
/// member of `fns` is active, in ascending order. The members' sorted
/// series are merged through a bitmap over their first to last active
/// minute. When that span holds more 64-minute words than there are
/// events (a few invocations days apart, or far-apart minutes in an
/// ingested CSV), the events are sorted instead, so memory stays within
/// one word per event.
template <typename Visit>
void ForEachGroupMinute(const InvocationTrace& trace,
                        std::span<const FunctionId> fns, TimeRange range,
                        Visit visit) {
  Minute first = std::numeric_limits<Minute>::max();
  Minute last = std::numeric_limits<Minute>::min();
  std::size_t events = 0;
  for (const FunctionId fn : fns) {
    const auto series = trace.SeriesInRange(fn, range);
    if (series.empty()) continue;
    first = std::min(first, series.front().minute);
    last = std::max(last, series.back().minute);
    events += series.size();
  }
  if (events == 0) return;
  const std::uint64_t words = static_cast<std::uint64_t>(last - first) / 64 + 1;
  if (words > events) {
    std::vector<Minute> minutes;
    minutes.reserve(events);
    for (const FunctionId fn : fns) {
      for (const auto& e : trace.SeriesInRange(fn, range)) {
        minutes.push_back(e.minute);
      }
    }
    std::sort(minutes.begin(), minutes.end());
    minutes.erase(std::unique(minutes.begin(), minutes.end()), minutes.end());
    for (const Minute minute : minutes) visit(minute);
    return;
  }
  std::vector<std::uint64_t> bitmap(static_cast<std::size_t>(words), 0);
  for (const FunctionId fn : fns) {
    for (const auto& e : trace.SeriesInRange(fn, range)) {
      const auto bit = static_cast<std::size_t>(e.minute - first);
      bitmap[bit / 64] |= std::uint64_t{1} << (bit % 64);
    }
  }
  for (std::size_t w = 0; w < bitmap.size(); ++w) {
    for (std::uint64_t word = bitmap[w]; word != 0; word &= word - 1) {
      visit(first + static_cast<Minute>(w * 64) + std::countr_zero(word));
    }
  }
}

}  // namespace

InvocationTrace::InvocationTrace(std::size_t num_functions, TimeRange horizon)
    : series_(num_functions), horizon_(horizon) {}

void InvocationTrace::Add(FunctionId fn, Minute minute, std::uint32_t count) {
  assert(fn.value() < series_.size());
  assert(horizon_.contains(minute));
  if (count == 0) return;
  auto& s = series_[fn.value()];
  // Common case: events arrive in time order; accumulate in place.
  if (!s.empty() && s.back().minute == minute) {
    s.back().count += count;
    return;
  }
  if (!s.empty() && s.back().minute > minute) finalized_ = false;
  s.push_back(InvocationEvent{.minute = minute, .count = count});
}

void InvocationTrace::Finalize() {
  if (finalized_) return;
  for (auto& s : series_) {
    std::sort(s.begin(), s.end(),
              [](const InvocationEvent& a, const InvocationEvent& b) {
                return a.minute < b.minute;
              });
    // Coalesce duplicates.
    std::size_t out = 0;
    for (std::size_t i = 0; i < s.size(); ++i) {
      if (out > 0 && s[out - 1].minute == s[i].minute) {
        s[out - 1].count += s[i].count;
      } else {
        s[out++] = s[i];
      }
    }
    s.resize(out);
  }
  finalized_ = true;
}

std::span<const InvocationEvent> InvocationTrace::series(
    FunctionId fn) const noexcept {
  assert(finalized_);
  assert(fn.value() < series_.size());
  return series_[fn.value()];
}

std::span<const InvocationEvent> InvocationTrace::SeriesInRange(
    FunctionId fn, TimeRange range) const noexcept {
  const auto full = series(fn);
  const auto lo = std::lower_bound(
      full.begin(), full.end(), range.begin,
      [](const InvocationEvent& e, Minute t) { return e.minute < t; });
  const auto hi = std::lower_bound(
      lo, full.end(), range.end,
      [](const InvocationEvent& e, Minute t) { return e.minute < t; });
  return full.subspan(static_cast<std::size_t>(lo - full.begin()),
                      static_cast<std::size_t>(hi - lo));
}

std::uint64_t InvocationTrace::TotalInvocations(
    FunctionId fn, TimeRange range) const noexcept {
  std::uint64_t total = 0;
  for (const auto& e : SeriesInRange(fn, range)) total += e.count;
  return total;
}

std::uint64_t InvocationTrace::ActiveMinutes(FunctionId fn,
                                             TimeRange range) const noexcept {
  return SeriesInRange(fn, range).size();
}

std::uint64_t InvocationTrace::TotalInvocations(
    TimeRange range) const noexcept {
  std::uint64_t total = 0;
  for (std::size_t f = 0; f < series_.size(); ++f) {
    total += TotalInvocations(FunctionId{static_cast<std::uint32_t>(f)}, range);
  }
  return total;
}

std::vector<MinuteDelta> InvocationTrace::IdleTimes(FunctionId fn,
                                                    TimeRange range) const {
  const auto events = SeriesInRange(fn, range);
  std::vector<MinuteDelta> gaps;
  if (events.size() < 2) return gaps;
  gaps.reserve(events.size() - 1);
  for (std::size_t i = 1; i < events.size(); ++i) {
    gaps.push_back(events[i].minute - events[i - 1].minute);
  }
  return gaps;
}

std::vector<MinuteDelta> InvocationTrace::GroupIdleTimes(
    std::span<const FunctionId> fns, TimeRange range) const {
  if (fns.size() == 1) return IdleTimes(fns.front(), range);
  // The group is active at a minute iff any member is.
  std::vector<MinuteDelta> gaps;
  bool started = false;
  Minute previous = 0;
  ForEachGroupMinute(*this, fns, range, [&](Minute minute) {
    if (started) gaps.push_back(minute - previous);
    started = true;
    previous = minute;
  });
  return gaps;
}

std::uint64_t InvocationTrace::GroupActiveMinutes(
    std::span<const FunctionId> fns, TimeRange range) const {
  if (fns.size() == 1) return ActiveMinutes(fns.front(), range);
  std::uint64_t minutes = 0;
  ForEachGroupMinute(*this, fns, range, [&](Minute) { ++minutes; });
  return minutes;
}

std::vector<double> InvocationTrace::ActivitySeries(
    FunctionId fn, TimeRange range, MinuteDelta bucket_minutes) const {
  assert(bucket_minutes >= 1);
  const MinuteDelta length = std::max<MinuteDelta>(range.length(), 0);
  std::vector<double> series(
      static_cast<std::size_t>((length + bucket_minutes - 1) /
                               bucket_minutes),
      0.0);
  for (const auto& e : SeriesInRange(fn, range)) {
    series[static_cast<std::size_t>((e.minute - range.begin) /
                                    bucket_minutes)] += e.count;
  }
  return series;
}

MinuteIndex InvocationTrace::BuildMinuteIndex(TimeRange range) const {
  assert(finalized_);
  std::vector<std::vector<std::pair<FunctionId, std::uint32_t>>> per_minute(
      static_cast<std::size_t>(std::max<MinuteDelta>(range.length(), 0)));
  for (std::size_t f = 0; f < series_.size(); ++f) {
    const FunctionId fn{static_cast<std::uint32_t>(f)};
    for (const auto& e : SeriesInRange(fn, range)) {
      per_minute[static_cast<std::size_t>(e.minute - range.begin)]
          .emplace_back(fn, e.count);
    }
  }
  return MinuteIndex{range, std::move(per_minute)};
}

}  // namespace defuse::trace
