// Window bucketing shared by the mining kernels.
//
// Transaction building (§IV.B.2) and PPMI co-occurrence counting
// (§IV.B.3) ask the same question of one client's trace: which of these
// functions are active in each time window? ForEachActiveWindow answers
// it from the functions' already-sorted series with a counting sort over
// the windows from the first active one to the last: two passes over
// the events and one over that span, no comparison sort. When the span
// holds more than twice as many windows as there are events (a few
// invocations days apart, or the unbounded minutes of an ingested CSV),
// it counts runs of 2^k consecutive windows instead, k the least that
// keeps the runs within twice the events, and sorts each run's cells, so
// memory stays O(events) as in InvocationTrace's group-minute merge
// (DESIGN.md §5 items 2 and 3).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "common/ids.hpp"
#include "common/time.hpp"
#include "trace/invocation_trace.hpp"

namespace defuse::mining {

/// Calls `visit(active)` once for every `window_minutes`-wide window,
/// counted from `range.begin`, in which any of `fns` is active inside
/// `range`, in time order. `active` (a std::span<const std::uint32_t>)
/// holds the positions in `fns` of that window's active functions,
/// ascending, each once however many of its minutes fall in the window.
/// Sort `fns` by id first to get each window's functions in id order.
template <typename Visit>
void ForEachActiveWindow(const trace::InvocationTrace& trace,
                         std::span<const FunctionId> fns, TimeRange range,
                         MinuteDelta window_minutes, Visit visit) {
  assert(window_minutes >= 1);
  assert(fns.size() <= std::numeric_limits<std::uint32_t>::max());
  Minute first = std::numeric_limits<Minute>::max();
  Minute last = std::numeric_limits<Minute>::min();
  std::uint64_t events = 0;
  for (const FunctionId fn : fns) {
    const auto series = trace.SeriesInRange(fn, range);
    if (series.empty()) continue;
    first = std::min(first, series.front().minute);
    last = std::max(last, series.back().minute);
    events += series.size();
  }
  if (events == 0) return;
  const Minute base = (first - range.begin) / window_minutes;
  const auto last_window =
      static_cast<std::uint64_t>((last - range.begin) / window_minutes - base);
  // Calls cell(w, i) once for each window w (counted from the first
  // active one) in which fns[i] is active, i ascending. A series ascends,
  // so a function's minutes inside one window are adjacent.
  const auto for_each_cell = [&](auto cell) {
    for (std::uint32_t i = 0; i < fns.size(); ++i) {
      Minute prev = -1;
      for (const auto& e : trace.SeriesInRange(fns[i], range)) {
        const Minute w = (e.minute - range.begin) / window_minutes - base;
        if (w != prev) cell(static_cast<std::uint64_t>(w), i);
        prev = w;
      }
    }
  };

  if (last_window < 2 * events) {
    // bounds[w + 1] counts window w's cells; the prefix sum turns bounds[w]
    // into its first slot, and placing advances it to the window's end.
    // Cells arrive in position order, so every window is ascending.
    std::vector<std::size_t> bounds(static_cast<std::size_t>(last_window) + 2,
                                    0);
    for_each_cell([&](std::uint64_t w, std::uint32_t) { ++bounds[w + 1]; });
    for (std::size_t w = 1; w < bounds.size(); ++w) bounds[w] += bounds[w - 1];
    std::vector<std::uint32_t> slots(bounds.back());
    for_each_cell(
        [&](std::uint64_t w, std::uint32_t i) { slots[bounds[w]++] = i; });
    std::size_t begin = 0;
    for (std::size_t w = 0; w <= last_window; ++w) {
      const std::size_t end = bounds[w];
      if (end == begin) continue;
      visit(std::span<const std::uint32_t>{slots.data() + begin, end - begin});
      begin = end;
    }
    return;
  }

  // Too sparse for a slot per window: the same counting sort over runs of
  // 2^shift windows, then each run's (window, position) cells sorted.
  int shift = 1;
  while ((last_window >> shift) >= 2 * events) ++shift;
  std::vector<std::size_t> bounds(
      static_cast<std::size_t>(last_window >> shift) + 2, 0);
  for_each_cell(
      [&](std::uint64_t w, std::uint32_t) { ++bounds[(w >> shift) + 1]; });
  for (std::size_t r = 1; r < bounds.size(); ++r) bounds[r] += bounds[r - 1];
  std::vector<std::pair<std::uint64_t, std::uint32_t>> cells(bounds.back());
  for_each_cell([&](std::uint64_t w, std::uint32_t i) {
    cells[bounds[w >> shift]++] = {w, i};
  });
  std::vector<std::uint32_t> active;
  std::size_t begin = 0;
  for (std::size_t r = 0; r + 1 < bounds.size(); ++r) {
    const std::size_t end = bounds[r];
    if (end == begin) continue;
    std::sort(cells.begin() + static_cast<std::ptrdiff_t>(begin),
              cells.begin() + static_cast<std::ptrdiff_t>(end));
    for (std::size_t c = begin; c < end; ++c) {
      active.push_back(cells[c].second);
      if (c + 1 < end && cells[c + 1].first == cells[c].first) continue;
      visit(std::span<const std::uint32_t>{active});
      active.clear();
    }
    begin = end;
  }
}

}  // namespace defuse::mining
