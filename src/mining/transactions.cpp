#include "mining/transactions.hpp"

#include <algorithm>
#include <cassert>
#include <string>
#include <utility>

namespace defuse::mining {

std::vector<Transaction> BuildUserTransactions(
    const trace::InvocationTrace& trace, const trace::WorkloadModel& model,
    UserId user, TimeRange range, const TransactionConfig& config) {
  assert(config.window_minutes >= 1);
  // (window index, function) for every active minute; sorting groups the
  // windows in time order with their functions ascending, without
  // materializing the (mostly empty) dense range.
  std::vector<std::pair<Minute, FunctionId>> cells;
  for (const FunctionId fn : model.FunctionsOfUser(user)) {
    for (const auto& e : trace.SeriesInRange(fn, range)) {
      cells.emplace_back((e.minute - range.begin) / config.window_minutes,
                         fn);
    }
  }
  std::sort(cells.begin(), cells.end());
  cells.erase(std::unique(cells.begin(), cells.end()), cells.end());
  std::vector<Transaction> transactions;
  Transaction items;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    items.push_back(cells[i].second);
    if (i + 1 < cells.size() && cells[i + 1].first == cells[i].first) continue;
    if (items.size() >= config.min_items) {
      transactions.push_back(std::move(items));
    }
    items.clear();
  }
  return transactions;
}

Result<std::vector<UniverseWindow>> SplitUniverse(
    std::vector<FunctionId> universe, std::size_t window_size,
    std::size_t stride, Rng& rng) {
  // A release-build misconfiguration here must not pass silently: with
  // stride > window_size every split drops the functions between
  // consecutive windows, and they never reach FP-Growth at all.
  if (window_size < 1) {
    return Error{ErrorCode::kInvalidArgument,
                 "SplitUniverse: window_size must be >= 1"};
  }
  if (stride < 1 || stride > window_size) {
    return Error{ErrorCode::kInvalidArgument,
                 "SplitUniverse: stride " + std::to_string(stride) +
                     " must be in [1, window_size=" +
                     std::to_string(window_size) +
                     "]; a wider stride silently drops functions from "
                     "every split"};
  }
  rng.Shuffle(std::span{universe});
  std::vector<UniverseWindow> result;
  if (universe.empty()) return result;
  if (universe.size() <= window_size) {
    std::sort(universe.begin(), universe.end());
    result.push_back(UniverseWindow{std::move(universe)});
    return result;
  }
  for (std::size_t start = 0; start < universe.size(); start += stride) {
    const std::size_t end = std::min(start + window_size, universe.size());
    UniverseWindow window;
    window.functions.assign(universe.begin() + static_cast<std::ptrdiff_t>(start),
                            universe.begin() + static_cast<std::ptrdiff_t>(end));
    std::sort(window.functions.begin(), window.functions.end());
    result.push_back(std::move(window));
    if (end == universe.size()) break;
  }
  return result;
}

std::vector<Transaction> ProjectTransactions(
    const std::vector<Transaction>& transactions,
    const UniverseWindow& window, std::size_t min_items) {
  // Dense membership table indexed by id, sized by the largest id.
  std::size_t table_size = 0;
  for (const FunctionId fn : window.functions) {
    table_size = std::max<std::size_t>(table_size, std::size_t{fn.value()} + 1);
  }
  std::vector<char> members(table_size, 0);
  for (const FunctionId fn : window.functions) members[fn.value()] = 1;
  std::vector<Transaction> projected;
  for (const Transaction& t : transactions) {
    Transaction kept;
    for (const FunctionId fn : t) {
      if (fn.value() < members.size() && members[fn.value()] != 0) {
        kept.push_back(fn);
      }
    }
    if (kept.size() >= min_items) projected.push_back(std::move(kept));
  }
  return projected;
}

}  // namespace defuse::mining
