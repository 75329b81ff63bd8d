#include "mining/transactions.hpp"

#include <algorithm>
#include <cassert>
#include <span>
#include <string>
#include <utility>

#include "mining/window_buckets.hpp"

namespace defuse::mining {

std::vector<Transaction> BuildUserTransactions(
    const trace::InvocationTrace& trace, const trace::WorkloadModel& model,
    UserId user, TimeRange range, const TransactionConfig& config) {
  assert(config.window_minutes >= 1);
  // FunctionsOfUser lists the client's functions in app order; bucketing
  // an ascending copy yields every window's functions in id order.
  std::vector<FunctionId> fns = model.FunctionsOfUser(user);
  std::sort(fns.begin(), fns.end());
  std::vector<Transaction> transactions;
  ForEachActiveWindow(
      trace, fns, range, config.window_minutes,
      [&](std::span<const std::uint32_t> active) {
        if (active.size() < config.min_items) return;
        Transaction& items = transactions.emplace_back();
        items.reserve(active.size());
        for (const std::uint32_t i : active) items.push_back(fns[i]);
      });
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
  // One scratch buffer for every scanned transaction; only the kept
  // ones are copied out.
  std::vector<Transaction> projected;
  Transaction kept;
  for (const Transaction& t : transactions) {
    kept.clear();
    for (const FunctionId fn : t) {
      if (fn.value() < members.size() && members[fn.value()] != 0) {
        kept.push_back(fn);
      }
    }
    if (kept.size() >= min_items) projected.push_back(kept);
  }
  return projected;
}

}  // namespace defuse::mining
