#include "mining/cooccurrence.hpp"

// Sort-at-boundary audit note: this file intentionally holds no
// unordered containers. Accumulate sweeps the windows in time order
// (ForEachActiveWindow): each window adds one to every (active row,
// active column) cell and to each active row's and column's total, so
// C[u][p] counts the windows in which both fire. Every count is an
// integer sum, so the order of the sweep cannot reach the PPMI doubles.
#include <algorithm>
#include <cassert>
#include <cmath>
#include <span>

#include "mining/window_buckets.hpp"

namespace defuse::mining {

CooccurrenceMatrix::CooccurrenceMatrix(std::vector<FunctionId> rows,
                                       std::vector<FunctionId> cols)
    : rows_(std::move(rows)),
      cols_(std::move(cols)),
      counts_(rows_.size() * cols_.size(), 0),
      row_windows_(rows_.size(), 0),
      col_windows_(cols_.size(), 0) {}

void CooccurrenceMatrix::Accumulate(const trace::InvocationTrace& trace,
                                    TimeRange range,
                                    MinuteDelta window_minutes) {
  assert(window_minutes >= 1);
  // Rows, then columns, in one bucketed list: a window's active positions
  // below num_rows are rows, the rest columns.
  const std::size_t num_rows = rows_.size();
  const std::size_t num_cols = cols_.size();
  std::vector<FunctionId> fns;
  fns.reserve(num_rows + num_cols);
  fns.insert(fns.end(), rows_.begin(), rows_.end());
  fns.insert(fns.end(), cols_.begin(), cols_.end());
  ForEachActiveWindow(
      trace, fns, range, window_minutes,
      [&](std::span<const std::uint32_t> active) {
        const auto first_col =
            std::lower_bound(active.begin(), active.end(), num_rows);
        for (auto c = first_col; c != active.end(); ++c) {
          ++col_windows_[*c - num_rows];
        }
        for (auto r = active.begin(); r != first_col; ++r) {
          ++row_windows_[*r];
          std::uint64_t* row = counts_.data() + std::size_t{*r} * num_cols;
          for (auto c = first_col; c != active.end(); ++c) {
            ++row[*c - num_rows];
          }
        }
      });

  const MinuteDelta len = std::max<MinuteDelta>(range.length(), 0);
  total_windows_ += static_cast<std::uint64_t>(
      (len + window_minutes - 1) / window_minutes);
}

void CooccurrenceMatrix::LoadAccumulated(
    std::span<const std::pair<std::uint32_t, std::uint64_t>> active,
    std::span<const std::pair<std::pair<std::uint32_t, std::uint32_t>,
                              std::uint64_t>>
        pairs,
    std::uint64_t total_windows) {
  const auto active_of = [&](FunctionId fn) -> std::uint64_t {
    const auto it = std::lower_bound(
        active.begin(), active.end(), fn.value(),
        [](const auto& entry, std::uint32_t v) { return entry.first < v; });
    return (it != active.end() && it->first == fn.value()) ? it->second : 0;
  };
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    row_windows_[r] += active_of(rows_[r]);
  }
  for (std::size_t c = 0; c < cols_.size(); ++c) {
    col_windows_[c] += active_of(cols_[c]);
  }
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    for (std::size_t c = 0; c < cols_.size(); ++c) {
      // NOT std::minmax: it would return a pair of references into the
      // two .value() temporaries, dangling by the lookup below.
      const std::uint32_t rv = rows_[r].value();
      const std::uint32_t cv = cols_[c].value();
      const std::pair<std::uint32_t, std::uint32_t> key{std::min(rv, cv),
                                                        std::max(rv, cv)};
      const auto it = std::lower_bound(
          pairs.begin(), pairs.end(), key,
          [](const auto& entry, const auto& k) { return entry.first < k; });
      if (it != pairs.end() && it->first == key) {
        counts_[r * cols_.size() + c] += it->second;
      }
    }
  }
  total_windows_ += total_windows;
}

double CooccurrenceMatrix::Ppmi(std::size_t r, std::size_t c) const noexcept {
  if (total_windows_ == 0) return 0.0;
  const std::uint64_t joint = at(r, c);
  if (joint == 0 || row_windows_[r] == 0 || col_windows_[c] == 0) return 0.0;
  const auto n = static_cast<double>(total_windows_);
  const double p_joint = static_cast<double>(joint) / n;
  const double p_row = static_cast<double>(row_windows_[r]) / n;
  const double p_col = static_cast<double>(col_windows_[c]) / n;
  const double pmi = std::log2(p_joint / (p_row * p_col));
  return pmi > 0.0 ? pmi : 0.0;
}

std::vector<WeakDependency> MineWeakDependencies(
    const trace::InvocationTrace& trace, const trace::WorkloadModel& model,
    UserId user, const std::vector<bool>& predictable, TimeRange range,
    const PpmiConfig& config) {
  std::vector<FunctionId> unpredictable_fns;
  std::vector<FunctionId> predictable_fns;
  for (const FunctionId fn : model.FunctionsOfUser(user)) {
    if (predictable[fn.value()]) {
      predictable_fns.push_back(fn);
    } else {
      unpredictable_fns.push_back(fn);
    }
  }
  std::vector<WeakDependency> result;
  if (unpredictable_fns.empty() || predictable_fns.empty()) return result;

  CooccurrenceMatrix matrix{unpredictable_fns, predictable_fns};
  matrix.Accumulate(trace, range, config.window_minutes);
  return MineWeakDependenciesFromMatrix(matrix, config);
}

std::vector<WeakDependency> MineWeakDependenciesFromMatrix(
    const CooccurrenceMatrix& matrix, const PpmiConfig& config) {
  std::vector<WeakDependency> result;
  // Per row: the top-k columns by PPMI (stable tie-break on column id).
  std::vector<std::pair<double, std::size_t>> scored;
  for (std::size_t r = 0; r < matrix.num_rows(); ++r) {
    scored.clear();
    for (std::size_t c = 0; c < matrix.num_cols(); ++c) {
      if (matrix.at(r, c) < config.min_cooccurrences) continue;
      const double ppmi = matrix.Ppmi(r, c);
      if (ppmi > config.min_ppmi) scored.emplace_back(ppmi, c);
    }
    const std::size_t k = std::min(config.top_k, scored.size());
    std::partial_sort(scored.begin(),
                      scored.begin() + static_cast<std::ptrdiff_t>(k),
                      scored.end(), [](const auto& a, const auto& b) {
                        if (a.first != b.first) return a.first > b.first;
                        return a.second < b.second;
                      });
    for (std::size_t i = 0; i < k; ++i) {
      result.push_back(WeakDependency{.from = matrix.rows()[r],
                                      .to = matrix.cols()[scored[i].second],
                                      .ppmi = scored[i].first});
    }
  }
  return result;
}

}  // namespace defuse::mining
