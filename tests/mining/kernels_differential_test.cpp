// Differential tests of the window-bucketed mining kernels against
// reference copies of their earlier implementations:
// BuildUserTransactions sorted (window, function) pairs, Accumulate
// intersected every row's window list with every column's, and
// ProjectTransactions allocated a vector for each scanned transaction.
// Random traces cover window widths 1, 2 and 7, ranges that clip the
// series at both ends, a client whose apps interleave function ids (so
// FunctionsOfUser is not ascending, as after CSV ingest), dense runs next
// to minutes up to 2^40 apart (both sides of the bucketing rule),
// min_items 1 to 3, clients with no events, and Accumulate called twice
// on one matrix. Every output must be equal exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "mining/cooccurrence.hpp"
#include "mining/transactions.hpp"

namespace defuse::mining {
namespace {

namespace reference {

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

/// CooccurrenceMatrix's counters with the earlier Accumulate.
struct CooccurrenceMatrix {
  CooccurrenceMatrix(std::vector<FunctionId> rows,
                     std::vector<FunctionId> cols)
      : rows_(std::move(rows)),
        cols_(std::move(cols)),
        counts_(rows_.size() * cols_.size(), 0),
        row_windows_(rows_.size(), 0),
        col_windows_(cols_.size(), 0) {}

  void Accumulate(const trace::InvocationTrace& trace, TimeRange range,
                  MinuteDelta window_minutes) {
    assert(window_minutes >= 1);
    // Active window sets per row/col function.
    const auto windows_of = [&](FunctionId fn) {
      std::vector<Minute> windows;
      for (const auto& e : trace.SeriesInRange(fn, range)) {
        const Minute w = (e.minute - range.begin) / window_minutes;
        if (windows.empty() || windows.back() != w) windows.push_back(w);
      }
      return windows;
    };

    std::vector<std::vector<Minute>> row_sets(rows_.size());
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      row_sets[r] = windows_of(rows_[r]);
      row_windows_[r] += row_sets[r].size();
    }
    std::vector<std::vector<Minute>> col_sets(cols_.size());
    for (std::size_t c = 0; c < cols_.size(); ++c) {
      col_sets[c] = windows_of(cols_[c]);
      col_windows_[c] += col_sets[c].size();
    }

    // Sorted-list intersections; both sides are ascending by construction.
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      if (row_sets[r].empty()) continue;
      for (std::size_t c = 0; c < cols_.size(); ++c) {
        if (col_sets[c].empty()) continue;
        std::uint64_t both = 0;
        auto ri = row_sets[r].begin();
        auto ci = col_sets[c].begin();
        while (ri != row_sets[r].end() && ci != col_sets[c].end()) {
          if (*ri < *ci) {
            ++ri;
          } else if (*ci < *ri) {
            ++ci;
          } else {
            ++both;
            ++ri;
            ++ci;
          }
        }
        counts_[r * cols_.size() + c] += both;
      }
    }

    const MinuteDelta len = std::max<MinuteDelta>(range.length(), 0);
    total_windows_ += static_cast<std::uint64_t>(
        (len + window_minutes - 1) / window_minutes);
  }

  std::vector<FunctionId> rows_;
  std::vector<FunctionId> cols_;
  std::vector<std::uint64_t> counts_;
  std::vector<std::uint64_t> row_windows_;
  std::vector<std::uint64_t> col_windows_;
  std::uint64_t total_windows_ = 0;
};

}  // namespace reference

constexpr Minute kFar = Minute{1} << 40;
constexpr MinuteDelta kWindowWidths[] = {1, 2, 7};

/// How a generated client's functions fire.
enum class Kind { kIdle, kDense, kScattered, kDenseAndFar };

/// A random workload: clients of every Kind, function ids interleaved
/// across apps and clients, and the ranges to mine it over.
struct World {
  trace::WorkloadModel model;
  trace::InvocationTrace trace{0, TimeRange{0, 0}};
  std::vector<TimeRange> ranges;
};

World MakeWorld(std::uint64_t seed) {
  Rng rng{seed};
  World w;
  const Kind kinds[] = {Kind::kIdle, Kind::kDense, Kind::kScattered,
                        Kind::kDenseAndFar, Kind::kDense};
  std::vector<AppId> apps;
  std::vector<Kind> user_kind;
  for (const Kind kind : kinds) {
    const UserId user =
        w.model.AddUser("u" + std::to_string(user_kind.size()));
    user_kind.push_back(kind);
    const std::uint64_t num_apps = 1 + rng.NextBelow(3);
    for (std::uint64_t a = 0; a < num_apps; ++a) {
      apps.push_back(w.model.AddApp(user, "a" + std::to_string(apps.size())));
    }
  }
  w.model.AddUser("no_apps");
  user_kind.push_back(Kind::kIdle);
  // Functions land in random apps, so every app's ids interleave with
  // other apps' and FunctionsOfUser comes out in app order, not id order.
  const std::uint64_t num_functions = 30 + rng.NextBelow(30);
  for (std::uint64_t f = 0; f < num_functions; ++f) {
    w.model.AddFunction(apps[rng.NextBelow(apps.size())],
                        "f" + std::to_string(f));
  }

  w.trace = trace::InvocationTrace{w.model.num_functions(),
                                   TimeRange{0, 2 * kFar}};
  const auto add = [&](const trace::FunctionInfo& fn, Minute minute) {
    w.trace.Add(fn.id, minute,
                static_cast<std::uint32_t>(1 + rng.NextBelow(3)));
  };
  for (const auto& fn : w.model.functions()) {
    const Kind kind = user_kind[fn.user.value()];
    if (kind == Kind::kDense || kind == Kind::kDenseAndFar) {
      const Minute start = rng.NextInRange(0, 200);
      const Minute length = rng.NextInRange(20, 400);
      const double density = 0.2 + 0.8 * rng.NextDouble();
      for (Minute m = start; m < start + length; ++m) {
        if (rng.NextBernoulli(density)) add(fn, m);
      }
    }
    if (kind == Kind::kDenseAndFar) {
      const std::uint64_t far = rng.NextBelow(3);
      for (std::uint64_t i = 0; i < far; ++i) {
        add(fn, kFar + rng.NextInRange(0, kFar - 1));
      }
    }
    if (kind == Kind::kScattered) {
      const std::uint64_t events = 1 + rng.NextBelow(6);
      for (std::uint64_t i = 0; i < events; ++i) {
        add(fn, rng.NextInRange(0, 3000));
      }
    }
  }
  w.trace.Finalize();

  const Minute a = rng.NextInRange(1, 150);
  const Minute b = rng.NextInRange(a + 1, 450);
  // Everything; dense runs clipped at both ends; the start clipped with
  // some far minutes kept; an empty range; the scattered minutes' tail.
  w.ranges = {TimeRange{0, 2 * kFar}, TimeRange{a, b},
              TimeRange{a, kFar + kFar / 2}, TimeRange{b, b},
              TimeRange{rng.NextInRange(0, 2000), 3001}};
  return w;
}

TEST(MiningKernelsDifferential, GeneratorReachesBothBucketPaths) {
  // The bucketing rule: a slot per window while the windows from the
  // first active one to the last are at most twice the events.
  std::size_t dense = 0;
  std::size_t sparse = 0;
  bool interleaved = false;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const World w = MakeWorld(seed);
    for (const auto& user : w.model.users()) {
      const auto fns = w.model.FunctionsOfUser(user.id);
      interleaved |= !std::is_sorted(fns.begin(), fns.end());
      for (const TimeRange range : w.ranges) {
        for (const MinuteDelta width : kWindowWidths) {
          std::uint64_t events = 0;
          Minute first = 2 * kFar;
          Minute last = -1;
          for (const FunctionId fn : fns) {
            const auto series = w.trace.SeriesInRange(fn, range);
            if (series.empty()) continue;
            events += series.size();
            first = std::min(first, series.front().minute);
            last = std::max(last, series.back().minute);
          }
          if (events == 0) continue;
          const auto windows = static_cast<std::uint64_t>(
              (last - range.begin) / width - (first - range.begin) / width + 1);
          ++(windows > 2 * events ? sparse : dense);
        }
      }
    }
  }
  EXPECT_TRUE(interleaved);
  EXPECT_GT(dense, 100u);
  EXPECT_GT(sparse, 100u);
}

TEST(MiningKernelsDifferential, TransactionsMatchReference) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const World w = MakeWorld(seed);
    for (const auto& user : w.model.users()) {
      for (const TimeRange range : w.ranges) {
        for (const MinuteDelta width : kWindowWidths) {
          for (std::size_t min_items = 1; min_items <= 3; ++min_items) {
            const TransactionConfig config{.window_minutes = width,
                                           .min_items = min_items};
            EXPECT_EQ(
                BuildUserTransactions(w.trace, w.model, user.id, range, config),
                reference::BuildUserTransactions(w.trace, w.model, user.id,
                                                 range, config))
                << "seed " << seed << " user " << user.name << " range ["
                << range.begin << ", " << range.end << ") width " << width
                << " min_items " << min_items;
          }
        }
      }
    }
  }
}

void ExpectSameCounts(const CooccurrenceMatrix& got,
                      const reference::CooccurrenceMatrix& want,
                      const std::string& where) {
  ASSERT_EQ(got.num_rows(), want.rows_.size()) << where;
  ASSERT_EQ(got.num_cols(), want.cols_.size()) << where;
  for (std::size_t r = 0; r < got.num_rows(); ++r) {
    EXPECT_EQ(got.row_total(r), want.row_windows_[r]) << where << " row " << r;
    for (std::size_t c = 0; c < got.num_cols(); ++c) {
      EXPECT_EQ(got.at(r, c), want.counts_[r * want.cols_.size() + c])
          << where << " cell " << r << "," << c;
    }
  }
  for (std::size_t c = 0; c < got.num_cols(); ++c) {
    EXPECT_EQ(got.col_total(c), want.col_windows_[c]) << where << " col " << c;
  }
  EXPECT_EQ(got.total_windows(), want.total_windows_) << where;
}

TEST(MiningKernelsDifferential, CooccurrenceMatchesReference) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const World w = MakeWorld(seed);
    Rng rng{seed + 1000};
    for (const auto& user : w.model.users()) {
      const auto fns = w.model.FunctionsOfUser(user.id);
      // MineWeakDependencies' split (disjoint rows and columns, both in
      // app order), and an overlapping one: every function a row, a
      // random subset (with a repeat) the columns.
      std::vector<FunctionId> rows;
      std::vector<FunctionId> cols;
      for (const FunctionId fn : fns) {
        (rng.NextBernoulli(0.5) ? rows : cols).push_back(fn);
      }
      std::vector<FunctionId> overlap_cols;
      for (const FunctionId fn : fns) {
        if (rng.NextBernoulli(0.4)) overlap_cols.push_back(fn);
      }
      if (!fns.empty()) overlap_cols.push_back(fns.front());
      const std::pair<std::vector<FunctionId>, std::vector<FunctionId>>
          splits[] = {{rows, cols}, {fns, overlap_cols}};
      for (const auto& [split_rows, split_cols] : splits) {
        for (const MinuteDelta width : kWindowWidths) {
          for (std::size_t first = 0; first < w.ranges.size(); ++first) {
            // Accumulate adds: the second call stacks another range's
            // counts on the first's.
            const TimeRange second = w.ranges[(first + 1) % w.ranges.size()];
            CooccurrenceMatrix got{split_rows, split_cols};
            reference::CooccurrenceMatrix want{split_rows, split_cols};
            const std::string where = "seed " + std::to_string(seed) +
                                      " user " + user.name + " width " +
                                      std::to_string(width) + " range " +
                                      std::to_string(first);
            got.Accumulate(w.trace, w.ranges[first], width);
            want.Accumulate(w.trace, w.ranges[first], width);
            ExpectSameCounts(got, want, where);
            got.Accumulate(w.trace, second, width);
            want.Accumulate(w.trace, second, width);
            ExpectSameCounts(got, want, where + " twice");
          }
        }
      }
    }
  }
}

TEST(MiningKernelsDifferential, ProjectionMatchesReference) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const World w = MakeWorld(seed);
    Rng rng{seed + 2000};
    for (const auto& user : w.model.users()) {
      for (const TimeRange range : w.ranges) {
        const auto transactions = reference::BuildUserTransactions(
            w.trace, w.model, user.id, range,
            TransactionConfig{.window_minutes = 2, .min_items = 1});
        // The paper's shuffled universe windows, plus a window of random
        // ids from any client, some past every id in the transactions.
        auto windows =
            SplitUniverse(w.model.FunctionsOfUser(user.id), 5, 3, rng);
        ASSERT_TRUE(windows.ok());
        UniverseWindow foreign;
        for (std::uint32_t id = 0; id < w.model.num_functions(); ++id) {
          if (rng.NextBernoulli(0.3)) {
            foreign.functions.push_back(FunctionId{id});
          }
        }
        windows.value().push_back(std::move(foreign));
        for (const UniverseWindow& window : windows.value()) {
          for (std::size_t min_items = 1; min_items <= 3; ++min_items) {
            EXPECT_EQ(ProjectTransactions(transactions, window, min_items),
                      reference::ProjectTransactions(transactions, window,
                                                     min_items))
                << "seed " << seed << " user " << user.name << " min_items "
                << min_items;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace defuse::mining
