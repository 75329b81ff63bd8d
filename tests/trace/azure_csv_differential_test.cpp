// Differential tests of the long-format reader and writer against a
// reference copy of their earlier implementation: one flat row vector,
// a hash set of packed (function, minute) cells, '|'-joined intern keys
// and snprintf formatting. Random files in three row orders, with
// injected anomalies, must load identically in both modes: same success
// or error (code and message), same ParseReport, same model and same
// series. The reference packs cells lossily past minute 2^40 and joins
// names with '|', so the inputs here avoid both; azure_csv_test.cpp
// covers those inputs directly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/csv.hpp"
#include "common/rng.hpp"
#include "trace/azure_csv.hpp"
#include "trace/generator.hpp"

namespace defuse::trace {
namespace {

namespace reference {

std::uint64_t CellKey(FunctionId fn, Minute minute) noexcept {
  return (static_cast<std::uint64_t>(fn.value()) << 40) ^
         static_cast<std::uint64_t>(minute);
}

constexpr std::uint64_t kMaxCount = std::numeric_limits<std::uint32_t>::max();

std::string WriteLongCsv(const WorkloadModel& model,
                         const InvocationTrace& trace) {
  std::string out = "user,app,function,minute,count\n";
  char buf[64];
  for (const auto& fn : model.functions()) {
    const auto& app = model.app(fn.app);
    const auto& user = model.user(fn.user);
    for (const auto& e : trace.series(fn.id)) {
      out += user.name;
      out += ',';
      out += app.name;
      out += ',';
      out += fn.name;
      std::snprintf(buf, sizeof buf, ",%lld,%u\n",
                    static_cast<long long>(e.minute), e.count);
      out += buf;
    }
  }
  return out;
}

Result<LoadedTrace> ReadLongCsv(std::string_view buffer,
                                MinuteDelta horizon_minutes, ParseMode mode,
                                ParseReport* report) {
  struct Row {
    FunctionId fn;
    Minute minute;
    std::uint32_t count;
  };
  ParseReport local_report;
  ParseReport& rep = report != nullptr ? *report : local_report;
  rep = ParseReport{};
  const bool lenient = mode == ParseMode::kLenient;

  WorkloadModel model;
  std::unordered_map<std::string, UserId> users;
  std::unordered_map<std::string, AppId> apps;
  std::unordered_map<std::string, FunctionId> fns;
  std::unordered_set<std::uint64_t> seen_cells;
  std::vector<Row> rows;
  Minute max_minute = -1;
  bool saw_header = false;

  const auto reject = [&](ErrorCode code, std::string message) -> Result<bool> {
    if (!lenient) return Error{code, std::move(message)};
    rep.Count(code);
    ++rep.rows_skipped;
    return true;
  };

  auto res = ForEachLine(buffer, [&](std::size_t line_no,
                                     std::string_view line) -> Result<bool> {
    if (line_no == 1) {
      if (line == "user,app,function,minute,count") {
        saw_header = true;
        return true;
      }
      return reject(ErrorCode::kParseError,
                    "unexpected long-csv header: " + std::string{line});
    }
    if (line.empty()) return true;
    ++rep.data_rows;
    const auto fields = SplitCsvLine(line);
    if (fields.size() != 5) {
      return reject(ErrorCode::kParseError,
                    "line " + std::to_string(line_no) + ": expected 5 fields");
    }
    auto minute = ParseI64(fields[3]);
    if (!minute.ok()) return reject(minute.error().code, minute.error().message);
    if (minute.value() < 0) {
      return reject(ErrorCode::kOutOfRange,
                    "line " + std::to_string(line_no) + ": negative minute");
    }
    auto count = ParseU64(fields[4]);
    if (!count.ok()) return reject(count.error().code, count.error().message);
    std::uint64_t count_value = count.value();
    if (count_value > kMaxCount) {
      if (!lenient) {
        return Error{ErrorCode::kOutOfRange,
                     "line " + std::to_string(line_no) +
                         ": count overflows uint32"};
      }
      rep.Count(ErrorCode::kOutOfRange);
      ++rep.values_clamped;
      count_value = kMaxCount;
    }
    const auto m = static_cast<Minute>(minute.value());
    if (lenient && horizon_minutes > 0 && m >= horizon_minutes) {
      rep.Count(ErrorCode::kOutOfRange);
      ++rep.rows_skipped;
      return true;
    }

    const std::string user_name{fields[0]};
    const std::string app_key = user_name + "|" + std::string{fields[1]};
    const std::string fn_key = app_key + "|" + std::string{fields[2]};
    auto [uit, user_added] = users.try_emplace(user_name, UserId::invalid());
    if (user_added) uit->second = model.AddUser(user_name);
    auto [ait, app_added] = apps.try_emplace(app_key, AppId::invalid());
    if (app_added) ait->second = model.AddApp(uit->second,
                                              std::string{fields[1]});
    auto [fit, fn_added] = fns.try_emplace(fn_key, FunctionId::invalid());
    if (fn_added) fit->second = model.AddFunction(ait->second,
                                                  std::string{fields[2]});

    if (!seen_cells.insert(CellKey(fit->second, m)).second) {
      if (!lenient) {
        return Error{ErrorCode::kInvalidArgument,
                     "line " + std::to_string(line_no) +
                         ": duplicate (function, minute) row"};
      }
      rep.Count(ErrorCode::kInvalidArgument);
      ++rep.duplicate_rows;
      return true;
    }
    max_minute = std::max(max_minute, m);
    rows.push_back(Row{.fn = fit->second,
                       .minute = m,
                       .count = static_cast<std::uint32_t>(count_value)});
    return true;
  });
  if (!res.ok()) return res.error();
  if (!saw_header && !lenient) {
    return Error{ErrorCode::kParseError,
                 "empty long-csv buffer (missing header)"};
  }

  const MinuteDelta horizon =
      horizon_minutes > 0 ? horizon_minutes : max_minute + 1;
  if (horizon <= max_minute) {
    return Error{ErrorCode::kOutOfRange,
                 "horizon shorter than the trace's last minute"};
  }
  InvocationTrace trace{model.num_functions(), TimeRange{0, horizon}};
  for (const Row& row : rows) trace.Add(row.fn, row.minute, row.count);
  trace.Finalize();
  return LoadedTrace{.model = std::move(model), .trace = std::move(trace)};
}

}  // namespace reference

/// Names repeat across parents and some are prefixes of others, so only
/// the full (user, app, function) path tells two functions apart.
constexpr const char* kNames[] = {"", "x", "xy", "y", "x y", "x.y"};

struct Entity {
  std::string user, app, fn;
  friend bool operator==(const Entity&, const Entity&) = default;
};

struct Cell {
  std::size_t entity;
  Minute minute;
  std::uint64_t count;
};

enum class RowOrder { kFunctionMajor, kMinuteMajor, kShuffled };

std::string PickName(Rng& rng) {
  return kNames[rng.NextBelow(std::size(kNames))];
}

std::vector<Entity> RandomEntities(Rng& rng) {
  std::vector<Entity> entities;
  const auto wanted = static_cast<std::size_t>(rng.NextInRange(1, 10));
  for (std::size_t attempt = 0; attempt < 4 * wanted; ++attempt) {
    Entity e{PickName(rng), PickName(rng), PickName(rng)};
    if (std::find(entities.begin(), entities.end(), e) == entities.end()) {
      entities.push_back(std::move(e));
    }
    if (entities.size() == wanted) break;
  }
  return entities;
}

std::uint64_t RandomCount(Rng& rng) {
  switch (rng.NextBelow(8)) {
    case 0: return 0;
    case 1: return std::numeric_limits<std::uint32_t>::max();
    default: return static_cast<std::uint64_t>(rng.NextInRange(1, 50));
  }
}

/// Distinct (entity, minute) cells in `order`. Minute-major rows of one
/// minute come in a random entity order.
std::vector<Cell> RandomCells(Rng& rng, std::size_t num_entities,
                              Minute span, RowOrder order) {
  std::vector<Cell> cells;
  for (std::size_t e = 0; e < num_entities; ++e) {
    const auto n = static_cast<Minute>(rng.NextBelow(
        static_cast<std::uint64_t>(std::min<Minute>(span, 40)) + 1));
    std::vector<Minute> minutes;
    while (static_cast<Minute>(minutes.size()) < n) {
      const Minute m = rng.NextInRange(0, span - 1);
      if (std::find(minutes.begin(), minutes.end(), m) == minutes.end()) {
        minutes.push_back(m);
      }
    }
    std::sort(minutes.begin(), minutes.end());
    for (const Minute m : minutes) cells.push_back({e, m, RandomCount(rng)});
  }
  switch (order) {
    case RowOrder::kFunctionMajor: {
      // Entities in a random order, each one's minutes ascending.
      std::vector<std::size_t> rank(num_entities);
      for (std::size_t i = 0; i < rank.size(); ++i) rank[i] = i;
      rng.Shuffle(std::span<std::size_t>{rank});
      std::stable_sort(cells.begin(), cells.end(),
                       [&](const Cell& a, const Cell& b) {
                         return rank[a.entity] < rank[b.entity];
                       });
      break;
    }
    case RowOrder::kMinuteMajor:
      rng.Shuffle(std::span<Cell>{cells});
      std::stable_sort(
          cells.begin(), cells.end(),
          [](const Cell& a, const Cell& b) { return a.minute < b.minute; });
      break;
    case RowOrder::kShuffled:
      rng.Shuffle(std::span<Cell>{cells});
      break;
  }
  return cells;
}

std::string Render(const Entity& e, const std::string& minute,
                   const std::string& count) {
  return e.user + "," + e.app + "," + e.fn + "," + minute + "," + count;
}

/// Rows that each fail one check, some naming entities seen nowhere
/// else (a rejected row must not leave a phantom in the model).
std::string MalformedRow(Rng& rng, const Entity& e) {
  switch (rng.NextBelow(11)) {
    case 0: return e.user + "," + e.app + "," + e.fn + ",3";
    case 1: return Render(e, "3", "1") + ",9";
    case 2: return Render(e, "x", "1");
    case 3: return Render(e, "3", "y");
    case 4: return Render(e, "-5", "1");
    case 5: return Render(e, "", "1");
    case 6: return Render(e, "3", "");
    case 7: return Render(e, "3", "-1");
    case 8: return Render(e, " 3", "1");
    case 9: return Render(e, "3", "18446744073709551616");  // past u64
    default: return Render({"ghost", "ghost", "ghost"}, "x", "1");
  }
}

/// A long-format buffer holding `cells` plus injected anomalies:
/// adjacent and distant duplicates, out-of-order rows, malformed and
/// short rows, counts past UINT32_MAX, blank lines, a missing final
/// newline and, rarely, a bad or missing header.
std::string RandomBuffer(Rng& rng, RowOrder order, Minute* max_minute) {
  const auto entities = RandomEntities(rng);
  const Minute span = rng.NextBernoulli(0.5) ? rng.NextInRange(1, 60)
                                             : rng.NextInRange(1, 5000);
  const auto cells = RandomCells(rng, entities.size(), span, order);
  std::vector<std::string> lines;
  *max_minute = -1;
  for (const Cell& c : cells) {
    lines.push_back(Render(entities[c.entity], std::to_string(c.minute),
                           std::to_string(c.count)));
    *max_minute = std::max(*max_minute, c.minute);
  }
  const double rate = rng.NextBernoulli(0.25) ? 0.0 : 0.05;
  const auto injections =
      static_cast<std::size_t>(rate * static_cast<double>(lines.size())) +
      static_cast<std::size_t>(rng.NextBelow(3));
  for (std::size_t k = 0; k < injections && !lines.empty(); ++k) {
    const auto i = static_cast<std::size_t>(rng.NextBelow(lines.size()));
    const auto j = static_cast<std::size_t>(rng.NextBelow(lines.size()));
    const Entity& e = entities[rng.NextBelow(entities.size())];
    switch (rng.NextBelow(7)) {
      case 0: {  // adjacent duplicate, maybe with another count
        std::string dup = rng.NextBernoulli(0.5)
                              ? lines[i]
                              : lines[i].substr(0, lines[i].rfind(',')) + ",7";
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                     std::move(dup));
        break;
      }
      case 1: {  // distant duplicate
        std::string dup = lines[std::min(i, j)];
        lines.insert(
            lines.begin() + static_cast<std::ptrdiff_t>(std::max(i, j) + 1),
            std::move(dup));
        break;
      }
      case 2:  // out-of-order pair
        std::swap(lines[i], lines[j]);
        break;
      case 3:
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(i),
                     MalformedRow(rng, e));
        break;
      case 4: {  // a count past UINT32_MAX on a fresh minute
        const Minute m = span + static_cast<Minute>(k);
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(i),
                     Render(e, std::to_string(m),
                            rng.NextBernoulli(0.5) ? "4294967296"
                                                   : "18446744073709551615"));
        *max_minute = std::max(*max_minute, m);
        break;
      }
      case 5:
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(i), "");
        break;
      default:  // a row with a CRLF ending
        lines[i] += '\r';
        break;
    }
  }
  std::string header = "user,app,function,minute,count";
  switch (rng.NextBelow(40)) {
    case 0: header = "user,app,function,minute"; break;
    case 1: header.clear(); break;
    case 2: lines.insert(lines.begin(), header); break;  // header twice
    default: break;
  }
  std::string buffer = header + "\n";
  for (const auto& line : lines) buffer += line + "\n";
  if (rng.NextBernoulli(0.2) && !buffer.empty()) buffer.pop_back();
  return buffer;
}

void ExpectSameReport(const ParseReport& want, const ParseReport& got) {
  EXPECT_EQ(want.data_rows, got.data_rows);
  EXPECT_EQ(want.rows_skipped, got.rows_skipped);
  EXPECT_EQ(want.values_clamped, got.values_clamped);
  EXPECT_EQ(want.duplicate_rows, got.duplicate_rows);
  EXPECT_EQ(want.code_counts, got.code_counts);
}

void ExpectSameModel(const WorkloadModel& want, const WorkloadModel& got) {
  ASSERT_EQ(want.num_users(), got.num_users());
  ASSERT_EQ(want.num_apps(), got.num_apps());
  ASSERT_EQ(want.num_functions(), got.num_functions());
  for (std::size_t u = 0; u < want.num_users(); ++u) {
    EXPECT_EQ(want.users()[u].name, got.users()[u].name) << "user " << u;
    EXPECT_EQ(want.users()[u].apps, got.users()[u].apps) << "user " << u;
  }
  for (std::size_t a = 0; a < want.num_apps(); ++a) {
    const AppInfo& w = want.apps()[a];
    const AppInfo& g = got.apps()[a];
    EXPECT_EQ(w.name, g.name) << "app " << a;
    EXPECT_EQ(w.user, g.user) << "app " << a;
    EXPECT_EQ(w.functions, g.functions) << "app " << a;
  }
  for (std::size_t f = 0; f < want.num_functions(); ++f) {
    const FunctionInfo& w = want.functions()[f];
    const FunctionInfo& g = got.functions()[f];
    EXPECT_EQ(w.name, g.name) << "function " << f;
    EXPECT_EQ(w.app, g.app) << "function " << f;
    EXPECT_EQ(w.user, g.user) << "function " << f;
  }
}

void ExpectSameSeries(const InvocationTrace& want, const InvocationTrace& got) {
  EXPECT_EQ(want.horizon(), got.horizon());
  ASSERT_EQ(want.num_functions(), got.num_functions());
  for (std::size_t f = 0; f < want.num_functions(); ++f) {
    const auto w = want.series(FunctionId{static_cast<std::uint32_t>(f)});
    const auto g = got.series(FunctionId{static_cast<std::uint32_t>(f)});
    ASSERT_TRUE(std::equal(w.begin(), w.end(), g.begin(), g.end()))
        << "function " << f;
  }
}

/// Loads `buffer` with both readers in both modes and compares every
/// observable outcome.
void ExpectSameLoad(std::string_view buffer, MinuteDelta horizon) {
  for (const ParseMode mode : {ParseMode::kStrict, ParseMode::kLenient}) {
    SCOPED_TRACE(mode == ParseMode::kStrict ? "strict" : "lenient");
    ParseReport want_report, got_report;
    const auto want =
        reference::ReadLongCsv(buffer, horizon, mode, &want_report);
    const auto got = ReadLongCsv(buffer, horizon, mode, &got_report);
    ExpectSameReport(want_report, got_report);
    ASSERT_EQ(want.ok(), got.ok());
    if (!want.ok()) {
      EXPECT_EQ(want.error().code, got.error().code);
      EXPECT_EQ(want.error().message, got.error().message);
      continue;
    }
    ExpectSameModel(want.value().model, got.value().model);
    ExpectSameSeries(want.value().trace, got.value().trace);
  }
}

void RunReaderDifferential(RowOrder order, std::uint64_t seed) {
  Rng rng{seed};
  for (int round = 0; round < 300; ++round) {
    Minute max_minute = -1;
    const std::string buffer = RandomBuffer(rng, order, &max_minute);
    // Mostly the default horizon; else one forced below, at or past the
    // last minute.
    MinuteDelta horizon = 0;
    if (rng.NextBernoulli(0.3) && max_minute >= 0) {
      horizon = rng.NextInRange(1, max_minute + 3);
    }
    SCOPED_TRACE("round " + std::to_string(round) + " horizon " +
                 std::to_string(horizon) + "\n" + buffer);
    ExpectSameLoad(buffer, horizon);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(LongCsvDifferential, FunctionMajorRowsLoadLikeTheReference) {
  RunReaderDifferential(RowOrder::kFunctionMajor, 101);
}

TEST(LongCsvDifferential, MinuteMajorRowsLoadLikeTheReference) {
  RunReaderDifferential(RowOrder::kMinuteMajor, 202);
}

TEST(LongCsvDifferential, ShuffledRowsLoadLikeTheReference) {
  RunReaderDifferential(RowOrder::kShuffled, 303);
}

TEST(LongCsvDifferential, GeneratedWorkloadLoadsLikeTheReferenceInEveryOrder) {
  auto cfg = GeneratorConfig::Tiny();
  cfg.seed = 11;
  const auto w = GenerateWorkload(cfg);
  const std::string csv = WriteLongCsv(w.model, w.trace);
  const auto header_end = csv.find('\n') + 1;
  std::vector<std::string> rows;
  for (std::size_t pos = header_end; pos < csv.size();) {
    const std::size_t eol = csv.find('\n', pos);
    rows.push_back(csv.substr(pos, eol - pos));
    pos = eol + 1;
  }
  ASSERT_GT(rows.size(), 1000u);
  const auto minute_of = [](const std::string& row) {
    const auto end = row.rfind(',');
    const auto begin = row.rfind(',', end - 1) + 1;
    return std::stoll(row.substr(begin, end - begin));
  };
  const auto render = [&](const std::vector<std::string>& order) {
    std::string out = csv.substr(0, header_end);
    for (const auto& row : order) out += row + "\n";
    return out;
  };
  ExpectSameLoad(csv, 0);
  ExpectSameLoad(csv, cfg.horizon_minutes);
  std::vector<std::string> minute_major = rows;
  std::stable_sort(minute_major.begin(), minute_major.end(),
                   [&](const std::string& a, const std::string& b) {
                     return minute_of(a) < minute_of(b);
                   });
  ExpectSameLoad(render(minute_major), 0);
  std::vector<std::string> shuffled = rows;
  Rng rng{12};
  rng.Shuffle(std::span<std::string>{shuffled});
  ExpectSameLoad(render(shuffled), 0);
}

TEST(LongCsvDifferential, WriterMatchesTheSnprintfReference) {
  Rng rng{404};
  const Minute far = Minute{1} << 40;
  const auto max_count = std::numeric_limits<std::uint32_t>::max();
  for (int round = 0; round < 200; ++round) {
    const auto entities = RandomEntities(rng);
    WorkloadModel model;
    for (const Entity& e : entities) {
      const UserId u = model.AddUser(e.user);
      model.AddFunction(model.AddApp(u, e.app), e.fn);
    }
    // Some rounds reach below zero to cover the sign.
    const Minute begin = rng.NextBernoulli(0.1) ? -far : 0;
    InvocationTrace trace{model.num_functions(), TimeRange{begin, far + 1}};
    for (std::size_t f = 0; f < entities.size(); ++f) {
      const auto n = rng.NextBelow(20);
      for (std::uint64_t k = 0; k < n; ++k) {
        // The range's two ends at most once each, so no minute's
        // counts add up past UINT32_MAX.
        Minute m = rng.NextInRange(begin + 1, far - 1);
        if (k < 2 && rng.NextBernoulli(0.2)) m = k == 0 ? far : begin;
        const auto count = static_cast<std::uint32_t>(
            rng.NextBernoulli(0.1) ? max_count : rng.NextInRange(1, max_count));
        trace.Add(FunctionId{static_cast<std::uint32_t>(f)}, m, count);
      }
    }
    trace.Finalize();
    ASSERT_EQ(WriteLongCsv(model, trace),
              reference::WriteLongCsv(model, trace))
        << "round " << round;
  }
}

}  // namespace
}  // namespace defuse::trace
