#include "trace/azure_csv.hpp"

#include <cstdio>
#include <limits>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "common/csv.hpp"

namespace defuse::trace {

namespace {

/// Dedup key for a (function, minute) cell. Minutes fit comfortably in
/// 40 bits (that is ~2 million years of trace).
[[nodiscard]] std::uint64_t CellKey(FunctionId fn, Minute minute) noexcept {
  return (static_cast<std::uint64_t>(fn.value()) << 40) ^
         static_cast<std::uint64_t>(minute);
}

constexpr std::uint64_t kMaxCount = std::numeric_limits<std::uint32_t>::max();

}  // namespace

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
  std::unordered_map<std::string, AppId> apps;  // key: user|app
  std::unordered_map<std::string, FunctionId> fns;  // key: user|app|fn
  std::unordered_set<std::uint64_t> seen_cells;
  std::vector<Row> rows;
  Minute max_minute = -1;
  bool saw_header = false;

  // Lenient mode skips-and-counts where strict mode fails the load.
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

    // Validate the numeric fields before interning entities, so a
    // rejected row does not leave a phantom function in the model.
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
      return true;  // keep the first occurrence
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

std::string WriteAzureDayCsv(const WorkloadModel& model,
                             const InvocationTrace& trace, Minute day) {
  std::string out = "HashOwner,HashApp,HashFunction,Trigger";
  for (int m = 1; m <= 1440; ++m) {
    out += ',';
    out += std::to_string(m);
  }
  out += "\n";

  const TimeRange day_range{day * kMinutesPerDay, (day + 1) * kMinutesPerDay};
  std::vector<std::uint32_t> minute_counts(
      static_cast<std::size_t>(kMinutesPerDay));
  char buf[32];
  for (const auto& fn : model.functions()) {
    const auto events = trace.SeriesInRange(fn.id, day_range);
    if (events.empty()) continue;
    std::fill(minute_counts.begin(), minute_counts.end(), 0u);
    for (const auto& e : events) {
      minute_counts[static_cast<std::size_t>(e.minute - day_range.begin)] =
          e.count;
    }
    out += model.user(fn.user).name;
    out += ',';
    out += model.app(fn.app).name;
    out += ',';
    out += fn.name;
    out += ",synthetic";
    for (const auto c : minute_counts) {
      std::snprintf(buf, sizeof buf, ",%u", c);
      out += buf;
    }
    out += "\n";
  }
  return out;
}

Result<LoadedTrace> ReadAzureDayCsvs(
    const std::vector<std::string>& day_buffers, ParseMode mode,
    ParseReport* report) {
  ParseReport local_report;
  ParseReport& rep = report != nullptr ? *report : local_report;
  rep = ParseReport{};
  const bool lenient = mode == ParseMode::kLenient;

  WorkloadModel model;
  std::unordered_map<std::string, UserId> users;
  std::unordered_map<std::string, AppId> apps;
  std::unordered_map<std::string, FunctionId> fns;
  struct Row {
    FunctionId fn;
    Minute minute;
    std::uint32_t count;
  };
  std::vector<Row> rows;

  for (std::size_t day = 0; day < day_buffers.size(); ++day) {
    const Minute day_base = static_cast<Minute>(day) * kMinutesPerDay;
    std::unordered_set<std::uint64_t> seen_today;  // (function, day) dedup
    auto res = ForEachLine(
        day_buffers[day],
        [&](std::size_t line_no, std::string_view line) -> Result<bool> {
          if (line_no == 1 || line.empty()) return true;  // header
          ++rep.data_rows;
          const auto fields = SplitCsvLine(line);
          if (fields.size() != 4 + 1440) {
            if (!lenient) {
              return Error{ErrorCode::kParseError,
                           "day " + std::to_string(day) + " line " +
                               std::to_string(line_no) +
                               ": expected 1444 fields, got " +
                               std::to_string(fields.size())};
            }
            rep.Count(ErrorCode::kParseError);
            ++rep.rows_skipped;
            return true;
          }
          const std::string owner{fields[0]};
          const std::string app_key = owner + "|" + std::string{fields[1]};
          const std::string fn_key = app_key + "|" + std::string{fields[2]};
          auto [uit, user_added] = users.try_emplace(owner, UserId::invalid());
          if (user_added) uit->second = model.AddUser(owner);
          auto [ait, app_added] = apps.try_emplace(app_key, AppId::invalid());
          if (app_added) {
            ait->second = model.AddApp(uit->second, std::string{fields[1]});
          }
          auto [fit, fn_added] = fns.try_emplace(fn_key, FunctionId::invalid());
          if (fn_added) {
            fit->second = model.AddFunction(ait->second, std::string{fields[2]});
          }
          if (!seen_today.insert(fit->second.value()).second) {
            if (!lenient) {
              return Error{ErrorCode::kInvalidArgument,
                           "day " + std::to_string(day) + " line " +
                               std::to_string(line_no) +
                               ": duplicate function row"};
            }
            rep.Count(ErrorCode::kInvalidArgument);
            ++rep.duplicate_rows;
            return true;  // keep the first occurrence
          }
          for (std::size_t m = 0; m < 1440; ++m) {
            const auto field = fields[4 + m];
            if (field == "0") continue;
            auto count = ParseU64(field);
            if (!count.ok()) {
              if (!lenient) return count.error();
              rep.Count(ErrorCode::kParseError);
              continue;  // drop the torn cell, keep the row
            }
            std::uint64_t count_value = count.value();
            if (count_value == 0) continue;
            if (count_value > kMaxCount) {
              if (!lenient) {
                return Error{ErrorCode::kOutOfRange,
                             "day " + std::to_string(day) + " line " +
                                 std::to_string(line_no) +
                                 ": count overflows uint32"};
              }
              rep.Count(ErrorCode::kOutOfRange);
              ++rep.values_clamped;
              count_value = kMaxCount;
            }
            rows.push_back(
                Row{.fn = fit->second,
                    .minute = day_base + static_cast<Minute>(m),
                    .count = static_cast<std::uint32_t>(count_value)});
          }
          return true;
        });
    if (!res.ok()) return res.error();
  }

  const MinuteDelta horizon =
      static_cast<MinuteDelta>(day_buffers.size()) * kMinutesPerDay;
  if (horizon == 0) {
    return Error{ErrorCode::kInvalidArgument, "no day buffers supplied"};
  }
  InvocationTrace trace{model.num_functions(), TimeRange{0, horizon}};
  for (const Row& row : rows) trace.Add(row.fn, row.minute, row.count);
  trace.Finalize();
  return LoadedTrace{.model = std::move(model), .trace = std::move(trace)};
}

}  // namespace defuse::trace
