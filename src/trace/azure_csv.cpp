#include "trace/azure_csv.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdio>
#include <limits>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "common/csv.hpp"

namespace defuse::trace {

namespace {

constexpr std::uint64_t kMaxCount = std::numeric_limits<std::uint32_t>::max();
constexpr std::string_view kLongCsvHeader = "user,app,function,minute,count";

/// Interns the entities a row names, keyed by views into the input: the
/// user field, then the row prefixes `user,app` and `user,app,function`.
/// No field can hold a comma, so each prefix names exactly one entity.
/// A known function costs one lookup; a name is copied only when its
/// entity is first added. The input must outlive the interner.
class EntityInterner {
 public:
  explicit EntityInterner(WorkloadModel& model) : model_(model) {}

  /// `user`, `app` and `fn` are the first three fields of `line`.
  FunctionId Intern(std::string_view line, std::string_view user,
                    std::string_view app, std::string_view fn) {
    const auto through = [line](std::string_view field) {
      const auto end = field.data() + field.size() - line.data();
      return line.substr(0, static_cast<std::size_t>(end));
    };
    auto [fit, fn_added] = fns_.try_emplace(through(fn), FunctionId::invalid());
    if (!fn_added) return fit->second;
    auto [ait, app_added] = apps_.try_emplace(through(app), AppId::invalid());
    if (app_added) {
      auto [uit, user_added] = users_.try_emplace(user, UserId::invalid());
      if (user_added) uit->second = model_.AddUser(std::string{user});
      ait->second = model_.AddApp(uit->second, std::string{app});
    }
    fit->second = model_.AddFunction(ait->second, std::string{fn});
    return fit->second;
  }

 private:
  WorkloadModel& model_;
  std::unordered_map<std::string_view, UserId> users_;
  std::unordered_map<std::string_view, AppId> apps_;
  std::unordered_map<std::string_view, FunctionId> fns_;
};

/// Splits a long-format row into its five fields. False unless the row
/// has exactly five.
bool SplitLongRow(std::string_view line,
                  std::array<std::string_view, 5>& fields) {
  std::size_t start = 0;
  for (std::size_t i = 0; i + 1 < fields.size(); ++i) {
    const std::size_t comma = line.find(',', start);
    if (comma == std::string_view::npos) return false;
    fields[i] = line.substr(start, comma - start);
    start = comma + 1;
  }
  fields.back() = line.substr(start);
  return fields.back().find(',') == std::string_view::npos;
}

/// One function's accepted rows, in file order, and the duplicate check.
/// While its minutes ascend, a row past the last minute is new and
/// `seen` stays empty. The first row that is not past it seeds `seen`
/// with the function's minutes, and every later row is checked there.
struct FunctionRows {
  std::vector<InvocationEvent> events;
  std::unordered_set<Minute> seen;

  /// Appends `event` unless its minute is already present; false then.
  bool Insert(InvocationEvent event) {
    if (seen.empty()) {
      if (events.empty() || event.minute > events.back().minute) {
        events.push_back(event);
        return true;
      }
      for (const auto& e : events) seen.insert(e.minute);
    }
    if (!seen.insert(event.minute).second) return false;
    events.push_back(event);
    return true;
  }
};

}  // namespace

std::string WriteLongCsv(const WorkloadModel& model,
                         const InvocationTrace& trace) {
  // "<minute>,<count>\n" is at most 20 + 1 + 10 + 1 characters.
  constexpr std::size_t kMinuteChars = 20, kCountChars = 10;
  constexpr std::size_t kMaxTail = kMinuteChars + kCountChars + 2;
  std::size_t size = kLongCsvHeader.size() + 1;
  for (const auto& fn : model.functions()) {
    size += trace.series(fn.id).size() *
            (model.user(fn.user).name.size() + model.app(fn.app).name.size() +
             fn.name.size() + 3 + kMaxTail);
  }
  std::string out;
  out.reserve(size);
  out += kLongCsvHeader;
  out += '\n';
  std::string prefix;
  char tail[kMaxTail];
  for (const auto& fn : model.functions()) {
    const auto series = trace.series(fn.id);
    if (series.empty()) continue;
    prefix = model.user(fn.user).name;
    prefix += ',';
    prefix += model.app(fn.app).name;
    prefix += ',';
    prefix += fn.name;
    prefix += ',';
    for (const auto& e : series) {
      char* p = std::to_chars(tail, tail + kMinuteChars, e.minute).ptr;
      *p++ = ',';
      p = std::to_chars(p, p + kCountChars, e.count).ptr;
      *p++ = '\n';
      out += prefix;
      out.append(tail, p);
    }
  }
  return out;
}

Result<LoadedTrace> ReadLongCsv(std::string_view buffer,
                                MinuteDelta horizon_minutes, ParseMode mode,
                                ParseReport* report) {
  ParseReport local_report;
  ParseReport& rep = report != nullptr ? *report : local_report;
  rep = ParseReport{};
  const bool lenient = mode == ParseMode::kLenient;

  WorkloadModel model;
  EntityInterner interner{model};
  std::vector<FunctionRows> functions;  // indexed by FunctionId
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
      if (line == kLongCsvHeader) {
        saw_header = true;
        return true;
      }
      return reject(ErrorCode::kParseError,
                    "unexpected long-csv header: " + std::string{line});
    }
    if (line.empty()) return true;
    ++rep.data_rows;
    std::array<std::string_view, 5> fields;
    if (!SplitLongRow(line, fields)) {
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

    const FunctionId fn =
        interner.Intern(line, fields[0], fields[1], fields[2]);
    if (fn.value() == functions.size()) functions.emplace_back();
    if (!functions[fn.value()].Insert(InvocationEvent{
            .minute = m, .count = static_cast<std::uint32_t>(count_value)})) {
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
  for (std::size_t f = 0; f < functions.size(); ++f) {
    const FunctionId fn{static_cast<FunctionId::value_type>(f)};
    // Moved out so each function's rows are freed once copied.
    const auto events = std::move(functions[f].events);
    for (const auto& e : events) trace.Add(fn, e.minute, e.count);
  }
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
  EntityInterner interner{model};
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
          const FunctionId fn =
              interner.Intern(line, fields[0], fields[1], fields[2]);
          if (!seen_today.insert(fn.value()).second) {
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
                Row{.fn = fn,
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
