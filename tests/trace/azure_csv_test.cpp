#include "trace/azure_csv.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "trace/generator.hpp"

namespace defuse::trace {
namespace {

/// A small hand-built workload for exact-content assertions.
LoadedTrace MakeTinyWorkload() {
  WorkloadModel model;
  const UserId u = model.AddUser("alice");
  const AppId a = model.AddApp(u, "shop");
  const FunctionId f0 = model.AddFunction(a, "checkout");
  const FunctionId f1 = model.AddFunction(a, "pay");
  InvocationTrace trace{2, TimeRange{0, 2 * kMinutesPerDay}};
  trace.Add(f0, 0, 3);
  trace.Add(f0, 100, 1);
  trace.Add(f1, 100, 2);
  trace.Add(f1, kMinutesPerDay + 5, 1);  // second day
  trace.Finalize();
  return LoadedTrace{.model = std::move(model), .trace = std::move(trace)};
}

TEST(LongCsv, RoundTripsExactly) {
  const auto original = MakeTinyWorkload();
  const std::string csv = WriteLongCsv(original.model, original.trace);
  const auto loaded = ReadLongCsv(csv, 2 * kMinutesPerDay);
  ASSERT_TRUE(loaded.ok()) << loaded.error().ToString();
  const auto& lt = loaded.value();
  ASSERT_EQ(lt.model.num_functions(), 2u);
  EXPECT_EQ(lt.model.num_users(), 1u);
  EXPECT_EQ(lt.model.num_apps(), 1u);
  for (std::uint32_t f = 0; f < 2; ++f) {
    const FunctionId fn{f};
    const auto a = original.trace.series(fn);
    const auto b = lt.trace.series(fn);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  }
}

TEST(LongCsv, HeaderIsStable) {
  const auto w = MakeTinyWorkload();
  const std::string csv = WriteLongCsv(w.model, w.trace);
  EXPECT_EQ(csv.substr(0, csv.find('\n')), "user,app,function,minute,count");
}

TEST(LongCsv, DefaultHorizonIsLastMinutePlusOne) {
  const auto w = MakeTinyWorkload();
  const auto loaded = ReadLongCsv(WriteLongCsv(w.model, w.trace));
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().trace.horizon().end, kMinutesPerDay + 6);
}

TEST(LongCsv, RejectsBadHeader) {
  const auto loaded = ReadLongCsv("wrong,header\n");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.error().code, ErrorCode::kParseError);
}

TEST(LongCsv, RejectsShortRows) {
  const auto loaded =
      ReadLongCsv("user,app,function,minute,count\nu,a,f,3\n");
  ASSERT_FALSE(loaded.ok());
}

TEST(LongCsv, RejectsNonNumericMinute) {
  const auto loaded =
      ReadLongCsv("user,app,function,minute,count\nu,a,f,xyz,1\n");
  ASSERT_FALSE(loaded.ok());
}

TEST(LongCsv, RejectsHorizonShorterThanTrace) {
  const auto w = MakeTinyWorkload();
  const auto loaded = ReadLongCsv(WriteLongCsv(w.model, w.trace), 100);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.error().code, ErrorCode::kOutOfRange);
}

TEST(LongCsv, SameFunctionNameInDifferentAppsStaysDistinct) {
  const std::string csv =
      "user,app,function,minute,count\n"
      "u,a1,f,1,1\n"
      "u,a2,f,2,1\n";
  const auto loaded = ReadLongCsv(csv);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().model.num_functions(), 2u);
  EXPECT_EQ(loaded.value().model.num_apps(), 2u);
}

TEST(LongCsv, PipeInNamesDoesNotMergeEntities) {
  // Joined with '|', both rows would name app "a|b|c" and function
  // "a|b|c|f"; as comma-delimited row prefixes they differ.
  const std::string csv =
      "user,app,function,minute,count\n"
      "a|b,c,f,1,1\n"
      "a,b|c,f,2,1\n";
  const auto loaded = ReadLongCsv(csv);
  ASSERT_TRUE(loaded.ok()) << loaded.error().ToString();
  const auto& model = loaded.value().model;
  EXPECT_EQ(model.num_users(), 2u);
  ASSERT_EQ(model.num_apps(), 2u);
  ASSERT_EQ(model.num_functions(), 2u);
  EXPECT_EQ(model.user(UserId{1}).name, "a");
  EXPECT_EQ(model.app(AppId{1}).name, "b|c");
  EXPECT_EQ(model.app(AppId{1}).user, UserId{1});
  EXPECT_EQ(model.function(FunctionId{1}).app, AppId{1});
  ASSERT_EQ(loaded.value().trace.series(FunctionId{1}).size(), 1u);
  EXPECT_EQ(loaded.value().trace.series(FunctionId{1})[0].minute, 2);
}

TEST(LongCsv, FarMinutesAreNotDuplicatesOfOtherFunctions) {
  // Minute 2^40 of f and minute 0 of g are different cells.
  const std::string csv =
      "user,app,function,minute,count\n"
      "u,a,f,1099511627776,1\n"
      "u,a,g,0,1\n";
  const auto loaded = ReadLongCsv(csv);
  ASSERT_TRUE(loaded.ok()) << loaded.error().ToString();
  const auto& lt = loaded.value();
  ASSERT_EQ(lt.model.num_functions(), 2u);
  EXPECT_EQ(lt.trace.horizon().end, Minute{1} << 40 | 1);
  ASSERT_EQ(lt.trace.series(FunctionId{0}).size(), 1u);
  EXPECT_EQ(lt.trace.series(FunctionId{0})[0].minute, Minute{1} << 40);
  ASSERT_EQ(lt.trace.series(FunctionId{1}).size(), 1u);
  EXPECT_EQ(lt.trace.series(FunctionId{1})[0].minute, 0);

  // A real duplicate that far out is still one.
  const auto dup = ReadLongCsv(csv + "u,a,f,1099511627776,2\n");
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.error().message, "line 4: duplicate (function, minute) row");
}

TEST(AzureCsv, DayFileHasHeaderAnd1444Columns) {
  const auto w = MakeTinyWorkload();
  const std::string day0 = WriteAzureDayCsv(w.model, w.trace, 0);
  const auto header_end = day0.find('\n');
  const std::string_view header{day0.data(), header_end};
  EXPECT_EQ(std::count(header.begin(), header.end(), ','), 1443);
  EXPECT_EQ(header.substr(0, 34), "HashOwner,HashApp,HashFunction,Tri");
}

TEST(AzureCsv, SilentFunctionsAreOmittedFromTheDay) {
  const auto w = MakeTinyWorkload();
  // Day 1 has only one active function ("pay").
  const std::string day1 = WriteAzureDayCsv(w.model, w.trace, 1);
  EXPECT_EQ(std::count(day1.begin(), day1.end(), '\n'), 2);  // header + 1 row
  EXPECT_NE(day1.find("pay"), std::string::npos);
  EXPECT_EQ(day1.find("checkout"), std::string::npos);
}

TEST(AzureCsv, RoundTripsThroughDailyFiles) {
  const auto original = MakeTinyWorkload();
  const std::vector<std::string> days{
      WriteAzureDayCsv(original.model, original.trace, 0),
      WriteAzureDayCsv(original.model, original.trace, 1)};
  const auto loaded = ReadAzureDayCsvs(days);
  ASSERT_TRUE(loaded.ok()) << loaded.error().ToString();
  const auto& lt = loaded.value();
  ASSERT_EQ(lt.model.num_functions(), 2u);
  EXPECT_EQ(lt.trace.horizon().end, 2 * kMinutesPerDay);
  // Map by function name: ids may be permuted.
  for (const auto& fn : lt.model.functions()) {
    FunctionId orig_id = FunctionId::invalid();
    for (const auto& ofn : original.model.functions()) {
      if (ofn.name == fn.name) orig_id = ofn.id;
    }
    ASSERT_TRUE(orig_id.valid());
    const auto a = original.trace.series(orig_id);
    const auto b = lt.trace.series(fn.id);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  }
}

TEST(AzureCsv, EmptyDayListIsAnError) {
  const auto loaded = ReadAzureDayCsvs({});
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.error().code, ErrorCode::kInvalidArgument);
}

TEST(AzureCsv, PipeInNamesDoesNotMergeEntities) {
  std::string day0 = "HashOwner,HashApp,HashFunction,Trigger";
  for (int m = 1; m <= 1440; ++m) day0 += "," + std::to_string(m);
  day0 += "\n";
  for (const char* entity : {"a|b,c,f,http", "a,b|c,f,http"}) {
    day0 += entity;
    for (int m = 0; m < 1440; ++m) day0 += m == 0 ? ",1" : ",0";
    day0 += "\n";
  }
  const auto loaded = ReadAzureDayCsvs({day0});
  ASSERT_TRUE(loaded.ok()) << loaded.error().ToString();
  const auto& model = loaded.value().model;
  EXPECT_EQ(model.num_users(), 2u);
  ASSERT_EQ(model.num_apps(), 2u);
  ASSERT_EQ(model.num_functions(), 2u);
  EXPECT_EQ(model.app(AppId{1}).name, "b|c");
  EXPECT_EQ(model.app(AppId{1}).user, UserId{1});
  EXPECT_EQ(model.function(FunctionId{1}).app, AppId{1});
}

TEST(AzureCsv, RejectsWrongColumnCount) {
  const auto loaded = ReadAzureDayCsvs({"h\nu,a,f,trigger,1,2,3\n"});
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.error().code, ErrorCode::kParseError);
}

// ---------------------------------------------------------------------
// Malformed-input behavior, table-driven: every case lists what strict
// mode must reject and what lenient mode must skip/repair while keeping
// the load alive.

struct MalformedCase {
  const char* name;
  const char* csv;
  // Strict expectations.
  bool strict_ok;
  ErrorCode strict_code;  // meaningful when !strict_ok
  // Lenient expectations.
  std::uint64_t rows_skipped;
  std::uint64_t values_clamped;
  std::uint64_t duplicate_rows;
  std::size_t functions;  // surviving functions in the lenient model
};

constexpr MalformedCase kLongCsvCases[] = {
    {"empty buffer", "",
     false, ErrorCode::kParseError, 0, 0, 0, 0},
    {"header only", "user,app,function,minute,count\n",
     true, ErrorCode::kParseError, 0, 0, 0, 0},
    {"wrong column count",
     "user,app,function,minute,count\nu,a,f,3\nu,a,g,4,1\n",
     false, ErrorCode::kParseError, 1, 0, 0, 1},
    {"too many columns",
     "user,app,function,minute,count\nu,a,f,3,1,9\nu,a,g,4,1\n",
     false, ErrorCode::kParseError, 1, 0, 0, 1},
    {"non-numeric count",
     "user,app,function,minute,count\nu,a,f,3,x\nu,a,g,4,1\n",
     false, ErrorCode::kParseError, 1, 0, 0, 1},
    {"non-numeric minute",
     "user,app,function,minute,count\nu,a,f,?,1\nu,a,g,4,1\n",
     false, ErrorCode::kParseError, 1, 0, 0, 1},
    {"negative minute",
     "user,app,function,minute,count\nu,a,f,-2,1\nu,a,g,4,1\n",
     false, ErrorCode::kOutOfRange, 1, 0, 0, 1},
    {"count overflows uint32",
     "user,app,function,minute,count\nu,a,f,3,99999999999\n",
     false, ErrorCode::kOutOfRange, 0, 1, 0, 1},
    {"duplicate (function, minute) row",
     "user,app,function,minute,count\nu,a,f,3,1\nu,a,f,3,2\n",
     false, ErrorCode::kInvalidArgument, 0, 0, 1, 1},
    {"truncated final row",
     "user,app,function,minute,count\nu,a,f,3,1\nu,a,g,4",
     false, ErrorCode::kParseError, 1, 0, 0, 1},
};

TEST(LongCsvMalformed, StrictModeRejectsEachCase) {
  for (const auto& c : kLongCsvCases) {
    const auto loaded = ReadLongCsv(c.csv);
    if (c.strict_ok) {
      EXPECT_TRUE(loaded.ok()) << c.name;
      continue;
    }
    ASSERT_FALSE(loaded.ok()) << c.name;
    EXPECT_EQ(loaded.error().code, c.strict_code) << c.name;
  }
}

TEST(LongCsvMalformed, LenientModeSkipsCountsAndKeepsLoading) {
  for (const auto& c : kLongCsvCases) {
    ParseReport report;
    const auto loaded =
        ReadLongCsv(c.csv, 0, ParseMode::kLenient, &report);
    ASSERT_TRUE(loaded.ok()) << c.name << ": "
                             << (loaded.ok() ? "" : loaded.error().ToString());
    EXPECT_EQ(report.rows_skipped, c.rows_skipped) << c.name;
    EXPECT_EQ(report.values_clamped, c.values_clamped) << c.name;
    EXPECT_EQ(report.duplicate_rows, c.duplicate_rows) << c.name;
    EXPECT_EQ(loaded.value().model.num_functions(), c.functions) << c.name;
  }
}

TEST(LongCsvLenient, ReportTalliesPerErrorCode) {
  const std::string csv =
      "user,app,function,minute,count\n"
      "u,a,f,1,1\n"
      "u,a,f,bad,1\n"       // parse error
      "u,a,f,-1,1\n"        // out of range
      "u,a,f,1,2\n"         // duplicate
      "u,a,g,2,99999999999\n";  // clamped
  ParseReport report;
  const auto loaded = ReadLongCsv(csv, 0, ParseMode::kLenient, &report);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(report.data_rows, 5u);
  EXPECT_EQ(report.count(ErrorCode::kParseError), 1u);
  EXPECT_EQ(report.count(ErrorCode::kOutOfRange), 2u);  // negative + clamp
  EXPECT_EQ(report.count(ErrorCode::kInvalidArgument), 1u);
  EXPECT_EQ(report.total_anomalies(), 4u);
  EXPECT_FALSE(report.clean());
  // Duplicate keeps the FIRST occurrence.
  const auto& lt = loaded.value();
  ASSERT_EQ(lt.model.num_functions(), 2u);
  EXPECT_EQ(lt.trace.series(FunctionId{0})[0].count, 1u);
  // The clamped row survives with the max representable count.
  EXPECT_EQ(lt.trace.series(FunctionId{1})[0].count, 4294967295u);
}

TEST(LongCsvLenient, CleanInputLeavesReportClean) {
  const auto w = MakeTinyWorkload();
  ParseReport report;
  const auto loaded = ReadLongCsv(WriteLongCsv(w.model, w.trace), 0,
                                  ParseMode::kLenient, &report);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.rows_skipped, 0u);
}

TEST(LongCsvLenient, RejectedRowsLeaveNoPhantomFunctions) {
  // The malformed row names a function that appears nowhere else; the
  // lenient model must not contain it.
  const std::string csv =
      "user,app,function,minute,count\n"
      "u,a,ghost,bad,1\n"
      "u,a,real,1,1\n";
  const auto loaded = ReadLongCsv(csv, 0, ParseMode::kLenient);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().model.num_functions(), 1u);
  EXPECT_EQ(loaded.value().model.functions()[0].name, "real");
}

TEST(LongCsvLenient, RowsPastForcedHorizonAreDropped) {
  const std::string csv =
      "user,app,function,minute,count\n"
      "u,a,f,1,1\n"
      "u,a,f,500,1\n";
  ParseReport report;
  const auto loaded = ReadLongCsv(csv, 100, ParseMode::kLenient, &report);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(report.rows_skipped, 1u);
  EXPECT_EQ(loaded.value().trace.horizon().end, 100);
}

TEST(LongCsvLenient, FarMinutesAreNotDuplicatesOfOtherFunctions) {
  const std::string csv =
      "user,app,function,minute,count\n"
      "u,a,f,1099511627776,1\n"
      "u,a,g,0,1\n"
      "u,a,f,1099511627776,2\n";
  ParseReport report;
  const auto loaded = ReadLongCsv(csv, 0, ParseMode::kLenient, &report);
  ASSERT_TRUE(loaded.ok());
  // Only the last row is a duplicate; g's row at minute 0 survives.
  EXPECT_EQ(report.duplicate_rows, 1u);
  EXPECT_EQ(report.total_anomalies(), 1u);
  const auto& lt = loaded.value();
  ASSERT_EQ(lt.model.num_functions(), 2u);
  ASSERT_EQ(lt.trace.series(FunctionId{0}).size(), 1u);
  EXPECT_EQ(lt.trace.series(FunctionId{0})[0].count, 1u);
  ASSERT_EQ(lt.trace.series(FunctionId{1}).size(), 1u);
  EXPECT_EQ(lt.trace.series(FunctionId{1})[0].minute, 0);
}

TEST(AzureCsvLenient, SkipsWrongColumnCountRows) {
  const auto w = MakeTinyWorkload();
  std::string day0 = WriteAzureDayCsv(w.model, w.trace, 0);
  day0 += "short,row,with,few,columns\n";
  ParseReport report;
  const auto loaded =
      ReadAzureDayCsvs({day0}, ParseMode::kLenient, &report);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(report.rows_skipped, 1u);
  EXPECT_EQ(report.count(ErrorCode::kParseError), 1u);
  EXPECT_EQ(loaded.value().model.num_functions(), 2u);
}

TEST(AzureCsvLenient, DuplicateFunctionRowKeepsFirst) {
  const auto w = MakeTinyWorkload();
  std::string day0 = WriteAzureDayCsv(w.model, w.trace, 0);
  // Append a duplicate of the first data row with different counts.
  const std::size_t first = day0.find('\n') + 1;
  std::string dup = day0.substr(first, day0.find('\n', first) + 1 - first);
  day0 += dup;
  ParseReport report;
  const auto loaded =
      ReadAzureDayCsvs({day0}, ParseMode::kLenient, &report);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(report.duplicate_rows, 1u);
}

TEST(AzureCsvLenient, TornCellIsDroppedRowSurvives) {
  std::string day0 = "header\nowner,app,fn,trigger";
  for (int m = 0; m < 1440; ++m) {
    day0 += (m == 7) ? ",x" : (m % 9 == 0 ? ",2" : ",0");
  }
  day0 += "\n";
  ParseReport report;
  const auto loaded =
      ReadAzureDayCsvs({day0}, ParseMode::kLenient, &report);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(report.count(ErrorCode::kParseError), 1u);
  EXPECT_EQ(loaded.value().model.num_functions(), 1u);
  EXPECT_GT(loaded.value().trace.TotalInvocations(
                loaded.value().trace.horizon()),
            0u);
  // Strict mode fails the same buffer.
  EXPECT_FALSE(ReadAzureDayCsvs({day0}).ok());
}

TEST(GeneratedWorkloadCsv, LongRoundTripOnSynthetic) {
  auto cfg = GeneratorConfig::Tiny();
  cfg.seed = 5;
  const auto w = GenerateWorkload(cfg);
  const auto loaded = ReadLongCsv(WriteLongCsv(w.model, w.trace),
                                  cfg.horizon_minutes);
  ASSERT_TRUE(loaded.ok());
  // The long format carries only functions with at least one event;
  // functions that never fired are (by design) not representable.
  std::size_t active_functions = 0;
  for (const auto& fn : w.model.functions()) {
    if (!w.trace.series(fn.id).empty()) ++active_functions;
  }
  EXPECT_EQ(loaded.value().model.num_functions(), active_functions);
  EXPECT_EQ(loaded.value().trace.TotalInvocations(w.trace.horizon()),
            w.trace.TotalInvocations(w.trace.horizon()));
}

}  // namespace
}  // namespace defuse::trace
