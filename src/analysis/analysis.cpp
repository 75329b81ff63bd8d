#include "analysis/analysis.hpp"

#include <algorithm>
#include <cstdio>

#include "stats/descriptive.hpp"
#include "stats/timeseries.hpp"

namespace defuse::analysis {
using trace::WorkloadModel;
using trace::InvocationTrace;

FrequencySkewReport AnalyzeFrequencySkew(const WorkloadModel& model,
                                         const InvocationTrace& trace,
                                         TimeRange range,
                                         std::uint64_t min_app_minutes) {
  FrequencySkewReport report;
  std::size_t largest_size = 0;
  for (const auto& app : model.apps()) {
    if (app.functions.size() < 2) continue;
    const std::uint64_t app_minutes =
        trace.GroupActiveMinutes(app.functions, range);
    // An app never active in range has no within-app frequencies.
    if (app_minutes == 0 || app_minutes < min_app_minutes) continue;
    for (const FunctionId fn : app.functions) {
      report.frequencies.push_back(
          static_cast<double>(trace.ActiveMinutes(fn, range)) /
          static_cast<double>(app_minutes));
    }
    if (app.functions.size() > largest_size) {
      largest_size = app.functions.size();
      report.largest_app = app.id;
    }
  }
  report.fraction_below_quarter = stats::FractionBelow(report.frequencies,
                                                       0.25);
  if (report.largest_app.valid()) {
    const auto& app = model.app(report.largest_app);
    const std::uint64_t app_minutes =
        trace.GroupActiveMinutes(app.functions, range);
    for (const FunctionId fn : app.functions) {
      report.largest_app_frequencies.push_back(
          static_cast<double>(trace.ActiveMinutes(fn, range)) /
          static_cast<double>(app_minutes));
    }
    std::sort(report.largest_app_frequencies.rbegin(),
              report.largest_app_frequencies.rend());
  }
  return report;
}

PredictabilityReportByLevel AnalyzePredictability(
    const WorkloadModel& model, const InvocationTrace& trace, TimeRange range,
    const mining::PredictabilityConfig& config) {
  PredictabilityReportByLevel report;
  report.cv_threshold = config.cv_threshold;
  for (const auto& app : model.apps()) {
    const auto hist =
        mining::BuildGroupItHistogram(trace, app.functions, range, config);
    if (hist.total() < config.min_observations) continue;
    report.app_cvs.push_back(hist.BinCountCv());
  }
  for (const auto& fn : model.functions()) {
    const auto hist = mining::BuildItHistogram(trace, fn.id, range, config);
    if (hist.total() < config.min_observations) continue;
    report.function_cvs.push_back(hist.BinCountCv());
  }
  const auto unpredictable_fraction = [&](const std::vector<double>& cvs) {
    if (cvs.empty()) return 0.0;
    std::size_t count = 0;
    for (const double cv : cvs) {
      if (cv <= config.cv_threshold) ++count;
    }
    return static_cast<double>(count) / static_cast<double>(cvs.size());
  };
  report.unpredictable_apps = unpredictable_fraction(report.app_cvs);
  report.unpredictable_functions = unpredictable_fraction(report.function_cvs);
  return report;
}

WorkloadReport AnalyzeWorkload(const WorkloadModel& model,
                               const InvocationTrace& trace, TimeRange range,
                               const mining::PredictabilityConfig& config) {
  WorkloadReport report;
  report.num_users = model.num_users();
  report.num_apps = model.num_apps();
  report.num_functions = model.num_functions();
  report.total_invocations = trace.TotalInvocations(range);
  for (const auto& fn : model.functions()) {
    if (trace.ActiveMinutes(fn.id, range) > 0) ++report.active_functions;
  }
  report.invocations_per_minute =
      range.length() <= 0
          ? 0.0
          : static_cast<double>(report.total_invocations) /
                static_cast<double>(range.length());
  report.skew = AnalyzeFrequencySkew(model, trace, range);
  report.predictability = AnalyzePredictability(model, trace, range, config);
  return report;
}

TriggerKindBreakdown BreakdownByTriggerKind(
    const trace::GroundTruth& truth, const sim::SimulationResult& result,
    const graph::UnitMap& units) {
  TriggerKindBreakdown breakdown;
  std::array<double, 4> totals{};
  for (std::size_t f = 0; f < truth.function_trigger.size(); ++f) {
    const UnitId unit =
        units.unit_of(FunctionId{static_cast<std::uint32_t>(f)});
    const auto invoked = result.unit_invoked_minutes[unit.value()];
    if (invoked == 0) continue;
    const double rate =
        static_cast<double>(result.unit_cold_minutes[unit.value()]) /
        static_cast<double>(invoked);
    const auto kind = static_cast<std::size_t>(truth.function_trigger[f]);
    totals[kind] += rate;
    ++breakdown.function_count[kind];
  }
  for (std::size_t k = 0; k < 4; ++k) {
    breakdown.mean_cold_rate[k] =
        breakdown.function_count[k] == 0
            ? 0.0
            : totals[k] / static_cast<double>(breakdown.function_count[k]);
  }
  return breakdown;
}

DailyPattern DetectDailyPattern(const trace::InvocationTrace& trace,
                                FunctionId fn, TimeRange range,
                                double min_strength) {
  DailyPattern pattern;
  // Hourly buckets; need at least ~3 days of signal for a 24h lag.
  const auto series = trace.ActivitySeries(fn, range, kMinutesPerHour);
  if (series.size() < 72) return pattern;
  const auto estimate =
      stats::DominantPeriod(series, 12, 48, min_strength);
  if (estimate && estimate->period >= 22 && estimate->period <= 26) {
    pattern.detected = true;
    pattern.strength = estimate->strength;
  }
  return pattern;
}

std::string RenderWorkloadReport(const WorkloadReport& report) {
  char buf[256];
  std::string out;
  std::snprintf(buf, sizeof buf,
                "entities: %zu users, %zu apps, %zu functions (%zu active)\n",
                report.num_users, report.num_apps, report.num_functions,
                report.active_functions);
  out += buf;
  std::snprintf(buf, sizeof buf,
                "traffic: %llu invocations (%.1f per minute)\n",
                static_cast<unsigned long long>(report.total_invocations),
                report.invocations_per_minute);
  out += buf;
  std::snprintf(buf, sizeof buf,
                "frequency skew: %.1f%% of functions used in < 25%% of their "
                "app's active minutes (paper: 64.7%%)\n",
                100.0 * report.skew.fraction_below_quarter);
  out += buf;
  std::snprintf(
      buf, sizeof buf,
      "predictability (CV <= %.0f): %.1f%% of apps unpredictable "
      "(paper: 14%%), %.1f%% of functions (paper: 32%%)\n",
      report.predictability.cv_threshold,
      100.0 * report.predictability.unpredictable_apps,
      100.0 * report.predictability.unpredictable_functions);
  out += buf;
  return out;
}

}  // namespace defuse::analysis
