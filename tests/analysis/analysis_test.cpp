#include "analysis/analysis.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/defuse.hpp"
#include "core/experiment.hpp"
#include "sim/simulator.hpp"
#include "trace/generator.hpp"

namespace defuse::analysis {
namespace {

/// Two apps: one with a hot + a cold function (skew), one single-function.
struct Fixture {
  trace::WorkloadModel model;
  trace::InvocationTrace trace{0, TimeRange{0, 0}};

  Fixture() : trace{4, TimeRange{0, 10000}} {
    const UserId u = model.AddUser("u");
    const AppId a = model.AddApp(u, "skewed");
    const FunctionId hot = model.AddFunction(a, "hot");
    const FunctionId cold = model.AddFunction(a, "cold");
    const AppId b = model.AddApp(u, "solo");
    const FunctionId periodic = model.AddFunction(b, "periodic");
    model.AddFunction(b, "silent");
    // hot fires every 10 minutes, cold every 100 (10% frequency).
    for (Minute t = 0; t < 10000; t += 10) trace.Add(hot, t);
    for (Minute t = 0; t < 10000; t += 100) trace.Add(cold, t);
    for (Minute t = 0; t < 10000; t += 20) trace.Add(periodic, t);
    trace.Finalize();
  }
};

TEST(AnalyzeFrequencySkew, ComputesWithinAppFrequencies) {
  Fixture fx;
  const auto report =
      AnalyzeFrequencySkew(fx.model, fx.trace, fx.trace.horizon());
  // Only the 2-function app with enough activity contributes... the solo
  // app has 2 functions too (one silent), so both contribute.
  ASSERT_EQ(report.frequencies.size(), 4u);
  // hot: every app-active minute -> 1.0; cold: ~10%.
  EXPECT_NEAR(report.frequencies[0], 1.0, 0.01);
  EXPECT_NEAR(report.frequencies[1], 0.1, 0.01);
  EXPECT_NEAR(report.fraction_below_quarter, 0.5, 0.01);  // cold + silent
}

TEST(AnalyzeFrequencySkew, SkipsTinyApps) {
  trace::WorkloadModel model;
  const UserId u = model.AddUser("u");
  const AppId a = model.AddApp(u, "a");
  const FunctionId f = model.AddFunction(a, "f");
  model.AddFunction(a, "g");
  trace::InvocationTrace t{2, TimeRange{0, 1000}};
  t.Add(f, 1);
  t.Add(f, 2);
  t.Finalize();
  const auto report = AnalyzeFrequencySkew(model, t, t.horizon(), 50);
  EXPECT_TRUE(report.frequencies.empty());  // only 2 active minutes < 50
}

TEST(AnalyzeFrequencySkew, AppWithNoActivityIsSkipped) {
  // An idle app has zero active minutes: it must not enter the
  // frequencies as zeros (min_app_minutes 1), nor divide by zero
  // (min_app_minutes 0), nor be reported as the largest app.
  trace::WorkloadModel model;
  const UserId u = model.AddUser("u");
  const AppId busy = model.AddApp(u, "busy");
  const FunctionId f = model.AddFunction(busy, "f");
  const FunctionId g = model.AddFunction(busy, "g");
  const AppId idle = model.AddApp(u, "idle");
  for (const char* name : {"x", "y", "z"}) model.AddFunction(idle, name);
  trace::InvocationTrace t{5, TimeRange{0, 100}};
  for (Minute m : {1, 2, 3, 4}) t.Add(f, m);
  t.Add(g, 2);
  t.Finalize();
  for (const std::uint64_t min_app_minutes : {0u, 1u}) {
    const auto report =
        AnalyzeFrequencySkew(model, t, t.horizon(), min_app_minutes);
    EXPECT_EQ(report.frequencies, (std::vector<double>{1.0, 0.25}))
        << "min_app_minutes " << min_app_minutes;
    EXPECT_EQ(report.largest_app, busy);
    EXPECT_EQ(report.largest_app_frequencies,
              (std::vector<double>{1.0, 0.25}));
  }
}

TEST(AnalyzeFrequencySkew, LargestAppIsTracked) {
  Fixture fx;
  const auto report =
      AnalyzeFrequencySkew(fx.model, fx.trace, fx.trace.horizon());
  ASSERT_TRUE(report.largest_app.valid());
  EXPECT_EQ(report.largest_app_frequencies.size(),
            fx.model.app(report.largest_app).functions.size());
  // Sorted descending.
  for (std::size_t i = 1; i < report.largest_app_frequencies.size(); ++i) {
    EXPECT_GE(report.largest_app_frequencies[i - 1],
              report.largest_app_frequencies[i]);
  }
}

TEST(AnalyzePredictability, PeriodicIsPredictableAtBothLevels) {
  Fixture fx;
  const auto report =
      AnalyzePredictability(fx.model, fx.trace, fx.trace.horizon());
  ASSERT_FALSE(report.app_cvs.empty());
  ASSERT_FALSE(report.function_cvs.empty());
  // All traffic here is strictly periodic: nothing is unpredictable.
  EXPECT_DOUBLE_EQ(report.unpredictable_apps, 0.0);
  EXPECT_DOUBLE_EQ(report.unpredictable_functions, 0.0);
}

TEST(AnalyzePredictability, SilentEntitiesAreExcluded) {
  Fixture fx;
  const auto report =
      AnalyzePredictability(fx.model, fx.trace, fx.trace.horizon());
  // 3 active functions have histograms; "silent" does not.
  EXPECT_EQ(report.function_cvs.size(), 3u);
}

TEST(AnalyzeWorkload, FullReportFields) {
  Fixture fx;
  const auto report = AnalyzeWorkload(fx.model, fx.trace, fx.trace.horizon());
  EXPECT_EQ(report.num_users, 1u);
  EXPECT_EQ(report.num_apps, 2u);
  EXPECT_EQ(report.num_functions, 4u);
  EXPECT_EQ(report.active_functions, 3u);
  EXPECT_EQ(report.total_invocations, 1000u + 100u + 500u);
  EXPECT_GT(report.invocations_per_minute, 0.0);
}

TEST(AnalyzeWorkload, RenderMentionsTheHeadlines) {
  Fixture fx;
  const auto text = RenderWorkloadReport(
      AnalyzeWorkload(fx.model, fx.trace, fx.trace.horizon()));
  EXPECT_NE(text.find("entities:"), std::string::npos);
  EXPECT_NE(text.find("frequency skew"), std::string::npos);
  EXPECT_NE(text.find("predictability"), std::string::npos);
}

TEST(BreakdownByTriggerKind, DefuseRescuesUnpredictableFunctions) {
  // The paper's core mechanism, quantified per trigger archetype: under
  // Hybrid-Function, Poisson-driven functions are mostly cold; Defuse's
  // weak dependencies link them to predictable services and cut their
  // cold rates, while periodic functions are fine either way.
  auto cfg = trace::GeneratorConfig::Tiny();
  cfg.num_users = 30;
  cfg.seed = 77;
  const auto w = trace::GenerateWorkload(cfg);
  const auto [train, eval] = core::SplitTrainEval(w.trace.horizon());

  const auto mining = core::MineDependencies(w.trace, w.model, train).value();
  const auto defuse_policy = core::MakeDefuseScheduler(w.trace, mining, train);
  const auto defuse_sim = sim::Simulate(w.trace, eval, *defuse_policy);
  const auto defuse = BreakdownByTriggerKind(w.truth, defuse_sim,
                                             defuse_policy->unit_map());

  const auto hf_policy =
      core::MakeHybridFunctionScheduler(w.trace, w.model, train);
  const auto hf_sim = sim::Simulate(w.trace, eval, *hf_policy);
  const auto hf = BreakdownByTriggerKind(w.truth, hf_sim,
                                         hf_policy->unit_map());

  const auto poisson =
      static_cast<std::size_t>(trace::TriggerKind::kPoisson);
  const auto periodic =
      static_cast<std::size_t>(trace::TriggerKind::kPeriodic);
  ASSERT_GT(defuse.function_count[poisson], 10u);
  // Defuse cuts the unpredictable functions' mean cold rate vs HF...
  EXPECT_LT(defuse.mean_cold_rate[poisson],
            0.8 * hf.mean_cold_rate[poisson]);
  // ...while periodic functions are already cheap under both.
  EXPECT_LT(defuse.mean_cold_rate[periodic], 0.35);
  EXPECT_LT(hf.mean_cold_rate[periodic],
            hf.mean_cold_rate[poisson]);
}

TEST(BreakdownByTriggerKind, CountsCoverInvokedFunctionsOnly) {
  auto cfg = trace::GeneratorConfig::Tiny();
  cfg.num_users = 10;
  cfg.seed = 78;
  const auto w = trace::GenerateWorkload(cfg);
  const auto [train, eval] = core::SplitTrainEval(w.trace.horizon());
  const auto policy =
      core::MakeHybridFunctionScheduler(w.trace, w.model, train);
  const auto result = sim::Simulate(w.trace, eval, *policy);
  const auto breakdown =
      BreakdownByTriggerKind(w.truth, result, policy->unit_map());
  std::size_t counted = 0;
  for (const auto c : breakdown.function_count) counted += c;
  std::size_t invoked = 0;
  for (const auto& fn : w.model.functions()) {
    if (w.trace.ActiveMinutes(fn.id, eval) > 0) ++invoked;
  }
  EXPECT_EQ(counted, invoked);
}

TEST(DetectDailyPattern, FindsOfficeHoursRhythm) {
  trace::WorkloadModel model;
  const UserId u = model.AddUser("u");
  const AppId a = model.AddApp(u, "a");
  const FunctionId f = model.AddFunction(a, "office");
  trace::InvocationTrace t{1, TimeRange{0, 7 * kMinutesPerDay}};
  for (Minute day = 0; day < 7; ++day) {
    for (Minute m = 9 * 60; m < 17 * 60; m += 7) {
      t.Add(f, day * kMinutesPerDay + m);
    }
  }
  t.Finalize();
  const auto pattern = DetectDailyPattern(t, f, t.horizon());
  EXPECT_TRUE(pattern.detected);
  EXPECT_GT(pattern.strength, 0.5);
}

TEST(DetectDailyPattern, RejectsPoissonTraffic) {
  trace::WorkloadModel model;
  const UserId u = model.AddUser("u");
  const AppId a = model.AddApp(u, "a");
  const FunctionId f = model.AddFunction(a, "random");
  trace::InvocationTrace t{1, TimeRange{0, 7 * kMinutesPerDay}};
  Rng rng{3};
  double m = 0.0;
  while (m < 7.0 * kMinutesPerDay) {
    t.Add(f, static_cast<Minute>(m));
    m += 30.0 * rng.NextExponential(1.0);
  }
  t.Finalize();
  EXPECT_FALSE(DetectDailyPattern(t, f, t.horizon()).detected);
}

TEST(DetectDailyPattern, TooShortTraceIsInconclusive) {
  trace::WorkloadModel model;
  const UserId u = model.AddUser("u");
  const AppId a = model.AddApp(u, "a");
  const FunctionId f = model.AddFunction(a, "f");
  trace::InvocationTrace t{1, TimeRange{0, kMinutesPerDay}};
  for (Minute m = 0; m < kMinutesPerDay; m += 30) t.Add(f, m);
  t.Finalize();
  EXPECT_FALSE(DetectDailyPattern(t, f, t.horizon()).detected);
}

TEST(DetectDailyPattern, GeneratorDiurnalArchetypeIsDetected) {
  auto cfg = trace::GeneratorConfig::Tiny();
  cfg.frac_diurnal = 1.0;
  cfg.frac_periodic = cfg.frac_poisson = cfg.frac_bursty = 0.0;
  cfg.frac_users_with_common_service = 0.0;
  cfg.horizon_minutes = 7 * kMinutesPerDay;
  cfg.num_users = 25;
  const auto w = trace::GenerateWorkload(cfg);
  std::size_t active = 0, detected = 0;
  for (const auto& group : w.truth.strong_groups) {
    if (w.trace.ActiveMinutes(group.front(), w.trace.horizon()) < 100) {
      continue;
    }
    ++active;
    if (DetectDailyPattern(w.trace, group.front(), w.trace.horizon())
            .detected) {
      ++detected;
    }
  }
  ASSERT_GT(active, 5u);
  EXPECT_GT(static_cast<double>(detected) / static_cast<double>(active),
            0.7);
}

TEST(AnalyzeWorkload, SyntheticWorkloadShowsPaperLikeStructure) {
  auto cfg = trace::GeneratorConfig::Tiny();
  cfg.num_users = 30;
  cfg.seed = 11;
  const auto w = trace::GenerateWorkload(cfg);
  const auto report =
      AnalyzeWorkload(w.model, w.trace, w.trace.horizon());
  // The two structural facts the paper's motivation rests on:
  // functions are less predictable than apps, and a large share of
  // functions is rarely used within their app.
  EXPECT_GT(report.predictability.unpredictable_functions,
            report.predictability.unpredictable_apps);
  EXPECT_GT(report.skew.fraction_below_quarter, 0.3);
}

}  // namespace
}  // namespace defuse::analysis
