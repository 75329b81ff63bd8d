// Failure-injection / pathological-workload robustness: the pipeline must
// behave sensibly (no crashes, sane metrics) on degenerate inputs that
// real platforms produce — silent functions, single-function users,
// all-at-once bursts, and empty windows.
#include <gtest/gtest.h>

#include "core/defuse.hpp"
#include "core/experiment.hpp"
#include "platform/platform.hpp"

namespace defuse::core {
namespace {

TEST(Robustness, CompletelySilentWorkload) {
  trace::WorkloadModel model;
  const UserId u = model.AddUser("u");
  const AppId a = model.AddApp(u, "a");
  model.AddFunction(a, "f0");
  model.AddFunction(a, "f1");
  trace::InvocationTrace trace{2, TimeRange{0, 1000}};
  trace.Finalize();

  const auto mining = MineDependencies(trace, model, TimeRange{0, 500}).value();
  EXPECT_EQ(mining.num_frequent_itemsets, 0u);
  EXPECT_EQ(mining.num_weak_dependencies, 0u);
  EXPECT_EQ(mining.sets.size(), 2u);  // singletons

  ExperimentDriver driver{model, trace, TimeRange{0, 500},
                          TimeRange{500, 1000}};
  const auto r = driver.Run(Method::kDefuse);
  EXPECT_TRUE(r.cold_start_rates.empty());
  EXPECT_DOUBLE_EQ(r.avg_memory, 0.0);
  EXPECT_DOUBLE_EQ(r.event_cold_fraction, 0.0);
}

TEST(Robustness, SingleFunctionSingleInvocation) {
  trace::WorkloadModel model;
  const UserId u = model.AddUser("u");
  const AppId a = model.AddApp(u, "a");
  const FunctionId f = model.AddFunction(a, "f");
  trace::InvocationTrace trace{1, TimeRange{0, 1000}};
  trace.Add(f, 700);
  trace.Finalize();

  ExperimentDriver driver{model, trace, TimeRange{0, 500},
                          TimeRange{500, 1000}};
  for (const auto method :
       {Method::kDefuse, Method::kHybridFunction, Method::kHybridApplication,
        Method::kFixedKeepAlive}) {
    const auto r = driver.Run(method);
    ASSERT_EQ(r.cold_start_rates.size(), 1u) << MethodName(method);
    EXPECT_DOUBLE_EQ(r.cold_start_rates[0], 1.0);  // first touch is cold
  }
}

TEST(Robustness, EverythingFiresEveryMinute) {
  // Maximum-density workload: all functions, all minutes.
  trace::WorkloadModel model;
  const UserId u = model.AddUser("u");
  const AppId a = model.AddApp(u, "a");
  constexpr std::uint32_t kN = 8;
  for (std::uint32_t f = 0; f < kN; ++f) {
    model.AddFunction(a, "f" + std::to_string(f));
  }
  trace::InvocationTrace trace{kN, TimeRange{0, 2000}};
  for (std::uint32_t f = 0; f < kN; ++f) {
    for (Minute t = 0; t < 2000; ++t) trace.Add(FunctionId{f}, t);
  }
  trace.Finalize();

  const auto mining = MineDependencies(trace, model, TimeRange{0, 1000}).value();
  // All functions co-fire constantly -> one big strong component.
  EXPECT_EQ(mining.sets.size(), 1u);
  EXPECT_EQ(mining.sets[0].functions.size(), kN);

  ExperimentDriver driver{model, trace, TimeRange{0, 1000},
                          TimeRange{1000, 2000}};
  const auto r = driver.Run(Method::kDefuse);
  // One cold start (the first minute), everything else warm.
  for (const double rate : r.cold_start_rates) EXPECT_LT(rate, 0.01);
  EXPECT_NEAR(r.avg_memory, kN, 0.5);
}

TEST(Robustness, TrainWindowEmpty) {
  trace::WorkloadModel model;
  const UserId u = model.AddUser("u");
  const AppId a = model.AddApp(u, "a");
  const FunctionId f = model.AddFunction(a, "f");
  trace::InvocationTrace trace{1, TimeRange{0, 100}};
  trace.Add(f, 50);
  trace.Finalize();
  // Degenerate training range.
  const auto mining = MineDependencies(trace, model, TimeRange{0, 0}).value();
  EXPECT_EQ(mining.sets.size(), 1u);
  ExperimentDriver driver{model, trace, TimeRange{0, 0}, TimeRange{0, 100}};
  const auto r = driver.Run(Method::kDefuse);
  EXPECT_EQ(r.cold_start_rates.size(), 1u);
}

TEST(Robustness, ManyUsersOneFunctionEach) {
  trace::WorkloadModel model;
  trace::InvocationTrace trace{0, TimeRange{0, 0}};
  {
    constexpr std::uint32_t kUsers = 40;
    trace::InvocationTrace t{kUsers, TimeRange{0, 4000}};
    for (std::uint32_t i = 0; i < kUsers; ++i) {
      const UserId u = model.AddUser("u" + std::to_string(i));
      const AppId a = model.AddApp(u, "a" + std::to_string(i));
      const FunctionId f = model.AddFunction(a, "f" + std::to_string(i));
      for (Minute m = static_cast<Minute>(i); m < 4000;
           m += 20 + static_cast<Minute>(i)) {
        t.Add(f, m);
      }
    }
    t.Finalize();
    trace = std::move(t);
  }
  // No possible dependencies (one function per user).
  const auto mining = MineDependencies(trace, model, TimeRange{0, 2000}).value();
  EXPECT_EQ(mining.graph.edges().size(), 0u);
  EXPECT_EQ(mining.sets.size(), model.num_functions());
  ExperimentDriver driver{model, trace, TimeRange{0, 2000},
                          TimeRange{2000, 4000}};
  const auto defuse = driver.Run(Method::kDefuse);
  const auto hf = driver.Run(Method::kHybridFunction);
  // With all-singleton sets, Defuse degenerates to Hybrid-Function.
  EXPECT_EQ(defuse.num_units, hf.num_units);
  EXPECT_DOUBLE_EQ(defuse.p75_cold_start_rate, hf.p75_cold_start_rate);
  EXPECT_DOUBLE_EQ(defuse.avg_memory, hf.avg_memory);
}

TEST(Robustness, AdaptiveOnSilentSpan) {
  // The daily re-mining daemon over days with no traffic at all: every
  // boundary still re-mines (over an empty window), nothing is invoked,
  // and the function stays a singleton unit.
  trace::WorkloadModel model;
  const UserId u = model.AddUser("u");
  const AppId a = model.AddApp(u, "a");
  model.AddFunction(a, "f");
  platform::PlatformConfig config;
  config.horizon = 3 * kMinutesPerDay;
  platform::Platform engine{model, config};
  engine.AdvanceTo(kMinutesPerDay);
  engine.AdvanceTo(2 * kMinutesPerDay);
  engine.AdvanceTo(3 * kMinutesPerDay - 1);
  EXPECT_EQ(engine.stats().remines, 2u);
  EXPECT_EQ(engine.stats().degraded_remines, 0u);
  EXPECT_EQ(engine.stats().invocations, 0u);
  EXPECT_DOUBLE_EQ(engine.stats().cold_fraction(), 0.0);
  EXPECT_EQ(engine.units().num_units(), 1u);
}

TEST(ValidateDefuseConfig, AcceptsDefaults) {
  EXPECT_EQ(ValidateDefuseConfig(DefuseConfig{}), nullptr);
}

TEST(ValidateDefuseConfig, RejectsBadValues) {
  DefuseConfig c;
  c.use_strong = c.use_weak = false;
  EXPECT_NE(ValidateDefuseConfig(c), nullptr);
  c = DefuseConfig{};
  c.support = 0.0;
  EXPECT_NE(ValidateDefuseConfig(c), nullptr);
  c = DefuseConfig{};
  c.support = 1.5;
  EXPECT_NE(ValidateDefuseConfig(c), nullptr);
  c = DefuseConfig{};
  c.universe_stride = 50;  // > universe_window (20)
  EXPECT_NE(ValidateDefuseConfig(c), nullptr);
  c = DefuseConfig{};
  c.top_k = 0;
  EXPECT_NE(ValidateDefuseConfig(c), nullptr);
  c = DefuseConfig{};
  c.window_minutes = 0;
  EXPECT_NE(ValidateDefuseConfig(c), nullptr);
}

}  // namespace
}  // namespace defuse::core
