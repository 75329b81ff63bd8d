// Registry construction: registry-built policies must be byte-identical
// to directly-constructed ones (same histograms, same simulation), and
// missing build inputs must fail with kFailedPrecondition, not crash.
#include "arena/registry.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "arena/scenarios.hpp"
#include "core/defuse.hpp"
#include "core/experiment.hpp"
#include "policy/hybrid.hpp"
#include "sim/simulator.hpp"
#include "trace/generator.hpp"

namespace defuse::arena {
namespace {

struct Fixture {
  trace::SyntheticWorkload workload;
  TimeRange train;
  TimeRange eval;
  core::MiningOutput mining;
};

Fixture MakeFixture(std::uint64_t seed = 7) {
  trace::ScenarioSpec spec;
  spec.kind = trace::ScenarioKind::kAzureLike;
  spec.seed = seed;
  spec.num_users = 6;
  spec.horizon_minutes = 7 * kMinutesPerDay;
  auto workload = trace::GenerateScenario(spec);
  const auto [train, eval] = core::SplitTrainEval(workload.trace.horizon());
  auto mined = core::MineDependencies(workload.trace, workload.model, train);
  EXPECT_TRUE(mined.ok());
  return Fixture{.workload = std::move(workload),
                 .train = train,
                 .eval = eval,
                 .mining = std::move(mined).value()};
}

PolicyBuildContext ContextOf(const Fixture& f) {
  return PolicyBuildContext{.model = &f.workload.model,
                            .trace = &f.workload.trace,
                            .train = f.train,
                            .mining = &f.mining};
}

TEST(PolicyRegistry, ListsEveryBuiltinSorted) {
  const auto& entries = PolicyRegistry::Builtin().entries();
  ASSERT_GE(entries.size(), 8u);
  for (std::size_t i = 1; i < entries.size(); ++i) {
    EXPECT_LT(entries[i - 1].name, entries[i].name);
  }
  for (const char* name :
       {"ar", "diurnal", "fixed", "forecast", "hiku", "hybrid", "predictor",
        "spes"}) {
    EXPECT_NE(PolicyRegistry::Builtin().Find(name), nullptr) << name;
  }
}

TEST(PolicyRegistry, HybridSetMatchesDirectConstructionByteForByte) {
  const auto f = MakeFixture();
  auto built = PolicyRegistry::Builtin().Build(ContextOf(f), "hybrid:set");
  ASSERT_TRUE(built.ok()) << built.error().message;

  auto direct =
      core::MakeDefuseScheduler(f.workload.trace, f.mining, f.train);

  auto* hybrid =
      dynamic_cast<policy::HybridHistogramPolicy*>(built.value().get());
  ASSERT_NE(hybrid, nullptr);
  EXPECT_EQ(hybrid->SerializeHistograms(), direct->SerializeHistograms());

  const auto a = sim::Simulate(f.workload.trace, f.eval, *built.value());
  const auto b = sim::Simulate(f.workload.trace, f.eval, *direct);
  EXPECT_EQ(a.unit_cold_minutes, b.unit_cold_minutes);
  EXPECT_EQ(a.unit_invoked_minutes, b.unit_invoked_minutes);
  EXPECT_EQ(a.loaded_functions, b.loaded_functions);
  EXPECT_EQ(a.loading_functions, b.loading_functions);
  EXPECT_EQ(a.function_cold_minutes, b.function_cold_minutes);
}

bool SameSimulation(const sim::SimulationResult& a,
                    const sim::SimulationResult& b) {
  return a.unit_invoked_minutes == b.unit_invoked_minutes &&
         a.unit_cold_minutes == b.unit_cold_minutes &&
         a.loaded_functions == b.loaded_functions &&
         a.loading_functions == b.loading_functions &&
         a.loaded_weight == b.loaded_weight &&
         a.function_invocation_minutes == b.function_invocation_minutes &&
         a.function_cold_minutes == b.function_cold_minutes;
}

TEST(PolicyRegistry, SpesTiersArePresetsOfTheHybridFunctionPolicy) {
  const auto f = MakeFixture();
  const auto ctx = ContextOf(f);
  auto hybrid = PolicyRegistry::Builtin().Build(ctx, "hybrid:function");
  ASSERT_TRUE(hybrid.ok());
  const auto* reference =
      dynamic_cast<policy::HybridHistogramPolicy*>(hybrid.value().get());
  ASSERT_NE(reference, nullptr);

  // The balanced tier is the hybrid policy's own defaults. (Compare the
  // seeded histograms before simulating: the simulation keeps updating
  // them online.)
  auto balanced = PolicyRegistry::Builtin().Build(ctx, "spes:tier=balanced");
  ASSERT_TRUE(balanced.ok());
  const auto* spes =
      dynamic_cast<policy::HybridHistogramPolicy*>(balanced.value().get());
  ASSERT_NE(spes, nullptr);
  EXPECT_EQ(spes->SerializeHistograms(), reference->SerializeHistograms());
  const auto expected =
      sim::Simulate(f.workload.trace, f.eval, *hybrid.value());
  EXPECT_TRUE(SameSimulation(
      sim::Simulate(f.workload.trace, f.eval, *balanced.value()), expected));
  EXPECT_EQ(spes->SerializeHistograms(), reference->SerializeHistograms());

  // The other tiers still move the schedule: latency buys residency,
  // cost gives it up.
  const auto simulate_tier = [&](const char* spec) {
    auto tier = PolicyRegistry::Builtin().Build(ctx, spec);
    EXPECT_TRUE(tier.ok()) << spec;
    return sim::Simulate(f.workload.trace, f.eval, *tier.value());
  };
  const auto latency = simulate_tier("spes:tier=latency");
  const auto cost = simulate_tier("spes:tier=cost");
  EXPECT_FALSE(SameSimulation(latency, expected));
  EXPECT_FALSE(SameSimulation(cost, expected));
  EXPECT_GT(latency.AverageMemoryUsage(), expected.AverageMemoryUsage());
  EXPECT_LT(cost.AverageMemoryUsage(), expected.AverageMemoryUsage());
}

TEST(PolicyRegistry, VariantAliasesBuildTheSamePolicy) {
  const auto f = MakeFixture();
  const auto ctx = ContextOf(f);
  auto coarse = PolicyRegistry::Builtin().Build(ctx, "hybrid:coarse");
  auto app = PolicyRegistry::Builtin().Build(ctx, "hybrid:variant=application");
  ASSERT_TRUE(coarse.ok());
  ASSERT_TRUE(app.ok());
  auto* a = dynamic_cast<policy::HybridHistogramPolicy*>(coarse.value().get());
  auto* b = dynamic_cast<policy::HybridHistogramPolicy*>(app.value().get());
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->SerializeHistograms(), b->SerializeHistograms());
}

TEST(PolicyRegistry, EveryBuiltinConstructsAndSimulates) {
  const auto f = MakeFixture();
  const auto ctx = ContextOf(f);
  for (const char* spec :
       {"ar", "diurnal", "fixed", "forecast", "hiku", "hybrid:set",
        "hybrid:function", "hybrid:application", "predictor",
        "spes:tier=latency", "spes:tier=balanced", "spes:tier=cost"}) {
    auto built = PolicyRegistry::Builtin().Build(ctx, spec);
    ASSERT_TRUE(built.ok()) << spec << ": " << built.error().message;
    const auto r = sim::Simulate(f.workload.trace, f.eval, *built.value());
    EXPECT_GT(r.function_invocation_minutes, 0u) << spec;
  }
}

TEST(PolicyRegistry, MissingMiningIsFailedPrecondition) {
  const auto f = MakeFixture();
  auto ctx = ContextOf(f);
  ctx.mining = nullptr;
  for (const char* spec : {"hybrid:set", "diurnal", "predictor", "ar",
                           "hiku", "forecast"}) {
    auto built = PolicyRegistry::Builtin().Build(ctx, spec);
    ASSERT_FALSE(built.ok()) << spec;
    EXPECT_EQ(built.error().code, ErrorCode::kFailedPrecondition) << spec;
  }
  // Trace-only policies still build without mining.
  for (const char* spec : {"fixed", "hybrid:function", "spes"}) {
    auto built = PolicyRegistry::Builtin().Build(ctx, spec);
    EXPECT_TRUE(built.ok()) << spec;
  }
}

TEST(PolicyRegistry, MissingTraceIsFailedPrecondition) {
  PolicyBuildContext empty;
  auto built = PolicyRegistry::Builtin().Build(empty, "fixed");
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.error().code, ErrorCode::kFailedPrecondition);
}

TEST(PolicyRegistry, RegisterRejectsDuplicates) {
  PolicyRegistry registry;
  PolicyEntry entry;
  entry.name = "custom";
  entry.factory = [](const PolicyBuildContext&, const SpecValues&)
      -> Result<std::unique_ptr<policy::SchedulingPolicy>> {
    return Error{.code = ErrorCode::kFailedPrecondition, .message = "stub"};
  };
  ASSERT_TRUE(registry.Register(entry).ok());
  EXPECT_FALSE(registry.Register(entry).ok());
  EXPECT_NE(registry.Find("custom"), nullptr);
}

}  // namespace
}  // namespace defuse::arena
