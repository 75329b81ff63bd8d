#include "core/defuse.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/experiment.hpp"
#include "trace/generator.hpp"

namespace defuse::core {
namespace {

trace::SyntheticWorkload TestWorkload() {
  auto cfg = trace::GeneratorConfig::Tiny();
  cfg.num_users = 25;
  cfg.seed = 31;
  return trace::GenerateWorkload(cfg);
}

TEST(MineDependencies, ProducesSetsCoveringAllFunctions) {
  const auto w = TestWorkload();
  const auto [train, eval] = SplitTrainEval(w.trace.horizon());
  const auto mining = MineDependencies(w.trace, w.model, train).value();
  std::size_t covered = 0;
  for (const auto& set : mining.sets) covered += set.functions.size();
  EXPECT_EQ(covered, w.model.num_functions());
  EXPECT_GT(mining.num_frequent_itemsets, 0u);
  EXPECT_GT(mining.num_weak_dependencies, 0u);
}

TEST(MineDependencies, DependencySetsNeverCrossUsers) {
  const auto w = TestWorkload();
  const auto [train, eval] = SplitTrainEval(w.trace.horizon());
  const auto mining = MineDependencies(w.trace, w.model, train).value();
  for (const auto& set : mining.sets) {
    const UserId user = w.model.function(set.functions.front()).user;
    for (const FunctionId fn : set.functions) {
      EXPECT_EQ(w.model.function(fn).user, user)
          << "set " << set.id << " crosses users";
    }
  }
}

/// A planted core group is recovered when all of its members (which
/// co-fire on every trigger) land in the same dependency set. FP-Growth
/// can only find groups whose firing frequency clears the support
/// threshold *relative to the owning user's transaction count*, so the
/// hit rate is measured over those.
std::pair<std::size_t, std::size_t> GroupRecovery(
    const trace::SyntheticWorkload& w, TimeRange train,
    const DefuseConfig& config) {
  const auto mining = MineDependencies(w.trace, w.model, train, config).value();
  const auto fn_to_set =
      graph::FunctionToSetIndex(mining.sets, w.model.num_functions());
  std::size_t eligible_groups = 0, recovered = 0;
  for (const auto& group : w.truth.strong_groups) {
    const UserId user = w.model.function(group.front()).user;
    const auto transactions = mining::BuildUserTransactions(
        w.trace, w.model, user, train, config.MakeTransactionConfig());
    const double group_minutes = static_cast<double>(
        w.trace.ActiveMinutes(group.front(), train));
    if (transactions.empty() ||
        group_minutes <
            1.25 * config.support * static_cast<double>(transactions.size())) {
      continue;  // below (or too close to) the support threshold
    }
    ++eligible_groups;
    const auto set = fn_to_set[group.front().value()];
    if (std::all_of(group.begin(), group.end(), [&](FunctionId fn) {
          return fn_to_set[fn.value()] == set;
        })) {
      ++recovered;
    }
  }
  return {recovered, eligible_groups};
}

TEST(MineDependencies, RecoversAllEligibleGroupsWithoutWindowing) {
  // With the universe-window splitting disabled, every group above the
  // support threshold must be recovered: this validates the miner itself.
  const auto w = TestWorkload();
  const auto [train, eval] = SplitTrainEval(w.trace.horizon());
  DefuseConfig config;
  config.universe_window = 1u << 20;  // effectively unbounded
  config.universe_stride = 1u << 19;
  const auto [recovered, eligible] = GroupRecovery(w, train, config);
  ASSERT_GT(eligible, 10u);
  EXPECT_EQ(recovered, eligible);
}

TEST(MineDependencies, WindowingLosesOnlyAModestFractionOfGroups) {
  // With the paper's shuffle + window-20/stride-10 trick (§V.A), two
  // members of a group can land in disjoint FP-Growth windows for users
  // with more than 20 functions. The recovery rate documents that cost;
  // it must stay the dominant behaviour, not the exception.
  const auto w = TestWorkload();
  const auto [train, eval] = SplitTrainEval(w.trace.horizon());
  const auto [recovered, eligible] = GroupRecovery(w, train, DefuseConfig{});
  ASSERT_GT(eligible, 10u);
  EXPECT_GT(static_cast<double>(recovered) / static_cast<double>(eligible),
            0.7);
}

TEST(MineDependencies, RecoversManyPlantedWeakLinks) {
  const auto w = TestWorkload();
  const auto [train, eval] = SplitTrainEval(w.trace.horizon());
  const auto mining = MineDependencies(w.trace, w.model, train).value();
  const auto fn_to_set =
      graph::FunctionToSetIndex(mining.sets, w.model.num_functions());

  std::size_t active_links = 0, joined = 0;
  for (const auto& [from, to] : w.truth.weak_links) {
    if (w.trace.ActiveMinutes(from, train) < 10) continue;
    ++active_links;
    if (fn_to_set[from.value()] == fn_to_set[to.value()]) ++joined;
  }
  ASSERT_GT(active_links, 3u);
  EXPECT_GT(static_cast<double>(joined) / static_cast<double>(active_links),
            0.6);
}

TEST(MineDependencies, StrongOnlyHasNoWeakEdges) {
  const auto w = TestWorkload();
  const auto [train, eval] = SplitTrainEval(w.trace.horizon());
  DefuseConfig cfg;
  cfg.use_weak = false;
  const auto mining = MineDependencies(w.trace, w.model, train, cfg).value();
  EXPECT_EQ(mining.num_weak_dependencies, 0u);
  EXPECT_EQ(mining.graph.num_weak_edges(), 0u);
  EXPECT_GT(mining.graph.num_strong_edges(), 0u);
}

TEST(MineDependencies, WeakOnlyHasNoStrongEdges) {
  const auto w = TestWorkload();
  const auto [train, eval] = SplitTrainEval(w.trace.horizon());
  DefuseConfig cfg;
  cfg.use_strong = false;
  const auto mining = MineDependencies(w.trace, w.model, train, cfg).value();
  EXPECT_EQ(mining.num_frequent_itemsets, 0u);
  EXPECT_EQ(mining.graph.num_strong_edges(), 0u);
  EXPECT_GT(mining.graph.num_weak_edges(), 0u);
}

TEST(MineDependencies, CombinedGraphHasFewerOrEqualSets) {
  // Adding weak edges can only merge components (paper §V.F: S+W makes
  // bigger connected components).
  const auto w = TestWorkload();
  const auto [train, eval] = SplitTrainEval(w.trace.horizon());
  DefuseConfig strong_only;
  strong_only.use_weak = false;
  const auto strong = MineDependencies(w.trace, w.model, train, strong_only).value();
  const auto both = MineDependencies(w.trace, w.model, train).value();
  EXPECT_LE(both.sets.size(), strong.sets.size());
}

TEST(MineDependencies, HigherSupportYieldsFewerStrongEdges) {
  const auto w = TestWorkload();
  const auto [train, eval] = SplitTrainEval(w.trace.horizon());
  DefuseConfig loose;
  loose.support = 0.1;
  loose.use_weak = false;
  DefuseConfig strict;
  strict.support = 0.6;
  strict.use_weak = false;
  const auto a = MineDependencies(w.trace, w.model, train, loose).value();
  const auto b = MineDependencies(w.trace, w.model, train, strict).value();
  EXPECT_GE(a.num_frequent_itemsets, b.num_frequent_itemsets);
}

TEST(MineDependencies, IsDeterministic) {
  const auto w = TestWorkload();
  const auto [train, eval] = SplitTrainEval(w.trace.horizon());
  const auto a = MineDependencies(w.trace, w.model, train).value();
  const auto b = MineDependencies(w.trace, w.model, train).value();
  ASSERT_EQ(a.sets.size(), b.sets.size());
  for (std::size_t i = 0; i < a.sets.size(); ++i) {
    EXPECT_EQ(a.sets[i].functions, b.sets[i].functions);
  }
}

TEST(MakeDefuseScheduler, SeedsHistogramsFromTraining) {
  const auto w = TestWorkload();
  const auto [train, eval] = SplitTrainEval(w.trace.horizon());
  const auto mining = MineDependencies(w.trace, w.model, train).value();
  const auto policy = MakeDefuseScheduler(w.trace, mining, train);
  EXPECT_EQ(policy->unit_map().num_units(), mining.sets.size());
  // At least one active unit must have a seeded histogram.
  std::size_t seeded = 0;
  for (std::size_t u = 0; u < policy->unit_map().num_units(); ++u) {
    if (policy->histogram(UnitId{static_cast<std::uint32_t>(u)}).total() > 0) {
      ++seeded;
    }
  }
  EXPECT_GT(seeded, mining.sets.size() / 2);
}

TEST(MakeBaselineSchedulers, GranularitiesMatch) {
  const auto w = TestWorkload();
  const auto [train, eval] = SplitTrainEval(w.trace.horizon());
  const auto hf = MakeHybridFunctionScheduler(w.trace, w.model, train);
  EXPECT_EQ(hf->unit_map().num_units(), w.model.num_functions());
  const auto ha = MakeHybridApplicationScheduler(w.trace, w.model, train);
  EXPECT_EQ(ha->unit_map().num_units(), w.model.num_apps());
}

TEST(EstimateMiningTransactions, CountsActiveCells) {
  trace::WorkloadModel model;
  const UserId u = model.AddUser("u");
  const AppId a = model.AddApp(u, "a");
  const FunctionId f0 = model.AddFunction(a, "f0");
  const FunctionId f1 = model.AddFunction(a, "f1");
  trace::InvocationTrace trace{2, TimeRange{0, 100}};
  trace.Add(f0, 1, 5);   // one active cell (count does not matter)
  trace.Add(f0, 2, 1);
  trace.Add(f1, 2, 1);
  trace.Add(f1, 50, 1);
  trace.Finalize();
  EXPECT_EQ(EstimateMiningTransactions(trace, TimeRange{0, 100}), 4u);
  EXPECT_EQ(EstimateMiningTransactions(trace, TimeRange{0, 10}), 3u);
  EXPECT_EQ(EstimateMiningTransactions(trace, TimeRange{60, 100}), 0u);
}

TEST(SplitTrainEval, TwelveTwoSplitOfFourteenDays) {
  const auto [train, eval] =
      SplitTrainEval(TimeRange{0, 14 * kMinutesPerDay});
  EXPECT_EQ(train.begin, 0);
  EXPECT_EQ(train.end, 12 * kMinutesPerDay);
  EXPECT_EQ(eval.begin, 12 * kMinutesPerDay);
  EXPECT_EQ(eval.end, 14 * kMinutesPerDay);
}

}  // namespace
}  // namespace defuse::core
