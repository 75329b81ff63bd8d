#include "trace/generator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "stats/descriptive.hpp"

namespace defuse::trace {
namespace {

GeneratorConfig TestConfig() {
  GeneratorConfig cfg = GeneratorConfig::Tiny();
  cfg.seed = 99;
  return cfg;
}

TEST(Generator, ProducesEntities) {
  const auto w = GenerateWorkload(TestConfig());
  EXPECT_GT(w.model.num_users(), 0u);
  EXPECT_GT(w.model.num_apps(), 0u);
  EXPECT_GT(w.model.num_functions(), 0u);
  EXPECT_GT(w.trace.TotalInvocations(w.trace.horizon()), 0u);
}

TEST(Generator, IsDeterministicInSeed) {
  const auto a = GenerateWorkload(TestConfig());
  const auto b = GenerateWorkload(TestConfig());
  ASSERT_EQ(a.model.num_functions(), b.model.num_functions());
  for (std::size_t f = 0; f < a.model.num_functions(); ++f) {
    const FunctionId fn{static_cast<std::uint32_t>(f)};
    const auto sa = a.trace.series(fn);
    const auto sb = b.trace.series(fn);
    ASSERT_EQ(sa.size(), sb.size()) << "function " << f;
    for (std::size_t i = 0; i < sa.size(); ++i) {
      EXPECT_EQ(sa[i], sb[i]);
    }
  }
}

TEST(Generator, DifferentSeedsProduceDifferentTraces) {
  auto cfg = TestConfig();
  const auto a = GenerateWorkload(cfg);
  cfg.seed = 100;
  const auto b = GenerateWorkload(cfg);
  // Same structure parameters, but invocation patterns must differ.
  std::uint64_t diff = 0;
  const std::size_t n = std::min(a.model.num_functions(),
                                 b.model.num_functions());
  for (std::size_t f = 0; f < n; ++f) {
    const FunctionId fn{static_cast<std::uint32_t>(f)};
    if (a.trace.ActiveMinutes(fn, a.trace.horizon()) !=
        b.trace.ActiveMinutes(fn, b.trace.horizon())) {
      ++diff;
    }
  }
  EXPECT_GT(diff, 0u);
}

TEST(Generator, HorizonMatchesConfig) {
  auto cfg = TestConfig();
  cfg.horizon_minutes = 3 * kMinutesPerDay;
  const auto w = GenerateWorkload(cfg);
  EXPECT_EQ(w.trace.horizon(), (TimeRange{0, 3 * kMinutesPerDay}));
  // No events outside the horizon (Add would have asserted, but check the
  // boundary explicitly).
  for (const auto& fn : w.model.functions()) {
    const auto s = w.trace.series(fn.id);
    if (!s.empty()) {
      EXPECT_GE(s.front().minute, 0);
      EXPECT_LT(s.back().minute, cfg.horizon_minutes);
    }
  }
}

TEST(Generator, EveryFunctionBelongsToAnAppAndUser) {
  const auto w = GenerateWorkload(TestConfig());
  for (const auto& fn : w.model.functions()) {
    ASSERT_TRUE(fn.app.valid());
    ASSERT_TRUE(fn.user.valid());
    EXPECT_EQ(w.model.app(fn.app).user, fn.user);
  }
}

TEST(Generator, StrongGroupsShareAnApp) {
  const auto w = GenerateWorkload(TestConfig());
  ASSERT_FALSE(w.truth.strong_groups.empty());
  for (const auto& group : w.truth.strong_groups) {
    ASSERT_GE(group.size(), 2u);
    const AppId app = w.model.function(group.front()).app;
    for (const FunctionId fn : group) {
      EXPECT_EQ(w.model.function(fn).app, app);
    }
  }
}

TEST(Generator, StrongGroupMembersCoFire) {
  const auto w = GenerateWorkload(TestConfig());
  // Core groups fire together on every workflow trigger. Members may have
  // *extra* active minutes (common-service functions also receive weak
  // pings), so the invariant is: the least-active member's minutes are a
  // subset of every other member's.
  const auto minutes_of = [&](FunctionId fn) {
    std::vector<Minute> m;
    for (const auto& e : w.trace.series(fn)) m.push_back(e.minute);
    return m;
  };
  for (const auto& group : w.truth.strong_groups) {
    auto least = minutes_of(group.front());
    for (const FunctionId fn : group) {
      auto m = minutes_of(fn);
      if (m.size() < least.size()) least = std::move(m);
    }
    for (const FunctionId fn : group) {
      const auto m = minutes_of(fn);
      EXPECT_TRUE(std::includes(m.begin(), m.end(), least.begin(),
                                least.end()))
          << "member " << fn << " misses trigger minutes of its group";
    }
  }
}

TEST(Generator, WeakLinksConnectDistinctApps) {
  auto cfg = TestConfig();
  cfg.num_users = 40;  // enough users that some get common services
  const auto w = GenerateWorkload(cfg);
  ASSERT_FALSE(w.truth.weak_links.empty());
  for (const auto& [from, to] : w.truth.weak_links) {
    EXPECT_EQ(w.model.function(from).user, w.model.function(to).user);
    EXPECT_NE(w.model.function(from).app, w.model.function(to).app);
  }
}

TEST(Generator, FunctionTriggerKindsCoverTheMix) {
  auto cfg = TestConfig();
  cfg.num_users = 40;
  const auto w = GenerateWorkload(cfg);
  std::set<TriggerKind> kinds(w.truth.function_trigger.begin(),
                              w.truth.function_trigger.end());
  EXPECT_GE(kinds.size(), 3u);  // at least 3 of the 4 archetypes present
}

TEST(Generator, InvocationFrequencySkewExists) {
  // Paper Fig 2: most functions are invoked in a small fraction of their
  // app's active minutes. Verify the median within-app frequency is well
  // below 1.
  auto cfg = TestConfig();
  cfg.num_users = 30;
  const auto w = GenerateWorkload(cfg);
  std::vector<double> freqs;
  for (const auto& app : w.model.apps()) {
    const auto app_minutes = static_cast<double>(
        w.trace.GroupActiveMinutes(app.functions, w.trace.horizon()));
    if (app.functions.size() < 2 || app_minutes < 10) continue;
    for (const FunctionId fn : app.functions) {
      freqs.push_back(
          static_cast<double>(w.trace.ActiveMinutes(fn, w.trace.horizon())) /
          app_minutes);
    }
  }
  ASSERT_GT(freqs.size(), 20u);
  EXPECT_LT(stats::Percentile(freqs, 0.5), 0.8);
  // And some functions must be genuinely rare.
  EXPECT_LT(stats::Percentile(freqs, 0.1), 0.3);
}

TEST(Generator, CommonServiceUsersExist) {
  auto cfg = TestConfig();
  cfg.num_users = 40;
  cfg.frac_users_with_common_service = 1.0;
  const auto w = GenerateWorkload(cfg);
  // Every user should now have a "-common" app.
  std::size_t common_apps = 0;
  for (const auto& app : w.model.apps()) {
    if (app.name.find("-common") != std::string::npos) ++common_apps;
  }
  EXPECT_EQ(common_apps, w.model.num_users());
}

TEST(Generator, NoCommonServiceMeansNoWeakLinks) {
  auto cfg = TestConfig();
  cfg.frac_users_with_common_service = 0.0;
  const auto w = GenerateWorkload(cfg);
  EXPECT_TRUE(w.truth.weak_links.empty());
}

TEST(Generator, DefaultWeightsAreAllOnes) {
  const auto w = GenerateWorkload(TestConfig());
  ASSERT_EQ(w.function_weights.size(), w.model.num_functions());
  for (const double weight : w.function_weights) {
    EXPECT_DOUBLE_EQ(weight, 1.0);
  }
}

TEST(Generator, LognormalWeightsHaveMeanAboutOne) {
  auto cfg = TestConfig();
  cfg.num_users = 60;
  cfg.size_lognormal_sigma = 1.0;
  const auto w = GenerateWorkload(cfg);
  ASSERT_GT(w.function_weights.size(), 200u);
  double sum = 0.0;
  bool varied = false;
  for (const double weight : w.function_weights) {
    EXPECT_GT(weight, 0.0);
    sum += weight;
    varied |= std::abs(weight - 1.0) > 1e-9;
  }
  EXPECT_TRUE(varied);
  EXPECT_NEAR(sum / static_cast<double>(w.function_weights.size()), 1.0,
              0.25);
}

TEST(Generator, WeightsAreDeterministic) {
  auto cfg = TestConfig();
  cfg.size_lognormal_sigma = 0.5;
  const auto a = GenerateWorkload(cfg);
  const auto b = GenerateWorkload(cfg);
  EXPECT_EQ(a.function_weights, b.function_weights);
}

TEST(Generator, PresetScalesAreOrdered) {
  EXPECT_LT(GeneratorConfig::Tiny().num_users,
            GeneratorConfig::Small().num_users);
  EXPECT_LT(GeneratorConfig::Small().num_users,
            GeneratorConfig::Medium().num_users);
}

class GeneratorTriggerKindTest
    : public ::testing::TestWithParam<TriggerKind> {};

TEST_P(GeneratorTriggerKindTest, SingleKindWorkloadsGenerate) {
  auto cfg = TestConfig();
  cfg.frac_periodic = GetParam() == TriggerKind::kPeriodic ? 1.0 : 0.0;
  cfg.frac_poisson = GetParam() == TriggerKind::kPoisson ? 1.0 : 0.0;
  cfg.frac_diurnal = GetParam() == TriggerKind::kDiurnal ? 1.0 : 0.0;
  cfg.frac_bursty = GetParam() == TriggerKind::kBursty ? 1.0 : 0.0;
  cfg.frac_users_with_common_service = 0.0;
  const auto w = GenerateWorkload(cfg);
  EXPECT_GT(w.trace.TotalInvocations(w.trace.horizon()), 0u);
  for (const auto kind : w.truth.function_trigger) {
    EXPECT_EQ(kind, GetParam());
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, GeneratorTriggerKindTest,
                         ::testing::Values(TriggerKind::kPeriodic,
                                           TriggerKind::kPoisson,
                                           TriggerKind::kDiurnal,
                                           TriggerKind::kBursty));

TEST(Generator, DiurnalWorkloadConcentratesInADailyWindow) {
  auto cfg = TestConfig();
  cfg.frac_diurnal = 1.0;
  cfg.frac_periodic = cfg.frac_poisson = cfg.frac_bursty = 0.0;
  cfg.frac_users_with_common_service = 0.0;
  cfg.horizon_minutes = 6 * kMinutesPerDay;
  const auto w = GenerateWorkload(cfg);
  // Pick an active core function and check its minute-of-day spread is
  // bounded by the configured window (max 10 h).
  std::size_t checked = 0;
  for (const auto& group : w.truth.strong_groups) {
    const auto events = w.trace.series(group.front());
    if (events.size() < 30) continue;
    std::vector<Minute> mods;
    for (const auto& e : events) mods.push_back(e.minute % kMinutesPerDay);
    std::sort(mods.begin(), mods.end());
    // The circularly-smallest covering arc must be <= the max window.
    MinuteDelta best = kMinutesPerDay;
    for (std::size_t i = 0; i < mods.size(); ++i) {
      const Minute start = mods[i];
      const Minute prev = i == 0 ? mods.back() - kMinutesPerDay : mods[i - 1];
      best = std::min<MinuteDelta>(best, kMinutesPerDay - (start - prev));
    }
    EXPECT_LE(best, cfg.diurnal_window_max + 2);
    if (++checked >= 5) break;
  }
  EXPECT_GE(checked, 1u);
}

TEST(Generator, BurstyWorkloadHasDenseOnPeriods) {
  auto cfg = TestConfig();
  cfg.frac_bursty = 1.0;
  cfg.frac_periodic = cfg.frac_poisson = cfg.frac_diurnal = 0.0;
  cfg.frac_users_with_common_service = 0.0;
  const auto w = GenerateWorkload(cfg);
  // Bursty traffic: a large share of idle gaps are tiny (inside a
  // burst), with occasional long OFF gaps.
  std::vector<MinuteDelta> gaps;
  for (const auto& group : w.truth.strong_groups) {
    const auto g = w.trace.IdleTimes(group.front(), w.trace.horizon());
    gaps.insert(gaps.end(), g.begin(), g.end());
  }
  ASSERT_GT(gaps.size(), 100u);
  std::size_t tiny = 0, long_off = 0;
  for (const auto g : gaps) {
    if (g <= 5) ++tiny;
    if (g >= 100) ++long_off;
  }
  EXPECT_GT(static_cast<double>(tiny) / static_cast<double>(gaps.size()),
            0.5);
  EXPECT_GT(long_off, 10u);
}

TEST(Generator, PeriodicWorkloadHasPeakedIdleTimes) {
  auto cfg = TestConfig();
  cfg.frac_periodic = 1.0;
  cfg.frac_poisson = cfg.frac_diurnal = cfg.frac_bursty = 0.0;
  cfg.frac_users_with_common_service = 0.0;
  cfg.periodic_skip_prob = 0.0;
  cfg.periodic_jitter_prob = 0.0;
  const auto w = GenerateWorkload(cfg);
  // Pick a core function with enough activity; all gaps equal its period.
  bool checked = false;
  for (const auto& group : w.truth.strong_groups) {
    const auto gaps = w.trace.IdleTimes(group.front(), w.trace.horizon());
    if (gaps.size() < 10) continue;
    const auto first = gaps.front();
    EXPECT_TRUE(std::all_of(gaps.begin(), gaps.end(),
                            [&](MinuteDelta g) { return g == first; }));
    checked = true;
    break;
  }
  EXPECT_TRUE(checked);
}

}  // namespace
}  // namespace defuse::trace
