#include "policy/diurnal.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "sim/simulator.hpp"

namespace defuse::policy {
namespace {

DiurnalConfig TestConfig() {
  DiurnalConfig cfg;
  cfg.slot_minutes = 30;
  cfg.min_observations = 30;
  return cfg;
}

/// Office-hours trace: active 09:00-11:00 daily, one invocation per
/// 5 minutes, for `days` days.
trace::InvocationTrace OfficeHoursTrace(Minute days) {
  trace::InvocationTrace t{1, TimeRange{0, days * kMinutesPerDay}};
  for (Minute day = 0; day < days; ++day) {
    for (Minute m = 9 * 60; m < 11 * 60; m += 5) {
      t.Add(FunctionId{0}, day * kMinutesPerDay + m);
    }
  }
  t.Finalize();
  return t;
}

TEST(DiurnalPolicy, LearnsTheActiveWindow) {
  DiurnalPolicy policy{graph::UnitMap::PerFunction(1), TestConfig()};
  const auto trace = OfficeHoursTrace(3);
  for (const auto& e : trace.series(FunctionId{0})) {
    policy.SeedDayProfile(UnitId{0}, e.minute);
  }
  EXPECT_TRUE(policy.IsDiurnalUnit(UnitId{0}));
  EXPECT_TRUE(policy.SlotActive(UnitId{0}, 9 * 60 + 10));
  EXPECT_TRUE(policy.SlotActive(UnitId{0}, 10 * 60 + 50));
  EXPECT_FALSE(policy.SlotActive(UnitId{0}, 3 * 60));
  EXPECT_FALSE(policy.SlotActive(UnitId{0}, 15 * 60));
}

TEST(DiurnalPolicy, TooFewObservationsDelegatesToHybrid) {
  DiurnalPolicy policy{graph::UnitMap::PerFunction(1), TestConfig()};
  for (int i = 0; i < 5; ++i) {
    policy.SeedDayProfile(UnitId{0}, 9 * 60 + i);
  }
  EXPECT_FALSE(policy.IsDiurnalUnit(UnitId{0}));
  // Hybrid with no histogram -> fixed fallback.
  EXPECT_EQ(policy.OnInvocation(UnitId{0}, 9 * 60).keepalive, 10);
}

TEST(DiurnalPolicy, SpreadActivityIsNotDiurnal) {
  DiurnalPolicy policy{graph::UnitMap::PerFunction(1), TestConfig()};
  // Uniform activity around the clock.
  for (Minute m = 0; m < kMinutesPerDay; m += 10) {
    policy.SeedDayProfile(UnitId{0}, m);
  }
  EXPECT_FALSE(policy.IsDiurnalUnit(UnitId{0}));
}

TEST(DiurnalPolicy, DecisionLingersThroughTheRunAndPrewarmsTomorrow) {
  DiurnalPolicy policy{graph::UnitMap::PerFunction(1), TestConfig()};
  const auto trace = OfficeHoursTrace(3);
  for (const auto& e : trace.series(FunctionId{0})) {
    policy.SeedDayProfile(UnitId{0}, e.minute);
  }
  // Invoked at 09:10 on some day: linger to 11:00, return ~08:55 next
  // day.
  const Minute now = 5 * kMinutesPerDay + 9 * 60 + 10;
  const auto d = policy.OnInvocation(UnitId{0}, now);
  EXPECT_EQ(d.linger, (11 * 60) - (9 * 60 + 10));
  // 09:10 -> next day's 09:00 slot start is 1430 minutes away.
  const MinuteDelta until_nine = kMinutesPerDay - 10;
  EXPECT_EQ(d.prewarm, until_nine - TestConfig().lead);
  EXPECT_EQ(d.keepalive, TestConfig().lead + TestConfig().slot_minutes);
}

TEST(DiurnalPolicy, EndToEndMorningsAreWarmAndNightsAreFree) {
  constexpr Minute kDays = 8;
  const auto trace = OfficeHoursTrace(kDays);
  DiurnalPolicy policy{graph::UnitMap::PerFunction(1), TestConfig()};
  // Seed from the first 4 days, simulate the rest.
  const TimeRange train{0, 4 * kMinutesPerDay};
  for (const auto& e : trace.SeriesInRange(FunctionId{0}, train)) {
    policy.SeedDayProfile(UnitId{0}, e.minute);
  }
  const TimeRange eval{4 * kMinutesPerDay, kDays * kMinutesPerDay};
  const auto r = sim::Simulate(trace, eval, policy);
  // First eval invocation is cold; every later morning is pre-warmed.
  EXPECT_EQ(r.unit_cold_minutes[0], 1u);
  // Residency is roughly the active window (+lead), not the whole day.
  EXPECT_LT(r.AverageMemoryUsage(), 0.15);  // ~130 of 1440 minutes

  // The hybrid histogram policy alone leaves every morning cold (the
  // overnight gap exceeds its histogram) at similar memory.
  HybridHistogramPolicy hybrid{graph::UnitMap::PerFunction(1),
                               TestConfig().hybrid};
  const auto hr = sim::Simulate(trace, eval, hybrid);
  EXPECT_GE(hr.unit_cold_minutes[0], 4u);  // one per morning
}

TEST(DiurnalPolicy, OffHoursInvocationStillServed) {
  DiurnalPolicy policy{graph::UnitMap::PerFunction(1), TestConfig()};
  const auto trace = OfficeHoursTrace(3);
  for (const auto& e : trace.series(FunctionId{0})) {
    policy.SeedDayProfile(UnitId{0}, e.minute);
  }
  // A 03:00 invocation gets a sane decision (linger through its slot,
  // prewarm before the morning window).
  const auto d = policy.OnInvocation(UnitId{0}, 3 * kMinutesPerDay + 180);
  EXPECT_GE(d.linger, 1);
  EXPECT_GT(d.prewarm, d.linger);
  EXPECT_GE(d.keepalive, 1);
}

TEST(DiurnalPolicy, OnlineProfileUpdatesViaOnInvocation) {
  DiurnalPolicy policy{graph::UnitMap::PerFunction(1), TestConfig()};
  // No seeding: feed invocations through OnInvocation only.
  for (Minute day = 0; day < 5; ++day) {
    for (Minute m = 600; m < 660; m += 5) {
      (void)policy.OnInvocation(UnitId{0}, day * kMinutesPerDay + m);
    }
  }
  EXPECT_TRUE(policy.IsDiurnalUnit(UnitId{0}));
}

/// Reference classification: sort the slot indices by count and take
/// slots until `concentration` of the mass is covered. Returns whether
/// the unit is diurnal and its active mask.
std::pair<bool, std::vector<bool>> LegacyClassify(
    const std::vector<std::uint64_t>& profile, const DiurnalConfig& config) {
  std::vector<bool> mask(profile.size(), false);
  const std::uint64_t total =
      std::accumulate(profile.begin(), profile.end(), std::uint64_t{0});
  if (total < config.min_observations) return {false, mask};
  std::vector<std::size_t> order(profile.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return profile[a] > profile[b];
  });
  const double needed = config.concentration * static_cast<double>(total);
  std::uint64_t covered = 0;
  std::size_t used = 0;
  for (const std::size_t slot : order) {
    if (static_cast<double>(covered) >= needed || profile[slot] == 0) break;
    mask[slot] = true;
    covered += profile[slot];
    ++used;
  }
  const bool diurnal =
      static_cast<double>(covered) >= needed &&
      static_cast<double>(used) <=
          config.active_slot_fraction * static_cast<double>(profile.size());
  return {diurnal, mask};
}

TEST(DiurnalPolicy, RankedClassificationEqualsTheSortOnTiedProfiles) {
  const DiurnalConfig config = TestConfig();
  const auto slots = static_cast<std::size_t>(kMinutesPerDay /
                                              config.slot_minutes);
  constexpr std::size_t kUnits = 300;
  DiurnalPolicy policy{graph::UnitMap::PerFunction(kUnits), config};
  std::vector<std::vector<std::uint64_t>> profiles(
      kUnits, std::vector<std::uint64_t>(slots, 0));
  Rng rng{77};
  const auto observe = [&](std::size_t u, std::size_t slot) {
    // Any day and any minute inside the slot land in the same slot.
    const Minute minute =
        rng.NextInRange(0, 6) * kMinutesPerDay +
        static_cast<Minute>(slot) * config.slot_minutes +
        rng.NextInRange(0, config.slot_minutes - 1);
    policy.SeedDayProfile(UnitId{static_cast<std::uint32_t>(u)}, minute);
    ++profiles[u][slot];
  };
  std::size_t diurnal_checks = 0;
  const auto check = [&](std::size_t u) {
    const UnitId unit{static_cast<std::uint32_t>(u)};
    const auto [diurnal, mask] = LegacyClassify(profiles[u], config);
    ASSERT_EQ(policy.IsDiurnalUnit(unit), diurnal) << "unit " << u;
    diurnal_checks += diurnal ? 1 : 0;
    for (std::size_t slot = 0; slot < slots; ++slot) {
      const Minute minute_of_day =
          static_cast<Minute>(slot) * config.slot_minutes;
      // Only diurnal units have active slots.
      EXPECT_EQ(policy.SlotActive(unit, minute_of_day), diurnal && mask[slot])
          << "unit " << u << " slot " << slot;
    }
  };
  for (std::size_t u = 0; u < kUnits; ++u) {
    // A few hot slots sharing one count (ties at the concentration cut),
    // plus sparse noise. Every tenth unit lands exactly on
    // min_observations, and the next one just below it.
    const auto hot = static_cast<std::size_t>(rng.NextInRange(1, 14));
    const auto per_slot = static_cast<std::uint64_t>(rng.NextInRange(1, 4));
    std::vector<std::size_t> order(slots);
    std::iota(order.begin(), order.end(), 0u);
    rng.Shuffle(std::span{order});
    std::uint64_t budget = u % 10 == 0   ? config.min_observations
                           : u % 10 == 1 ? config.min_observations - 1
                                         : 20 + rng.NextBelow(80);
    for (std::size_t i = 0; budget > 0; i = (i + 1) % hot) {
      for (std::uint64_t c = 0; c < per_slot && budget > 0; ++c, --budget) {
        observe(u, rng.NextBelow(6) == 0 ? rng.NextBelow(slots) : order[i]);
      }
    }
    check(u);
  }
  // Keep learning online: the ranked lists must follow every increment.
  for (int round = 0; round < 2000; ++round) {
    const auto u = static_cast<std::size_t>(rng.NextBelow(kUnits));
    observe(u, rng.NextBelow(3) == 0 ? rng.NextBelow(slots)
                                     : rng.NextBelow(slots / 4));
    check(u);
  }
  EXPECT_GT(diurnal_checks, 100u);  // both branches are exercised
}

}  // namespace
}  // namespace defuse::policy
