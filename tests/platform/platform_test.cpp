#include "platform/platform.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace defuse::platform {
namespace {

/// One user: a periodic service (svc) every 10 min, and an unpredictable
/// checkout (fe) that pings svc on each firing.
struct Fixture {
  trace::WorkloadModel model;
  FunctionId svc, fe;
  Fixture() {
    const UserId u = model.AddUser("u");
    const AppId sa = model.AddApp(u, "svc-app");
    svc = model.AddFunction(sa, "svc");
    const AppId ca = model.AddApp(u, "checkout");
    fe = model.AddFunction(ca, "fe");
  }
};

PlatformConfig TestConfig() {
  PlatformConfig cfg;
  cfg.horizon = 10 * kMinutesPerDay;
  return cfg;
}

TEST(Platform, FirstInvocationIsCold) {
  Fixture fx;
  Platform p{fx.model, TestConfig()};
  const auto outcome = p.Invoke(fx.svc, 0);
  EXPECT_TRUE(outcome.cold);
  EXPECT_EQ(p.stats().invocations, 1u);
  EXPECT_EQ(p.stats().cold_invocations, 1u);
}

TEST(Platform, WarmWithinKeepAlive) {
  Fixture fx;
  Platform p{fx.model, TestConfig()};
  EXPECT_TRUE(p.Invoke(fx.svc, 0).cold);
  EXPECT_FALSE(p.Invoke(fx.svc, 5).cold);  // within the 10-min fallback
  EXPECT_TRUE(p.Invoke(fx.svc, 30).cold);  // expired
}

TEST(Platform, InvocationsMustBeMonotone) {
  Fixture fx;
  Platform p{fx.model, TestConfig()};
  (void)p.Invoke(fx.svc, 100);
  // Same minute is fine and shares the first resolution (here: cold —
  // both invocations are part of the batch the cold load serves).
  EXPECT_TRUE(p.Invoke(fx.svc, 100).cold);
  EXPECT_FALSE(p.Invoke(fx.svc, 101).cold);  // next minute is warm
#ifndef NDEBUG
  EXPECT_DEATH((void)p.Invoke(fx.svc, 99), "time order");
#endif
}

TEST(Platform, BootstrapSchedulesPerFunction) {
  Fixture fx;
  Platform p{fx.model, TestConfig()};
  EXPECT_EQ(p.units().num_units(), fx.model.num_functions());
  EXPECT_EQ(p.stats().remines, 0u);
}

TEST(Platform, RemineFiresOnSchedule) {
  Fixture fx;
  auto cfg = TestConfig();
  cfg.remine_interval = kMinutesPerDay;
  Platform p{fx.model, cfg};
  (void)p.Invoke(fx.svc, 0);
  (void)p.Invoke(fx.svc, kMinutesPerDay + 5);
  EXPECT_EQ(p.stats().remines, 1u);
  EXPECT_EQ(p.stats().catchup_remines_skipped, 0u);
  // Two boundaries elapsed unserved: ONE catch-up re-mine fires (at the
  // latest boundary), the other is booked as skipped — not re-mined.
  (void)p.Invoke(fx.svc, 3 * kMinutesPerDay + 5);
  EXPECT_EQ(p.stats().remines, 2u);
  EXPECT_EQ(p.stats().catchup_remines_skipped, 1u);
  // Cadence resumes from the caught-up boundary.
  (void)p.Invoke(fx.svc, 4 * kMinutesPerDay + 5);
  EXPECT_EQ(p.stats().remines, 3u);
  EXPECT_EQ(p.stats().catchup_remines_skipped, 1u);
}

// Regression: MaybeRemine used to loop `while (now >= next_remine_)`,
// firing one full mining pass per elapsed interval after an offline gap
// — a week of downtime meant seven back-to-back re-mines, six of whose
// results were immediately overwritten. A multi-day gap must cost
// exactly one re-mine.
TEST(Platform, OfflineGapCollapsesToOneCatchUpRemine) {
  Fixture fx;
  auto cfg = TestConfig();
  cfg.remine_interval = kMinutesPerDay;
  cfg.horizon = 30 * kMinutesPerDay;
  Platform p{fx.model, cfg};
  (void)p.Invoke(fx.svc, 0);
  // The daemon comes back after nine days of silence.
  (void)p.Invoke(fx.svc, 9 * kMinutesPerDay + 1);
  EXPECT_EQ(p.stats().remines, 1u);
  EXPECT_EQ(p.stats().catchup_remines_skipped, 8u);
  // AdvanceTo heartbeats hit the same collapsed path.
  p.AdvanceTo(12 * kMinutesPerDay);
  EXPECT_EQ(p.stats().remines, 2u);
  EXPECT_EQ(p.stats().catchup_remines_skipped, 10u);
}

TEST(Platform, RemineGroupsDependentFunctions) {
  Fixture fx;
  auto cfg = TestConfig();
  Platform p{fx.model, cfg};
  Rng rng{5};
  // Day 0-1: periodic svc every 10; fe pings svc at random times.
  Minute fe_next = 13;
  for (Minute t = 0; t < 2 * kMinutesPerDay; ++t) {
    if (t % 10 == 0) (void)p.Invoke(fx.svc, t);
    if (t == fe_next) {
      (void)p.Invoke(fx.fe, t);
      (void)p.Invoke(fx.svc, t);
      fe_next += 20 + static_cast<Minute>(rng.NextBelow(80));
    }
  }
  EXPECT_GE(p.stats().remines, 1u);
  // After re-mining, fe and svc share a dependency set (weak link).
  EXPECT_EQ(p.units().unit_of(fx.fe), p.units().unit_of(fx.svc));
}

TEST(Platform, OnlineDefuseKeepsUnpredictableFunctionWarm) {
  Fixture fx;
  Platform p{fx.model, TestConfig()};
  Rng rng{7};
  std::uint64_t fe_after_day1 = 0, fe_cold_after_day1 = 0;
  Minute fe_next = 13;
  for (Minute t = 0; t < 6 * kMinutesPerDay; ++t) {
    if (t % 10 == 0) (void)p.Invoke(fx.svc, t);
    if (t == fe_next) {
      const auto outcome = p.Invoke(fx.fe, t);
      (void)p.Invoke(fx.svc, t);
      if (t >= 2 * kMinutesPerDay) {
        ++fe_after_day1;
        fe_cold_after_day1 += outcome.cold ? 1 : 0;
      }
      fe_next += 20 + static_cast<Minute>(rng.NextBelow(80));
    }
  }
  ASSERT_GT(fe_after_day1, 30u);
  // Once mined into the service's set, the checkout function rides the
  // periodic warm pool: almost never cold.
  EXPECT_LT(static_cast<double>(fe_cold_after_day1) /
                static_cast<double>(fe_after_day1),
            0.1);
}

TEST(Platform, DailyRemineAdaptsToAMidTraceDeployment) {
  // A new unpredictable workflow (fe) is deployed at day 4 and pings the
  // periodic service on each firing. The bootstrap graph and every mine
  // before day 5 never saw it; the daily re-mine over the trailing 4-day
  // window links it to the service, whose warm pool then carries it.
  Fixture fx;
  Platform p{fx.model, TestConfig()};
  Rng rng{5};
  double fe_next = 4.0 * kMinutesPerDay;
  std::uint64_t invoked = 0, cold = 0;
  for (Minute t = 0; t < 8 * kMinutesPerDay; ++t) {
    if (t % 10 == 0) (void)p.Invoke(fx.svc, t);
    while (static_cast<Minute>(fe_next) == t) {
      const bool fe_cold = p.Invoke(fx.fe, t).cold;
      (void)p.Invoke(fx.svc, t);
      if (t >= 5 * kMinutesPerDay) {
        ++invoked;
        cold += fe_cold ? 1 : 0;
      }
      fe_next += 40.0 * rng.NextExponential(1.0);
    }
  }
  EXPECT_EQ(p.units().unit_of(fx.fe), p.units().unit_of(fx.svc));
  ASSERT_GT(invoked, 0u);
  EXPECT_LT(static_cast<double>(cold) / static_cast<double>(invoked), 0.3);
}

TEST(Platform, ResidencySurvivesARemine) {
  Fixture fx;
  auto cfg = TestConfig();
  cfg.remine_interval = 100;
  cfg.mining_window = 100;
  Platform p{fx.model, cfg};
  (void)p.Invoke(fx.svc, 95);  // resident until at least 105
  (void)p.Invoke(fx.fe, 101);  // crosses the re-mine boundary
  EXPECT_EQ(p.stats().remines, 1u);
  // svc was loaded before the re-mine and must still be warm at 103.
  EXPECT_FALSE(p.Invoke(fx.svc, 103).cold);
}

TEST(Platform, ResidentFunctionsCountsWindows) {
  Fixture fx;
  Platform p{fx.model, TestConfig()};
  EXPECT_EQ(p.ResidentFunctions(0), 0u);
  (void)p.Invoke(fx.svc, 10);
  EXPECT_EQ(p.ResidentFunctions(10), 1u);
  EXPECT_EQ(p.ResidentFunctions(19), 1u);   // 10-minute fallback window
  EXPECT_EQ(p.ResidentFunctions(25), 0u);
}

TEST(Platform, PerFunctionCountersMatchStats) {
  Fixture fx;
  Platform p{fx.model, TestConfig()};
  (void)p.Invoke(fx.svc, 0);
  (void)p.Invoke(fx.svc, 5);
  (void)p.Invoke(fx.fe, 200);
  EXPECT_EQ(p.function_invocations()[fx.svc.value()], 2u);
  EXPECT_EQ(p.function_invocations()[fx.fe.value()], 1u);
  std::uint64_t cold = 0;
  for (const auto c : p.function_cold()) cold += c;
  EXPECT_EQ(cold, p.stats().cold_invocations);
}

TEST(Platform, SaveLoadRoundTripsMidStream) {
  Fixture fx;
  auto cfg = TestConfig();
  Platform original{fx.model, cfg};
  Rng rng{11};
  Minute fe_next = 13;
  Minute t = 0;
  const auto drive = [&](Platform& p, Minute until) {
    for (; t < until; ++t) {
      if (t % 10 == 0) (void)p.Invoke(fx.svc, t);
      if (t == fe_next) {
        (void)p.Invoke(fx.fe, t);
        (void)p.Invoke(fx.svc, t);
        fe_next += 20 + static_cast<Minute>(rng.NextBelow(60));
      }
    }
  };
  // Run 2.5 days, snapshot, and continue in a restored twin: the twin
  // must behave identically to the original from that point on.
  drive(original, 2 * kMinutesPerDay + 700);
  const std::string state = original.SaveState();

  Platform restored{fx.model, cfg};
  ASSERT_TRUE(restored.LoadState(state));
  EXPECT_EQ(restored.stats().invocations, original.stats().invocations);
  EXPECT_EQ(restored.stats().cold_invocations,
            original.stats().cold_invocations);
  EXPECT_EQ(restored.stats().remines, original.stats().remines);
  EXPECT_EQ(restored.units().num_units(), original.units().num_units());

  // Drive both forward with identical input; outcomes must match.
  const Minute resume = t;
  Rng drive_rng{77};
  for (Minute m = resume; m < resume + 2 * kMinutesPerDay; ++m) {
    if (m % 10 == 0) {
      EXPECT_EQ(original.Invoke(fx.svc, m).cold,
                restored.Invoke(fx.svc, m).cold)
          << "svc diverged at " << m;
    }
    if (drive_rng.NextBernoulli(0.02)) {
      EXPECT_EQ(original.Invoke(fx.fe, m).cold,
                restored.Invoke(fx.fe, m).cold)
          << "fe diverged at " << m;
    }
  }
  EXPECT_EQ(original.stats().cold_invocations,
            restored.stats().cold_invocations);
}

TEST(Platform, LoadStateRejectsGarbage) {
  Fixture fx;
  Platform p{fx.model, TestConfig()};
  EXPECT_FALSE(p.LoadState(""));
  EXPECT_FALSE(p.LoadState("not-a-state\n"));
  EXPECT_FALSE(p.LoadState("defuse-platform-state-v1\nmeta,x\n"));
}

TEST(Platform, FailedLoadLeavesLiveStateUntouched) {
  // Regression: LoadState used to mutate sections in place as it parsed,
  // so a state that broke halfway through left a franken-state behind.
  // Every section now parses into a staging area that commits in one
  // step, making a failed load a no-op.
  Fixture fx;
  Platform donor{fx.model, TestConfig()};
  for (Minute t = 0; t < 2 * kMinutesPerDay; t += 10) {
    (void)donor.Invoke(fx.svc, t);
    if (t % 30 == 0) (void)donor.Invoke(fx.fe, t);
  }
  const std::string good = donor.SaveState();

  // A warm platform with different live state than the donor.
  Platform warm{fx.model, TestConfig()};
  for (Minute t = 0; t < kMinutesPerDay; t += 25) {
    (void)warm.Invoke(fx.fe, t);
  }
  const std::string before = warm.SaveState();
  ASSERT_NE(before, good);

  // The front half of `good` parses fine; the load must fail deep into
  // the later sections and still leave `warm` untouched.
  ASSERT_FALSE(warm.LoadState(good.substr(0, good.size() * 4 / 5)));
  EXPECT_EQ(warm.SaveState(), before);
  std::string mangled = good;
  mangled.replace(mangled.size() - 4, 3, "x,y");
  ASSERT_FALSE(warm.LoadState(mangled));
  EXPECT_EQ(warm.SaveState(), before);

  // The platform stays fully usable: a good load still lands cleanly.
  ASSERT_TRUE(warm.LoadState(good));
  EXPECT_EQ(warm.SaveState(), good);
}

TEST(Platform, SaveStateOfFreshPlatformLoads) {
  Fixture fx;
  Platform a{fx.model, TestConfig()};
  Platform b{fx.model, TestConfig()};
  EXPECT_TRUE(b.LoadState(a.SaveState()));
  EXPECT_EQ(b.stats().invocations, 0u);
}

TEST(Platform, ForcedRemineUsesTheGivenWindow) {
  Fixture fx;
  Platform p{fx.model, TestConfig()};
  for (Minute t = 0; t < 500; t += 10) {
    (void)p.Invoke(fx.svc, t);
    (void)p.Invoke(fx.fe, t);
  }
  p.RemineNow(500);
  EXPECT_GE(p.stats().remines, 1u);
  // svc and fe always co-fire: strong dependency, same set.
  EXPECT_EQ(p.units().unit_of(fx.fe), p.units().unit_of(fx.svc));
}

}  // namespace
}  // namespace defuse::platform
