// Golden pin of one small platform replay: a fixed synthetic workload
// streamed minute by minute through platform::Platform with daily
// re-mines, exactly as `defuse replay` drives it. PlatformStats and the
// CRC of SaveState are pinned, so any change to mining, seeding,
// scheduling or the state format that moves an output fails here. If an
// intended change moves them, update the numbers and say why.
#include <gtest/gtest.h>

#include "common/io/checksum.hpp"
#include "platform/platform.hpp"
#include "trace/generator.hpp"

namespace defuse::platform {
namespace {

TEST(ReplayGolden, StatsAndSavedStateArePinned) {
  trace::GeneratorConfig gen;
  gen.seed = 2024;
  gen.num_users = 10;
  gen.horizon_minutes = 3 * kMinutesPerDay;
  const auto workload = trace::GenerateWorkload(gen);

  PlatformConfig config;
  config.horizon = gen.horizon_minutes;
  config.remine_interval = kMinutesPerDay;
  config.mining_window = 2 * kMinutesPerDay;
  Platform platform{workload.model, config};
  const TimeRange horizon = workload.trace.horizon();
  const auto index = workload.trace.BuildMinuteIndex(horizon);
  for (Minute t = horizon.begin; t < horizon.end; ++t) {
    for (const auto& [fn, count] : index.at(t)) (void)platform.Invoke(fn, t);
  }

  const PlatformStats& stats = platform.stats();
  EXPECT_EQ(stats.invocations, 37928u);
  EXPECT_EQ(stats.cold_invocations, 5410u);
  EXPECT_EQ(stats.remines, 2u);
  EXPECT_EQ(stats.degraded_remines, 0u);
  EXPECT_EQ(stats.stale_graph_minutes, 0);
  EXPECT_EQ(stats.catchup_remines_skipped, 0u);
  EXPECT_EQ(platform.units().num_units(), 81u);

  const std::string state = platform.SaveState();
  EXPECT_EQ(state.size(), 1617093u);
  EXPECT_EQ(io::Crc32cHex(io::Crc32cOf(state)), "f9295217");
}

}  // namespace
}  // namespace defuse::platform
