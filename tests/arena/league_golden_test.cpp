// Golden pin of the arena league: the default 10-policy roster against
// the 5 built-in scenarios at a small scale (12 users, 2 days, seed
// 2024), compared byte for byte with a checked-in CSV.
//
// The rerun, serial/async and shard-bridge gates compare the code with
// itself, so a speed-up that changes an output passes all of them. This
// one compares with a fixed file and names the row that moved. If an
// intended algorithm change moves the table, regenerate the file with
//
//   defuse arena --seed 2024 --users 12 --days 2
//     --out tests/arena/golden/league_seed2024.csv
//
// and say in the change why the rows moved. The diurnal row depends on
// the standard library's std::sort tie order (DESIGN.md §5, diurnal
// day profiles), so the file pins the libstdc++ build.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "arena/league.hpp"

namespace defuse::arena {
namespace {

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in{text};
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(LeagueGolden, DefaultRosterTableMatchesCheckedInCsv) {
  LeagueConfig config;
  // The CLI `arena` verb's default roster and built-in scenario order.
  config.policies = {"fixed",   "hybrid:set", "hybrid:function",
                     "hybrid:application", "diurnal", "predictor",
                     "ar",      "spes:tier=balanced", "hiku", "forecast"};
  config.scenarios = {"azure_like", "flat_poisson", "huawei_bursty",
                      "huawei_diurnal", "skew_extreme"};
  config.seed = 2024;
  config.num_users = 12;
  config.horizon_minutes = 2 * kMinutesPerDay;
  auto table = RunLeague(config);
  ASSERT_TRUE(table.ok()) << table.error().message;
  const std::string csv = RenderLeagueCsv(table.value());

  const std::string path =
      std::string{DEFUSE_ARENA_GOLDEN_DIR} + "/league_seed2024.csv";
  std::ifstream file{path, std::ios::binary};
  ASSERT_TRUE(file) << "cannot open " << path;
  std::ostringstream golden;
  golden << file.rdbuf();

  const auto got = Lines(csv);
  const auto want = Lines(golden.str());
  ASSERT_EQ(got.size(), want.size()) << "row count differs";
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "row " << i << " moved";
  }
  EXPECT_EQ(csv, golden.str()) << "bytes differ (line endings?)";
}

}  // namespace
}  // namespace defuse::arena
