#include "cli/cli.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace defuse::cli {
namespace {

struct CliResult {
  int code;
  std::string out;
  std::string err;
};

CliResult RunDefuse(std::vector<std::string> args) {
  std::ostringstream out, err;
  const int code = RunCli(args, out, err);
  return CliResult{code, out.str(), err.str()};
}

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("defuse_cli_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    trace_path_ = (dir_ / "trace.csv").string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Generates a small trace once per test that needs it.
  void Generate() {
    const auto r = RunDefuse({"generate", "--users", "8", "--days", "4", "--seed",
                        "5", "--out", trace_path_});
    ASSERT_EQ(r.code, 0) << r.err;
  }

  std::filesystem::path dir_;
  std::string trace_path_;
};

TEST_F(CliTest, NoArgumentsPrintsUsageAndFails) {
  const auto r = RunDefuse({});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.out.find("usage:"), std::string::npos);
}

TEST_F(CliTest, HelpSucceeds) {
  const auto r = RunDefuse({"help"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("generate"), std::string::npos);
}

TEST_F(CliTest, UnknownCommandFails) {
  const auto r = RunDefuse({"frobnicate"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("unknown command"), std::string::npos);
}

TEST_F(CliTest, GenerateWritesALoadableTrace) {
  Generate();
  ASSERT_TRUE(std::filesystem::exists(trace_path_));
  const auto r = RunDefuse({"inspect", "--trace", trace_path_});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("8 users"), std::string::npos);
  EXPECT_NE(r.out.find("frequency skew"), std::string::npos);
}

TEST_F(CliTest, GenerateRequiresOut) {
  const auto r = RunDefuse({"generate", "--users", "5"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--out"), std::string::npos);
}

TEST_F(CliTest, GenerateRejectsNonPositiveUsers) {
  const auto r =
      RunDefuse({"generate", "--users", "0", "--out", trace_path_});
  EXPECT_EQ(r.code, 1);
}

TEST_F(CliTest, GenerateAzureDirWritesDailyFiles) {
  const auto azure_dir = (dir_ / "azure").string();
  std::filesystem::create_directories(azure_dir);
  const auto r = RunDefuse({"generate", "--users", "5", "--days", "2", "--out",
                      trace_path_, "--azure-dir", azure_dir});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_TRUE(std::filesystem::exists(
      azure_dir + "/invocations_per_function_md.anon.d01.csv"));
  EXPECT_TRUE(std::filesystem::exists(
      azure_dir + "/invocations_per_function_md.anon.d02.csv"));
}

TEST_F(CliTest, InspectRequiresTrace) {
  const auto r = RunDefuse({"inspect"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--trace"), std::string::npos);
}

TEST_F(CliTest, InspectMissingFileFails) {
  const auto r = RunDefuse({"inspect", "--trace", (dir_ / "nope.csv").string()});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("io_error"), std::string::npos);
}

TEST_F(CliTest, MineWritesArtifacts) {
  Generate();
  const auto sets = (dir_ / "sets.csv").string();
  const auto edges = (dir_ / "edges.csv").string();
  const auto dot = (dir_ / "graph.dot").string();
  const auto r = RunDefuse({"mine", "--trace", trace_path_, "--sets-out", sets,
                      "--edges-out", edges, "--dot-out", dot});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("dependency sets"), std::string::npos);
  EXPECT_TRUE(std::filesystem::exists(sets));
  EXPECT_TRUE(std::filesystem::exists(edges));
  EXPECT_TRUE(std::filesystem::exists(dot));
  // The dot file is plausible Graphviz.
  std::ifstream in{dot};
  std::string first_line;
  std::getline(in, first_line);
  EXPECT_EQ(first_line, "digraph dependencies {");
}

TEST_F(CliTest, MineRejectsConflictingAblationFlags) {
  Generate();
  const auto r = RunDefuse({"mine", "--trace", trace_path_, "--strong-only",
                      "--weak-only"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("mutually exclusive"), std::string::npos);
}

TEST_F(CliTest, SimulateDefaultMethod) {
  Generate();
  const auto r = RunDefuse({"simulate", "--trace", trace_path_});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("method: Defuse"), std::string::npos);
  EXPECT_NE(r.out.find("p75 function cold-start rate"), std::string::npos);
}

TEST_F(CliTest, SimulateEveryMethodName) {
  Generate();
  for (const char* method :
       {"defuse", "strong-only", "weak-only", "hybrid-function",
        "hybrid-application", "fixed"}) {
    const auto r =
        RunDefuse({"simulate", "--trace", trace_path_, "--method", method});
    EXPECT_EQ(r.code, 0) << method << ": " << r.err;
  }
}

TEST_F(CliTest, SimulateWithArFallbackRuns) {
  Generate();
  const auto r = RunDefuse({"simulate", "--trace", trace_path_,
                            "--ar-fallback"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("p75 function cold-start rate"), std::string::npos);
}

TEST_F(CliTest, SimulateUnknownMethodFails) {
  Generate();
  const auto r =
      RunDefuse({"simulate", "--trace", trace_path_, "--method", "magic"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("unknown --method"), std::string::npos);
}

TEST_F(CliTest, SimulateWithPreMinedSets) {
  Generate();
  const auto sets = (dir_ / "sets.csv").string();
  ASSERT_EQ(RunDefuse({"mine", "--trace", trace_path_, "--sets-out", sets}).code,
            0);
  const auto direct = RunDefuse({"simulate", "--trace", trace_path_});
  const auto from_file =
      RunDefuse({"simulate", "--trace", trace_path_, "--sets", sets});
  ASSERT_EQ(from_file.code, 0) << from_file.err;
  // Mining is deterministic, so the two paths must report the same p75.
  const auto extract = [](const std::string& text) {
    const auto pos = text.find("p75 function cold-start rate: ");
    return text.substr(pos, text.find('\n', pos) - pos);
  };
  EXPECT_EQ(extract(direct.out), extract(from_file.out));
}

TEST_F(CliTest, SimulateTrainDaysValidation) {
  Generate();
  EXPECT_EQ(RunDefuse({"simulate", "--trace", trace_path_, "--train-days", "2"})
                .code,
            0);
  EXPECT_EQ(RunDefuse({"simulate", "--trace", trace_path_, "--train-days", "99"})
                .code,
            1);
}

TEST_F(CliTest, SweepEmitsCsvRows) {
  Generate();
  const auto r =
      RunDefuse({"sweep", "--trace", trace_path_, "--amplifications", "1,2"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("method,amplification"), std::string::npos);
  EXPECT_NE(r.out.find("Defuse,1.00"), std::string::npos);
  EXPECT_NE(r.out.find("Hybrid-Application,2.00"), std::string::npos);
}

TEST_F(CliTest, SweepRejectsBadAmplifications) {
  Generate();
  const auto r =
      RunDefuse({"sweep", "--trace", trace_path_, "--amplifications", "1,zero"});
  EXPECT_EQ(r.code, 1);
}

TEST_F(CliTest, FilterSampleUsers) {
  Generate();
  const auto out_path = (dir_ / "small.csv").string();
  const auto r = RunDefuse({"filter", "--trace", trace_path_,
                            "--sample-users", "3", "--out", out_path});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("3 users"), std::string::npos);
  // The filtered trace is loadable.
  EXPECT_EQ(RunDefuse({"inspect", "--trace", out_path}).code, 0);
}

TEST_F(CliTest, FilterFirstDays) {
  Generate();
  const auto out_path = (dir_ / "short.csv").string();
  const auto r = RunDefuse({"filter", "--trace", trace_path_,
                            "--first-days", "2", "--out", out_path});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("over 2 days"), std::string::npos);
}

TEST(SplitSpecList, SplitsSpecsThatCarryParameters) {
  EXPECT_EQ(SplitSpecList("hybrid:set,spes:tier=cost"),
            (std::vector<std::string>{"hybrid:set", "spes:tier=cost"}));
  EXPECT_EQ(SplitSpecList("spes:tier=latency,spes:tier=cost"),
            (std::vector<std::string>{"spes:tier=latency", "spes:tier=cost"}));
}

TEST(SplitSpecList, JoinsAParameterToThePreviousSpec) {
  EXPECT_EQ(SplitSpecList("hiku:delay=2,window=3"),
            (std::vector<std::string>{"hiku:delay=2,window=3"}));
}

TEST_F(CliTest, ArenaRunsAListOfParameterisedSpecs) {
  const auto r = RunDefuse({"arena", "--policies", "hybrid:set,spes:tier=cost",
                            "--scenarios", "flat_poisson", "--users", "4",
                            "--days", "2"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("flat_poisson,hybrid:set,"), std::string::npos);
  EXPECT_NE(r.out.find("flat_poisson,spes:tier=cost,"), std::string::npos);
}

TEST_F(CliTest, CompareRunsTheHeadlineComparison) {
  Generate();
  const auto r = RunDefuse({"compare", "--trace", trace_path_});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("Defuse,"), std::string::npos);
  EXPECT_NE(r.out.find("Hybrid-Application,1.00"), std::string::npos);
  EXPECT_NE(r.out.find("Defuse vs Hybrid-Application"), std::string::npos);
}

TEST_F(CliTest, CompareRejectsBadBudgetFactor) {
  Generate();
  const auto r = RunDefuse({"compare", "--trace", trace_path_,
                            "--budget-factor", "-1"});
  EXPECT_EQ(r.code, 1);
}

TEST_F(CliTest, ReplayStreamsThroughTheOnlineEngine) {
  Generate();
  const auto r = RunDefuse({"replay", "--trace", trace_path_,
                            "--remine-days", "1", "--window-days", "2"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("day,invocations,cold_fraction"), std::string::npos);
  EXPECT_NE(r.out.find("re-mines"), std::string::npos);
}

TEST_F(CliTest, ReplayRejectsBadFlags) {
  Generate();
  EXPECT_EQ(RunDefuse({"replay", "--trace", trace_path_, "--remine-days",
                       "0"})
                .code,
            1);
}

TEST_F(CliTest, FsckRequiresStateDir) {
  const auto r = RunDefuse({"fsck"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--state-dir"), std::string::npos);
}

TEST_F(CliTest, FsckOnEmptyDirectoryIsHealthy) {
  const auto state_dir = (dir_ / "state").string();
  std::filesystem::create_directories(state_dir);
  const auto r = RunDefuse({"fsck", "--state-dir", state_dir});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("status: healthy"), std::string::npos);
}

TEST_F(CliTest, RecoverRequiresStateDirAndTrace) {
  EXPECT_EQ(RunDefuse({"recover"}).code, 1);
  Generate();
  EXPECT_EQ(RunDefuse({"recover", "--trace", trace_path_}).code, 1);
}

TEST_F(CliTest, DurableReplayFsckAndRecoverRoundTrip) {
  Generate();
  const auto state_dir = (dir_ / "state").string();
  const auto replay =
      RunDefuse({"replay", "--trace", trace_path_, "--state-dir", state_dir,
                 "--checkpoint-days", "1"});
  ASSERT_EQ(replay.code, 0) << replay.err;
  EXPECT_NE(replay.out.find("recovery: rung empty_state"), std::string::npos);
  EXPECT_NE(replay.out.find("state saved: generation"), std::string::npos);

  // The state directory the replay left behind verifies clean...
  const auto fsck = RunDefuse({"fsck", "--state-dir", state_dir});
  EXPECT_EQ(fsck.code, 0) << fsck.out;
  EXPECT_NE(fsck.out.find("status: healthy"), std::string::npos);

  // ...and recovers without repairs.
  const auto recover = RunDefuse(
      {"recover", "--state-dir", state_dir, "--trace", trace_path_});
  EXPECT_EQ(recover.code, 0) << recover.out;
  EXPECT_NE(recover.out.find("recovered state:"), std::string::npos);

  // A second durable replay resumes after the last applied minute
  // instead of redoing the whole trace (or exits immediately when the
  // final trace minute was already applied).
  const auto resume =
      RunDefuse({"replay", "--trace", trace_path_, "--state-dir", state_dir});
  EXPECT_EQ(resume.code, 0) << resume.err;
  const bool resumed =
      resume.out.find("trace already fully replayed") != std::string::npos ||
      resume.out.find("resuming at minute") != std::string::npos;
  EXPECT_TRUE(resumed) << resume.out;
}

TEST_F(CliTest, FsckFlagsACorruptSnapshot) {
  Generate();
  const auto state_dir = (dir_ / "state").string();
  ASSERT_EQ(RunDefuse({"replay", "--trace", trace_path_, "--state-dir",
                       state_dir})
                .code,
            0);
  // Corrupt the newest snapshot in place.
  std::string newest;
  for (const auto& entry : std::filesystem::directory_iterator{state_dir}) {
    const auto name = entry.path().filename().string();
    if (name.rfind("snapshot-", 0) == 0 && name > newest) {
      newest = name;
    }
  }
  ASSERT_FALSE(newest.empty());
  {
    std::fstream f{state_dir + "/" + newest,
                   std::ios::in | std::ios::out | std::ios::binary};
    f.seekp(-2, std::ios::end);
    f.put('~');
  }
  const auto fsck = RunDefuse({"fsck", "--state-dir", state_dir});
  EXPECT_EQ(fsck.code, 2);
  EXPECT_NE(fsck.out.find("status: CORRUPT"), std::string::npos);

  // Recover falls down the ladder and reports the repair via exit 2.
  const auto recover = RunDefuse(
      {"recover", "--state-dir", state_dir, "--trace", trace_path_});
  EXPECT_EQ(recover.code, 2) << recover.out;
}

TEST_F(CliTest, FilterRequiresSomeOperation) {
  Generate();
  const auto r = RunDefuse({"filter", "--trace", trace_path_, "--out",
                            (dir_ / "x.csv").string()});
  EXPECT_EQ(r.code, 1);
}

TEST_F(CliTest, HealthRequiresPort) {
  const auto r = RunDefuse({"health"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--port"), std::string::npos);
}

TEST_F(CliTest, HealthAgainstNothingFailsAsUnreachable) {
  // Port 1 is privileged and never runs a defuse daemon.
  const auto r = RunDefuse({"health", "--port", "1"});
  EXPECT_EQ(r.code, 2);
}

TEST_F(CliTest, ServeRejectsBadResilienceFlags) {
  Generate();
  const auto queue = RunDefuse(
      {"serve", "--trace", trace_path_, "--queue-bound", "0"});
  EXPECT_EQ(queue.code, 1);
  EXPECT_NE(queue.err.find("--queue-bound"), std::string::npos);
  const auto window = RunDefuse(
      {"serve", "--trace", trace_path_, "--idempotency-window", "-1"});
  EXPECT_EQ(window.code, 1);
  EXPECT_NE(window.err.find("--idempotency-window"), std::string::npos);
}

}  // namespace
}  // namespace defuse::cli
