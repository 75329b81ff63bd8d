// perfbench_defuse — the Defuse benchmark harness.
//
//   perfbench_defuse --workload league|replay|serve --seed N --seconds S
//                    --trace 0|1 [--tiny] [--out-dir DIR]
//
// Prints a machine/build record and notes, then as its last line one JSON
// object {"correct", "attempted", "failed", "metrics"}. The metrics hold
// every end-to-end and every per-layer figure the run measured; run.py
// keeps the set BENCHMARK.json names for the mode.
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace perfbench {

const std::vector<MetricInfo>& LayerMetrics() {
  static const std::vector<MetricInfo> metrics = [] {
    std::vector<MetricInfo> m = {
        {"trace.ingest_s", "s"},          {"trace.ingest_rows", "count"},
        {"mining.classify_s", "s"},       {"mining.transactions_s", "s"},
        {"mining.fpgrowth_s", "s"},       {"mining.ppmi_s", "s"},
        {"mining.itemsets", "count"},     {"mining.weak_deps", "count"},
        {"graph.components_s", "s"},      {"graph.units", "count"},
        {"policy.seed_s", "s"},           {"policy.decide_ns_p50", "ns"},
        {"policy.decide_ns_p99", "ns"},   {"policy.observe_ns_p50", "ns"},
        {"policy.decisions", "count"},    {"policy.prewarm_requests", "count"},
        {"sim.simulate_s", "s"},          {"sim.self_s", "s"},
        {"sim.invocation_minutes", "count"},
        {"league.loads_per_min", "loads/min"},
        {"platform.invoke_ns_p50", "ns"}, {"platform.invoke_ns_p99", "ns"},
        {"platform.remine_s", "s"},       {"platform.remines", "count"},
        {"platform.checkpoint_s", "s"},   {"platform.state_bytes", "bytes"},
        {"platform.load_state_s", "s"},
        {"server.handle_us_p50", "us"},   {"server.handle_us_p99", "us"},
        {"server.queue_depth_max", "count"}, {"server.sheds", "count"},
        {"net.poll_busy_s", "s"},         {"net.poll_idle_s", "s"},
        {"net.encode_ns", "ns"},          {"net.decode_ns", "ns"},
        {"serve.max_rate_per_s", "1/s"},
        {"tracing.overhead", "ratio"},
        {"machine.cpus", "count"},
    };
    for (const char* scenario : {"azure_like", "huawei_bursty",
                                 "huawei_diurnal", "skew_extreme",
                                 "flat_poisson"}) {
      m.push_back({std::string{"league.mine_s."} + scenario, "s"});
    }
    for (const char* policy :
         {"fixed", "hybrid_set", "hybrid_function", "hybrid_application",
          "diurnal", "predictor", "ar", "spes_balanced", "hiku", "forecast"}) {
      m.push_back({std::string{"league.cell_s."} + policy, "s"});
    }
    for (const double rate : kLadderRates) {
      const std::string step = "r" + std::to_string(static_cast<int>(rate / 1000)) + "k";
      m.push_back({"gen.late_us_p99." + step, "us"});
      m.push_back({"gen.backlog_end." + step, "count"});
    }
    return m;
  }();
  return metrics;
}

}  // namespace perfbench

namespace {

using perfbench::RunOptions;

[[noreturn]] void Usage(const char* why) {
  std::cerr << "error: " << why
            << "\nusage: perfbench_defuse --workload league|replay|serve "
               "--seed N --seconds S --trace 0|1 [--tiny] [--out-dir DIR]\n";
  std::exit(2);
}

RunOptions ParseArgs(int argc, char** argv) {
  RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        options.workload = value();
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
      } else if (arg == "--trace") {
        const std::string t = value();
        if (t != "0" && t != "1") Usage("--trace takes 0 or 1");
        options.trace = t == "1";
      } else if (arg == "--tiny") {
        options.tiny = true;
      } else if (arg == "--out-dir") {
        options.out_dir = value();
      } else {
        Usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::exception&) {
      Usage(("bad value for " + arg).c_str());
    }
  }
  if (options.workload.empty()) Usage("--workload is required");
  if (options.seconds <= 0) Usage("--seconds must be positive");
  return options;
}

/// Refuses builds whose timings would mislead: unoptimized or sanitized
/// libraries, or an unoptimized harness.
void CheckBuild() {
  const std::string lib_type = PERFBENCH_LIB_BUILD_TYPE;
  const std::string sanitize = PERFBENCH_LIB_SANITIZE;
  bool ok = lib_type == "RelWithDebInfo" || lib_type == "Release";
  ok = ok && sanitize.empty();
#if !defined(__OPTIMIZE__)
  ok = false;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  ok = false;
#endif
  if (!ok) {
    std::cerr << "error: refusing to measure build_type='" << lib_type
              << "' sanitize='" << sanitize
              << "'; use RelWithDebInfo or Release without sanitizers\n";
    std::exit(2);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const RunOptions options = ParseArgs(argc, argv);
  CheckBuild();
  if (options.trace) ::mkdir(options.out_dir.c_str(), 0755);

  const int cpus = perfbench::AllowedCpus();
  std::printf("# machine: cpus_allowed=%d hardware_concurrency=%u "
              "build_type=%s compiler=\"GCC-compatible %s\" sanitize=%s\n",
              cpus, std::thread::hardware_concurrency(),
              PERFBENCH_LIB_BUILD_TYPE, __VERSION__,
              std::strlen(PERFBENCH_LIB_SANITIZE) ? PERFBENCH_LIB_SANITIZE
                                                  : "none");
  std::printf("# run: workload=%s seed=%llu seconds=%g trace=%d%s\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, options.tiny ? " tiny" : "");
  std::fflush(stdout);

  perfbench::RunResult result;
  if (options.workload == "league") {
    result = perfbench::RunLeagueWorkload(options);
  } else if (options.workload == "replay") {
    result = perfbench::RunReplayWorkload(options);
  } else if (options.workload == "serve") {
    result = perfbench::RunServeWorkload(options);
  } else {
    Usage("unknown workload");
  }
  // Every per-layer metric is printed; layers a workload does not touch
  // read 0.
  for (const auto& m : perfbench::LayerMetrics()) {
    if (!result.metrics.Has(m.name)) result.metrics.Set(m.name, 0.0, m.unit);
  }
  result.metrics.Set("machine.cpus", cpus, "count");
  result.metrics.Set("peak_rss_mb", perfbench::PeakRssMb(), "MB");

  for (const std::string& note : result.notes) {
    std::printf("# %s\n", note.c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      result.failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed),
      result.metrics.ToJson().c_str());
  return 0;
}
