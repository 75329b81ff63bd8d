// The three workloads and the per-layer metric catalogue they share.
#pragma once

#include <string>
#include <vector>

#include "measure.hpp"

namespace perfbench {

struct MetricInfo {
  std::string name;
  std::string unit;
};

/// Every per-layer metric, in BENCHMARK.json order. A traced run prints
/// all of them; a layer a workload does not exercise reads 0.
[[nodiscard]] const std::vector<MetricInfo>& LayerMetrics();

/// Runs one workload: set-up (several times, median reported), then
/// measured passes until `options.seconds` have elapsed, then the output
/// checks. With options.trace, traced and untraced passes alternate and
/// the per-layer metrics come from the traced ones.
[[nodiscard]] RunResult RunLeagueWorkload(const RunOptions& options);
[[nodiscard]] RunResult RunReplayWorkload(const RunOptions& options);
[[nodiscard]] RunResult RunServeWorkload(const RunOptions& options);

/// Set-up repetitions per run; their median is setup_s.
inline constexpr int kSetupRepeats = 5;

/// The serve workload's open-loop rate ladder (inv/s): rates double from
/// 10k; the second step is the nominal rate.
inline constexpr double kLadderRates[] = {10000,  20000,  40000,
                                          80000,  160000, 320000};
inline constexpr double kNominalRate = 20000;

/// True while another pass fits: at least `min_passes`, then while one
/// more pass as long as the last one ends within `seconds` of `start_ns`.
[[nodiscard]] inline bool AnotherPass(std::int64_t start_ns, double seconds,
                                      int passes_done, int min_passes,
                                      double last_pass_s) {
  return passes_done < min_passes ||
         SecondsSince(start_ns) + last_pass_s <= seconds;
}

}  // namespace perfbench
