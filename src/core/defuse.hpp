// Defuse: the dependency-guided function scheduler (paper §IV).
//
// This is the paper's primary contribution, assembled from the substrate
// libraries:
//
//   invocation history --(FP-Growth)--> strong dependencies --+
//                                                              +-> graph
//   invocation history --(CV + PPMI)--> weak dependencies   --+
//
//   dependency graph --(union-find)--> dependency sets
//   dependency sets  --(hybrid histogram policy per set)--> scheduler
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.hpp"
#include "common/time.hpp"
#include "graph/dependency_graph.hpp"
#include "mining/cooccurrence.hpp"
#include "mining/delta.hpp"
#include "mining/fpgrowth.hpp"
#include "mining/parallel.hpp"
#include "mining/predictability.hpp"
#include "mining/transactions.hpp"
#include "policy/diurnal.hpp"
#include "policy/fixed.hpp"
#include "policy/hybrid.hpp"
#include "policy/predictor.hpp"
#include "stats/histogram.hpp"
#include "trace/invocation_trace.hpp"
#include "trace/model.hpp"

namespace defuse::core {

struct DefuseConfig {
  /// Include strong (FP-Growth) dependencies. Disabling gives the
  /// Weak-Only ablation of §V.F.
  bool use_strong = true;
  /// Include weak (PPMI) dependencies. Disabling gives Strong-Only.
  bool use_weak = true;

  /// Mining time window (paper §V.A: 1 minute, the trace granularity).
  MinuteDelta window_minutes = 1;
  /// FP-Growth support threshold θ (paper line-search optimum: 0.2).
  double support = 0.2;
  /// Function-universe shuffle window/stride for FP-Growth (paper: 20/10).
  std::size_t universe_window = 20;
  std::size_t universe_stride = 10;
  /// Seed for the universe shuffles.
  std::uint64_t mining_seed = 0x5eed;

  /// Weak-dependency top-k (paper line-search optimum: 1).
  std::size_t top_k = 1;
  /// CV threshold for the predictable/unpredictable split (paper: 5).
  double cv_threshold = 5.0;

  /// Parallel mining fan-out (see mining/parallel.hpp). Defaults to
  /// serial; any thread count produces a bit-identical MiningOutput.
  mining::ParallelMineConfig parallel;

  /// Incremental re-mining (see mining/delta.hpp). Defaults to off; when
  /// on, the platform feeds streaming accumulators and every mine is
  /// bit-identical to a full rebuild over the same window.
  mining::DeltaMineConfig delta;

  mining::PpmiConfig MakePpmiConfig() const {
    mining::PpmiConfig c;
    c.window_minutes = window_minutes;
    c.top_k = top_k;
    return c;
  }
  mining::FpGrowthConfig MakeFpGrowthConfig() const {
    mining::FpGrowthConfig c;
    c.min_support_fraction = support;
    return c;
  }
  mining::PredictabilityConfig MakePredictabilityConfig() const {
    mining::PredictabilityConfig c;
    c.cv_threshold = cv_threshold;
    return c;
  }
  mining::TransactionConfig MakeTransactionConfig() const {
    mining::TransactionConfig c;
    c.window_minutes = window_minutes;
    return c;
  }
};

/// Everything the mining stage produces.
struct MiningOutput {
  graph::DependencyGraph graph;
  std::vector<graph::DependencySet> sets;
  mining::PredictabilityReport predictability;
  std::size_t num_frequent_itemsets = 0;
  std::size_t num_weak_dependencies = 0;
};

/// Validates a DefuseConfig; returns a message for the first violated
/// constraint, or nullptr when valid.
[[nodiscard]] const char* ValidateDefuseConfig(const DefuseConfig& config);

/// Cheap upper-bound proxy for the miner's workload over `window`: the
/// number of active (function, minute) cells, which is the number of
/// transaction entries the FP-Growth transaction builder will emit. The
/// re-mining degradation budget
/// (platform::PlatformConfig::max_mining_transactions) compares against
/// this.
[[nodiscard]] std::uint64_t EstimateMiningTransactions(
    const trace::InvocationTrace& trace, TimeRange window);

/// Stage 1 + 2 of the pipeline: mines dependencies from the training
/// window of the trace and extracts dependency sets. Returns
/// kInvalidArgument when the config fails ValidateDefuseConfig instead
/// of mining garbage (a stride wider than the universe window, say,
/// silently drops functions from every FP-Growth pass).
[[nodiscard]] Result<MiningOutput> MineDependencies(
    const trace::InvocationTrace& trace, const trace::WorkloadModel& model,
    TimeRange train, const DefuseConfig& config = {});

/// Delta-mining entry point: identical to MineDependencies, but when
/// `delta_input` carries pre-accumulated transactions / co-occurrence
/// counts for `train`, the per-user transaction build and the weak-mining
/// trace scan are served from the accumulators instead of re-scanning
/// `trace`. The output is bit-identical either way (the accumulators are
/// exact); passing nullptr or an input with both fast-path flags false is
/// exactly the plain overload.
[[nodiscard]] Result<MiningOutput> MineDependencies(
    const trace::InvocationTrace& trace, const trace::WorkloadModel& model,
    TimeRange train, const DefuseConfig& config,
    const mining::DeltaMiningInput* delta_input);

/// Every unit's idle-time histogram over `window`: the gaps between
/// consecutive minutes in which any member fires, in the histogram shape
/// of `policy_config`. One entry per unit, in unit order. This is the
/// only place training histograms are built; every factory below and
/// the platform's re-mines seed from it.
[[nodiscard]] std::vector<stats::Histogram> TrainingHistograms(
    const trace::InvocationTrace& trace, const graph::UnitMap& units,
    TimeRange window, const policy::HybridConfig& policy_config);

/// The hybrid policy over `units`, each unit seeded with its entry of
/// `histograms` (TrainingHistograms output) when that entry is non-empty.
[[nodiscard]] std::unique_ptr<policy::HybridHistogramPolicy>
MakeSeededScheduler(graph::UnitMap units,
                    const std::vector<stats::Histogram>& histograms,
                    const policy::HybridConfig& policy_config);

/// Stage 3: builds the dependency-set-granularity scheduler, with every
/// set's idle-time histogram seeded from the training window.
[[nodiscard]] std::unique_ptr<policy::HybridHistogramPolicy>
MakeDefuseScheduler(const trace::InvocationTrace& trace,
                    const MiningOutput& mining, TimeRange train,
                    const policy::HybridConfig& policy_config = {});

/// Same, from an explicit set list (e.g. loaded from disk via
/// graph::ReadDependencySetsCsv). The sets must cover every function.
[[nodiscard]] std::unique_ptr<policy::HybridHistogramPolicy>
MakeSetScheduler(const trace::InvocationTrace& trace,
                 const std::vector<graph::DependencySet>& sets,
                 TimeRange train,
                 const policy::HybridConfig& policy_config = {});

/// Baseline builders: the same hybrid histogram policy at function /
/// application granularity, histograms seeded from the training window.
[[nodiscard]] std::unique_ptr<policy::HybridHistogramPolicy>
MakeHybridFunctionScheduler(const trace::InvocationTrace& trace,
                            const trace::WorkloadModel& model, TimeRange train,
                            const policy::HybridConfig& policy_config = {});

[[nodiscard]] std::unique_ptr<policy::HybridHistogramPolicy>
MakeHybridApplicationScheduler(const trace::InvocationTrace& trace,
                               const trace::WorkloadModel& model,
                               TimeRange train,
                               const policy::HybridConfig& policy_config = {});

/// The fixed keep-alive baseline, one unit per function.
[[nodiscard]] std::unique_ptr<policy::FixedKeepAlivePolicy> MakeFixedScheduler(
    const trace::WorkloadModel& model, MinuteDelta keepalive);

/// §VII policy extensions over the mined dependency sets. Both embed the
/// hybrid policy, whose histograms are seeded from the training window;
/// the diurnal policy also learns its day profiles from the training
/// invocations.
[[nodiscard]] std::unique_ptr<policy::PeriodicityPredictorPolicy>
MakePredictorScheduler(const trace::InvocationTrace& trace,
                       const MiningOutput& mining, TimeRange train,
                       const policy::PredictorConfig& config = {});

[[nodiscard]] std::unique_ptr<policy::DiurnalPolicy> MakeDiurnalScheduler(
    const trace::InvocationTrace& trace, const MiningOutput& mining,
    TimeRange train, const policy::DiurnalConfig& config = {});

}  // namespace defuse::core
