#include "core/defuse.hpp"

#include <algorithm>
#include <memory>
#include <string>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"

namespace defuse::core {
namespace {

/// Seeds every unit that saw traffic with its histogram. Every policy
/// with a per-unit SeedHistogram is seeded here.
template <typename Policy>
void SeedHistograms(Policy& policy,
                    const std::vector<stats::Histogram>& histograms) {
  for (std::size_t u = 0; u < histograms.size(); ++u) {
    if (histograms[u].total() > 0) {
      policy.SeedHistogram(UnitId{static_cast<std::uint32_t>(u)},
                           histograms[u]);
    }
  }
}

template <typename Policy>
void SeedFromTraining(Policy& policy, const trace::InvocationTrace& trace,
                      TimeRange train,
                      const policy::HybridConfig& policy_config) {
  SeedHistograms(policy, TrainingHistograms(trace, policy.unit_map(), train,
                                            policy_config));
}

}  // namespace

const char* ValidateDefuseConfig(const DefuseConfig& config) {
  if (!config.use_strong && !config.use_weak) {
    return "at least one of use_strong / use_weak must be set";
  }
  if (config.window_minutes < 1) return "window_minutes must be >= 1";
  if (config.support <= 0 || config.support > 1) {
    return "support must be in (0, 1]";
  }
  if (config.universe_window < 2) return "universe_window must be >= 2";
  if (config.universe_stride < 1 ||
      config.universe_stride > config.universe_window) {
    return "universe_stride must be in [1, universe_window]";
  }
  if (config.top_k < 1) return "top_k must be >= 1";
  if (config.cv_threshold < 0) return "cv_threshold must be >= 0";
  return nullptr;
}

std::uint64_t EstimateMiningTransactions(const trace::InvocationTrace& trace,
                                         TimeRange window) {
  std::uint64_t cells = 0;
  for (std::size_t f = 0; f < trace.num_functions(); ++f) {
    cells += trace.ActiveMinutes(FunctionId{static_cast<std::uint32_t>(f)},
                                 window);
  }
  return cells;
}

Result<MiningOutput> MineDependencies(const trace::InvocationTrace& trace,
                                      const trace::WorkloadModel& model,
                                      TimeRange train,
                                      const DefuseConfig& config) {
  return MineDependencies(trace, model, train, config, nullptr);
}

Result<MiningOutput> MineDependencies(
    const trace::InvocationTrace& trace, const trace::WorkloadModel& model,
    TimeRange train, const DefuseConfig& config,
    const mining::DeltaMiningInput* delta_input) {
  if (const char* violation = ValidateDefuseConfig(config)) {
    return Error{ErrorCode::kInvalidArgument,
                 std::string{"MineDependencies: "} + violation};
  }

  // One pool for the whole call; nullptr keeps every stage inline, so the
  // serial path is the parallel path with the fan-out compiled away.
  std::unique_ptr<ThreadPool> owned_pool;
  if (config.parallel.enabled()) {
    owned_pool = std::make_unique<ThreadPool>(config.parallel.num_threads);
  }
  ThreadPool* pool = owned_pool.get();

  graph::DependencyGraph graph{model.num_functions()};
  MiningOutput output{.graph = std::move(graph),
                      .sets = {},
                      .predictability = {},
                      .num_frequent_itemsets = 0,
                      .num_weak_dependencies = 0};

  // Predictability is needed by weak mining; it is also part of the
  // output because the scheduling stage reuses the classification.
  // Sharded by function; each worker owns its function's slots.
  output.predictability = mining::ClassifyFunctions(
      trace, model, train, config.MakePredictabilityConfig(), pool);

  const auto transaction_config = config.MakeTransactionConfig();
  const auto fpgrowth_config = config.MakeFpGrowthConfig();
  const auto ppmi_config = config.MakePpmiConfig();

  // The mining fan-out shards by user (the paper mines each client
  // independently, §IV.B.2). Workers write only their own user's shard;
  // everything order-sensitive — the shared universe-shuffle RNG stream
  // and the graph merge — stays on this thread, in user-id order, so the
  // output is bit-identical to the serial path at any thread count.
  const auto& users = model.users();
  const std::size_t num_users = users.size();
  struct UserShard {
    std::vector<mining::Transaction> transactions;
    std::vector<mining::UniverseWindow> windows;
    std::vector<mining::Itemset> itemsets;
    std::vector<mining::WeakDependency> weak;
  };
  std::vector<UserShard> shards(num_users);

  // Stage 1 (parallel): per-user transaction building. RNG-free. The
  // delta fast path serves the transactions from the streaming CanTrees
  // instead; their export is multiset-equal to the built list, and every
  // consumer downstream (projection, FP-Growth) is a pure function of
  // the transaction multiset, so the mined output is bit-identical.
  const bool delta_transactions =
      delta_input != nullptr && delta_input->has_transactions;
  if (config.use_strong) {
    ParallelFor(pool, num_users, [&](std::size_t u) {
      if (delta_transactions) {
        shards[u].transactions =
            delta_input->transactions[users[u].id.value()];
      } else {
        shards[u].transactions = mining::BuildUserTransactions(
            trace, model, users[u].id, train, transaction_config);
      }
    });
  }

  // Stage 2 (serial, user order): universe shuffles. Each user's stream
  // is derived from (mining_seed, user id) alone — never from a shared
  // stream position — so one user's mined sets cannot depend on which
  // OTHER users had traffic. That per-client independence is what the
  // paper's per-user mining promises (§IV.B) and what lets a sharded
  // miner tier reproduce the single-daemon output byte for byte.
  if (config.use_strong) {
    for (std::size_t u = 0; u < num_users; ++u) {
      if (shards[u].transactions.empty()) continue;
      std::uint64_t stream = config.mining_seed ^
                             (0x9e3779b97f4a7c15ULL *
                              (static_cast<std::uint64_t>(users[u].id.value()) +
                               1));
      Rng rng{SplitMix64(stream)};
      auto windows = mining::SplitUniverse(model.FunctionsOfUser(users[u].id),
                                           config.universe_window,
                                           config.universe_stride, rng);
      // Unreachable after ValidateDefuseConfig, but propagate anyway.
      if (!windows.ok()) return windows.error();
      shards[u].windows = std::move(windows).value();
    }
  }

  // Stage 3 (parallel): FP-Growth over each user's universe windows and
  // PPMI weak mining. Reads are shared and immutable (trace, model,
  // predictability); writes hit only the user's own shard.
  ParallelFor(pool, num_users, [&](std::size_t u) {
    UserShard& shard = shards[u];
    if (config.use_strong) {
      for (const auto& window : shard.windows) {
        const auto projected =
            mining::ProjectTransactions(shard.transactions, window);
        if (projected.empty()) continue;
        auto itemsets = mining::MineFrequentItemsets(projected, fpgrowth_config);
        shard.itemsets.insert(shard.itemsets.end(),
                              std::make_move_iterator(itemsets.begin()),
                              std::make_move_iterator(itemsets.end()));
      }
    }
    if (config.use_weak) {
      if (delta_input != nullptr && delta_input->has_cooc) {
        // Delta fast path: load the streaming counts into the matrix and
        // run the shared scoring stage. The counts are exactly what
        // Accumulate would have produced, so the PPMI doubles match bit
        // for bit.
        std::vector<FunctionId> unpredictable_fns;
        std::vector<FunctionId> predictable_fns;
        for (const FunctionId fn : model.FunctionsOfUser(users[u].id)) {
          if (output.predictability.predictable[fn.value()]) {
            predictable_fns.push_back(fn);
          } else {
            unpredictable_fns.push_back(fn);
          }
        }
        if (!unpredictable_fns.empty() && !predictable_fns.empty()) {
          mining::CooccurrenceMatrix matrix{std::move(unpredictable_fns),
                                            std::move(predictable_fns)};
          const auto& counts = delta_input->cooc[users[u].id.value()];
          matrix.LoadAccumulated(counts.active, counts.pairs,
                                 delta_input->total_windows);
          shard.weak = mining::MineWeakDependenciesFromMatrix(matrix,
                                                              ppmi_config);
        }
      } else {
        shard.weak = mining::MineWeakDependencies(
            trace, model, users[u].id, output.predictability.predictable,
            train, ppmi_config);
      }
    }
  });

  // Stage 4 (serial, user order): deterministic merge. Edges land in the
  // same order as the serial loop inserted them; Canonicalize then fully
  // sorts and dedupes, so equal edge multisets give equal graphs.
  for (std::size_t u = 0; u < num_users; ++u) {
    for (const auto& itemset : shards[u].itemsets) {
      output.graph.AddStrongItemset(itemset.items, itemset.support);
    }
    output.num_frequent_itemsets += shards[u].itemsets.size();
    for (const auto& dep : shards[u].weak) {
      output.graph.AddWeakDependency(dep.from, dep.to, dep.ppmi);
    }
    output.num_weak_dependencies += shards[u].weak.size();
  }

  output.graph.Canonicalize();
  output.sets = output.graph.ConnectedComponents();
  DEFUSE_LOG_INFO << "mining: " << output.num_frequent_itemsets
                  << " frequent itemsets, " << output.num_weak_dependencies
                  << " weak dependencies, " << output.sets.size()
                  << " dependency sets over " << model.num_functions()
                  << " functions"
                  << (pool != nullptr
                          ? " (" + std::to_string(pool->num_threads()) +
                                " mining threads)"
                          : "");
  return output;
}

std::vector<stats::Histogram> TrainingHistograms(
    const trace::InvocationTrace& trace, const graph::UnitMap& units,
    TimeRange window, const policy::HybridConfig& policy_config) {
  mining::PredictabilityConfig shape;
  shape.histogram_bins = policy_config.histogram_bins;
  shape.histogram_bin_width = policy_config.histogram_bin_width;
  std::vector<stats::Histogram> histograms;
  histograms.reserve(units.num_units());
  for (std::size_t u = 0; u < units.num_units(); ++u) {
    histograms.push_back(mining::BuildGroupItHistogram(
        trace, units.functions_of(UnitId{static_cast<std::uint32_t>(u)}),
        window, shape));
  }
  return histograms;
}

std::unique_ptr<policy::HybridHistogramPolicy> MakeSeededScheduler(
    graph::UnitMap units, const std::vector<stats::Histogram>& histograms,
    const policy::HybridConfig& policy_config) {
  auto policy = std::make_unique<policy::HybridHistogramPolicy>(
      std::move(units), policy_config);
  SeedHistograms(*policy, histograms);
  return policy;
}

std::unique_ptr<policy::HybridHistogramPolicy> MakeDefuseScheduler(
    const trace::InvocationTrace& trace, const MiningOutput& mining,
    TimeRange train, const policy::HybridConfig& policy_config) {
  return MakeSetScheduler(trace, mining.sets, train, policy_config);
}

std::unique_ptr<policy::HybridHistogramPolicy> MakeSetScheduler(
    const trace::InvocationTrace& trace,
    const std::vector<graph::DependencySet>& sets, TimeRange train,
    const policy::HybridConfig& policy_config) {
  auto units = graph::UnitMap::FromDependencySets(sets, trace.num_functions());
  auto policy = std::make_unique<policy::HybridHistogramPolicy>(
      std::move(units), policy_config);
  SeedFromTraining(*policy, trace, train, policy_config);
  return policy;
}

std::unique_ptr<policy::HybridHistogramPolicy> MakeHybridFunctionScheduler(
    const trace::InvocationTrace& trace, const trace::WorkloadModel& model,
    TimeRange train, const policy::HybridConfig& policy_config) {
  auto policy = std::make_unique<policy::HybridHistogramPolicy>(
      graph::UnitMap::PerFunction(model.num_functions()), policy_config);
  SeedFromTraining(*policy, trace, train, policy_config);
  return policy;
}

std::unique_ptr<policy::HybridHistogramPolicy>
MakeHybridApplicationScheduler(const trace::InvocationTrace& trace,
                               const trace::WorkloadModel& model,
                               TimeRange train,
                               const policy::HybridConfig& policy_config) {
  auto policy = std::make_unique<policy::HybridHistogramPolicy>(
      graph::UnitMap::PerApplication(model), policy_config);
  SeedFromTraining(*policy, trace, train, policy_config);
  return policy;
}

std::unique_ptr<policy::FixedKeepAlivePolicy> MakeFixedScheduler(
    const trace::WorkloadModel& model, MinuteDelta keepalive) {
  return std::make_unique<policy::FixedKeepAlivePolicy>(
      graph::UnitMap::PerFunction(model.num_functions()), keepalive);
}

std::unique_ptr<policy::PeriodicityPredictorPolicy> MakePredictorScheduler(
    const trace::InvocationTrace& trace, const MiningOutput& mining,
    TimeRange train, const policy::PredictorConfig& config) {
  auto predictor = std::make_unique<policy::PeriodicityPredictorPolicy>(
      graph::UnitMap::FromDependencySets(mining.sets, trace.num_functions()),
      config);
  SeedFromTraining(*predictor, trace, train, config.hybrid);
  return predictor;
}

std::unique_ptr<policy::DiurnalPolicy> MakeDiurnalScheduler(
    const trace::InvocationTrace& trace, const MiningOutput& mining,
    TimeRange train, const policy::DiurnalConfig& config) {
  auto diurnal = std::make_unique<policy::DiurnalPolicy>(
      graph::UnitMap::FromDependencySets(mining.sets, trace.num_functions()),
      config);
  SeedFromTraining(*diurnal, trace, train, config.hybrid);
  const graph::UnitMap& units = diurnal->unit_map();
  for (std::size_t u = 0; u < units.num_units(); ++u) {
    const UnitId unit{static_cast<std::uint32_t>(u)};
    for (const FunctionId fn : units.functions_of(unit)) {
      for (const auto& e : trace.SeriesInRange(fn, train)) {
        diurnal->SeedDayProfile(unit, e.minute);
      }
    }
  }
  return diurnal;
}

}  // namespace defuse::core
