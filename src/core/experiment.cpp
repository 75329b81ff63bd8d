#include "core/experiment.hpp"

#include <cstdio>
#include <cstdlib>

#include "stats/descriptive.hpp"

namespace defuse::core {

const char* MethodName(Method method) noexcept {
  switch (method) {
    case Method::kDefuse: return "Defuse";
    case Method::kDefuseStrongOnly: return "Strong-Only";
    case Method::kDefuseWeakOnly: return "Weak-Only";
    case Method::kHybridFunction: return "Hybrid-Function";
    case Method::kHybridApplication: return "Hybrid-Application";
    case Method::kFixedKeepAlive: return "Fixed-KeepAlive";
    case Method::kDefusePredictor: return "Defuse-Predictor";
    case Method::kDefuseDiurnal: return "Defuse-Diurnal";
  }
  return "?";
}

std::pair<TimeRange, TimeRange> SplitTrainEval(TimeRange horizon) {
  // Paper: mine on the first 12 of 14 days, simulate on the last 2.
  const MinuteDelta train_len = horizon.length() * 6 / 7;
  const Minute split = horizon.begin + train_len;
  return {TimeRange{horizon.begin, split}, TimeRange{split, horizon.end}};
}

ExperimentDriver::ExperimentDriver(const trace::WorkloadModel& model,
                                   const trace::InvocationTrace& trace,
                                   TimeRange train, TimeRange eval,
                                   DefuseConfig defuse_config,
                                   policy::HybridConfig policy_config)
    : model_(model),
      trace_(trace),
      train_(train),
      eval_(eval),
      defuse_config_(defuse_config),
      policy_config_(policy_config) {}

const MiningOutput& ExperimentDriver::MiningFor(Method method) {
  DefuseConfig config = defuse_config_;
  std::optional<MiningOutput>* slot = nullptr;
  switch (method) {
    case Method::kDefuse:
    case Method::kDefusePredictor:
    case Method::kDefuseDiurnal:
      slot = &mining_full_;
      break;
    case Method::kDefuseStrongOnly:
      config.use_weak = false;
      slot = &mining_strong_;
      break;
    case Method::kDefuseWeakOnly:
      config.use_strong = false;
      slot = &mining_weak_;
      break;
    default:
      assert(false && "mining is only defined for Defuse-family methods");
      slot = &mining_full_;
      break;
  }
  if (!slot->has_value()) {
    auto mined = MineDependencies(trace_, model_, train_, config);
    if (!mined.ok()) {
      // MineDependencies rejects only malformed configs (e.g. stride >
      // window). The driver owns its DefuseConfig, so this is a caller
      // bug — fail hard, but with the mining error attached instead of
      // the context-free abort a naked value() would produce.
      std::fprintf(stderr, "experiment: mining failed for %s: %s\n",
                   MethodName(method), mined.error().ToString().c_str());
      std::abort();
    }
    *slot = std::move(mined).value();
  }
  return **slot;
}

MethodResult ExperimentDriver::Run(Method method, double amplification,
                                   const sim::SimulatorOptions& options) {
  policy::HybridConfig policy_config = policy_config_;
  policy_config.amplification = amplification;

  std::unique_ptr<policy::SchedulingPolicy> policy;
  switch (method) {
    case Method::kDefuse:
    case Method::kDefuseStrongOnly:
    case Method::kDefuseWeakOnly:
      policy = MakeDefuseScheduler(trace_, MiningFor(method), train_,
                                   policy_config);
      break;
    case Method::kHybridFunction:
      policy = MakeHybridFunctionScheduler(trace_, model_, train_,
                                           policy_config);
      break;
    case Method::kHybridApplication:
      policy = MakeHybridApplicationScheduler(trace_, model_, train_,
                                              policy_config);
      break;
    case Method::kFixedKeepAlive: {
      const auto keepalive = static_cast<MinuteDelta>(
          static_cast<double>(policy_config.fixed_keepalive) * amplification);
      policy = MakeFixedScheduler(model_, std::max<MinuteDelta>(keepalive, 1));
      break;
    }
    case Method::kDefusePredictor:
      policy = MakePredictorScheduler(trace_, MiningFor(method), train_,
                                      {.hybrid = policy_config});
      break;
    case Method::kDefuseDiurnal:
      policy = MakeDiurnalScheduler(trace_, MiningFor(method), train_,
                                    {.hybrid = policy_config});
      break;
  }

  const sim::SimulationResult sim_result =
      sim::Simulate(trace_, eval_, *policy, options);

  MethodResult result;
  result.method = method;
  result.amplification = amplification;
  result.cold_start_rates =
      sim_result.FunctionColdStartRates(policy->unit_map());
  result.p75_cold_start_rate = stats::Percentile(result.cold_start_rates,
                                                 0.75);
  result.mean_cold_start_rate = stats::Mean(result.cold_start_rates);
  result.event_cold_fraction =
      sim_result.function_invocation_minutes == 0
          ? 0.0
          : static_cast<double>(sim_result.function_cold_minutes) /
                static_cast<double>(sim_result.function_invocation_minutes);
  result.avg_memory = sim_result.AverageMemoryUsage();
  result.avg_weighted_memory = sim_result.AverageWeightedMemory();
  result.avg_loading = sim_result.AverageLoadingFunctions();
  result.loading_per_minute = sim_result.loading_functions;
  result.loaded_per_minute = sim_result.loaded_functions;
  result.num_units = policy->unit_map().num_units();
  result.capacity_evictions = sim_result.capacity_evictions;
  return result;
}

}  // namespace defuse::core
