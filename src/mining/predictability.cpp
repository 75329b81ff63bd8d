#include "mining/predictability.hpp"

namespace defuse::mining {

stats::Histogram BuildItHistogram(const trace::InvocationTrace& trace,
                                  FunctionId fn, TimeRange range,
                                  const PredictabilityConfig& config) {
  stats::Histogram hist{config.histogram_bins, config.histogram_bin_width};
  for (const MinuteDelta gap : trace.IdleTimes(fn, range)) hist.Add(gap);
  return hist;
}

stats::Histogram BuildGroupItHistogram(const trace::InvocationTrace& trace,
                                       std::span<const FunctionId> fns,
                                       TimeRange range,
                                       const PredictabilityConfig& config) {
  stats::Histogram hist{config.histogram_bins, config.histogram_bin_width};
  for (const MinuteDelta gap : trace.GroupIdleTimes(fns, range)) {
    hist.Add(gap);
  }
  return hist;
}

bool IsPredictable(const stats::Histogram& hist,
                   const PredictabilityConfig& config) {
  if (hist.total() < config.min_observations) return false;
  return hist.BinCountCvExceeds(config.cv_threshold);
}

PredictabilityReport ClassifyFunctions(const trace::InvocationTrace& trace,
                                       const trace::WorkloadModel& model,
                                       TimeRange range,
                                       const PredictabilityConfig& config) {
  return ClassifyFunctions(trace, model, range, config, nullptr);
}

PredictabilityReport ClassifyFunctions(const trace::InvocationTrace& trace,
                                       const trace::WorkloadModel& model,
                                       TimeRange range,
                                       const PredictabilityConfig& config,
                                       ThreadPool* pool) {
  PredictabilityReport report;
  const std::size_t n = model.num_functions();
  report.cv.resize(n, 0.0);
  // vector<bool> packs bits, so concurrent writes to adjacent slots race
  // on the shared byte; stage into one byte per function instead.
  std::vector<char> predictable(n, 0);
  ParallelFor(pool, n, [&](std::size_t f) {
    const FunctionId fn{static_cast<std::uint32_t>(f)};
    const auto hist = BuildItHistogram(trace, fn, range, config);
    report.cv[f] = hist.BinCountCv();
    predictable[f] = IsPredictable(hist, config) ? 1 : 0;
  });
  report.predictable.assign(predictable.begin(), predictable.end());
  return report;
}

}  // namespace defuse::mining
