// Figure 2 — the motivation for fine-grained scheduling.
//
//  (a) histogram of within-application invocation frequencies over all
//      functions: the paper reports 64.7% of functions with frequency
//      below 0.25 (skewed — loading whole apps wastes memory);
//  (b) invocation frequencies of the functions of one large application:
//      only a couple of functions are hot.
//
// Frequency of a function = active minutes of the function / active
// minutes of its application.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"

using namespace defuse;

int main() {
  bench::PrintHeader("Figure 2",
                     "invocation-frequency skew inside applications");
  const auto bw = bench::MakeStandardWorkload();
  const auto& model = bw.workload.model;
  const auto& trace = bw.workload.trace;
  const TimeRange horizon = trace.horizon();

  // Per-app active minutes = minutes in which any member function fires.
  std::vector<double> frequencies;
  AppId biggest_app = AppId::invalid();
  std::size_t biggest_size = 0;
  for (const auto& app : model.apps()) {
    if (app.functions.size() < 2) continue;
    const auto app_minutes = static_cast<double>(
        trace.GroupActiveMinutes(app.functions, horizon));
    if (app_minutes < 50) continue;
    for (const FunctionId fn : app.functions) {
      frequencies.push_back(
          static_cast<double>(trace.ActiveMinutes(fn, horizon)) /
          app_minutes);
    }
    if (app.functions.size() > biggest_size) {
      biggest_size = app.functions.size();
      biggest_app = app.id;
    }
  }

  std::printf("\n(a) histogram of function invocation frequency "
              "(bin, fraction of functions)\n");
  constexpr int kBins = 20;
  std::vector<std::size_t> bins(kBins, 0);
  for (const double f : frequencies) {
    const int bin = std::min(kBins - 1, static_cast<int>(f * kBins));
    ++bins[static_cast<std::size_t>(bin)];
  }
  for (int b = 0; b < kBins; ++b) {
    std::printf("  [%.2f,%.2f)  %.4f\n", b / 20.0, (b + 1) / 20.0,
                static_cast<double>(bins[static_cast<std::size_t>(b)]) /
                    static_cast<double>(frequencies.size()));
  }
  double below_025 = 0;
  for (const double f : frequencies) {
    if (f < 0.25) ++below_025;
  }
  bench::PrintHeadline(
      "fraction of functions with within-app invocation frequency < 0.25: " +
      std::to_string(below_025 / static_cast<double>(frequencies.size())) +
      " (paper: 0.647)");

  std::printf("\n(b) invocation frequencies of functions in the largest "
              "application (%zu functions)\n", biggest_size);
  std::vector<double> app_freqs;
  const auto& app = model.app(biggest_app);
  const auto app_minutes =
      static_cast<double>(trace.GroupActiveMinutes(app.functions, horizon));
  for (const FunctionId fn : app.functions) {
    app_freqs.push_back(
        static_cast<double>(trace.ActiveMinutes(fn, horizon)) / app_minutes);
  }
  std::sort(app_freqs.rbegin(), app_freqs.rend());
  for (std::size_t i = 0; i < app_freqs.size(); ++i) {
    std::printf("  fn %2zu  %.4f\n", i, app_freqs[i]);
  }
  std::size_t hot = 0;
  for (const double f : app_freqs) {
    if (f > 0.4) ++hot;
  }
  bench::PrintHeadline(
      std::to_string(hot) + " of " + std::to_string(app_freqs.size()) +
      " functions in this app have frequency > 0.4 (paper: 2 of 23)");
  return 0;
}
