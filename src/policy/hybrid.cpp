#include "policy/hybrid.hpp"

#include <algorithm>
#include <cmath>

namespace defuse::policy {

HybridHistogramPolicy::HybridHistogramPolicy(graph::UnitMap units,
                                             HybridConfig config)
    : units_(std::move(units)), config_(config) {
  histograms_.reserve(units_.num_units());
  for (std::size_t u = 0; u < units_.num_units(); ++u) {
    histograms_.emplace_back(config_.histogram_bins,
                             config_.histogram_bin_width);
  }
  if (config_.use_ar_fallback) {
    ar_models_.assign(units_.num_units(), ArIdleTimeModel{});
  }
  cached_.resize(units_.num_units());
  cache_valid_.assign(units_.num_units(), false);
}

void HybridHistogramPolicy::SeedHistogram(UnitId unit,
                                          const stats::Histogram& training) {
  histograms_[unit.value()].Merge(training);
  cache_valid_[unit.value()] = false;
}

void HybridHistogramPolicy::ObserveIdleTime(UnitId unit, MinuteDelta gap) {
  histograms_[unit.value()].Add(gap);
  if (config_.use_ar_fallback) ar_models_[unit.value()].Observe(gap);
  cache_valid_[unit.value()] = false;
}

bool HybridHistogramPolicy::UsesArFallback(UnitId unit) const {
  if (!config_.use_ar_fallback) return false;
  const stats::Histogram& hist = histograms_[unit.value()];
  // The AR branch handles exactly the histogram's blind spot: units
  // whose idle times mostly exceed the histogram range.
  return hist.out_of_bounds_fraction() > config_.oob_threshold &&
         ar_models_[unit.value()].Ready();
}

bool HybridHistogramPolicy::IsPredictableUnit(UnitId unit) const {
  const stats::Histogram& hist = histograms_[unit.value()];
  if (hist.total() < config_.min_observations) return false;
  if (hist.out_of_bounds_fraction() > config_.oob_threshold) return false;
  return hist.BinCountCvExceeds(config_.cv_threshold);
}

policy::UnitDecision HybridHistogramPolicy::DecisionFor(UnitId unit) const {
  if (cache_valid_[unit.value()]) return cached_[unit.value()];

  policy::UnitDecision decision;
  if (UsesArFallback(unit)) {
    // Forecast the next idle gap; stay resident for +-ar_sigma_band
    // residual standard deviations around it.
    const ArIdleTimeModel& ar = ar_models_[unit.value()];
    const double predicted = ar.PredictNext();
    const double band =
        std::max(config_.ar_sigma_band * ar.ResidualStdDev(), 1.0);
    decision.prewarm = std::max<MinuteDelta>(
        static_cast<MinuteDelta>(std::floor(predicted - band)), 0);
    decision.keepalive = std::max<MinuteDelta>(
        static_cast<MinuteDelta>(
            std::ceil(2.0 * band * config_.amplification)),
        1);
    if (decision.prewarm < config_.min_prewarm) {
      decision.keepalive += decision.prewarm;
      decision.prewarm = 0;
    }
  } else if (!IsPredictableUnit(unit)) {
    decision.prewarm = 0;
    decision.keepalive = std::max<MinuteDelta>(
        1, static_cast<MinuteDelta>(std::llround(
               static_cast<double>(config_.fixed_keepalive) *
               config_.amplification)));
  } else {
    const stats::Histogram& hist = histograms_[unit.value()];
    const MinuteDelta low = hist.PercentileLowerEdge(config_.hist_threshold);
    const MinuteDelta high = hist.Percentile(1.0 - config_.hist_threshold);
    // Pre-warm shrinks by the margin (arrive early), keep-alive grows by
    // it (leave late), then the keep-alive is amplified by `a`.
    const auto prewarm = static_cast<MinuteDelta>(
        std::floor(static_cast<double>(low) * (1.0 - config_.margin)));
    const double span = static_cast<double>(high - prewarm);
    const auto keepalive = static_cast<MinuteDelta>(std::ceil(
        span * (1.0 + config_.margin) * config_.amplification));
    decision.prewarm = std::max<MinuteDelta>(prewarm, 0);
    decision.keepalive = std::max<MinuteDelta>(keepalive, 1);
    if (decision.prewarm < config_.min_prewarm) {
      // Unload/reload cycles shorter than min_prewarm cost more loads
      // than the memory they free is worth; stay resident instead.
      decision.keepalive += decision.prewarm;
      decision.prewarm = 0;
    }
  }
  cached_[unit.value()] = decision;
  cache_valid_[unit.value()] = true;
  return decision;
}

policy::UnitDecision HybridHistogramPolicy::OnInvocation(UnitId unit,
                                                      Minute /*now*/) {
  return DecisionFor(unit);
}

std::string HybridHistogramPolicy::SerializeHistograms() const {
  std::string out = "unit,histogram\n";
  for (std::size_t u = 0; u < histograms_.size(); ++u) {
    if (histograms_[u].total() == 0) continue;
    out += std::to_string(u);
    out += ',';
    out += histograms_[u].Serialize();
    out += '\n';
  }
  return out;
}

bool HybridHistogramPolicy::LoadHistograms(std::string_view text) {
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    const std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    if (line_no == 1) {
      if (line != "unit,histogram") return false;
      continue;
    }
    if (line.empty()) continue;
    const std::size_t comma = line.find(',');
    if (comma == std::string_view::npos) return false;
    std::uint64_t unit = 0;
    for (const char c : line.substr(0, comma)) {
      if (c < '0' || c > '9') return false;
      unit = unit * 10 + static_cast<std::uint64_t>(c - '0');
    }
    if (unit >= histograms_.size()) return false;
    if (!histograms_[unit].Deserialize(line.substr(comma + 1))) return false;
    cache_valid_[unit] = false;
  }
  return true;
}

const char* ValidateHybridConfig(const HybridConfig& config) {
  if (config.cv_threshold < 0) return "cv_threshold must be >= 0";
  if (config.fixed_keepalive < 1) return "fixed_keepalive must be >= 1";
  if (config.hist_threshold <= 0 || config.hist_threshold >= 0.5) {
    return "hist_threshold must be in (0, 0.5)";
  }
  if (config.margin < 0 || config.margin >= 1) {
    return "margin must be in [0, 1)";
  }
  if (config.amplification <= 0) return "amplification must be > 0";
  if (config.oob_threshold < 0 || config.oob_threshold > 1) {
    return "oob_threshold must be in [0, 1]";
  }
  if (config.min_prewarm < 0) return "min_prewarm must be >= 0";
  if (config.ar_sigma_band <= 0) return "ar_sigma_band must be > 0";
  if (config.histogram_bins == 0) return "histogram_bins must be > 0";
  if (config.histogram_bin_width < 1) return "histogram_bin_width must be >= 1";
  return nullptr;
}

}  // namespace defuse::policy
