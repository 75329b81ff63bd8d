#include "stats/histogram.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <limits>

#include "common/logging.hpp"

namespace defuse::stats {
namespace {

// While n <= 2^10 and T <= 2^26, every count is at most T, so Σc² <= T²
// <= 2^52 and n·Σc² <= 2^62: the CV numerator is an exact u64.
constexpr std::size_t kExactMaxBins = std::size_t{1} << 10;
constexpr std::uint64_t kExactMaxTotal = std::uint64_t{1} << 26;

}  // namespace

Histogram::Histogram(std::size_t num_bins, MinuteDelta bin_width)
    : counts_(num_bins, 0), bin_width_(bin_width) {
  assert(num_bins > 0);
  assert(bin_width > 0);
}

void Histogram::Add(MinuteDelta value) noexcept { AddCount(value, 1); }

void Histogram::AddCount(MinuteDelta value, std::uint64_t count) noexcept {
  if (count == 0) return;
  if (value < 0) {
    // A negative idle time means the feeding clock ran backwards. The
    // old behavior clamped it into bin 0 — indistinguishable from a
    // real immediate re-invocation, silently dragging the pre-warm
    // percentile toward zero. Quarantine it instead.
    negative_count_ += count;
    // defuse-lint: suppress(DL008) lock-free once-flag: exchange() is the whole protocol, there is no guarded state behind it
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true, std::memory_order_relaxed)) {
      DEFUSE_LOG_WARN << "histogram: negative value " << value
                      << " quarantined (clock skew in the feeding trace?); "
                         "further occurrences are counted silently";
    }
    return;
  }
  const auto bin = static_cast<std::size_t>(value / bin_width_);
  if (bin >= counts_.size()) {
    out_of_bounds_ += count;
    return;
  }
  const std::uint64_t old = counts_[bin];
  counts_[bin] = old + count;
  total_in_range_ += count;
  sum_sq_ += count * (2 * old + count);  // (old + count)² - old²
  // Counts only grow here, so only this bin can take the mode; ties go
  // to the lowest bin.
  if (counts_[bin] > mode_count_ ||
      (counts_[bin] == mode_count_ && bin < mode_bin_)) {
    mode_bin_ = bin;
    mode_count_ = counts_[bin];
  }
}

void Histogram::RecomputeMoments() noexcept {
  sum_sq_ = 0;
  mode_bin_ = 0;
  mode_count_ = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    sum_sq_ += counts_[i] * counts_[i];
    if (counts_[i] > mode_count_) {
      mode_bin_ = i;
      mode_count_ = counts_[i];
    }
  }
}

void Histogram::Merge(const Histogram& other) {
  assert(other.counts_.size() == counts_.size());
  assert(other.bin_width_ == bin_width_);
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  total_in_range_ += other.total_in_range_;
  out_of_bounds_ += other.out_of_bounds_;
  negative_count_ += other.negative_count_;
  RecomputeMoments();
}

void Histogram::Clear() noexcept {
  for (auto& c : counts_) c = 0;
  total_in_range_ = 0;
  out_of_bounds_ = 0;
  negative_count_ = 0;
  sum_sq_ = 0;
  mode_bin_ = 0;
  mode_count_ = 0;
}

double Histogram::out_of_bounds_fraction() const noexcept {
  const std::uint64_t t = total();
  return t == 0 ? 0.0
               : static_cast<double>(out_of_bounds_) / static_cast<double>(t);
}

double Histogram::BinCountCv() const noexcept {
  if (total_in_range_ == 0) return 0.0;
  const double n = static_cast<double>(counts_.size());
  const double mean = static_cast<double>(total_in_range_) / n;
  double sq = 0.0;
  for (const auto c : counts_) {
    const double d = static_cast<double>(c) - mean;
    sq += d * d;
  }
  const double variance = sq / n;
  return std::sqrt(variance) / mean;
}

bool Histogram::BinCountCvExceeds(double threshold) const noexcept {
  const std::uint64_t total = total_in_range_;
  if (total == 0) return 0.0 > threshold;
  const std::uint64_t n = counts_.size();
  // A mode above the total means the u64 total wrapped (only corrupt or
  // absurd counts get there), so Σc² is not exact either.
  if (n > kExactMaxBins || total > kExactMaxTotal || mode_count_ > total) {
    return BinCountCv() > threshold;
  }
  // n·Σc² >= T² by Cauchy-Schwarz, so the difference cannot wrap.
  const double cv =
      std::sqrt(static_cast<double>(n * sum_sq_ - total * total)) /
      static_cast<double>(total);
  if (std::abs(cv - threshold) <= 1e-9 * std::max(1.0, threshold)) {
    return BinCountCv() > threshold;
  }
  return cv > threshold;
}

MinuteDelta Histogram::Percentile(double q) const noexcept {
  if (total_in_range_ == 0) return 0;
  if (q <= 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double target = q * static_cast<double>(total_in_range_);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    cumulative += counts_[i];
    if (static_cast<double>(cumulative) >= target && cumulative > 0) {
      return static_cast<MinuteDelta>(i + 1) * bin_width_;
    }
  }
  return static_cast<MinuteDelta>(counts_.size()) * bin_width_;
}

MinuteDelta Histogram::PercentileLowerEdge(double q) const noexcept {
  if (total_in_range_ == 0) return 0;
  if (q <= 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double target = q * static_cast<double>(total_in_range_);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    cumulative += counts_[i];
    if (static_cast<double>(cumulative) >= target && cumulative > 0) {
      return static_cast<MinuteDelta>(i) * bin_width_;
    }
  }
  return static_cast<MinuteDelta>(counts_.size()) * bin_width_;
}

double Histogram::Cdf(MinuteDelta value) const noexcept {
  if (total_in_range_ == 0) return 0.0;
  if (value < 0) return 0.0;
  const auto bin = static_cast<std::size_t>(value / bin_width_);
  if (bin >= counts_.size()) return 1.0;
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i <= bin; ++i) cumulative += counts_[i];
  return static_cast<double>(cumulative) /
         static_cast<double>(total_in_range_);
}

std::string Histogram::Serialize() const {
  std::string out = std::to_string(bin_width_);
  out += '|';
  out += std::to_string(out_of_bounds_);
  out += '|';
  out += std::to_string(negative_count_);
  out += '|';
  bool first = true;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    if (!first) out += ',';
    out += std::to_string(i);
    out += ':';
    out += std::to_string(counts_[i]);
    first = false;
  }
  return out;
}

bool Histogram::Deserialize(std::string_view text) {
  Clear();
  const auto parse_u64 = [](std::string_view field,
                            std::uint64_t& value) noexcept {
    value = 0;
    if (field.empty()) return false;
    constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
    for (const char c : field) {
      if (c < '0' || c > '9') return false;
      const auto digit = static_cast<std::uint64_t>(c - '0');
      // Overflow must be a parse failure: an unchecked `value*10+digit`
      // wraps, so a corrupted bin index like 2^64+1 would silently land
      // in bin 1 instead of rejecting the snapshot.
      if (value > (kMax - digit) / 10) return false;
      value = value * 10 + digit;
    }
    return true;
  };
  const std::size_t p1 = text.find('|');
  if (p1 == std::string_view::npos) return false;
  const std::size_t p2 = text.find('|', p1 + 1);
  if (p2 == std::string_view::npos) return false;
  // Three pipes = current "width|oob|neg|bins" form; two pipes = the
  // pre-negative-counter "width|oob|bins" form (bins hold only digits,
  // ':' and ',', so the pipe count is unambiguous).
  const std::size_t p3 = text.find('|', p2 + 1);
  std::uint64_t width = 0, oob = 0, neg = 0;
  if (!parse_u64(text.substr(0, p1), width) || width == 0 ||
      static_cast<MinuteDelta>(width) != bin_width_) {
    return false;
  }
  if (!parse_u64(text.substr(p1 + 1, p2 - p1 - 1), oob)) return false;
  if (p3 != std::string_view::npos &&
      !parse_u64(text.substr(p2 + 1, p3 - p2 - 1), neg)) {
    return false;
  }
  out_of_bounds_ = oob;
  negative_count_ = neg;

  std::string_view bins = text.substr(
      (p3 == std::string_view::npos ? p2 : p3) + 1);
  while (!bins.empty()) {
    const std::size_t comma = bins.find(',');
    const std::string_view entry = bins.substr(0, comma);
    bins = comma == std::string_view::npos ? std::string_view{}
                                           : bins.substr(comma + 1);
    const std::size_t colon = entry.find(':');
    if (colon == std::string_view::npos) {
      Clear();
      return false;
    }
    std::uint64_t bin = 0, count = 0;
    if (!parse_u64(entry.substr(0, colon), bin) ||
        !parse_u64(entry.substr(colon + 1), count)) {
      Clear();
      return false;
    }
    if (bin >= counts_.size()) {
      out_of_bounds_ += count;
    } else {
      counts_[bin] += count;
      total_in_range_ += count;
    }
  }
  RecomputeMoments();
  return true;
}

double Histogram::ModeMassFraction(std::size_t radius) const noexcept {
  if (total_in_range_ == 0) return 0.0;
  const auto [mode, mode_count] = ModeBin();
  std::uint64_t mass = 0;
  const std::size_t lo = mode >= radius ? mode - radius : 0;
  const std::size_t hi = std::min(mode + radius, counts_.size() - 1);
  for (std::size_t i = lo; i <= hi; ++i) mass += counts_[i];
  return static_cast<double>(mass) / static_cast<double>(total_in_range_);
}

double Histogram::MeanValue() const noexcept {
  if (total_in_range_ == 0) return 0.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const double mid =
        (static_cast<double>(i) + 0.5) * static_cast<double>(bin_width_);
    sum += mid * static_cast<double>(counts_[i]);
  }
  return sum / static_cast<double>(total_in_range_);
}

}  // namespace defuse::stats
