// Fixed-width idle-time (IT) histogram.
//
// This is the central data structure of the hybrid-histogram policy
// (Shahrad et al., ATC'20) that Defuse reuses at dependency-set
// granularity:
//   * pre-warm time  = low-percentile idle time (e.g. 5th),
//   * keep-alive     = high minus low percentile (e.g. 95th - 5th),
//   * predictability = coefficient of variation (CV) of the *bin-count
//     vector*: a flat histogram (idle times spread everywhere — an
//     unpredictable function) has low CV, a peaked one (periodic
//     invocations) has high CV. The Defuse paper classifies
//     functions/apps/sets with CV <= 5 as unpredictable.
//
// Histograms are fixed length (paper §VII argues this keeps the
// scheduler's memory footprint low); idle times past the last bin are
// tracked in an out-of-bounds counter so the policy can detect when the
// histogram stops being representative.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/time.hpp"

namespace defuse::stats {

class Histogram {
 public:
  /// A histogram with `num_bins` bins of `bin_width` minutes each,
  /// covering values in [0, num_bins * bin_width). Requires both > 0.
  Histogram(std::size_t num_bins, MinuteDelta bin_width);

  /// Convenience: the 4-hour, 1-minute-binned histogram used by the paper
  /// and by Shahrad et al. for function idle times.
  [[nodiscard]] static Histogram MakeIdleTimeHistogram() {
    return Histogram{240, 1};
  }

  /// Records one observation. Negative values never reach a bin: an idle
  /// time below zero means the feeding clock ran backwards, and folding
  /// it into bin 0 would masquerade as "invoked again immediately" and
  /// bias the pre-warm percentile low. They are tallied in a separate
  /// negative counter (surfaced by negative_count() and Serialize) and a
  /// one-shot process-wide warning is logged. Values past the range
  /// increment the out-of-bounds counter.
  void Add(MinuteDelta value) noexcept;
  /// Records `count` identical observations.
  void AddCount(MinuteDelta value, std::uint64_t count) noexcept;
  /// Adds every in-range and out-of-bounds count of `other` (same shape
  /// required).
  void Merge(const Histogram& other);
  /// Resets all counts.
  void Clear() noexcept;

  [[nodiscard]] std::size_t num_bins() const noexcept { return counts_.size(); }
  [[nodiscard]] MinuteDelta bin_width() const noexcept { return bin_width_; }
  /// Total observations that landed inside the range.
  [[nodiscard]] std::uint64_t total_in_range() const noexcept {
    return total_in_range_;
  }
  /// Observations past the last bin.
  [[nodiscard]] std::uint64_t out_of_bounds() const noexcept {
    return out_of_bounds_;
  }
  /// Observations with a negative value (clock-skew artifacts). Excluded
  /// from every bin, percentile, CV, and from total().
  [[nodiscard]] std::uint64_t negative_count() const noexcept {
    return negative_count_;
  }
  [[nodiscard]] std::uint64_t total() const noexcept {
    return total_in_range_ + out_of_bounds_;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& counts() const noexcept {
    return counts_;
  }
  /// Fraction of observations that fell out of range (0 if empty).
  [[nodiscard]] double out_of_bounds_fraction() const noexcept;

  /// Coefficient of variation of the bin-count vector
  /// (stddev(counts) / mean(counts), population stddev). Returns 0 for an
  /// empty histogram. Out-of-bounds counts do not participate. O(bins).
  [[nodiscard]] double BinCountCv() const noexcept;

  /// Exactly `BinCountCv() > threshold`, in O(1) on the common path: the
  /// running sum of squared counts gives CV = sqrt(n*Σc² - T²) / T from
  /// exact u64 integers (n bins, T = total_in_range). Falls back to the
  /// BinCountCv() loop when n > 2^10 or T > 2^26 (the integers would no
  /// longer be exact) and when the CV lies within 1e-9 * max(1,
  /// threshold) of the threshold (the loop's own rounding error is
  /// about n * 2^-53, so outside that band both sides agree).
  [[nodiscard]] bool BinCountCvExceeds(double threshold) const noexcept;

  /// Value below which fraction q of in-range observations fall, i.e. the
  /// upper edge of the bin where the cumulative count first reaches
  /// q * total_in_range. q in [0, 1]. Returns 0 for an empty histogram.
  [[nodiscard]] MinuteDelta Percentile(double q) const noexcept;

  /// Lower edge of the bin where the cumulative count first reaches
  /// q * total_in_range. This is the conservative end for a pre-warm
  /// time: loading at the lower edge guarantees the unit is resident
  /// before idle times inside that bin elapse.
  [[nodiscard]] MinuteDelta PercentileLowerEdge(double q) const noexcept;

  /// Cumulative distribution at value v: fraction of in-range
  /// observations <= v. Returns 1.0 past the range end, 0 for empty.
  [[nodiscard]] double Cdf(MinuteDelta value) const noexcept;

  /// Mean of in-range observations using bin mid-points. 0 if empty.
  [[nodiscard]] double MeanValue() const noexcept;

  /// Compact single-line text form: "bin_width|oob|neg|i:c,i:c,..." with
  /// only non-zero bins listed. Round-trips via Deserialize.
  [[nodiscard]] std::string Serialize() const;
  /// Parses Serialize() output. The histogram shape (num_bins) comes
  /// from the caller; serialized bins past it are counted out-of-bounds.
  /// Also accepts the pre-negative-counter two-pipe form
  /// "bin_width|oob|bins" (negative count defaults to zero). Returns
  /// false on malformed input (the histogram is left cleared).
  [[nodiscard]] bool Deserialize(std::string_view text);

  /// The most-populated bin: (bin index, count). For an empty histogram
  /// returns (0, 0); ties resolve to the lowest bin. O(1): kept up to
  /// date as counts change.
  [[nodiscard]] std::pair<std::size_t, std::uint64_t> ModeBin()
      const noexcept {
    return {mode_bin_, mode_count_};
  }
  /// Fraction of in-range observations that fall in bins
  /// [mode - radius, mode + radius] — how dominant the mode is. 0 if
  /// empty.
  [[nodiscard]] double ModeMassFraction(std::size_t radius = 1)
      const noexcept;

 private:
  std::vector<std::uint64_t> counts_;
  MinuteDelta bin_width_;
  std::uint64_t total_in_range_ = 0;
  std::uint64_t out_of_bounds_ = 0;
  std::uint64_t negative_count_ = 0;
  // Running moments, updated by AddCount and rebuilt by
  // RecomputeMoments after bulk changes (Merge, Deserialize). Σc² wraps
  // modulo 2^64 like the counts; it is read only while it is exact.
  std::uint64_t sum_sq_ = 0;
  std::size_t mode_bin_ = 0;
  std::uint64_t mode_count_ = 0;

  void RecomputeMoments() noexcept;
};

}  // namespace defuse::stats
