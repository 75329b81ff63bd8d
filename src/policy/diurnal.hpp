// Diurnal-aware scheduling policy.
//
// Workloads with daily rhythm (office-hours APIs, nightly jobs) have
// long idle times that blow past the 4-hour idle-time histogram, so the
// hybrid policy parks them on the fixed fallback and they start cold
// every morning. This policy learns each unit's *time-of-day profile* —
// a histogram of invocations over the minutes of a day, bucketed into
// slots — and, when activity is concentrated in a few slots, schedules
// residency around those slots:
//
//   * invoked inside an active slot  -> keep alive to the slot's end
//     (plus the usual margin);
//   * on the last invocation of a day -> pre-warm shortly before the
//     next day's first active slot.
//
// Units without day-of-day concentration delegate to the embedded
// hybrid histogram policy, so this is a strict extension (another §VII
// "more sophisticated scheduling policy" instance).
#pragma once

#include "policy/hybrid.hpp"

namespace defuse::policy {

struct DiurnalConfig {
  HybridConfig hybrid;
  /// Day profile resolution: slot length in minutes (1440 % slot == 0).
  MinuteDelta slot_minutes = 30;
  /// Take the diurnal branch when the top `active_slot_fraction` of
  /// slots hold at least `concentration` of all invocations.
  double active_slot_fraction = 0.25;
  double concentration = 0.9;
  /// Minimum day-profile observations before trusting it.
  std::uint64_t min_observations = 30;
  /// Pre-warm lead before an upcoming active slot.
  MinuteDelta lead = 5;
};

class DiurnalPolicy final : public policy::SchedulingPolicy {
 public:
  DiurnalPolicy(graph::UnitMap units, DiurnalConfig config);

  void SeedHistogram(UnitId unit, const stats::Histogram& training) {
    hybrid_.SeedHistogram(unit, training);
  }
  /// Seeds the day profile from training invocation minutes.
  void SeedDayProfile(UnitId unit, Minute invocation_minute);

  [[nodiscard]] const graph::UnitMap& unit_map() const noexcept override {
    return hybrid_.unit_map();
  }
  [[nodiscard]] policy::UnitDecision OnInvocation(UnitId unit,
                                               Minute now) override;
  void ObserveIdleTime(UnitId unit, MinuteDelta gap) override;
  [[nodiscard]] const char* name() const noexcept override {
    return "diurnal";
  }

  /// True if the unit currently takes the day-profile branch.
  [[nodiscard]] bool IsDiurnalUnit(UnitId unit) const;
  /// Whether the slot containing minute-of-day `mod` is active for the
  /// unit (exposed for tests). Only diurnal units have active slots.
  [[nodiscard]] bool SlotActive(UnitId unit, Minute minute_of_day) const;

 private:
  [[nodiscard]] std::size_t SlotOf(Minute now) const noexcept {
    return static_cast<std::size_t>((now % kMinutesPerDay) /
                                    config_.slot_minutes);
  }
  [[nodiscard]] std::size_t NumSlots() const noexcept {
    return static_cast<std::size_t>(kMinutesPerDay / config_.slot_minutes);
  }
  /// Reclassifies a unit and, if it is diurnal, recomputes its
  /// active-slot mask (lazy, on decision).
  void RefreshMask(UnitId unit) const;

  HybridHistogramPolicy hybrid_;
  DiurnalConfig config_;
  /// Per unit: invocation counts per day slot.
  std::vector<std::vector<std::uint64_t>> day_profile_;
  /// Per unit: the same counts in descending order, and their sum. The
  /// diurnal test reads only these, so it needs no sort.
  std::vector<std::vector<std::uint64_t>> ranked_profile_;
  std::vector<std::uint64_t> profile_total_;
  mutable std::vector<std::vector<bool>> active_mask_;
  mutable std::vector<bool> mask_valid_;
  mutable std::vector<bool> is_diurnal_;
};

}  // namespace defuse::policy
