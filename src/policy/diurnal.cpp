#include "policy/diurnal.hpp"

#include <algorithm>
#include <cassert>
#include <functional>
#include <numeric>

namespace defuse::policy {

DiurnalPolicy::DiurnalPolicy(graph::UnitMap units, DiurnalConfig config)
    : hybrid_(std::move(units), config.hybrid), config_(config) {
  assert(kMinutesPerDay % config_.slot_minutes == 0);
  const auto n = hybrid_.unit_map().num_units();
  day_profile_.assign(n, std::vector<std::uint64_t>(NumSlots(), 0));
  ranked_profile_ = day_profile_;
  profile_total_.assign(n, 0);
  active_mask_.assign(n, std::vector<bool>(NumSlots(), false));
  mask_valid_.assign(n, false);
  is_diurnal_.assign(n, false);
}

void DiurnalPolicy::SeedDayProfile(UnitId unit, Minute invocation_minute) {
  std::uint64_t& count = day_profile_[unit.value()][SlotOf(invocation_minute)];
  // Bump the first ranked entry equal to the old count: every entry
  // before it is larger, so the list stays in descending order.
  auto& ranked = ranked_profile_[unit.value()];
  ++*std::lower_bound(ranked.begin(), ranked.end(), count, std::greater<>{});
  ++count;
  ++profile_total_[unit.value()];
  mask_valid_[unit.value()] = false;
}

void DiurnalPolicy::ObserveIdleTime(UnitId unit, MinuteDelta gap) {
  hybrid_.ObserveIdleTime(unit, gap);
}

void DiurnalPolicy::RefreshMask(UnitId unit) const {
  if (mask_valid_[unit.value()]) return;
  mask_valid_[unit.value()] = true;
  auto& mask = active_mask_[unit.value()];
  std::fill(mask.begin(), mask.end(), false);
  is_diurnal_[unit.value()] = false;
  const std::uint64_t total = profile_total_[unit.value()];
  if (total < config_.min_observations) return;

  // Take slots in descending count until `concentration` of the mass is
  // covered; the unit is diurnal if that needs at most
  // active_slot_fraction of the slots. Only the counts matter here, and
  // ranked_profile_ holds them in that order.
  const double needed = config_.concentration * static_cast<double>(total);
  std::uint64_t covered = 0;
  std::size_t used = 0;
  for (const std::uint64_t count : ranked_profile_[unit.value()]) {
    if (static_cast<double>(covered) >= needed || count == 0) break;
    covered += count;
    ++used;
  }
  const std::size_t slots = mask.size();
  is_diurnal_[unit.value()] =
      static_cast<double>(covered) >= needed &&
      static_cast<double>(used) <=
          config_.active_slot_fraction * static_cast<double>(slots);
  if (!is_diurnal_[unit.value()]) return;

  // Which of several tied slots become active is the order std::sort
  // leaves them in. That order is unspecified and differs between
  // standard libraries, but it is what the published outputs use, so
  // the mask keeps this sort rather than a stable one.
  const auto& profile = day_profile_[unit.value()];
  std::vector<std::size_t> order(slots);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return profile[a] > profile[b];
  });
  for (std::size_t i = 0; i < used; ++i) mask[order[i]] = true;
}

bool DiurnalPolicy::IsDiurnalUnit(UnitId unit) const {
  RefreshMask(unit);
  return is_diurnal_[unit.value()];
}

bool DiurnalPolicy::SlotActive(UnitId unit, Minute minute_of_day) const {
  RefreshMask(unit);
  return active_mask_[unit.value()][SlotOf(minute_of_day)];
}

policy::UnitDecision DiurnalPolicy::OnInvocation(UnitId unit, Minute now) {
  SeedDayProfile(unit, now);  // the profile keeps learning online
  if (!IsDiurnalUnit(unit)) return hybrid_.OnInvocation(unit, now);

  const auto& mask = active_mask_[unit.value()];
  const std::size_t slots = NumSlots();
  const std::size_t current = SlotOf(now);

  // Stay resident until the end of the current active run (or just the
  // current slot when invoked in a nominally inactive one).
  Minute resident_until =
      (static_cast<Minute>(current) + 1) * config_.slot_minutes +
      (now / kMinutesPerDay) * kMinutesPerDay;
  std::size_t walk = current;
  while (mask[(walk + 1) % slots] && walk - current < slots) {
    ++walk;
    resident_until += config_.slot_minutes;
  }

  // Find the next active slot after the residency ends.
  std::size_t gap_slots = 0;
  std::size_t probe = (walk + 1) % slots;
  while (!mask[probe] && gap_slots <= slots) {
    probe = (probe + 1) % slots;
    ++gap_slots;
  }

  const MinuteDelta remaining_run =
      std::max<MinuteDelta>(resident_until - now, 1);
  policy::UnitDecision decision;
  if (gap_slots == 0 || gap_slots > slots) {
    // Degenerate mask (all slots active): plain keep-alive to run end.
    decision.prewarm = 0;
    decision.keepalive = remaining_run;
    return decision;
  }
  // Linger through the rest of today's active run, evict across the
  // inactive gap, and return `lead` minutes before the next active slot.
  const MinuteDelta until_next =
      remaining_run +
      static_cast<MinuteDelta>(gap_slots) * config_.slot_minutes;
  decision.linger = remaining_run;
  decision.prewarm =
      std::max<MinuteDelta>(until_next - config_.lead, remaining_run + 1);
  decision.keepalive = config_.lead + config_.slot_minutes;
  return decision;
}

}  // namespace defuse::policy
