#include "platform/platform.hpp"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <chrono>
#include <span>
#include <unordered_map>
#include <utility>

#include "common/logging.hpp"
#include "graph/serialization.hpp"
#include "trace/azure_csv.hpp"

namespace defuse::platform {

Platform::Platform(trace::WorkloadModel model, PlatformConfig config)
    : model_(std::move(model)),
      config_(config),
      history_(model_.num_functions(), TimeRange{0, config.horizon}),
      residency_(model_.num_functions()),
      fn_invocations_(model_.num_functions(), 0),
      fn_cold_(model_.num_functions(), 0),
      next_remine_(config.remine_interval) {
  assert(config_.horizon >= 1);
  assert(config_.remine_interval >= 1);
  assert(config_.mining_window >= 1);
  // Bootstrap: every function is its own unit until the first re-mine.
  units_ = std::make_unique<graph::UnitMap>(
      graph::UnitMap::PerFunction(model_.num_functions()));
  policy_ = std::make_unique<policy::HybridHistogramPolicy>(*units_,
                                                            config_.policy);
  unit_last_invoked_.assign(units_->num_units(), -1);
  unit_cold_this_minute_.assign(units_->num_units(), false);
  if (config_.mining.delta.enabled) {
    delta_ = std::make_unique<mining::DeltaAccumulator>(
        model_, config_.mining.delta, config_.mining.window_minutes);
  }
}

void Platform::MaybeRemine(Minute now) {
  // Adopt a finished background re-mine before anything else, so the
  // freshest graph decides this invocation when the miner has already
  // landed.
  PollAsyncRemine(/*wait=*/false);
  if (now < next_remine_) return;
  if (remine_future_.valid()) {
    // A background re-mine is still running; defer this boundary. Once
    // the result swaps in, the normal catch-up collapse below serves
    // every boundary that queued up behind it with one re-mine.
    if (next_remine_ != last_deferred_boundary_) {
      last_deferred_boundary_ = next_remine_;
      ++async_books_.boundaries_deferred;
    }
    return;
  }
  // Collapse every boundary that fell due while time was not advancing
  // (daemon offline, long invocation gap) into ONE re-mine at the latest
  // due boundary. Firing a full re-mine per elapsed interval would burn
  // a mining pass per offline day just to overwrite each result with the
  // next — and each pass would see the same history anyway. In the
  // normal cadence (one boundary due) this is exactly the old behavior.
  const std::uint64_t skipped = static_cast<std::uint64_t>(
      (now - next_remine_) / config_.remine_interval);
  const Minute due =
      next_remine_ +
      static_cast<Minute>(skipped) * config_.remine_interval;
  if (skipped > 0) {
    stats_.catchup_remines_skipped += skipped;
    DEFUSE_LOG_WARN << "platform: " << skipped
                    << " re-mine boundaries elapsed unserved before minute "
                    << now << "; collapsing into one catch-up re-mine at "
                    << due;
  }
  // The collapsed catch-up serves 1 + skipped cadence intervals with one
  // mine; should that mine degrade, ALL of them ran on the stale graph,
  // so the interval count rides along to KeepStaleGraph.
  pending_catchup_intervals_ = skipped + 1;
  RemineNow(due);
  next_remine_ = due + config_.remine_interval;
}

void Platform::KeepStaleGraph(std::uint64_t intervals) {
  // Stale-but-safe: units_, policy_, and the per-unit invocation state
  // keep serving untouched (bootstrap singletons when no re-mine has
  // succeeded yet). Only the books move.
  ++stats_.remines;
  ++stats_.degraded_remines;
  stats_.stale_graph_minutes +=
      static_cast<MinuteDelta>(intervals) * config_.remine_interval;
}

void Platform::RemineNow(Minute now) {
  // Never stack re-mines: adopt any in-flight background result first,
  // so the fault/budget draws below happen in submission order — the
  // property that keeps seeded chaos runs reproducible.
  PollAsyncRemine(/*wait=*/true);
  history_.Finalize();
  const TimeRange window{
      std::max<Minute>(0, now - config_.mining_window), now};
  const std::uint64_t intervals =
      std::exchange(pending_catchup_intervals_, std::uint64_t{1});

  // Degradation ladder. An injected fault (simulated FP-Growth budget
  // exhaustion / mining deadline exceeded) kills the whole re-mine; a
  // blown transaction budget first retries weak-deps-only (no FP-Growth
  // pass) before giving up on a fresh graph entirely. Drawn on the
  // calling thread in both serial and async mode, before any snapshot —
  // and before any delta-accumulator mutation, which is what makes the
  // rollback-on-degrade invariant hold trivially on this path: a kept
  // stale graph leaves the accumulators at the last-good boundary.
  core::DefuseConfig mining_config = config_.mining;
  if (fault_injector_ != nullptr &&
      fault_injector_->ShouldFail(faults::FaultSite::kRemine)) {
    DEFUSE_LOG_WARN << "platform: re-mine at minute " << now << " failed ("
                    << fault_injector_->MiningFailure().ToString()
                    << "); keeping previous dependency sets";
    KeepStaleGraph(intervals);
    if (delta_ != nullptr) delta_->Abandon();
    return;
  }
  if (config_.max_mining_transactions > 0 &&
      core::EstimateMiningTransactions(history_, window) >
          config_.max_mining_transactions) {
    if (mining_config.use_strong && mining_config.use_weak) {
      DEFUSE_LOG_WARN << "platform: mining budget exceeded at minute " << now
                      << "; degrading to weak-deps-only";
      mining_config.use_strong = false;
      ++stats_.degraded_remines;  // fresh graph, but not full strength
    } else {
      DEFUSE_LOG_WARN << "platform: mining budget exceeded at minute " << now
                      << "; keeping previous dependency sets";
      KeepStaleGraph(intervals);
      if (delta_ != nullptr) delta_->Abandon();
      return;
    }
  }

  if (delta_ == nullptr) {
    if (config_.async_remine) {
      StartAsyncRemine(window, mining_config, SnapshotHistory(window.end),
                       mining::DeltaMiningInput{}, intervals,
                       /*anchored=*/false);
      return;
    }
    MinedSwap swap = MineWindow(history_, window, mining_config, nullptr);
    swap.window = window;
    swap.catchup_intervals = intervals;
    AdoptMinedSwap(std::move(swap));
    return;
  }

  // Delta path. An injected window skew (accumulator boundary drifted
  // from the platform's mine boundary) is recovered, not served: the
  // accumulator is rebuilt from the live history and the mine runs as a
  // full-rebuild anchor — bit-identical output, O(full) cost this once.
  bool anchored = delta_->FullRebuildDue();
  if (fault_injector_ != nullptr &&
      fault_injector_->ShouldFail(faults::FaultSite::kDeltaWindowSkew)) {
    DEFUSE_LOG_WARN << "platform: delta-mine window skew injected at minute "
                    << now << "; rebuilding accumulators from history";
    ++delta_->books().skew_rebuilds;
    anchored = true;
  }
  mining::DeltaMiningInput input;
  if (anchored) {
    delta_->RebuildFromTrace(history_, window.begin);
  } else {
    // Seal the new events, evict what the window slid past, and export
    // the accumulated input. Eviction before the mine is safe even if
    // the mine later degrades: boundaries are monotonic, so no future
    // window can reach below this window.begin.
    delta_->SealTo(window.end);
    delta_->EvictTo(window.begin);
    input = delta_->BuildInput(window);
  }
  trace::InvocationTrace window_trace =
      delta_->MaterializeWindow(window, TimeRange{0, config_.horizon});
  if (config_.async_remine) {
    StartAsyncRemine(window, mining_config, std::move(window_trace),
                     std::move(input), intervals, anchored);
    return;
  }
  MinedSwap swap = MineWindow(
      window_trace, window, mining_config,
      (input.has_transactions || input.has_cooc) ? &input : nullptr);
  swap.window = window;
  swap.catchup_intervals = intervals;
  swap.delta = true;
  swap.anchored = anchored;
  AdoptMinedSwap(std::move(swap));
}

Platform::MinedSwap Platform::MineWindow(
    const trace::InvocationTrace& history, TimeRange window,
    const core::DefuseConfig& mining_config,
    const mining::DeltaMiningInput* delta_input) const {
  MinedSwap swap;
  auto mined =
      core::MineDependencies(history, model_, window, mining_config,
                             delta_input);
  if (!mined.ok()) {
    DEFUSE_LOG_WARN << "platform: re-mine at minute " << window.end
                    << " rejected (" << mined.error().ToString()
                    << "); keeping previous dependency sets";
    return swap;
  }
  const auto mining = std::move(mined).value();
  swap.units = std::make_unique<graph::UnitMap>(
      graph::UnitMap::FromDependencySets(mining.sets,
                                       model_.num_functions()));
  // Seed histograms for the fresh per-set units from the same window.
  swap.histograms =
      core::TrainingHistograms(history, *swap.units, window, config_.policy);
  swap.mined_ok = true;
  return swap;
}

void Platform::AdoptMinedSwap(MinedSwap swap) {
  if (!swap.mined_ok) {
    KeepStaleGraph(swap.catchup_intervals);
    // Roll the accumulators back to the last-good boundary: nothing
    // committed, so the next mine folds this window's events into its
    // own delta instead of building on a half-adopted one.
    if (swap.delta && delta_ != nullptr) delta_->Abandon();
    return;
  }
  units_ = std::move(swap.units);
  // Residency windows are per function and survive untouched: nothing
  // warm is evicted by a re-mine.
  policy_ = core::MakeSeededScheduler(*units_, swap.histograms,
                                      config_.policy);
  unit_last_invoked_.assign(units_->num_units(), -1);
  unit_cold_this_minute_.assign(units_->num_units(), false);
  ++stats_.remines;
  if (swap.delta && delta_ != nullptr) {
    delta_->Commit(swap.window.end, swap.anchored);
  }
}

trace::InvocationTrace Platform::SnapshotHistory(Minute end) const {
  trace::InvocationTrace snapshot{model_.num_functions(),
                                  TimeRange{0, config_.horizon}};
  const TimeRange range{0, end};
  for (std::size_t f = 0; f < model_.num_functions(); ++f) {
    const FunctionId fn{static_cast<std::uint32_t>(f)};
    for (const auto& e : history_.SeriesInRange(fn, range)) {
      snapshot.Add(fn, e.minute, e.count);
    }
  }
  snapshot.Finalize();
  return snapshot;
}

void Platform::StartAsyncRemine(TimeRange window,
                                core::DefuseConfig mining_config,
                                trace::InvocationTrace snapshot,
                                mining::DeltaMiningInput delta_input,
                                std::uint64_t catchup_intervals,
                                bool anchored) {
  if (remine_pool_ == nullptr) {
    remine_pool_ = std::make_unique<ThreadPool>(1);
  }
  ++async_books_.started;
  const bool is_delta = delta_ != nullptr;
  // Arrivals are monotonic, so every event the serial re-mine would see
  // in [window.begin, window.end) is already captured in `snapshot` (the
  // full history in snapshot mode, the accumulator's window in delta
  // mode); either way the background miner's view is exactly the serial
  // miner's and the mined sets come out bit-identical. The task reads
  // only closure-owned state plus model_/config_, which never change
  // after construction; remine_pool_ is the last member, so destruction
  // joins the task before either is torn down. In delta mode the
  // accumulator itself stays on the platform thread — only this
  // self-contained copy crosses; Commit/Abandon happen at adoption.
  remine_future_ = remine_pool_->Submit(
      [this, snapshot = std::move(snapshot), window, mining_config,
       input = std::move(delta_input), catchup_intervals, is_delta,
       anchored]() -> MinedSwap {
        MinedSwap swap = MineWindow(
            snapshot, window, mining_config,
            (input.has_transactions || input.has_cooc) ? &input : nullptr);
        swap.window = window;
        swap.catchup_intervals = catchup_intervals;
        swap.delta = is_delta;
        swap.anchored = anchored;
        return swap;
      });
}

void Platform::PollAsyncRemine(bool wait) {
  if (!remine_future_.valid()) return;
  if (!wait && remine_future_.wait_for(std::chrono::seconds{0}) !=
                   std::future_status::ready) {
    return;
  }
  MinedSwap swap = remine_future_.get();  // invalidates the future
  const bool ok = swap.mined_ok;
  AdoptMinedSwap(std::move(swap));
  if (ok) {
    ++async_books_.swapped;
  } else {
    ++async_books_.kept_stale;
  }
}

void Platform::ApplyDecision(UnitId unit, Minute now) {
  policy::UnitDecision decision = policy_->OnInvocation(unit, now);
  if (decision.prewarm <= decision.linger) {
    decision.keepalive = std::max(decision.linger,
                                  decision.prewarm + decision.keepalive);
    decision.prewarm = 0;
  }

  // A pre-warm window needs a fresh container spawned at prewarm_begin
  // (the warm window's container is already running, so only the
  // speculative spawn can fail). Spawn failures are retried with bounded
  // backoff; each backoff minute pushes the window later, and exhausting
  // the retry budget abandons the window — the unit just risks a cold
  // start at its next invocation, it never crashes.
  MinuteDelta spawn_delay = 0;
  bool spawn_ok = true;
  if (decision.prewarm > 0 && fault_injector_ != nullptr) {
    const RetryOutcome outcome = RetryWithBackoff(
        config_.prewarm_retry,
        [&] {
          return !fault_injector_->ShouldFail(faults::FaultSite::kPrewarmSpawn);
        },
        [&](MinuteDelta backoff) { spawn_delay += backoff; });
    stats_.prewarm_spawn_failures += static_cast<std::uint64_t>(
        outcome.attempts - (outcome.succeeded ? 1 : 0));
    if (!outcome.succeeded) {
      spawn_ok = false;
      ++stats_.prewarm_spawns_abandoned;
    }
  }

  for (const FunctionId fn : units_->functions_of(unit)) {
    Residency& r = residency_[fn.value()];
    if (decision.prewarm == 0) {
      r.warm_begin = now;
      r.warm_end = now + std::max<MinuteDelta>(decision.keepalive, 1);
      r.prewarm_begin = r.prewarm_end = 0;
    } else {
      r.warm_begin = now;
      r.warm_end = now + std::max<MinuteDelta>(decision.linger, 1);
      if (spawn_ok) {
        r.prewarm_begin = now + decision.prewarm + spawn_delay;
        r.prewarm_end = r.prewarm_begin +
                        std::max<MinuteDelta>(decision.keepalive, 1);
      } else {
        r.prewarm_begin = r.prewarm_end = 0;
      }
    }
  }
}

void Platform::AdvanceTo(Minute now) {
  assert(now >= last_now_ && "time must not run backwards");
  assert(now < config_.horizon);
  last_now_ = now;
  MaybeRemine(now);
}

InvocationOutcome Platform::Invoke(FunctionId fn, Minute now) {
  assert(fn.value() < model_.num_functions());
  assert(now >= last_now_ && "invocations must arrive in time order");
  assert(now < config_.horizon);
  last_now_ = now;
  MaybeRemine(now);

  history_.Add(fn, now);
  if (delta_ != nullptr) delta_->Ingest(fn, now);
  ++fn_invocations_[fn.value()];
  ++stats_.invocations;

  const UnitId unit = units_->unit_of(fn);
  InvocationOutcome outcome;
  outcome.unit = unit;

  // Unit-level warm/cold resolution, once per minute (as in the
  // simulator): the first member invocation this minute decides, and
  // members arriving later in the same minute share that resolution
  // (they are part of the batch the cold load serves).
  if (unit_last_invoked_[unit.value()] != now) {
    const Minute prev = unit_last_invoked_[unit.value()];
    outcome.cold = !residency_[fn.value()].ResidentAt(now);
    if (prev >= 0) policy_->ObserveIdleTime(unit, now - prev);
    unit_last_invoked_[unit.value()] = now;
    unit_cold_this_minute_[unit.value()] = outcome.cold;
    ApplyDecision(unit, now);
  } else {
    outcome.cold = unit_cold_this_minute_[unit.value()];
  }
  if (outcome.cold) {
    ++fn_cold_[fn.value()];
    ++stats_.cold_invocations;
  }
  return outcome;
}

namespace {

// v2 widened the meta line from 5 to 9 fields (degradation counters);
// v3 appends a 10th (catch-up re-mine skips); v4 keeps the v3 layout and
// appends a trailing [delta] section holding the streaming-accumulator
// snapshot. Older states are still accepted, their missing counters
// default to zero and a missing [delta] section rebuilds from history.
// SaveState always emits v3 — the v4 form is the durable-checkpoint
// shape only (SaveDurableState), so snapshots served over the wire stay
// byte-identical with delta mining on or off.
constexpr std::string_view kStateHeader = "defuse-platform-state-v3";
constexpr std::string_view kStateHeaderV4 = "defuse-platform-state-v4";
constexpr std::string_view kStateHeaderV2 = "defuse-platform-state-v2";
constexpr std::string_view kStateHeaderV1 = "defuse-platform-state-v1";

bool ParseI64Fields(std::string_view line, std::span<std::int64_t> out) {
  std::size_t field = 0;
  std::size_t pos = 0;
  while (field < out.size()) {
    const std::size_t comma = line.find(',', pos);
    const std::string_view token =
        line.substr(pos, comma == std::string_view::npos ? std::string_view::npos
                                                         : comma - pos);
    const auto [ptr, ec] = std::from_chars(
        token.data(), token.data() + token.size(), out[field]);
    if (ec != std::errc{} || ptr != token.data() + token.size()) return false;
    ++field;
    if (comma == std::string_view::npos) break;
    pos = comma + 1;
  }
  return field == out.size();
}

}  // namespace

std::string Platform::SaveState() const {
  std::string out{kStateHeader};
  out += '\n';
  out += "meta," + std::to_string(last_now_) + ',' +
         std::to_string(next_remine_) + ',' +
         std::to_string(stats_.invocations) + ',' +
         std::to_string(stats_.cold_invocations) + ',' +
         std::to_string(stats_.remines) + ',' +
         std::to_string(stats_.degraded_remines) + ',' +
         std::to_string(stats_.stale_graph_minutes) + ',' +
         std::to_string(stats_.prewarm_spawn_failures) + ',' +
         std::to_string(stats_.prewarm_spawns_abandoned) + ',' +
         std::to_string(stats_.catchup_remines_skipped) + '\n';

  // Dependency sets (reconstructed from the live unit map).
  std::vector<graph::DependencySet> sets;
  for (std::size_t u = 0; u < units_->num_units(); ++u) {
    const auto fns =
        units_->functions_of(UnitId{static_cast<std::uint32_t>(u)});
    sets.push_back(graph::DependencySet{
        .id = static_cast<std::uint32_t>(u),
        .functions = {fns.begin(), fns.end()}});
  }
  out += "[sets]\n";
  out += graph::WriteDependencySetsCsv(sets, model_);
  out += "[histograms]\n";
  out += policy_->SerializeHistograms();
  out += "[residency]\n";
  for (std::size_t f = 0; f < residency_.size(); ++f) {
    const Residency& r = residency_[f];
    if (r.warm_end == 0 && r.prewarm_end == 0) continue;
    out += std::to_string(f) + ',' + std::to_string(r.warm_begin) + ',' +
           std::to_string(r.warm_end) + ',' +
           std::to_string(r.prewarm_begin) + ',' +
           std::to_string(r.prewarm_end) + '\n';
  }
  out += "[unit_state]\n";
  for (std::size_t u = 0; u < unit_last_invoked_.size(); ++u) {
    if (unit_last_invoked_[u] < 0) continue;
    out += std::to_string(u) + ',' + std::to_string(unit_last_invoked_[u]) +
           ',' + (unit_cold_this_minute_[u] ? "1" : "0") + '\n';
  }
  out += "[fn_counters]\n";
  for (std::size_t f = 0; f < fn_invocations_.size(); ++f) {
    if (fn_invocations_[f] == 0) continue;
    out += std::to_string(f) + ',' + std::to_string(fn_invocations_[f]) +
           ',' + std::to_string(fn_cold_[f]) + '\n';
  }
  out += "[history]\n";
  out += trace::WriteLongCsv(model_, history_);
  return out;
}

std::string Platform::SaveDurableState() const {
  if (delta_ == nullptr) return SaveState();
  std::string out = SaveState();
  // Same byte length, so the v3 body needs no re-layout.
  static_assert(kStateHeader.size() == kStateHeaderV4.size());
  out.replace(0, kStateHeaderV4.size(), kStateHeaderV4);
  out += "[delta]\n";
  std::string payload = delta_->Serialize();
  if (fault_injector_ != nullptr &&
      fault_injector_->ShouldFail(faults::FaultSite::kDeltaSnapshotTorn)) {
    // Torn accumulator write: cut the section mid-line. The platform
    // body above stays intact, so LoadState accepts the snapshot and
    // rebuilds the accumulator from the restored history.
    payload.resize(payload.size() / 2);
  }
  out += payload;
  return out;
}

bool Platform::LoadState(std::string_view text) {
  enum class Section {
    kMeta, kSets, kHistograms, kResidency, kUnitState, kFnCounters, kHistory,
    kDelta
  };
  Section section = Section::kMeta;
  std::string sets_buffer, histograms_buffer, history_buffer, delta_buffer;
  std::vector<std::string_view> residency_lines, unit_lines, counter_lines;
  std::int64_t meta[10] = {0, 0, 0, 0, 0, 0, 0, 0, 0, 0};
  bool saw_header = false, saw_meta = false;
  std::size_t meta_fields = 10;

  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    const std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (!saw_header) {
      if (line == kStateHeaderV1) {
        meta_fields = 5;  // pre-degradation-counter layout
      } else if (line == kStateHeaderV2) {
        meta_fields = 9;  // pre-catch-up-counter layout
      } else if (line != kStateHeader && line != kStateHeaderV4) {
        return false;
      }
      saw_header = true;
      continue;
    }
    if (line == "[delta]") { section = Section::kDelta; continue; }
    if (line == "[sets]") { section = Section::kSets; continue; }
    if (line == "[histograms]") { section = Section::kHistograms; continue; }
    if (line == "[residency]") { section = Section::kResidency; continue; }
    if (line == "[unit_state]") { section = Section::kUnitState; continue; }
    if (line == "[fn_counters]") { section = Section::kFnCounters; continue; }
    if (line == "[history]") { section = Section::kHistory; continue; }
    switch (section) {
      case Section::kMeta: {
        if (line.rfind("meta,", 0) != 0) return false;
        if (!ParseI64Fields(line.substr(5),
                            std::span<std::int64_t>{meta, meta_fields})) {
          return false;
        }
        saw_meta = true;
        break;
      }
      case Section::kSets: sets_buffer += line; sets_buffer += '\n'; break;
      case Section::kHistograms:
        histograms_buffer += line;
        histograms_buffer += '\n';
        break;
      case Section::kResidency: residency_lines.push_back(line); break;
      case Section::kUnitState: unit_lines.push_back(line); break;
      case Section::kFnCounters: counter_lines.push_back(line); break;
      case Section::kHistory:
        history_buffer += line;
        history_buffer += '\n';
        break;
      case Section::kDelta:
        delta_buffer += line;
        delta_buffer += '\n';
        break;
    }
  }
  if (!saw_meta) return false;

  // Stage everything below into locals: nothing live is touched until
  // every section has validated, then the whole staging area commits in
  // one step. A LoadState that returns false therefore leaves the
  // platform exactly as it was — which is what lets the recovery ladder
  // try a corrupt snapshot and then fall through to an older one on the
  // same instance.
  auto sets = graph::ReadDependencySetsCsv(sets_buffer, model_);
  if (!sets.ok()) return false;
  auto staged_units = std::make_unique<graph::UnitMap>(
      graph::UnitMap::FromDependencySets(sets.value(), model_.num_functions()));
  auto staged_policy = std::make_unique<policy::HybridHistogramPolicy>(
      *staged_units, config_.policy);
  if (!staged_policy->LoadHistograms(histograms_buffer)) return false;

  // History: the persisted trace only carries active functions; replay
  // its rows into a fresh full-width trace.
  auto history = trace::ReadLongCsv(history_buffer, config_.horizon);
  trace::InvocationTrace staged_history{model_.num_functions(),
                                        TimeRange{0, config_.horizon}};
  if (history.ok()) {
    // Match persisted functions back to the model by name. Sort-at-
    // boundary audit: this map is probed (find) only, never iterated —
    // replay order comes from the model's function vector, so hash
    // order cannot reach the staged trace.
    std::unordered_map<std::string_view, FunctionId> names;
    for (const auto& fn : model_.functions()) names.emplace(fn.name, fn.id);
    for (const auto& fn : history.value().model.functions()) {
      const auto it = names.find(fn.name);
      if (it == names.end()) return false;
      for (const auto& e : history.value().trace.series(fn.id)) {
        staged_history.Add(it->second, e.minute, e.count);
      }
    }
    staged_history.Finalize();
  } else if (!history_buffer.empty() &&
             history_buffer != "user,app,function,minute,count\n") {
    return false;
  }

  std::vector<Residency> staged_residency(model_.num_functions());
  for (const auto line : residency_lines) {
    std::int64_t fields[5];
    if (!ParseI64Fields(line, fields)) return false;
    if (fields[0] < 0 ||
        static_cast<std::size_t>(fields[0]) >= staged_residency.size()) {
      return false;
    }
    staged_residency[static_cast<std::size_t>(fields[0])] =
        Residency{.warm_begin = fields[1], .warm_end = fields[2],
                  .prewarm_begin = fields[3], .prewarm_end = fields[4]};
  }

  std::vector<Minute> staged_unit_last(staged_units->num_units(), -1);
  std::vector<bool> staged_unit_cold(staged_units->num_units(), false);
  for (const auto line : unit_lines) {
    std::int64_t fields[3];
    if (!ParseI64Fields(line, fields)) return false;
    if (fields[0] < 0 ||
        static_cast<std::size_t>(fields[0]) >= staged_unit_last.size()) {
      return false;
    }
    staged_unit_last[static_cast<std::size_t>(fields[0])] = fields[1];
    staged_unit_cold[static_cast<std::size_t>(fields[0])] = fields[2] != 0;
  }

  std::vector<std::uint64_t> staged_fn_invocations(model_.num_functions(), 0);
  std::vector<std::uint64_t> staged_fn_cold(model_.num_functions(), 0);
  for (const auto line : counter_lines) {
    std::int64_t fields[3];
    if (!ParseI64Fields(line, fields)) return false;
    if (fields[0] < 0 ||
        static_cast<std::size_t>(fields[0]) >= staged_fn_invocations.size()) {
      return false;
    }
    staged_fn_invocations[static_cast<std::size_t>(fields[0])] =
        static_cast<std::uint64_t>(fields[1]);
    staged_fn_cold[static_cast<std::size_t>(fields[0])] =
        static_cast<std::uint64_t>(fields[2]);
  }

  // Commit point: all sections accepted, swap the staging area in. A
  // background re-mine computed over the pre-load history must not swap
  // over the restored state later — wait it out and discard the result.
  if (remine_future_.valid()) (void)remine_future_.get();
  units_ = std::move(staged_units);
  policy_ = std::move(staged_policy);
  history_ = std::move(staged_history);
  residency_ = std::move(staged_residency);
  unit_last_invoked_ = std::move(staged_unit_last);
  unit_cold_this_minute_ = std::move(staged_unit_cold);
  fn_invocations_ = std::move(staged_fn_invocations);
  fn_cold_ = std::move(staged_fn_cold);
  last_now_ = meta[0];
  next_remine_ = meta[1];
  stats_.invocations = static_cast<std::uint64_t>(meta[2]);
  stats_.cold_invocations = static_cast<std::uint64_t>(meta[3]);
  stats_.remines = static_cast<std::uint64_t>(meta[4]);
  stats_.degraded_remines = static_cast<std::uint64_t>(meta[5]);
  stats_.stale_graph_minutes = meta[6];
  stats_.prewarm_spawn_failures = static_cast<std::uint64_t>(meta[7]);
  stats_.prewarm_spawns_abandoned = static_cast<std::uint64_t>(meta[8]);
  stats_.catchup_remines_skipped = static_cast<std::uint64_t>(meta[9]);
  // Accumulators always re-sync to the restored history: a serialized
  // [delta] section restores mid-delta state directly; anything else —
  // no section (v1-v3), a torn or corrupt one (rejected wholesale by
  // Deserialize, never half-applied) — rebuilds from the history just
  // committed. Quarantined histogram samples ride in the [histograms]
  // section above, untouched by either path, so no accumulator recovery
  // can silently drop them.
  if (delta_ != nullptr) {
    if (delta_buffer.empty() || !delta_->Deserialize(delta_buffer)) {
      if (!delta_buffer.empty()) {
        ++delta_->books().torn_snapshot_loads;
        DEFUSE_LOG_WARN << "platform: delta accumulator snapshot torn or "
                           "corrupt; rebuilding from restored history";
      }
      ResetDeltaFromHistory();
    }
  }
  return true;
}

void Platform::ResetDeltaFromHistory() {
  // Cover every minute the next mine's window can reach: the next
  // boundary fires at >= next_remine_, so its window begins at >=
  // next_remine_ - mining_window (EvictTo trims any excess). The clamp
  // to last_now_ keeps the monotonic-ingest contract when the cadence
  // outruns the window (remine_interval > mining_window).
  const Minute begin = std::max<Minute>(
      0, std::min(next_remine_ - config_.mining_window, last_now_));
  delta_->RebuildFromTrace(history_, begin);
}

std::size_t Platform::ResidentFunctions(Minute now) const {
  std::size_t count = 0;
  for (const Residency& r : residency_) {
    if (r.ResidentAt(now)) ++count;
  }
  return count;
}

}  // namespace defuse::platform
