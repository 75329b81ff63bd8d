// Online FaaS platform engine — Defuse in its deployment form.
//
// The simulators replay a fixed trace; this engine is the shape a real
// integration takes (paper §VII): invocations arrive one by one through
// Invoke(), the dependency miner runs as a periodic background daemon
// over a sliding history window, and the scheduler's dependency sets are
// swapped live — *without* evicting what is already resident. It is the
// tree's one sliding-window re-mining path (`defuse replay` and `defuse
// serve` both drive it); each fresh scheduler is built and seeded by the
// same core:: factories the offline experiments use.
//
//   platform::Platform p{model, config};
//   for (each request in arrival order) {
//     auto outcome = p.Invoke(fn, minute);   // outcome.cold on miss
//   }
//
// Residency is tracked per function as at most two half-open windows
// (the active keep-alive window and a scheduled pre-warm window), which
// a unit-level decision stamps onto every member of the invoked
// dependency set. Invocations must arrive with non-decreasing minutes.
#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <vector>

#include "common/retry.hpp"
#include "common/thread_pool.hpp"
#include "core/defuse.hpp"
#include "faults/injector.hpp"
#include "policy/hybrid.hpp"
#include "stats/histogram.hpp"
#include "trace/invocation_trace.hpp"
#include "trace/model.hpp"

namespace defuse::platform {

struct PlatformConfig {
  /// Total operating horizon (bounds the internal history buffer).
  MinuteDelta horizon = 30 * kMinutesPerDay;
  /// Background re-mining cadence and window (paper §VII: daily).
  MinuteDelta remine_interval = kMinutesPerDay;
  MinuteDelta mining_window = 4 * kMinutesPerDay;
  /// Until the first re-mine fires there are no mined sets; functions
  /// are scheduled individually.
  core::DefuseConfig mining;
  policy::HybridConfig policy;
  /// Mining degradation budget: a re-mine whose window holds more active
  /// (function, minute) cells than this (core::EstimateMiningTransactions)
  /// degrades to weak-deps-only, or keeps the previous sets when weak
  /// mining is off too. 0 = unlimited.
  std::uint64_t max_mining_transactions = 0;
  /// Bounded retry for the pre-warm container spawn path (only exercised
  /// when a fault injector makes spawns fail).
  RetryPolicy prewarm_retry;
  /// Run re-mines off-path on a background thread: RemineNow snapshots
  /// the history window, mines it on a dedicated worker, and the result
  /// swaps in atomically at a later Invoke/AdvanceTo — invocations keep
  /// flowing while the miner runs. Because arrivals are monotonic, the
  /// snapshot holds exactly the events a serial re-mine at the same
  /// boundary would see, so the *mined dependency sets* are bit-identical
  /// to serial mode; scheduling stats can differ (invocations served
  /// between submit and swap are decided under the previous sets). Off
  /// by default: serial mode keeps golden replays bit-identical.
  bool async_remine = false;
};

struct InvocationOutcome {
  bool cold = false;
  /// The dependency set the function currently belongs to.
  UnitId unit;
};

struct PlatformStats {
  std::uint64_t invocations = 0;
  std::uint64_t cold_invocations = 0;
  /// Re-mine attempts (scheduled + forced), degraded ones included.
  std::uint64_t remines = 0;
  /// Re-mines that did not produce a full-strength fresh graph: injected
  /// mining failures and blown transaction budgets. Subset of `remines`.
  std::uint64_t degraded_remines = 0;
  /// Scheduled cadence minutes served by a stale graph: every re-mine
  /// that kept the previous sets adds one `remine_interval`.
  MinuteDelta stale_graph_minutes = 0;
  /// Pre-warm container spawn attempts that failed (each retry that
  /// fails counts once).
  std::uint64_t prewarm_spawn_failures = 0;
  /// Pre-warm windows abandoned after exhausting the spawn retry budget.
  std::uint64_t prewarm_spawns_abandoned = 0;
  /// Scheduled re-mine boundaries that fell due while the platform was
  /// not advancing (daemon offline, long gap between invocations) and
  /// were collapsed into the single catch-up re-mine that fired when
  /// time resumed. Each skipped boundary counts once; the catch-up
  /// re-mine itself counts in `remines` as usual.
  std::uint64_t catchup_remines_skipped = 0;

  [[nodiscard]] double cold_fraction() const {
    return invocations == 0 ? 0.0
                            : static_cast<double>(cold_invocations) /
                                  static_cast<double>(invocations);
  }

  friend bool operator==(const PlatformStats&,
                         const PlatformStats&) noexcept = default;
};

class Platform {
 public:
  Platform(trace::WorkloadModel model, PlatformConfig config = {});

  /// Serves one invocation. `now` must be >= the previous call's `now`.
  InvocationOutcome Invoke(FunctionId fn, Minute now);

  /// Advances the clock to `now` without an invocation, firing any
  /// scheduled re-mines that fall due. Same monotonic contract as
  /// Invoke; replaying the same heartbeat is deterministic.
  void AdvanceTo(Minute now);

  /// Number of functions resident at `now` (>= the last Invoke minute).
  [[nodiscard]] std::size_t ResidentFunctions(Minute now) const;

  [[nodiscard]] const PlatformStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const PlatformConfig& config() const noexcept {
    return config_;
  }
  /// Minute of the most recent Invoke/AdvanceTo (0 before the first).
  [[nodiscard]] Minute last_invocation_minute() const noexcept {
    return last_now_;
  }
  /// Per-function cold / total counters (indexed by FunctionId).
  [[nodiscard]] const std::vector<std::uint64_t>& function_invocations()
      const noexcept {
    return fn_invocations_;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& function_cold()
      const noexcept {
    return fn_cold_;
  }
  /// The current dependency sets (singletons until the first re-mine).
  [[nodiscard]] const graph::UnitMap& units() const noexcept { return *units_; }
  /// Forces a re-mine over [now - mining_window, now). In serial mode
  /// (the default) it completes before returning; with
  /// `config.async_remine` it is submitted to the background worker and
  /// the fresh sets swap in at a later Invoke/AdvanceTo (any re-mine
  /// already in flight is adopted first, so forced re-mines never pile
  /// up).
  void RemineNow(Minute now);

  /// True while a background re-mine is running (always false in serial
  /// mode).
  [[nodiscard]] bool remine_in_flight() const noexcept {
    return remine_future_.valid();
  }
  /// Blocks until any in-flight background re-mine has completed and
  /// swaps its result in. A deterministic barrier for tests and the
  /// drain path; no-op when nothing is in flight.
  void FinishPendingRemine() { PollAsyncRemine(/*wait=*/true); }

  /// Background re-mine bookkeeping. Deliberately NOT part of
  /// PlatformStats (and not persisted): it describes *how* re-mines ran,
  /// not what the scheduler did, and keeping it out preserves the v3
  /// state format.
  struct AsyncRemineBooks {
    /// Re-mines submitted to the background worker.
    std::uint64_t started = 0;
    /// Background results adopted as a fresh graph.
    std::uint64_t swapped = 0;
    /// Background mines that failed; the previous sets were kept.
    std::uint64_t kept_stale = 0;
    /// Scheduled boundaries that fell due while a background re-mine was
    /// still running and were deferred to the catch-up logic.
    std::uint64_t boundaries_deferred = 0;
  };
  [[nodiscard]] const AsyncRemineBooks& async_remine_books() const noexcept {
    return async_books_;
  }

  /// Delta-mining bookkeeping (nullptr when `config.mining.delta` is
  /// off). Like AsyncRemineBooks, not part of PlatformStats and not
  /// persisted: stats and SaveState stay byte-identical with delta
  /// mining on or off.
  [[nodiscard]] const mining::DeltaAccumulator* delta_accumulator()
      const noexcept {
    return delta_.get();
  }

  /// Attaches (or detaches, with nullptr) a fault injector. Not owned;
  /// must outlive the platform. With none attached — or a disabled one —
  /// behavior is bit-identical to a fault-free run.
  void set_fault_injector(faults::FaultInjector* injector) noexcept {
    fault_injector_ = injector;
  }
  [[nodiscard]] faults::FaultInjector* fault_injector() const noexcept {
    return fault_injector_;
  }

  /// Serializes the engine's full state (invocation history, dependency
  /// sets, learned histograms, residency windows, counters) so a
  /// scheduler daemon can restart without relearning. Restore with
  /// LoadState on a Platform constructed with the same model and config.
  [[nodiscard]] std::string SaveState() const;
  /// SaveState plus, when delta mining is on, the streaming-accumulator
  /// section under a v4 header — the checkpoint form DurableState writes,
  /// so recovery resumes mid-delta without replaying full history. With
  /// delta mining off this IS SaveState (v3), byte for byte.
  [[nodiscard]] std::string SaveDurableState() const;
  /// Restores SaveState/SaveDurableState output (v1-v4). Returns false on
  /// malformed input or a model/config mismatch — and in that case the
  /// platform's live state is left exactly as it was (every section is
  /// parsed and validated into a staging area first, then committed in
  /// one step), so a recovery ladder can fall through to an older
  /// snapshot on the same instance. A v4 accumulator section that is torn
  /// or corrupt does NOT fail the load: the platform state is accepted
  /// and the accumulator is rebuilt from the restored history (booked in
  /// DeltaAccumulator::Books::torn_snapshot_loads).
  [[nodiscard]] bool LoadState(std::string_view text);

 private:
  struct Residency {
    // Two half-open windows: the live keep-alive and a scheduled
    // pre-warm. Generations are implicit: stamping a new decision
    // overwrites both.
    Minute warm_begin = 0, warm_end = 0;      // [begin, end)
    Minute prewarm_begin = 0, prewarm_end = 0;

    [[nodiscard]] bool ResidentAt(Minute t) const noexcept {
      return (t >= warm_begin && t < warm_end) ||
             (t >= prewarm_begin && t < prewarm_end);
    }
  };

  /// Result of mining one window, ready to swap into the live scheduler.
  /// Built either inline (serial mode) or on the background worker.
  struct MinedSwap {
    bool mined_ok = false;
    std::unique_ptr<graph::UnitMap> units;          // engaged when mined_ok
    std::vector<stats::Histogram> histograms;     // per unit, same order
    /// Boundary bookkeeping carried from submit to adoption (the async
    /// path adopts at a later Invoke, so it cannot read live members).
    TimeRange window{0, 0};
    /// Cadence intervals this mine covers: 1 normally, 1 + skipped for a
    /// collapsed catch-up — a failure must book ALL covered intervals as
    /// stale, not one.
    std::uint64_t catchup_intervals = 1;
    /// Whether the delta accumulator took part (drives Commit/Abandon).
    bool delta = false;
    /// Whether this mine was a full-rebuild anchor.
    bool anchored = false;
  };

  void MaybeRemine(Minute now);
  void ApplyDecision(UnitId unit, Minute now);
  /// Books a degraded re-mine that keeps the previous sets serving for
  /// `intervals` scheduled cadence intervals (1 normally; a collapsed
  /// catch-up re-mine covers 1 + skipped boundaries).
  void KeepStaleGraph(std::uint64_t intervals);
  /// Mines `window` of `history` into a swappable result; `delta_input`
  /// (may be nullptr) carries pre-accumulated mining input. Pure with
  /// respect to mutable platform state (reads only model_ and config_),
  /// so it is safe on the background worker while invokes flow.
  [[nodiscard]] MinedSwap MineWindow(
      const trace::InvocationTrace& history, TimeRange window,
      const core::DefuseConfig& mining,
      const mining::DeltaMiningInput* delta_input) const;
  /// Installs a mined result as the live scheduler (or books a stale
  /// graph when mining failed). Commits/rolls back the delta accumulator
  /// per the swap's tags. Platform thread only.
  void AdoptMinedSwap(MinedSwap swap);
  /// Copies the events of [0, end) into a standalone trace the
  /// background miner can read while history_ keeps growing.
  [[nodiscard]] trace::InvocationTrace SnapshotHistory(Minute end) const;
  /// Submits a background re-mine of `window`. `snapshot` holds the
  /// events the miner reads (full history in snapshot mode, just the
  /// window in delta mode) and `delta_input` the pre-accumulated input
  /// (has_* flags false when unused).
  void StartAsyncRemine(TimeRange window, core::DefuseConfig mining,
                        trace::InvocationTrace snapshot,
                        mining::DeltaMiningInput delta_input,
                        std::uint64_t catchup_intervals, bool anchored);
  /// Adopts a finished background re-mine; with `wait` blocks for it.
  void PollAsyncRemine(bool wait);
  /// Rebuilds the delta accumulator from the (restored) history so the
  /// next mine runs as a full-rebuild anchor.
  void ResetDeltaFromHistory();

  trace::WorkloadModel model_;
  PlatformConfig config_;
  trace::InvocationTrace history_;
  std::unique_ptr<graph::UnitMap> units_;
  std::unique_ptr<policy::HybridHistogramPolicy> policy_;
  std::vector<Residency> residency_;        // per function
  std::vector<Minute> unit_last_invoked_;   // per current unit
  std::vector<bool> unit_cold_this_minute_;  // per current unit
  std::vector<std::uint64_t> fn_invocations_;
  std::vector<std::uint64_t> fn_cold_;
  PlatformStats stats_;
  Minute next_remine_;
  Minute last_now_ = 0;
  faults::FaultInjector* fault_injector_ = nullptr;  // not owned
  AsyncRemineBooks async_books_;
  /// Streaming re-mine accumulators; engaged iff config.mining.delta.
  std::unique_ptr<mining::DeltaAccumulator> delta_;
  /// Cadence intervals the next RemineNow covers (set by MaybeRemine's
  /// catch-up collapse, consumed by RemineNow; 1 otherwise).
  std::uint64_t pending_catchup_intervals_ = 1;
  /// Boundary currently deferred behind an in-flight re-mine (so each
  /// deferral is booked once, not once per invocation).
  Minute last_deferred_boundary_ = -1;
  /// Threading discipline (DESIGN.md §16): the platform itself is
  /// single-threaded — every member above is touched only by the thread
  /// calling Invoke/Tick. The async re-mine worker receives its inputs
  /// by value at submit time, writes only into its own MinedSwap, and
  /// hands it back through this future; the main thread adopts the swap
  /// on a later Invoke. The future IS the synchronization — there are
  /// deliberately no mutexes here (lock-free handoff), which is what
  /// keeps async output bit-identical to the serial path.
  std::future<MinedSwap> remine_future_;
  /// Lazily created on the first async re-mine. Declared last so its
  /// destructor joins the worker before any member the task reads
  /// (model_, config_) is torn down.
  std::unique_ptr<ThreadPool> remine_pool_;
};

}  // namespace defuse::platform
