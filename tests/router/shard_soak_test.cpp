// Shard-kill chaos soak for the multi-shard serving tier (the
// acceptance gate of the router PR).
//
// Ten seeds of generated traffic are driven through a 3-shard durable
// tier while the router's kShardCrash site kills shards at random under
// live requests. A ShardSupervisor runs from the retrying client's
// backoff hook — exactly where a daemon's poll loop would run it — so
// every injected death is detected, restarted through the recovery
// ladder, and re-admitted while the workload keeps flowing.
//
// Invariants held across every seed:
//   * exactly-once — a fault-free single Platform fed only the acked
//     ops stays bit-identical in stats and byte-identical in state to
//     the merged tier view, despite retries over injected crashes;
//   * restart byte-identity — every supervised restart reproduces the
//     crashed shard's final SaveState from its journal, byte for byte;
//   * clean failure — the only error the retrying client ever observes
//     is kUnavailable, and the retry budget is never exhausted;
//   * exactly-once across handoff — mid-soak, a torn transfer aborts to
//     the unchanged source and a completed handoff carries the
//     idempotency window: a pre-handoff ack replays byte-identically
//     from the destination without re-applying;
//   * determinism — a whole soak is a pure function of its seed.
//
// When DEFUSE_SHARD_SOAK_JSON names a path, the ten-seed soak writes
// its aggregate crash/restart/retry counters there
// (tools/tier1_soak.sh turns that into BENCH_soak.json).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "faults/injector.hpp"
#include "platform/platform.hpp"
#include "router/handoff.hpp"
#include "router/supervisor.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "sharded_tier.hpp"
#include "trace/generator.hpp"

namespace defuse::router {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kShards = 3;

struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& name)
      : path(fs::temp_directory_path() / name) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

platform::PlatformConfig SoakConfig(MinuteDelta horizon) {
  platform::PlatformConfig cfg;
  cfg.horizon = horizon;
  cfg.remine_interval = kMinutesPerDay;
  return cfg;
}

/// Two days of Tiny traffic: crosses two re-mine boundaries per shard
/// while keeping ten seeds affordable.
trace::GeneratorConfig Gen(std::uint64_t seed) {
  auto gen = trace::GeneratorConfig::Tiny();
  gen.seed = seed;
  gen.horizon_minutes = 2 * kMinutesPerDay;
  return gen;
}

/// Crash roughly one forward in 250: a Tiny seed (thousands of ops)
/// kills each shard several times without drowning the soak in
/// recovery churn.
faults::FaultProfile KillProfile() {
  faults::FaultProfile profile;
  profile.shard_crash_fraction = 0.004;
  return profile;
}

RetryPolicy SoakPolicy() {
  RetryPolicy policy;
  policy.max_attempts = 16;
  policy.initial_backoff = 0;
  return policy;
}

/// Unit ids are shard-local dense coordinates (a shard numbers the
/// functions it does not own as singletons); the canonical identity of
/// a unit — stable across tier shapes — is its smallest member.
std::uint32_t CanonicalUnit(const platform::Platform& p, UnitId unit) {
  return p.units().functions_of(unit).front().value();
}

/// One seed's outcome, compared across runs for determinism.
struct ShardSoakTally {
  std::uint64_t ops = 0;       ///< logical operations issued
  std::uint64_t acked = 0;     ///< ops the client saw succeed
  std::uint64_t attempts = 0;  ///< tries including retries
  std::uint64_t unavailable_retried = 0;
  std::uint64_t crashes_injected = 0;
  std::uint64_t downs_detected = 0;
  std::uint64_t restarts = 0;
  std::uint64_t restart_identity_checks = 0;  ///< byte-compared restarts
  std::uint64_t handoffs_torn = 0;
  std::uint64_t handoffs_completed = 0;
  std::uint64_t replays_verified = 0;  ///< byte-identical window replays
  platform::PlatformStats stats;
  std::string final_state;

  friend bool operator==(const ShardSoakTally&,
                         const ShardSoakTally&) = default;

  ShardSoakTally& operator+=(const ShardSoakTally& other) {
    ops += other.ops;
    acked += other.acked;
    attempts += other.attempts;
    unavailable_retried += other.unavailable_retried;
    crashes_injected += other.crashes_injected;
    downs_detected += other.downs_detected;
    restarts += other.restarts;
    restart_identity_checks += other.restart_identity_checks;
    handoffs_torn += other.handoffs_torn;
    handoffs_completed += other.handoffs_completed;
    replays_verified += other.replays_verified;
    return *this;
  }
};

/// One chaotic soak; deterministic in `seed`. The reference platform is
/// fed exactly the acked ops, so exactly-once shows up as bit-identical
/// stats and byte-identical state at the end.
ShardSoakTally RunShardSoak(std::uint64_t seed) {
  const auto gen = Gen(seed);
  const trace::SyntheticWorkload workload = trace::GenerateWorkload(gen);
  const auto cfg = SoakConfig(gen.horizon_minutes);
  // Both soak tests run seed 0; the pid keeps their journals apart when
  // ctest runs them concurrently.
  TempDir dir{"defuse_shard_soak_" + std::to_string(::getpid()) + "_" +
              std::to_string(seed)};

  // The mid-soak handoff destination. Declared before the tier so it
  // outlives the router that ends up pointing at it.
  ShardHost::Options spare_options;
  spare_options.platform = cfg;
  spare_options.state_dir = (dir.path / "spare").string();
  ShardHost spare{workload.model, spare_options};

  faults::FaultInjector killer{seed, KillProfile()};
  ShardedTier tier{workload.model, cfg, kShards, dir.path.string(), &killer};
  ShardSupervisor supervisor{*tier.router, {}};
  platform::Platform ref{workload.model, cfg};

  ShardSoakTally tally;

  // Supervised recovery + the restart byte-identity oracle: whenever a
  // slot's incarnation moved, the journal must have reproduced the
  // crashed stack's final state byte for byte.
  std::vector<std::uint64_t> incarnations(kShards);
  for (std::size_t s = 0; s < kShards; ++s) {
    incarnations[s] = tier.router->shard_host(s)->incarnation();
  }
  const auto heal = [&] {
    supervisor.Tick();
    for (std::size_t s = 0; s < kShards; ++s) {
      ShardHost* host = tier.router->shard_host(s);
      if (host->incarnation() <= incarnations[s]) continue;
      incarnations[s] = host->incarnation();
      if (host->pre_crash_state().empty()) continue;
      EXPECT_EQ(host->platform().SaveState(), host->pre_crash_state())
          << "seed " << seed << " shard " << s
          << ": restart was not byte-identical";
      ++tally.restart_identity_checks;
    }
  };

  server::RetryingClient client{[&tier] { return tier.loopback->Connect(); },
                                SoakPolicy(),
                                [&heal](MinuteDelta) { heal(); }};
  // Raw lane for the replay probe: the exact bytes of an acked request
  // must be re-sendable verbatim.
  server::Client raw = tier.Connect();

  // ---- mid-soak: exactly-once across a live handoff ----
  // A void lambda so gtest's fatal asserts can bail out of the block.
  const auto mid_soak_probe = [&](Minute t) {
      // One acked op with an explicit idempotency key, sent raw so the
      // request bytes can be replayed verbatim later.
      const server::RequestHeader header{0xFEED0000u + seed,
                                         server::kNoDeadline};
      const std::string probe = server::EncodeRequest(
          server::InvokeRequest{FunctionId{0}, t}, header);
      std::string first_reply;
      for (int attempt = 0; attempt < 64; ++attempt) {
        auto round = raw.Forward(probe);
        ASSERT_TRUE(round.ok()) << "seed " << seed << ": "
                                << round.error().message;
        const auto decoded = server::DecodeReply(round.value());
        ASSERT_TRUE(decoded.ok());
        if (decoded.value().ok) {
          first_reply = std::move(round).value();
          break;
        }
        // Crash drawn before the forward: the op never reached the
        // shard. Heal and retry the SAME bytes.
        ASSERT_EQ(decoded.value().error.code, ErrorCode::kUnavailable);
        heal();
      }
      ASSERT_FALSE(first_reply.empty()) << "seed " << seed;
      ++tally.ops;
      ++tally.acked;
      const auto want = ref.Invoke(FunctionId{0}, t);
      {
        const auto body = server::DecodeReply(first_reply);
        const auto reply =
            server::DecodeInvokeReplyBody(body.value().body);
        ASSERT_TRUE(reply.ok());
        EXPECT_EQ(reply.value().cold, want.cold) << "seed " << seed;
        const std::size_t owner =
            tier.router->ShardForFunction(FunctionId{0});
        EXPECT_EQ(CanonicalUnit(tier.router->shard_host(owner)->platform(),
                                reply.value().unit),
                  CanonicalUnit(ref, want.unit))
            << "seed " << seed;
      }

      heal();  // the handoff needs a live source
      const std::size_t victim = tier.router->ShardForFunction(FunctionId{0});
      ShardHost* source = tier.router->shard_host(victim);
      const std::string before = source->platform().SaveState();

      // A torn transfer aborts to the unchanged source.
      faults::FaultProfile torn_profile;
      torn_profile.handoff_torn_fraction = 1.0;
      faults::FaultInjector torn{seed, torn_profile};
      HandoffOptions torn_options;
      torn_options.injector = &torn;
      const auto aborted =
          HandoffShard(*tier.router, victim, spare, torn_options);
      ASSERT_TRUE(aborted.ok()) << aborted.error().message;
      EXPECT_FALSE(aborted.value().completed) << "seed " << seed;
      EXPECT_EQ(tier.router->shard_host(victim), source);
      EXPECT_EQ(source->platform().SaveState(), before) << "seed " << seed;
      ++tally.handoffs_torn;

      // The clean handoff carries the state AND the idempotency window.
      const auto moved = HandoffShard(*tier.router, victim, spare, {});
      ASSERT_TRUE(moved.ok()) << moved.error().message;
      ASSERT_TRUE(moved.value().completed) << moved.value().abort_reason;
      EXPECT_GT(moved.value().idempotency_entries, 0u) << "seed " << seed;
      EXPECT_EQ(tier.router->shard_host(victim), &spare);
      incarnations[victim] = spare.incarnation();
      ++tally.handoffs_completed;

      // The pre-handoff ack replays byte-identically from the
      // DESTINATION's imported window, side effect not re-applied. One
      // attempt only: a kUnavailable here means an injected crash fired
      // before the forward (op not applied, state intact) — but the
      // restarted shard's window is empty by the kill -9 contract, so
      // retrying the replay would legitimately re-apply. Skip instead;
      // the aggregate gate below proves replays verified across seeds.
      const std::uint64_t applied =
          spare.platform().stats().invocations;
      auto replay = raw.Forward(probe);
      ASSERT_TRUE(replay.ok()) << replay.error().message;
      const auto replay_decoded = server::DecodeReply(replay.value());
      ASSERT_TRUE(replay_decoded.ok());
      if (replay_decoded.value().ok) {
        EXPECT_EQ(replay.value(), first_reply)
            << "seed " << seed << ": replay was not byte-identical";
        EXPECT_EQ(spare.platform().stats().invocations, applied)
            << "seed " << seed << ": replay re-applied the op";
        EXPECT_GE(spare.handler().duplicates_served(), 1u);
        ++tally.replays_verified;
      } else {
        EXPECT_EQ(replay_decoded.value().error.code, ErrorCode::kUnavailable);
        heal();
      }
  };

  const auto index = workload.trace.BuildMinuteIndex(workload.trace.horizon());
  const Minute end = workload.trace.horizon().end;
  const Minute half = end / 2;

  for (Minute t = 0; t < end; ++t) {
    heal();  // recovery runs ahead of the heartbeat, like a poll loop
    const auto adv = client.AdvanceTo(t);
    EXPECT_TRUE(adv.ok()) << "seed " << seed << " t " << t << ": "
                          << adv.error().message;
    ref.AdvanceTo(t);

    if (t == half) mid_soak_probe(t);

    for (const auto& [fn, count] : index.at(t)) {
      (void)count;
      ++tally.ops;
      const auto got = client.Invoke(fn, t);
      EXPECT_TRUE(got.ok()) << "seed " << seed << " t " << t << ": "
                            << got.error().message;
      if (!got.ok()) continue;
      const auto want = ref.Invoke(fn, t);
      EXPECT_EQ(got.value().cold, want.cold) << "seed " << seed << " t " << t;
      ShardHost* owner =
          tier.router->shard_host(tier.router->ShardForFunction(fn));
      EXPECT_EQ(CanonicalUnit(owner->platform(), got.value().unit),
                CanonicalUnit(ref, want.unit))
          << "seed " << seed << " t " << t;
      ++tally.acked;
    }
  }

  // Quiesce: every shard recovered and re-admitted before the merged
  // reads (a down shard fails kStats/kSnapshot by design).
  heal();

  const auto stats = client.Stats();
  EXPECT_TRUE(stats.ok()) << stats.error().message;
  if (stats.ok()) tally.stats = stats.value().stats;
  EXPECT_EQ(tally.stats, ref.stats()) << "seed " << seed;
  EXPECT_EQ(tally.stats.invocations, tally.acked) << "seed " << seed;

  const auto snapshot = client.Snapshot();
  EXPECT_TRUE(snapshot.ok()) << snapshot.error().message;
  if (snapshot.ok()) tally.final_state = snapshot.value().state;
  EXPECT_EQ(tally.final_state, ref.SaveState()) << "seed " << seed;

  // Clean failure: the retry budget held, and the only error the client
  // ever saw was kUnavailable (no sheds, no deadline noise — those
  // sites are off in this profile).
  const auto books = client.Books();
  EXPECT_EQ(books.gave_up, 0u) << "seed " << seed;
  EXPECT_EQ(books.sheds_observed, 0u) << "seed " << seed;
  tally.attempts = books.attempts;
  tally.unavailable_retried = books.unavailable_observed;
  tally.crashes_injected = tier.router->books().crashes_injected;
  tally.downs_detected = supervisor.books().downs_detected;
  tally.restarts = supervisor.books().restarts;
  EXPECT_EQ(supervisor.books().restart_failures, 0u) << "seed " << seed;
  return tally;
}

void WriteShardSoakJson(const char* path, const ShardSoakTally& total,
                        std::uint64_t seeds) {
  std::ofstream out{path};
  out << "{\n"
      << "  \"seeds\": " << seeds << ",\n"
      << "  \"shards\": " << kShards << ",\n"
      << "  \"ops\": " << total.ops << ",\n"
      << "  \"acked\": " << total.acked << ",\n"
      << "  \"attempts\": " << total.attempts << ",\n"
      << "  \"unavailable_retried\": " << total.unavailable_retried << ",\n"
      << "  \"crashes_injected\": " << total.crashes_injected << ",\n"
      << "  \"downs_detected\": " << total.downs_detected << ",\n"
      << "  \"restarts\": " << total.restarts << ",\n"
      << "  \"restart_identity_checks\": " << total.restart_identity_checks
      << ",\n"
      << "  \"handoffs_torn\": " << total.handoffs_torn << ",\n"
      << "  \"handoffs_completed\": " << total.handoffs_completed << ",\n"
      << "  \"window_replays_verified\": " << total.replays_verified << "\n"
      << "}\n";
}

// ---- the gate --------------------------------------------------------------

TEST(ShardSoak, ShardKillChaosHoldsInvariantsForSeedsZeroThroughNine) {
  ShardSoakTally total;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    total += RunShardSoak(seed);
  }

  // The soak must actually have exercised the machinery: shards died
  // under live requests, the supervisor detected and restarted them,
  // restarts were byte-compared, retries flowed, and the handoff window
  // replay was verified on at least some seeds.
  EXPECT_GT(total.acked, 0u);
  EXPECT_GT(total.crashes_injected, 0u);
  EXPECT_GT(total.downs_detected, 0u);
  EXPECT_GT(total.restarts, 0u);
  EXPECT_GT(total.restart_identity_checks, 0u);
  EXPECT_GT(total.unavailable_retried, 0u);
  EXPECT_GT(total.attempts, total.ops);
  EXPECT_EQ(total.handoffs_torn, 10u);
  EXPECT_EQ(total.handoffs_completed, 10u);
  EXPECT_GT(total.replays_verified, 0u);

  if (const char* path = std::getenv("DEFUSE_SHARD_SOAK_JSON")) {
    WriteShardSoakJson(path, total, 10);
  }
}

TEST(ShardSoak, ShardSoakIsBitIdenticalForTheSameSeed) {
  const ShardSoakTally first = RunShardSoak(0);
  const ShardSoakTally second = RunShardSoak(0);
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace defuse::router
