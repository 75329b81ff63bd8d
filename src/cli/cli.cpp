#include "cli/cli.hpp"

#include <optional>
#include <sstream>
#include <vector>

#include "analysis/analysis.hpp"
#include "arena/league.hpp"
#include "arena/registry.hpp"
#include "arena/scenarios.hpp"
#include "cli/shutdown.hpp"
#include "common/csv.hpp"
#include "net/server_core.hpp"
#include "net/socket.hpp"
#include "server/client.hpp"
#include "server/platform_server.hpp"
#include "platform/durability/durable_state.hpp"
#include "platform/durability/recovery.hpp"
#include "platform/platform.hpp"
#include "router/hash_ring.hpp"
#include "router/shard_host.hpp"
#include "router/shard_router.hpp"
#include "router/state_merge.hpp"
#include "router/supervisor.hpp"
#include "common/flags.hpp"
#include "core/experiment.hpp"
#include "graph/serialization.hpp"
#include "stats/descriptive.hpp"
#include "trace/azure_csv.hpp"
#include "trace/generator.hpp"
#include "trace/transform.hpp"

namespace defuse::cli {
namespace {

constexpr const char* kUsage = R"(usage: defuse <command> [flags]

commands:
  generate   synthesize an Azure-like trace and write it as CSV
             --users N (120)  --days N (14)  --seed N (42)
             --out FILE       long-format CSV (required)
             --azure-dir DIR  additionally write Azure daily files
             --scenario SPEC  named workload preset (see `defuse
                              scenarios`), e.g. huawei_bursty or
                              skew_extreme:users=500; --users/--days
                              override the preset's scale when given
  inspect    characterize a trace (frequency skew, predictability)
             --trace FILE (required)
  mine       mine dependencies, write sets / edges / Graphviz
             --trace FILE (required)   --train-days N (all but 2)
             --support S (0.2)  --topk K (1)  --cv-threshold C (5)
             --strong-only | --weak-only
             --mine-threads N (0 = serial; any N is bit-identical)
             --sets-out FILE  --edges-out FILE  --dot-out FILE
  simulate   replay the tail of a trace under a scheduling method
             --trace FILE (required)   --train-days N (all but 2)
             --method defuse|strong-only|weak-only|hybrid-function|
                      hybrid-application|fixed|defuse-predictor|
                      defuse-diurnal   (defuse)
             --amplification A (1.0)
             --ar-fallback  enable the AR(1) time-series branch
             --sets FILE  use pre-mined dependency sets
             --policy SPEC  build the scheduler through the policy
                            registry instead of --method (see `defuse
                            policies`), e.g. spes:tier=cost or hiku
  arena      policy x scenario league table (CSV on stdout)
             --policies "a,b,..."   policy specs (default: the full
                                    built-in roster)
             --scenarios "x,y,..."  scenario specs (default: all named
                                    scenarios)
             --seed N (42)  --users N  --days N  scenario scale
             --out FILE     also write the CSV to a file
  policies   list registered scheduling policies and their param schemas
  scenarios  list named workload scenarios and their param schemas
  sweep      fig-7 style table: p75 cold rate vs memory for 3 methods
             --trace FILE (required)   --train-days N (all but 2)
             --amplifications "0.5,1,2,4" (1,2,4)
  filter     carve a smaller trace out of a big one
             --trace FILE (required)   --out FILE (required)
             --sample-users N  uniform user sample (--seed S)
             --first-days N    time-slice the first N days
  replay     stream the whole trace through the online platform engine
             (live re-mining, residency carry-over)
             --trace FILE (required)   --remine-days N (1)
             --window-days N (4)       --mine-threads N (0 = serial)
             --delta-mine       incremental re-mining from streaming
                                accumulators (bit-identical results)
             --full-rebuild-every N (8)  anchor every Nth delta re-mine
                                with a full rebuild (0 = never)
             --state-dir DIR    durable mode: recover + resume, journal
                                every invocation, checkpoint on cadence
             --checkpoint-days N (1)
  recover    run the crash-recovery ladder over a state directory and
             report which rung restored the platform
             --state-dir DIR (required)   --trace FILE (required)
             --remine-days N (1)  --window-days N (4)
             --delta-mine  --full-rebuild-every N (8)
             exit 2 when corruption had to be repaired or skipped
  fsck       verify a state directory's snapshots and journals without
             repairing anything
             --state-dir DIR (required)   exit 2 on corruption
  serve      run the platform engine as a network daemon (framed binary
             protocol over TCP; SIGINT/SIGTERM drains and checkpoints)
             --trace FILE (required; defines the function model)
             --host H (127.0.0.1)  --port P (0 = ephemeral, printed)
             --remine-days N (1)   --window-days N (4)
             --mine-threads N (0 = serial)
             --delta-mine       incremental re-mining (bit-identical)
             --full-rebuild-every N (8)  anchor cadence (0 = never)
             --async-remine     mine off-path; invokes flow during mining
             --state-dir DIR    durable mode (journal + checkpoints)
             --checkpoint-days N (1)
             --queue-bound N (256)  admission queue depth; overflow
                                sheds newest-from-heaviest with advice
             --idempotency-window N (1024)  replies cached per request
                                id for exactly-once retries (0 = off)
             --shards N (1)     multi-shard tier: N platform shards
                                behind a consistent-hash router, each
                                with its own journal (state-dir/shard-K),
                                supervised restart on crash
             --vnodes N (64)    ring vnodes per shard
             --probe-threshold N (3)  lost probes before a shard is
                                declared down and restarted
  route      print the consistent-hash user->shard table, socket-free
             --trace FILE (required)  --shards N (required)
             --vnodes N (64)   --user NAME  look up one user
  drive      stream a trace into a running serve daemon and print the
             same per-day lines as replay
             --trace FILE (required)  --host H (127.0.0.1)
             --port P (required)
  health     probe a running serve daemon's readiness (control plane:
             answered even while the daemon drains or is overloaded)
             --host H (127.0.0.1)  --port P (required)
             --json  machine-readable report on stdout
             exit 0 when ready, 2 when unreachable or not ready (the
             failing conditions — draining / degraded-graph /
             stale-graph / recovering — are listed either way)
  compare    the paper's headline comparison on this trace: Defuse vs
             Hybrid-Function vs Hybrid-Application at restricted memory
             --trace FILE (required)   --train-days N (all but 2)
             --budget-factor F (0.85)  Defuse's share of HA's memory
  help       this text
)";

struct TraceBundle {
  trace::WorkloadModel model;
  trace::InvocationTrace trace;
  TimeRange train;
  TimeRange eval;
};

std::optional<TraceBundle> LoadTrace(const FlagParser& flags,
                                     std::ostream& err) {
  const auto path = flags.Get("trace");
  if (!path) {
    err << "error: --trace is required\n";
    return std::nullopt;
  }
  auto buffer = ReadFile(*path);
  if (!buffer.ok()) {
    err << "error: " << buffer.error().ToString() << "\n";
    return std::nullopt;
  }
  auto loaded = trace::ReadLongCsv(buffer.value());
  if (!loaded.ok()) {
    err << "error: " << loaded.error().ToString() << "\n";
    return std::nullopt;
  }

  const TimeRange horizon = loaded.value().trace.horizon();
  const auto train_days = flags.GetInt("train-days", -1);
  if (!train_days.ok()) {
    err << "error: " << train_days.error().ToString() << "\n";
    return std::nullopt;
  }
  TimeRange train, eval;
  if (train_days.value() < 0) {
    // Default: everything but the last 2 days (or the paper 6:1 split
    // for short traces).
    if (horizon.length() > 3 * kMinutesPerDay) {
      train = TimeRange{0, horizon.end - 2 * kMinutesPerDay};
      eval = TimeRange{train.end, horizon.end};
    } else {
      std::tie(train, eval) = core::SplitTrainEval(horizon);
    }
  } else {
    const Minute split = train_days.value() * kMinutesPerDay;
    if (split <= 0 || split >= horizon.end) {
      err << "error: --train-days must split the trace (horizon "
          << horizon.end / kMinutesPerDay << " days)\n";
      return std::nullopt;
    }
    train = TimeRange{0, split};
    eval = TimeRange{split, horizon.end};
  }
  return TraceBundle{.model = std::move(loaded.value().model),
                     .trace = std::move(loaded.value().trace),
                     .train = train,
                     .eval = eval};
}

/// Shared by mine/replay/recover/serve: the --mine-threads fan-out width.
/// Any value yields a bit-identical graph; only wall-clock changes.
bool MineThreadsFromFlags(const FlagParser& flags, std::ostream& err,
                          mining::ParallelMineConfig& parallel) {
  const auto threads = flags.GetInt("mine-threads", 0);
  if (!threads.ok() || threads.value() < 0) {
    err << "error: --mine-threads must be a non-negative integer\n";
    return false;
  }
  parallel.num_threads = static_cast<std::size_t>(threads.value());
  return true;
}

/// Shared by replay/recover/serve: --delta-mine switches the platform's
/// periodic re-mining to the streaming-accumulator path (bit-identical
/// mined sets, O(new events) cost) and --full-rebuild-every N sets the
/// full-rebuild anchor cadence (every Nth mine; 0 = never).
bool DeltaMineFromFlags(const FlagParser& flags, std::ostream& err,
                        mining::DeltaMineConfig& delta) {
  delta.enabled = flags.Has("delta-mine");
  const auto every = flags.GetInt(
      "full-rebuild-every", static_cast<std::int64_t>(delta.full_rebuild_every));
  if (!every.ok() || every.value() < 0) {
    err << "error: --full-rebuild-every must be a non-negative integer\n";
    return false;
  }
  if (!delta.enabled && flags.Has("full-rebuild-every")) {
    err << "error: --full-rebuild-every requires --delta-mine\n";
    return false;
  }
  delta.full_rebuild_every = static_cast<std::uint32_t>(every.value());
  return true;
}

core::DefuseConfig MiningConfigFromFlags(const FlagParser& flags,
                                         std::ostream& err, bool& ok) {
  core::DefuseConfig config;
  ok = true;
  const auto support = flags.GetDouble("support", config.support);
  const auto topk = flags.GetInt("topk",
                                 static_cast<std::int64_t>(config.top_k));
  const auto cv = flags.GetDouble("cv-threshold", config.cv_threshold);
  for (const auto* error :
       {support.ok() ? nullptr : &support.error(),
        topk.ok() ? nullptr : &topk.error(),
        cv.ok() ? nullptr : &cv.error()}) {
    if (error != nullptr) {
      err << "error: " << error->ToString() << "\n";
      ok = false;
    }
  }
  if (!ok) return config;
  config.support = support.value();
  config.top_k = static_cast<std::size_t>(topk.value());
  config.cv_threshold = cv.value();
  if (flags.Has("strong-only")) config.use_weak = false;
  if (flags.Has("weak-only")) config.use_strong = false;
  if (!config.use_strong && !config.use_weak) {
    err << "error: --strong-only and --weak-only are mutually exclusive\n";
    ok = false;
  }
  if (!MineThreadsFromFlags(flags, err, config.parallel)) ok = false;
  return config;
}

std::optional<core::Method> ParseMethod(std::string_view name) {
  if (name == "defuse") return core::Method::kDefuse;
  if (name == "strong-only") return core::Method::kDefuseStrongOnly;
  if (name == "weak-only") return core::Method::kDefuseWeakOnly;
  if (name == "hybrid-function") return core::Method::kHybridFunction;
  if (name == "hybrid-application") return core::Method::kHybridApplication;
  if (name == "fixed") return core::Method::kFixedKeepAlive;
  if (name == "defuse-predictor") return core::Method::kDefusePredictor;
  if (name == "defuse-diurnal") return core::Method::kDefuseDiurnal;
  return std::nullopt;
}

bool WriteOrReport(const std::string& path, std::string_view content,
                   std::ostream& err) {
  const auto result = WriteFile(path, content);
  if (!result.ok()) {
    err << "error: " << result.error().ToString() << "\n";
    return false;
  }
  return true;
}

int CmdGenerate(const FlagParser& flags, std::ostream& out,
                std::ostream& err) {
  const auto users = flags.GetInt("users", 120);
  const auto days = flags.GetInt("days", 14);
  const auto seed = flags.GetInt("seed", 42);
  if (!users.ok() || !days.ok() || !seed.ok()) {
    err << "error: malformed numeric flag\n";
    return 1;
  }
  const auto out_path = flags.Get("out");
  if (!out_path) {
    err << "error: --out is required\n";
    return 1;
  }
  if (users.value() < 1 || days.value() < 1) {
    err << "error: --users and --days must be positive\n";
    return 1;
  }

  trace::GeneratorConfig config;
  if (const auto scenario = flags.Get("scenario")) {
    auto resolved = arena::ScenarioRegistry::Builtin().Resolve(
        *scenario, static_cast<std::uint64_t>(seed.value()));
    if (!resolved.ok()) {
      err << "error: " << resolved.error().ToString() << "\n";
      return 1;
    }
    trace::ScenarioSpec spec = std::move(resolved).value();
    // Explicit --users/--days win over the preset's scale.
    if (flags.Has("users")) {
      spec.num_users = static_cast<std::uint32_t>(users.value());
    }
    if (flags.Has("days")) {
      spec.horizon_minutes = days.value() * kMinutesPerDay;
    }
    config = trace::MakeScenarioConfig(spec);
  } else {
    config.num_users = static_cast<std::uint32_t>(users.value());
    config.horizon_minutes = days.value() * kMinutesPerDay;
    config.seed = static_cast<std::uint64_t>(seed.value());
  }
  const auto workload = trace::GenerateWorkload(config);
  const Minute horizon_days = config.horizon_minutes / kMinutesPerDay;

  if (!WriteOrReport(*out_path,
                     trace::WriteLongCsv(workload.model, workload.trace),
                     err)) {
    return 2;
  }
  out << "wrote " << *out_path << ": " << workload.model.num_users()
      << " users, " << workload.model.num_apps() << " apps, "
      << workload.model.num_functions() << " functions, "
      << workload.trace.TotalInvocations(workload.trace.horizon())
      << " invocations over " << horizon_days << " days\n";

  if (const auto dir = flags.Get("azure-dir")) {
    for (Minute day = 0; day < horizon_days; ++day) {
      char name[64];
      std::snprintf(name, sizeof name,
                    "/invocations_per_function_md.anon.d%02lld.csv",
                    static_cast<long long>(day + 1));
      if (!WriteOrReport(*dir + name,
                         trace::WriteAzureDayCsv(workload.model,
                                                 workload.trace, day),
                         err)) {
        return 2;
      }
    }
    out << "wrote " << horizon_days << " Azure daily files under " << *dir
        << "\n";
  }
  return 0;
}

int CmdInspect(const FlagParser& flags, std::ostream& out,
               std::ostream& err) {
  const auto bundle = LoadTrace(flags, err);
  if (!bundle) return 1;
  const auto report = analysis::AnalyzeWorkload(
      bundle->model, bundle->trace, bundle->trace.horizon());
  out << analysis::RenderWorkloadReport(report);
  return 0;
}

int CmdMine(const FlagParser& flags, std::ostream& out, std::ostream& err) {
  const auto bundle = LoadTrace(flags, err);
  if (!bundle) return 1;
  bool config_ok = false;
  const auto config = MiningConfigFromFlags(flags, err, config_ok);
  if (!config_ok) return 1;

  auto mined = core::MineDependencies(bundle->trace, bundle->model,
                                      bundle->train, config);
  if (!mined.ok()) {
    err << "error: " << mined.error().ToString() << "\n";
    return 1;
  }
  const auto mining = std::move(mined).value();
  out << "mined " << mining.num_frequent_itemsets << " frequent itemsets, "
      << mining.num_weak_dependencies << " weak dependencies; "
      << mining.graph.num_strong_edges() << " strong + "
      << mining.graph.num_weak_edges() << " weak edges; "
      << mining.sets.size() << " dependency sets over "
      << bundle->model.num_functions() << " functions\n";

  std::size_t multi = 0, largest = 0;
  for (const auto& set : mining.sets) {
    if (set.functions.size() > 1) ++multi;
    largest = std::max(largest, set.functions.size());
  }
  out << multi << " multi-function sets; largest has " << largest
      << " functions\n";

  // Artifacts that cross the miner/scheduler process boundary carry a
  // checksum trailer; the readers verify it transparently.
  if (const auto path = flags.Get("sets-out")) {
    if (!WriteOrReport(*path,
                       graph::WriteDependencySetsCsvChecksummed(mining.sets,
                                                                bundle->model),
                       err)) {
      return 2;
    }
    out << "wrote dependency sets to " << *path << "\n";
  }
  if (const auto path = flags.Get("edges-out")) {
    if (!WriteOrReport(*path,
                       graph::WriteDependencyEdgesCsvChecksummed(
                           mining.graph, bundle->model),
                       err)) {
      return 2;
    }
    out << "wrote dependency edges to " << *path << "\n";
  }
  if (const auto path = flags.Get("dot-out")) {
    std::vector<std::string> names;
    names.reserve(bundle->model.num_functions());
    for (const auto& fn : bundle->model.functions()) {
      names.push_back(fn.name);
    }
    if (!WriteOrReport(*path, mining.graph.ToDot(&names), err)) return 2;
    out << "wrote Graphviz graph to " << *path << "\n";
  }
  return 0;
}

void PrintMetrics(const core::MethodResult& r, std::ostream& out) {
  out << "method: " << core::MethodName(r.method)
      << "  amplification: " << r.amplification << "\n"
      << "scheduling units: " << r.num_units << "\n"
      << "functions with invocations: " << r.cold_start_rates.size() << "\n"
      << "p75 function cold-start rate: " << r.p75_cold_start_rate << "\n"
      << "mean function cold-start rate: " << r.mean_cold_start_rate << "\n"
      << "cold fraction of invocation events: " << r.event_cold_fraction
      << "\n"
      << "avg memory (loaded functions): " << r.avg_memory << "\n"
      << "avg loads per minute: " << r.avg_loading << "\n";
}

int CmdSimulate(const FlagParser& flags, std::ostream& out,
                std::ostream& err) {
  const auto bundle = LoadTrace(flags, err);
  if (!bundle) return 1;
  const auto amplification = flags.GetDouble("amplification", 1.0);
  if (!amplification.ok()) {
    err << "error: " << amplification.error().ToString() << "\n";
    return 1;
  }

  // Arena path: build the scheduler from a registry policy spec.
  if (const auto policy_spec = flags.Get("policy")) {
    if (flags.Has("method") || flags.Has("sets")) {
      err << "error: --policy is exclusive with --method/--sets\n";
      return 1;
    }
    const arena::PolicyRegistry& registry = arena::PolicyRegistry::Builtin();
    auto resolved = registry.Resolve(*policy_spec);
    if (!resolved.ok()) {
      err << "error: " << resolved.error().ToString() << "\n";
      return 1;
    }
    auto mined = core::MineDependencies(bundle->trace, bundle->model,
                                        bundle->train, core::DefuseConfig{});
    if (!mined.ok()) {
      err << "error: " << mined.error().ToString() << "\n";
      return 1;
    }
    const core::MiningOutput mining = std::move(mined).value();
    arena::PolicyBuildContext context;
    context.model = &bundle->model;
    context.trace = &bundle->trace;
    context.train = bundle->train;
    context.mining = &mining;
    auto built = registry.Build(context, *policy_spec);
    if (!built.ok()) {
      err << "error: " << built.error().ToString() << "\n";
      return 1;
    }
    const auto policy = std::move(built).value();
    const auto sim = sim::Simulate(bundle->trace, bundle->eval, *policy);
    const auto rates = sim.FunctionColdStartRates(policy->unit_map());
    out << "policy: " << *policy_spec << " (" << policy->name() << ")\n"
        << "scheduling units: " << policy->unit_map().num_units() << "\n"
        << "functions with invocations: " << rates.size() << "\n"
        << "p75 function cold-start rate: "
        << sim.ColdStartRatePercentile(policy->unit_map(), 0.75) << "\n"
        << "mean function cold-start rate: " << stats::Mean(rates) << "\n"
        << "cold fraction of invocation events: "
        << (sim.function_invocation_minutes == 0
                ? 0.0
                : static_cast<double>(sim.function_cold_minutes) /
                      static_cast<double>(sim.function_invocation_minutes))
        << "\n"
        << "avg memory (loaded functions): " << sim.AverageMemoryUsage()
        << "\n"
        << "avg loads per minute: " << sim.AverageLoadingFunctions() << "\n";
    if (sim.triggered_prewarms > 0) {
      out << "triggered pre-warms: " << sim.triggered_prewarms << "\n";
    }
    return 0;
  }

  // Pre-mined sets path: bypass the driver and run the set scheduler.
  if (const auto sets_path = flags.Get("sets")) {
    auto buffer = ReadFile(*sets_path);
    if (!buffer.ok()) {
      err << "error: " << buffer.error().ToString() << "\n";
      return 2;
    }
    auto sets = graph::ReadDependencySetsCsv(buffer.value(), bundle->model);
    if (!sets.ok()) {
      err << "error: " << sets.error().ToString() << "\n";
      return 2;
    }
    policy::HybridConfig policy_config;
    policy_config.amplification = amplification.value();
    const auto policy = core::MakeSetScheduler(bundle->trace, sets.value(),
                                               bundle->train, policy_config);
    const auto sim = sim::Simulate(bundle->trace, bundle->eval, *policy);
    core::MethodResult r;
    r.method = core::Method::kDefuse;
    r.amplification = amplification.value();
    r.cold_start_rates = sim.FunctionColdStartRates(policy->unit_map());
    r.p75_cold_start_rate = sim.ColdStartRatePercentile(policy->unit_map(),
                                                        0.75);
    r.mean_cold_start_rate = stats::Mean(r.cold_start_rates);
    r.event_cold_fraction =
        sim.function_invocation_minutes == 0
            ? 0.0
            : static_cast<double>(sim.function_cold_minutes) /
                  static_cast<double>(sim.function_invocation_minutes);
    r.avg_memory = sim.AverageMemoryUsage();
    r.avg_loading = sim.AverageLoadingFunctions();
    r.num_units = policy->unit_map().num_units();
    out << "(using pre-mined dependency sets from " << *sets_path << ")\n";
    PrintMetrics(r, out);
    return 0;
  }

  const auto method = ParseMethod(flags.GetOr("method", "defuse"));
  if (!method) {
    err << "error: unknown --method '" << flags.GetOr("method", "") << "'\n";
    return 1;
  }
  policy::HybridConfig policy_config;
  policy_config.use_ar_fallback = flags.Has("ar-fallback");
  core::ExperimentDriver driver{bundle->model, bundle->trace, bundle->train,
                                bundle->eval, core::DefuseConfig{},
                                policy_config};
  PrintMetrics(driver.Run(*method, amplification.value()), out);
  return 0;
}

int CmdSweep(const FlagParser& flags, std::ostream& out, std::ostream& err) {
  const auto bundle = LoadTrace(flags, err);
  if (!bundle) return 1;
  std::vector<double> amplifications;
  {
    const std::string spec = flags.GetOr("amplifications", "1,2,4");
    std::istringstream stream{spec};
    std::string token;
    while (std::getline(stream, token, ',')) {
      const auto value = ParseDouble(token);
      if (!value.ok() || value.value() <= 0) {
        err << "error: bad --amplifications entry '" << token << "'\n";
        return 1;
      }
      amplifications.push_back(value.value());
    }
  }
  core::ExperimentDriver driver{bundle->model, bundle->trace, bundle->train,
                                bundle->eval};
  out << "method,amplification,avg_memory,p75_cold_start_rate,"
         "avg_loads_per_minute\n";
  for (const auto method :
       {core::Method::kDefuse, core::Method::kHybridFunction,
        core::Method::kHybridApplication}) {
    for (const double a : amplifications) {
      const auto r = driver.Run(method, a);
      char line[160];
      std::snprintf(line, sizeof line, "%s,%.2f,%.1f,%.4f,%.2f\n",
                    core::MethodName(method), a, r.avg_memory,
                    r.p75_cold_start_rate, r.avg_loading);
      out << line;
    }
  }
  return 0;
}

int CmdFilter(const FlagParser& flags, std::ostream& out,
              std::ostream& err) {
  const auto bundle = LoadTrace(flags, err);
  if (!bundle) return 1;
  const auto out_path = flags.Get("out");
  if (!out_path) {
    err << "error: --out is required\n";
    return 1;
  }
  const auto sample = flags.GetInt("sample-users", 0);
  const auto first_days = flags.GetInt("first-days", 0);
  const auto seed = flags.GetInt("seed", 1);
  if (!sample.ok() || !first_days.ok() || !seed.ok()) {
    err << "error: malformed numeric flag\n";
    return 1;
  }
  if (sample.value() <= 0 && first_days.value() <= 0) {
    err << "error: give --sample-users and/or --first-days\n";
    return 1;
  }

  trace::LoadedTrace current{.model = std::move(bundle->model),
                             .trace = std::move(bundle->trace)};
  if (sample.value() > 0) {
    Rng rng{static_cast<std::uint64_t>(seed.value())};
    current = trace::SampleUsers(current.model, current.trace,
                                 static_cast<std::size_t>(sample.value()),
                                 rng);
  }
  if (first_days.value() > 0) {
    const Minute limit = std::min<Minute>(
        first_days.value() * kMinutesPerDay, current.trace.horizon().end);
    current = trace::SliceTime(current.model, current.trace,
                               TimeRange{0, limit});
  }
  if (!WriteOrReport(*out_path,
                     trace::WriteLongCsv(current.model, current.trace),
                     err)) {
    return 2;
  }
  out << "wrote " << *out_path << ": " << current.model.num_users()
      << " users, " << current.model.num_functions() << " functions, "
      << current.trace.TotalInvocations(current.trace.horizon())
      << " invocations over "
      << current.trace.horizon().length() / kMinutesPerDay << " days\n";
  return 0;
}

int CmdCompare(const FlagParser& flags, std::ostream& out,
               std::ostream& err) {
  const auto bundle = LoadTrace(flags, err);
  if (!bundle) return 1;
  const auto budget_factor = flags.GetDouble("budget-factor", 0.85);
  if (!budget_factor.ok() || budget_factor.value() <= 0) {
    err << "error: --budget-factor must be a positive number\n";
    return 1;
  }
  core::ExperimentDriver driver{bundle->model, bundle->trace, bundle->train,
                                bundle->eval};

  // The paper's procedure (§V.C): Hybrid-Application at its natural
  // point; Defuse and Hybrid-Function restricted to a memory budget.
  const auto ha = driver.Run(core::Method::kHybridApplication, 1.0);
  const auto fit_budget = [&](core::Method method, double budget) {
    core::MethodResult best = driver.Run(method, 0.25);
    for (const double a : {0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0,
                           6.0, 8.0}) {
      auto r = driver.Run(method, a);
      if (r.avg_memory <= budget) best = std::move(r);
    }
    return best;
  };
  const auto defuse = fit_budget(core::Method::kDefuse,
                                 budget_factor.value() * ha.avg_memory);
  const auto hf = fit_budget(core::Method::kHybridFunction, ha.avg_memory);

  out << "method,amplification,p75_cold_start_rate,avg_memory,"
         "avg_loads_per_minute\n";
  for (const auto* r : {&defuse, &hf, &ha}) {
    char line[160];
    std::snprintf(line, sizeof line, "%s,%.2f,%.4f,%.1f,%.2f\n",
                  core::MethodName(r->method), r->amplification,
                  r->p75_cold_start_rate, r->avg_memory, r->avg_loading);
    out << line;
  }
  char headline[256];
  std::snprintf(headline, sizeof headline,
                "Defuse vs Hybrid-Application: p75 %+.1f%%, memory %+.1f%%, "
                "loads %+.1f%% (paper: -35%% / -20%% / -79%%)\n",
                100.0 * (defuse.p75_cold_start_rate /
                             ha.p75_cold_start_rate -
                         1.0),
                100.0 * (defuse.avg_memory / ha.avg_memory - 1.0),
                100.0 * (defuse.avg_loading / ha.avg_loading - 1.0));
  out << headline;
  return 0;
}

int CmdPolicies(std::ostream& out) {
  out << "registered scheduling policies (spec: name[:key=value,...], a "
         "bare word means variant=<word>):\n";
  for (const auto& entry : arena::PolicyRegistry::Builtin().entries()) {
    out << "  " << entry.name << "  " << entry.description << "\n";
    for (const auto& param : entry.params) {
      out << "      " << arena::DescribeParam(param) << "  "
          << param.description << "\n";
    }
    if (entry.needs_mining) {
      out << "      (needs mined dependencies)\n";
    }
  }
  return 0;
}

int CmdScenarios(std::ostream& out) {
  out << "named workload scenarios (spec: name[:key=value,...]; each is a "
         "pure function of spec and seed):\n";
  for (const auto& entry : arena::ScenarioRegistry::Builtin().entries()) {
    out << "  " << entry.name << "  " << entry.description << "\n";
    for (const auto& param : entry.params) {
      out << "      " << arena::DescribeParam(param) << "  "
          << param.description << "\n";
    }
  }
  return 0;
}

int CmdArena(const FlagParser& flags, std::ostream& out, std::ostream& err) {
  const auto seed = flags.GetInt("seed", 42);
  const auto users = flags.GetInt("users", 0);
  const auto days = flags.GetInt("days", 0);
  if (!seed.ok() || !users.ok() || !days.ok() || users.value() < 0 ||
      days.value() < 0) {
    err << "error: malformed numeric flag\n";
    return 1;
  }

  arena::LeagueConfig config;
  config.seed = static_cast<std::uint64_t>(seed.value());
  config.num_users = static_cast<std::uint32_t>(users.value());
  config.horizon_minutes = days.value() * kMinutesPerDay;
  if (flags.Has("policies")) {
    config.policies = SplitSpecList(flags.GetOr("policies", ""));
  } else {
    config.policies = {"fixed",   "hybrid:set", "hybrid:function",
                       "hybrid:application", "diurnal", "predictor",
                       "ar",      "spes:tier=balanced", "hiku", "forecast"};
  }
  if (flags.Has("scenarios")) {
    config.scenarios = SplitSpecList(flags.GetOr("scenarios", ""));
  } else {
    for (const auto& entry : arena::ScenarioRegistry::Builtin().entries()) {
      config.scenarios.push_back(entry.name);
    }
  }

  auto table = arena::RunLeague(config);
  if (!table.ok()) {
    err << "error: " << table.error().ToString() << "\n";
    return 1;
  }
  const std::string csv = arena::RenderLeagueCsv(table.value());
  out << csv;
  if (const auto path = flags.Get("out")) {
    if (!WriteOrReport(*path, csv, err)) return 2;
  }
  return 0;
}

void PrintRecoveryReport(const platform::durability::RecoveryReport& report,
                         std::ostream& out) {
  out << "recovery: rung "
      << platform::durability::RecoveryRungName(report.rung)
      << ", base generation " << report.snapshot_generation << ", "
      << report.journal_records_replayed << " journal records replayed";
  if (report.snapshots_rejected > 0) {
    out << ", " << report.snapshots_rejected << " snapshots rejected";
  }
  if (report.journal_records_rejected > 0) {
    out << ", " << report.journal_records_rejected
        << " journal records dropped";
  }
  if (report.journal_truncated) {
    out << ", " << report.journal_bytes_dropped << " torn bytes truncated";
  }
  out << "\n";
  for (const auto& note : report.notes) out << "  note: " << note << "\n";
}

bool SawCorruption(const platform::durability::RecoveryReport& report) {
  return report.snapshots_rejected > 0 ||
         report.journal_records_rejected > 0 || report.journal_truncated;
}

int CmdReplay(const FlagParser& flags, std::ostream& out, std::ostream& err) {
  const auto bundle = LoadTrace(flags, err);
  if (!bundle) return 1;
  const auto remine_days = flags.GetInt("remine-days", 1);
  const auto window_days = flags.GetInt("window-days", 4);
  const auto checkpoint_days = flags.GetInt("checkpoint-days", 1);
  if (!remine_days.ok() || !window_days.ok() || !checkpoint_days.ok() ||
      remine_days.value() < 1 || window_days.value() < 1 ||
      checkpoint_days.value() < 1) {
    err << "error: --remine-days/--window-days/--checkpoint-days must be "
           "positive integers\n";
    return 1;
  }

  platform::PlatformConfig config;
  config.horizon = bundle->trace.horizon().end;
  config.remine_interval = remine_days.value() * kMinutesPerDay;
  config.mining_window = window_days.value() * kMinutesPerDay;
  if (!MineThreadsFromFlags(flags, err, config.mining.parallel)) return 1;
  if (!DeltaMineFromFlags(flags, err, config.mining.delta)) return 1;
  platform::Platform engine{bundle->model, config};

  // Durable mode: recover whatever a previous (possibly crashed) replay
  // left in the state directory, resume after its last applied minute,
  // and journal + checkpoint from there on.
  std::optional<platform::durability::DurableState> durable;
  Minute start = 0;
  if (const auto dir = flags.Get("state-dir")) {
    platform::durability::DurableState::Options options;
    options.checkpoint_interval = checkpoint_days.value() * kMinutesPerDay;
    durable.emplace(*dir, options);
    if (const auto opened = durable->Open(); !opened.ok()) {
      err << "error: " << opened.error().ToString() << "\n";
      return 2;
    }
    auto recovered = durable->Recover(engine);
    if (!recovered.ok()) {
      err << "error: " << recovered.error().ToString() << "\n";
      return 2;
    }
    PrintRecoveryReport(recovered.value(), out);
    if (engine.stats().invocations > 0) {
      // Minute-granular resume: the boundary minute may have been
      // partially applied, so it is not replayed again.
      start = engine.last_invocation_minute() + 1;
    }
    if (start >= bundle->trace.horizon().end) {
      out << "trace already fully replayed (resume minute " << start
          << " past horizon)\n";
      return 0;
    }
    if (start > 0) out << "resuming at minute " << start << "\n";
  }

  // Durable replays are resumable, so SIGINT/SIGTERM can stop cleanly:
  // finish the current minute, take a final checkpoint, exit 0. A later
  // run recovers and resumes where this one stopped.
  if (durable) {
    ResetShutdownFlag();
    InstallShutdownSignalHandlers();
  }

  const auto index = bundle->trace.BuildMinuteIndex(bundle->trace.horizon());
  std::uint64_t day_invocations = 0, day_cold = 0;
  std::uint64_t journal_failures = 0;
  Minute day = start / kMinutesPerDay;
  bool interrupted = false;
  out << "day,invocations,cold_fraction,dependency_sets\n";
  for (Minute t = start; t < bundle->trace.horizon().end; ++t) {
    if (durable && ShutdownRequested()) {
      out << "shutdown requested; stopping before minute " << t << "\n";
      interrupted = true;
      break;
    }
    for (const auto& [fn, count] : index.at(t)) {
      if (durable) {
        // Write-ahead: the event becomes durable before it is applied.
        // A failed append degrades this event to lossy (it will not
        // survive a crash) but never stops the replay.
        if (const auto logged = durable->JournalInvocation(fn, t);
            !logged.ok()) {
          ++journal_failures;
        }
      }
      const auto outcome = engine.Invoke(fn, t);
      ++day_invocations;
      day_cold += outcome.cold ? 1 : 0;
    }
    if (durable && durable->ShouldCheckpoint(t)) {
      if (const auto saved = durable->Checkpoint(engine); !saved.ok()) {
        err << "warning: checkpoint failed: " << saved.error().ToString()
            << "\n";
      }
    }
    if ((t + 1) % kMinutesPerDay == 0 ||
        t + 1 == bundle->trace.horizon().end) {
      char line[96];
      std::snprintf(line, sizeof line, "%lld,%llu,%.4f,%zu\n",
                    static_cast<long long>(day),
                    static_cast<unsigned long long>(day_invocations),
                    day_invocations == 0
                        ? 0.0
                        : static_cast<double>(day_cold) /
                              static_cast<double>(day_invocations),
                    engine.units().num_units());
      out << line;
      day_invocations = day_cold = 0;
      ++day;
    }
  }
  out << "total: " << engine.stats().invocations << " invocations, cold "
      << engine.stats().cold_fraction() << ", " << engine.stats().remines
      << " re-mines\n";
  if (const auto* acc = engine.delta_accumulator()) {
    out << "delta mining: " << acc->books().delta_mines << " delta mines, "
        << acc->books().full_rebuilds << " full rebuilds, "
        << acc->books().aborted_deltas << " rolled back\n";
  }
  if (interrupted) {
    out << "interrupted: state checkpointed for resume; rerun the same "
           "command to continue\n";
  }
  if (durable) {
    if (const auto saved = durable->Checkpoint(engine); !saved.ok()) {
      err << "warning: final checkpoint failed: " << saved.error().ToString()
          << "\n";
    } else {
      out << "state saved: generation " << durable->generation() << " in "
          << durable->dir() << "\n";
    }
    if (journal_failures > 0) {
      err << "warning: " << journal_failures
          << " journal appends failed (those events were lossy)\n";
    }
  }
  return 0;
}

int CmdRecover(const FlagParser& flags, std::ostream& out,
               std::ostream& err) {
  const auto dir = flags.Get("state-dir");
  if (!dir) {
    err << "error: --state-dir is required\n";
    return 1;
  }
  const auto bundle = LoadTrace(flags, err);
  if (!bundle) return 1;
  const auto remine_days = flags.GetInt("remine-days", 1);
  const auto window_days = flags.GetInt("window-days", 4);
  if (!remine_days.ok() || !window_days.ok() || remine_days.value() < 1 ||
      window_days.value() < 1) {
    err << "error: --remine-days/--window-days must be positive integers\n";
    return 1;
  }

  // The platform must be rebuilt with the exact model + config the
  // state was saved under (the replay defaults, unless overridden).
  platform::PlatformConfig config;
  config.horizon = bundle->trace.horizon().end;
  config.remine_interval = remine_days.value() * kMinutesPerDay;
  config.mining_window = window_days.value() * kMinutesPerDay;
  if (!MineThreadsFromFlags(flags, err, config.mining.parallel)) return 1;
  if (!DeltaMineFromFlags(flags, err, config.mining.delta)) return 1;
  platform::Platform engine{bundle->model, config};

  const platform::durability::RecoveryManager manager{*dir};
  const auto report = manager.Recover(engine);
  PrintRecoveryReport(report, out);
  out << "recovered state: " << engine.stats().invocations
      << " invocations, cold " << engine.stats().cold_fraction() << ", "
      << engine.units().num_units() << " dependency sets, last minute "
      << engine.last_invocation_minute() << "\n";
  return SawCorruption(report) ? 2 : 0;
}

int CmdFsck(const FlagParser& flags, std::ostream& out, std::ostream& err) {
  const auto dir = flags.Get("state-dir");
  if (!dir) {
    err << "error: --state-dir is required\n";
    return 1;
  }
  const platform::durability::RecoveryManager manager{*dir};
  const auto report = manager.Fsck();
  out << report.Render();
  return report.healthy ? 0 : 2;
}

/// The multi-shard serve path: N ShardHosts (each its own platform,
/// journal directory, admission queue, idempotency window) behind one
/// ShardRouter + ShardSupervisor, all served out of a single socket
/// listener. The supervisor ticks once per poll-loop iteration, so a
/// crashed shard is detected and restarted within one poll interval.
int ServeSharded(const TraceBundle& bundle,
                 const platform::PlatformConfig& config,
                 const FlagParser& flags, std::size_t num_shards,
                 const net::ServerLimits& limits,
                 std::size_t idempotency_window, Minute checkpoint_interval,
                 std::ostream& out, std::ostream& err) {
  const auto vnodes = flags.GetInt("vnodes", 64);
  const auto probe_threshold = flags.GetInt("probe-threshold", 3);
  const auto port = flags.GetInt("port", 0);
  if (!vnodes.ok() || vnodes.value() < 1) {
    err << "error: --vnodes must be a positive integer\n";
    return 1;
  }
  if (!probe_threshold.ok() || probe_threshold.value() < 1) {
    err << "error: --probe-threshold must be a positive integer\n";
    return 1;
  }

  const auto state_dir = flags.Get("state-dir");
  std::vector<std::unique_ptr<router::ShardHost>> hosts;
  std::vector<router::ShardHost*> shard_ptrs;
  hosts.reserve(num_shards);
  for (std::size_t i = 0; i < num_shards; ++i) {
    router::ShardHost::Options options;
    options.platform = config;
    options.handler.idempotency_window = idempotency_window;
    options.limits = limits;
    if (state_dir) {
      options.state_dir = *state_dir + "/shard-" + std::to_string(i);
      options.durable.checkpoint_interval = checkpoint_interval;
    }
    hosts.push_back(
        std::make_unique<router::ShardHost>(bundle.model, options));
    auto started = hosts.back()->Start();
    if (!started.ok()) {
      err << "error: shard " << i
          << " failed to start: " << started.error().ToString() << "\n";
      return 2;
    }
    if (state_dir) {
      out << "shard " << i << " ";
      PrintRecoveryReport(started.value(), out);
    }
    shard_ptrs.push_back(hosts.back().get());
  }

  router::ShardRouterOptions router_options;
  router_options.vnodes_per_shard =
      static_cast<std::size_t>(vnodes.value());
  router::ShardRouter router{bundle.model, shard_ptrs, router_options};
  router::SupervisorOptions supervisor_options;
  supervisor_options.probe_loss_threshold =
      static_cast<std::uint32_t>(probe_threshold.value());
  router::ShardSupervisor supervisor{router, supervisor_options};

  net::ServerCore core{router, limits};
  net::SocketServer::Options socket_options;
  socket_options.host = flags.GetOr("host", "127.0.0.1");
  socket_options.port = static_cast<std::uint16_t>(port.value());
  net::SocketServer sock{core, socket_options};
  if (const auto listening = sock.Listen(); !listening.ok()) {
    err << "error: " << listening.error().ToString() << "\n";
    return 2;
  }
  out << "serving " << bundle.model.num_functions() << " functions on "
      << socket_options.host << ":" << sock.port() << " across "
      << num_shards << " shards (" << vnodes.value() << " vnodes each"
      << (config.async_remine ? ", async re-mining" : "")
      << (state_dir ? ", durable" : "") << ")\n";
  out.flush();

  ResetShutdownFlag();
  InstallShutdownSignalHandlers();
  while (!ShutdownRequested()) {
    if (const auto polled = sock.PollOnce(200); !polled.ok()) {
      err << "error: " << polled.error().ToString() << "\n";
      break;
    }
    supervisor.Tick();
  }

  out << "shutting down: draining " << core.open_connections()
      << " connections\n";
  sock.StopAccepting();
  core.BeginDrain();
  for (int i = 0; i < 100 && !(core.idle() && sock.flushed()); ++i) {
    if (const auto polled = sock.PollOnce(20); !polled.ok()) break;
  }
  std::vector<platform::PlatformStats> shard_stats;
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    if (!hosts[i]->alive()) continue;  // down and unrecovered: journaled
    if (const auto drained = hosts[i]->handler().Drain(); !drained.ok()) {
      err << "warning: shard " << i << " final checkpoint failed: "
          << drained.error().ToString() << "\n";
    }
    shard_stats.push_back(hosts[i]->platform().stats());
  }
  sock.CloseAll();

  const platform::PlatformStats stats =
      router::MergeShardStats(shard_stats);
  const router::ShardRouterBooks& books = router.books();
  out << "served " << core.stats().requests_handled << " requests ("
      << books.forwarded << " forwarded, " << books.broadcasts
      << " broadcasts, " << books.unavailable_rejections
      << " shard-unavailable); " << stats.invocations
      << " invocations, cold " << stats.cold_fraction() << ", "
      << stats.remines << " re-mines\n";
  if (supervisor.books().restarts > 0 ||
      supervisor.books().downs_detected > 0) {
    out << "supervisor: " << supervisor.books().downs_detected
        << " shard deaths detected, " << supervisor.books().restarts
        << " restarts, " << supervisor.books().restart_failures
        << " restart failures\n";
  }
  return 0;
}

int CmdRoute(const FlagParser& flags, std::ostream& out, std::ostream& err) {
  const auto bundle = LoadTrace(flags, err);
  if (!bundle) return 1;
  const auto shards = flags.GetInt("shards", 0);
  const auto vnodes = flags.GetInt("vnodes", 64);
  if (!shards.ok() || shards.value() < 1) {
    err << "error: --shards is required (a positive integer)\n";
    return 1;
  }
  if (!vnodes.ok() || vnodes.value() < 1) {
    err << "error: --vnodes must be a positive integer\n";
    return 1;
  }
  const router::HashRing ring{static_cast<std::size_t>(shards.value()),
                              static_cast<std::size_t>(vnodes.value())};
  if (const auto name = flags.Get("user")) {
    for (const auto& user : bundle->model.users()) {
      if (user.name == *name) {
        out << "user " << user.name << " -> shard "
            << ring.ShardForUser(user.id) << "\n";
        return 0;
      }
    }
    err << "error: no user named '" << *name << "' in the trace\n";
    return 1;
  }
  std::vector<std::size_t> users_per(ring.num_shards(), 0);
  std::vector<std::size_t> functions_per(ring.num_shards(), 0);
  for (const auto& user : bundle->model.users()) {
    ++users_per[ring.ShardForUser(user.id)];
  }
  for (const auto& fn : bundle->model.functions()) {
    ++functions_per[ring.ShardForUser(fn.user)];
  }
  out << "shard,users,functions\n";
  for (std::size_t s = 0; s < ring.num_shards(); ++s) {
    out << s << "," << users_per[s] << "," << functions_per[s] << "\n";
  }
  return 0;
}

int CmdServe(const FlagParser& flags, std::ostream& out, std::ostream& err) {
  const auto bundle = LoadTrace(flags, err);
  if (!bundle) return 1;
  const auto remine_days = flags.GetInt("remine-days", 1);
  const auto window_days = flags.GetInt("window-days", 4);
  const auto checkpoint_days = flags.GetInt("checkpoint-days", 1);
  const auto port = flags.GetInt("port", 0);
  if (!remine_days.ok() || !window_days.ok() || !checkpoint_days.ok() ||
      remine_days.value() < 1 || window_days.value() < 1 ||
      checkpoint_days.value() < 1) {
    err << "error: --remine-days/--window-days/--checkpoint-days must be "
           "positive integers\n";
    return 1;
  }
  if (!port.ok() || port.value() < 0 || port.value() > 65535) {
    err << "error: --port must be in [0, 65535]\n";
    return 1;
  }
  const auto queue_bound = flags.GetInt("queue-bound", 256);
  const auto idempotency_window = flags.GetInt("idempotency-window", 1024);
  if (!queue_bound.ok() || queue_bound.value() < 1) {
    err << "error: --queue-bound must be a positive integer\n";
    return 1;
  }
  if (!idempotency_window.ok() || idempotency_window.value() < 0) {
    err << "error: --idempotency-window must be a non-negative integer\n";
    return 1;
  }

  platform::PlatformConfig config;
  config.horizon = bundle->trace.horizon().end;
  config.remine_interval = remine_days.value() * kMinutesPerDay;
  config.mining_window = window_days.value() * kMinutesPerDay;
  config.async_remine = flags.Has("async-remine");
  if (!MineThreadsFromFlags(flags, err, config.mining.parallel)) return 1;
  if (!DeltaMineFromFlags(flags, err, config.mining.delta)) return 1;

  net::ServerLimits limits;
  limits.max_queue_depth = static_cast<std::size_t>(queue_bound.value());
  const auto shards = flags.GetInt("shards", 1);
  if (!shards.ok() || shards.value() < 1) {
    err << "error: --shards must be a positive integer\n";
    return 1;
  }
  if (shards.value() > 1) {
    return ServeSharded(*bundle, config, flags,
                        static_cast<std::size_t>(shards.value()), limits,
                        static_cast<std::size_t>(idempotency_window.value()),
                        checkpoint_days.value() * kMinutesPerDay, out, err);
  }

  platform::Platform engine{bundle->model, config};

  std::optional<platform::durability::DurableState> durable;
  if (const auto dir = flags.Get("state-dir")) {
    platform::durability::DurableState::Options options;
    options.checkpoint_interval = checkpoint_days.value() * kMinutesPerDay;
    durable.emplace(*dir, options);
    if (const auto opened = durable->Open(); !opened.ok()) {
      err << "error: " << opened.error().ToString() << "\n";
      return 2;
    }
    auto recovered = durable->Recover(engine);
    if (!recovered.ok()) {
      err << "error: " << recovered.error().ToString() << "\n";
      return 2;
    }
    PrintRecoveryReport(recovered.value(), out);
  }

  server::PlatformServer::Options handler_options;
  handler_options.durable = durable ? &*durable : nullptr;
  handler_options.idempotency_window =
      static_cast<std::size_t>(idempotency_window.value());
  server::PlatformServer handler{engine, handler_options};
  net::ServerCore core{handler, limits};
  handler.set_core(&core);
  net::SocketServer::Options socket_options;
  socket_options.host = flags.GetOr("host", "127.0.0.1");
  socket_options.port = static_cast<std::uint16_t>(port.value());
  net::SocketServer sock{core, socket_options};
  if (const auto listening = sock.Listen(); !listening.ok()) {
    err << "error: " << listening.error().ToString() << "\n";
    return 2;
  }
  out << "serving " << bundle->model.num_functions() << " functions on "
      << socket_options.host << ":" << sock.port()
      << (config.async_remine ? " (async re-mining)" : "")
      << (durable ? " (durable)" : "") << "\n";
  out.flush();

  ResetShutdownFlag();
  InstallShutdownSignalHandlers();
  while (!ShutdownRequested()) {
    if (const auto polled = sock.PollOnce(200); !polled.ok()) {
      err << "error: " << polled.error().ToString() << "\n";
      break;
    }
  }

  // Drain: stop accepting, reject new requests, flush what is buffered
  // (bounded — a peer that never reads cannot hold shutdown hostage),
  // finish any background re-mine, take the final checkpoint.
  out << "shutting down: draining " << core.open_connections()
      << " connections\n";
  sock.StopAccepting();
  core.BeginDrain();
  for (int i = 0; i < 100 && !(core.idle() && sock.flushed()); ++i) {
    if (const auto polled = sock.PollOnce(20); !polled.ok()) break;
  }
  if (const auto drained = handler.Drain(); !drained.ok()) {
    err << "warning: final checkpoint failed: " << drained.error().ToString()
        << "\n";
  }
  sock.CloseAll();
  const auto& stats = engine.stats();
  out << "served " << core.stats().requests_handled << " requests ("
      << core.stats().requests_shed << " backpressure-shed, "
      << core.stats().requests_shed_overflow << " overflow-shed, "
      << core.stats().requests_expired + handler.deadline_rejections()
      << " deadline-expired, " << handler.duplicates_served()
      << " duplicates replayed); " << stats.invocations
      << " invocations, cold " << stats.cold_fraction() << ", "
      << stats.remines << " re-mines\n";
  if (const auto* acc = engine.delta_accumulator()) {
    out << "delta mining: " << acc->books().delta_mines << " delta mines, "
        << acc->books().full_rebuilds << " full rebuilds, "
        << acc->books().aborted_deltas << " rolled back\n";
  }
  if (handler.journal_failures() > 0) {
    err << "warning: " << handler.journal_failures()
        << " journal appends failed (those events were lossy)\n";
  }
  return 0;
}

int CmdDrive(const FlagParser& flags, std::ostream& out, std::ostream& err) {
  const auto bundle = LoadTrace(flags, err);
  if (!bundle) return 1;
  const auto port = flags.GetInt("port", 0);
  if (!port.ok() || port.value() <= 0 || port.value() > 65535) {
    err << "error: --port is required (the port serve printed)\n";
    return 1;
  }
  auto channel = net::SocketChannel::Connect(
      flags.GetOr("host", "127.0.0.1"),
      static_cast<std::uint16_t>(port.value()));
  if (!channel.ok()) {
    err << "error: " << channel.error().ToString() << "\n";
    return 2;
  }
  server::Client client{std::move(channel).value()};

  // Same minute-index walk as replay, so the per-day lines of a driven
  // daemon are byte-comparable with a local replay of the same trace.
  const auto index = bundle->trace.BuildMinuteIndex(bundle->trace.horizon());
  std::uint64_t day_invocations = 0, day_cold = 0;
  Minute day = 0;
  out << "day,invocations,cold_fraction\n";
  for (Minute t = 0; t < bundle->trace.horizon().end; ++t) {
    for (const auto& [fn, count] : index.at(t)) {
      const auto outcome = client.Invoke(fn, t);
      if (!outcome.ok()) {
        err << "error: invoke(" << fn.value() << ", " << t
            << ") failed: " << outcome.error().ToString() << "\n";
        return 2;
      }
      ++day_invocations;
      day_cold += outcome.value().cold ? 1u : 0u;
    }
    if ((t + 1) % kMinutesPerDay == 0 ||
        t + 1 == bundle->trace.horizon().end) {
      char line[96];
      std::snprintf(line, sizeof line, "%lld,%llu,%.4f\n",
                    static_cast<long long>(day),
                    static_cast<unsigned long long>(day_invocations),
                    day_invocations == 0
                        ? 0.0
                        : static_cast<double>(day_cold) /
                              static_cast<double>(day_invocations));
      out << line;
      day_invocations = day_cold = 0;
      ++day;
    }
  }
  const auto stats = client.Stats();
  if (!stats.ok()) {
    err << "error: stats failed: " << stats.error().ToString() << "\n";
    return 2;
  }
  out << "server total: " << stats.value().stats.invocations
      << " invocations, cold " << stats.value().stats.cold_fraction() << ", "
      << stats.value().stats.remines << " re-mines\n";
  return 0;
}

int CmdHealth(const FlagParser& flags, std::ostream& out, std::ostream& err) {
  const auto port = flags.GetInt("port", 0);
  if (!port.ok() || port.value() <= 0 || port.value() > 65535) {
    err << "error: --port is required (the port serve printed)\n";
    return 1;
  }
  auto channel = net::SocketChannel::Connect(
      flags.GetOr("host", "127.0.0.1"),
      static_cast<std::uint16_t>(port.value()));
  if (!channel.ok()) {
    err << "error: " << channel.error().ToString() << "\n";
    return 2;
  }
  server::Client client{std::move(channel).value()};
  const auto hello = client.Hello();
  if (!hello.ok()) {
    err << "error: hello failed: " << hello.error().ToString() << "\n";
    return 2;
  }
  const auto health = client.Health();
  if (!health.ok()) {
    err << "error: health probe failed: " << health.error().ToString()
        << "\n";
    return 2;
  }
  const auto& h = health.value();
  // Named conditions a prober alerts on. "recovering" is the residual
  // not-ready cause: the daemon is up but recovery has not completed
  // and no drain is in progress.
  std::vector<std::string> conditions;
  if (h.draining) conditions.push_back("draining");
  if (h.degraded_graph) conditions.push_back("degraded-graph");
  if (h.stale_graph_minutes > 0) conditions.push_back("stale-graph");
  if (!h.ready && !h.draining) conditions.push_back("recovering");
  if (flags.Has("json")) {
    out << "{\"ready\":" << (h.ready ? "true" : "false")
        << ",\"draining\":" << (h.draining ? "true" : "false")
        << ",\"remine_in_flight\":" << (h.remine_in_flight ? "true" : "false")
        << ",\"degraded_graph\":" << (h.degraded_graph ? "true" : "false")
        << ",\"queue_depth\":" << h.queue_depth
        << ",\"idempotency_entries\":" << h.idempotency_entries
        << ",\"stale_graph_minutes\":" << h.stale_graph_minutes
        << ",\"clock_minute\":" << h.clock_minute << ",\"conditions\":[";
    for (std::size_t i = 0; i < conditions.size(); ++i) {
      out << (i > 0 ? "," : "") << "\"" << conditions[i] << "\"";
    }
    out << "]}\n";
  } else {
    out << "ready: " << (h.ready ? "yes" : "no") << "\n"
        << "draining: " << (h.draining ? "yes" : "no") << "\n"
        << "remine in flight: " << (h.remine_in_flight ? "yes" : "no") << "\n"
        << "degraded graph: " << (h.degraded_graph ? "yes" : "no") << "\n"
        << "queue depth: " << h.queue_depth << "\n"
        << "idempotency entries: " << h.idempotency_entries << "\n"
        << "stale graph minutes: " << h.stale_graph_minutes << "\n"
        << "clock minute: " << h.clock_minute << "\n";
    if (!conditions.empty()) {
      out << "conditions:";
      for (const auto& c : conditions) out << " " << c;
      out << "\n";
    }
  }
  return h.ready ? 0 : 2;
}

}  // namespace

std::vector<std::string> SplitSpecList(const std::string& text) {
  std::vector<std::string> specs;
  std::istringstream stream{text};
  std::string token;
  while (std::getline(stream, token, ',')) {
    // Spec parameters also use ',', so a token may be the next parameter
    // of the previous spec ("window=3" after "hiku:delay=2") rather than
    // a spec of its own. A parameter has a '=' and no ':' before it; a
    // spec names its policy first, so "spes:tier=cost" starts a new one.
    const std::size_t eq = token.find('=');
    const bool is_param = eq != std::string::npos && token.find(':') > eq;
    if (is_param && !specs.empty() &&
        specs.back().find(':') != std::string::npos) {
      specs.back() += ',';
      specs.back() += token;
      continue;
    }
    if (!token.empty()) specs.push_back(token);
  }
  return specs;
}

int RunCli(std::span<const std::string> args, std::ostream& out,
           std::ostream& err) {
  if (args.empty() || args[0] == "help" || args[0] == "--help") {
    out << kUsage;
    return args.empty() ? 1 : 0;
  }
  const std::string& command = args[0];
  const FlagParser flags{args.subspan(1)};
  if (command == "generate") return CmdGenerate(flags, out, err);
  if (command == "inspect") return CmdInspect(flags, out, err);
  if (command == "mine") return CmdMine(flags, out, err);
  if (command == "simulate") return CmdSimulate(flags, out, err);
  if (command == "sweep") return CmdSweep(flags, out, err);
  if (command == "filter") return CmdFilter(flags, out, err);
  if (command == "replay") return CmdReplay(flags, out, err);
  if (command == "recover") return CmdRecover(flags, out, err);
  if (command == "fsck") return CmdFsck(flags, out, err);
  if (command == "serve") return CmdServe(flags, out, err);
  if (command == "route") return CmdRoute(flags, out, err);
  if (command == "drive") return CmdDrive(flags, out, err);
  if (command == "health") return CmdHealth(flags, out, err);
  if (command == "compare") return CmdCompare(flags, out, err);
  if (command == "arena") return CmdArena(flags, out, err);
  if (command == "policies") return CmdPolicies(out);
  if (command == "scenarios") return CmdScenarios(out);
  err << "error: unknown command '" << command << "'\n" << kUsage;
  return 1;
}

}  // namespace defuse::cli
